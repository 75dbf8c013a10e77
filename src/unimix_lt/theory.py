"""Exponential long-tailed class model and closed-form mixed-sample densities.

A long-tailed (LT) training set with C classes and imbalance factor rho
(head count / tail count) is modeled as an exponential decay over the
continuous class index y in [1, C]:

    p(y) = lam / (exp(-lam) - exp(-lam*C)) * exp(-lam*y),
    lam  = ln(rho) / (C - 1).

On top of this model, three closed-form densities describe which class a
mixed virtual sample ends up reinforcing (the class that receives mixing
weight >= 0.5), under three augmentation pipelines:

* plain beta mixing with two random draws -- identical to p(y) itself;
* prior-aware mixing factor with two random draws -- a middle-majority
  curve that vanishes at the head and peaks strictly inside (1, C);
* prior-aware factor plus inverse pair sampling with exponent tau -- a
  tail-majority curve, monotone nondecreasing for tau = -1.

The discrete prior is used for sampling and training; the continuous
evaluators exist to validate the Monte Carlo pipeline and to emit curve
data. The middle- and tail-majority forms are derived with a hard
threshold approximation, so they are shape oracles for the empirical
histograms, not exact targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LTSpec",
    "DensityCurve",
    "CURVE_KINDS",
    "lambda_from_rho",
    "check_prior",
    "discrete_lt_prior",
    "continuous_lt_density",
    "factor_density",
    "unimix_density",
    "emit_density_curves",
]

PRIOR_SUM_TOL = 1e-12

CURVE_KINDS = ("original", "mixup", "unimix_factor", "unimix_full")


def lambda_from_rho(rho: float, num_classes: int) -> float:
    """Decay rate of the exponential class-count model: ln(rho)/(C-1).

    rho = 1 (balanced data) gives 0.
    """
    if rho < 1:
        raise ValueError(f"imbalance factor must be >= 1, got {rho}")
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    return math.log(rho) / (num_classes - 1)


@dataclass(frozen=True)
class LTSpec:
    """Exponential long-tailed model: C classes, imbalance rho, sampler exponent tau."""

    num_classes: int
    rho: float
    tau: float = -1.0

    def __post_init__(self):
        lambda_from_rho(self.rho, self.num_classes)  # validates rho and C

    @property
    def lam(self) -> float:
        """Decay rate ln(rho)/(C-1); 0 in the balanced case."""
        return lambda_from_rho(self.rho, self.num_classes)


def check_prior(probs: np.ndarray, require_positive: bool = False) -> np.ndarray:
    """Validate a per-class probability vector; returns it as float64."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("class prior must be a vector of at least 2 entries")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("class prior entries must be finite and nonnegative")
    if require_positive and np.any(p <= 0):
        raise ValueError("class prior entries must be strictly positive")
    if abs(p.sum() - 1.0) > PRIOR_SUM_TOL:
        raise ValueError(f"class prior sums to {p.sum()!r}, expected 1 within {PRIOR_SUM_TOL}")
    return p


def discrete_lt_prior(spec: LTSpec) -> np.ndarray:
    """Per-class probabilities pi_i proportional to exp(-lam*i), i = 1..C.

    Head/tail ratio pi_1/pi_C equals rho; the balanced case is uniform.
    """
    lam = spec.lam
    if lam == 0.0:
        probs = np.full(spec.num_classes, 1.0 / spec.num_classes)
    else:
        idx = np.arange(1, spec.num_classes + 1, dtype=np.float64)
        # subtract the head exponent before exponentiating to avoid underflow
        weights = np.exp(-lam * (idx - 1.0))
        probs = weights / weights.sum()
    return check_prior(probs, require_positive=True)


def _check_domain(y: np.ndarray, spec: LTSpec) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if np.any(y < 1.0) or np.any(y > spec.num_classes):
        raise ValueError(f"class index must lie in [1, {spec.num_classes}]")
    return y


def continuous_lt_density(y, spec: LTSpec):
    """Continuous LT density lam/(e^-lam - e^-lam*C) * e^(-lam*y) on [1, C].

    Integrates to 1 over [1, C]; density(1)/density(C) = rho. The balanced
    limit (lam = 0) is the uniform density 1/(C-1).
    """
    y = _check_domain(y, spec)
    lam, c = spec.lam, spec.num_classes
    if lam == 0.0:
        out = np.full_like(y, 1.0 / (c - 1))
    else:
        out = lam / (math.exp(-lam) - math.exp(-lam * c)) * np.exp(-lam * y)
    return out if out.ndim else float(out)


def _require_imbalanced(spec: LTSpec) -> float:
    lam = spec.lam
    if lam == 0.0:
        raise ValueError("mixed-sample closed forms require rho > 1")
    return lam


def factor_density(y, spec: LTSpec):
    """Mixed-class density with the prior-aware factor and random pairing.

    Unit-normalized form of

        lam / (e^-lam - e^-lam*C)^2 * (e^(-lam*(y+1)) - e^(-2*lam*y)),

    which integrates to exactly 1/2 over [1, C] (the raw expression counts
    only one of the two symmetric pair orderings), so the normalized
    density is twice the raw value. It vanishes at y = 1 and has a single
    interior maximum at y = ln(2)/lam + 1: the middle-majority shape.
    """
    y = _check_domain(y, spec)
    lam = _require_imbalanced(spec)
    c = spec.num_classes
    d = math.exp(-lam) - math.exp(-lam * c)
    raw = lam / d**2 * (np.exp(-lam * (y + 1.0)) - np.exp(-2.0 * lam * y))
    out = 2.0 * raw
    return out if out.ndim else float(out)


def unimix_density(y, spec: LTSpec):
    """Mixed-class density with the prior-aware factor and inverse pairing.

    Unit-normalized form of

        lam / ((e^-lam - e^-lam*C) * (e^(-lam*tau*C) - e^(-lam*tau)))
            * (e^(-lam*y*(tau+1)) - e^(-lam*(tau+y))),

    where the pair partner is drawn with probability proportional to the
    prior raised to tau. For tau = -1 this reduces (after normalization)
    to (1 - e^(-lam*(y-1))) / Z: zero at the head and monotone
    nondecreasing toward the tail. tau = 0 makes the expression singular
    and is rejected; the tau = 0 sampler itself is fine, only this closed
    form is undefined there.
    """
    y = _check_domain(y, spec)
    lam = _require_imbalanced(spec)
    tau, c = spec.tau, spec.num_classes
    if tau == 0.0:
        raise ValueError("closed-form mixed density is undefined at tau = 0")
    numer = np.exp(-lam * y * (tau + 1.0)) - np.exp(-lam * (tau + y))
    # analytic integral of `numer` over [1, C]
    if tau == -1.0:
        term1 = float(c - 1)
    else:
        term1 = (math.exp(-lam * (tau + 1.0)) - math.exp(-lam * c * (tau + 1.0))) / (
            lam * (tau + 1.0)
        )
    term2 = math.exp(-lam * tau) * (math.exp(-lam) - math.exp(-lam * c)) / lam
    out = numer / (term1 - term2)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DensityCurve:
    """One sampled density curve: kind plus (y, density) grid points."""

    kind: str
    y: np.ndarray
    density: np.ndarray


_KIND_TO_DENSITY = {
    "original": continuous_lt_density,
    # plain beta mixing with both members drawn from the LT prior leaves it unchanged
    "mixup": continuous_lt_density,
    "unimix_factor": factor_density,
    "unimix_full": unimix_density,
}


def emit_density_curves(spec: LTSpec, resolution: int) -> list[DensityCurve]:
    """All four density curves sampled on a uniform grid over [1, C]."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    grid = np.linspace(1.0, float(spec.num_classes), resolution)
    return [DensityCurve(kind, grid, np.asarray(_KIND_TO_DENSITY[kind](grid, spec)))
            for kind in CURVE_KINDS]
