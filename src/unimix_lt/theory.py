"""Exponential long-tailed class model and closed-form mixed-sample densities.

A long-tailed (LT) training set with C classes and imbalance factor rho
(head count / tail count) is modeled as an exponential decay over the
continuous class index y in [1, C]:

    p(y) = lam / (exp(-lam) - exp(-lam*C)) * exp(-lam*y),
    lam  = ln(rho) / (C - 1).

On top of this model, one closed form describes which class a mixed
virtual sample ends up reinforcing (the class that receives mixing weight
>= 0.5): the prior-aware mixing factor with a pair partner drawn
proportionally to the prior raised to tau (`unimix_density`). The paper's
three augmentation pipelines give its curves:

* plain beta mixing with two random draws -- identical to p(y) itself;
* prior-aware factor with random pairing -- the tau = 1 case, a
  middle-majority curve that vanishes at the head and peaks strictly
  inside (1, C);
* prior-aware factor plus inverse pair sampling -- a tail-majority curve,
  monotone nondecreasing for tau = -1.

The discrete prior is used for sampling and training; the continuous
evaluators exist to validate the Monte Carlo pipeline and to emit curve
data. Each takes class indices in [1, C] and returns the density at each,
or raises ValueError where the form is undefined: the mixed-class one at
rho = 1, either one where float64 cannot represent it. The mixed-class
form rests on a hard threshold approximation: a shape oracle for the
empirical histograms, not an exact target.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "LTSpec",
    "DensityCurve",
    "CURVE_KINDS",
    "lambda_from_rho",
    "check_prior",
    "discrete_lt_prior",
    "continuous_lt_density",
    "unimix_density",
    "emit_density_curves",
]

PRIOR_SUM_TOL = 1e-12

CURVE_KINDS = ("original", "mixup", "unimix_factor", "unimix_full")


def lambda_from_rho(rho: float, num_classes: int) -> float:
    """Decay rate of the exponential class-count model: ln(rho)/(C-1).

    rho = 1 (balanced data) gives 0.
    """
    if not rho >= 1:  # NaN fails too
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
    lo, hi = p.min(), p.max()
    # NaN fails the first comparison: min and max propagate it
    if not (lo >= 0.0 and hi < math.inf):
        raise ValueError("class prior entries must be finite and nonnegative")
    if require_positive and lo <= 0.0:
        raise ValueError("class prior entries must be strictly positive")
    total = p.sum()
    if abs(total - 1.0) > PRIOR_SUM_TOL:
        raise ValueError(f"class prior sums to {total!r}, expected 1 within {PRIOR_SUM_TOL}")
    return p


def discrete_lt_prior(spec: LTSpec) -> np.ndarray:
    """Per-class probabilities pi_i proportional to exp(-lam*i), i = 1..C.

    Head/tail ratio pi_1/pi_C equals rho; the balanced case is uniform.
    """
    idx = np.arange(1, spec.num_classes + 1, dtype=np.float64)
    # subtract the head exponent before exponentiating to avoid underflow
    weights = np.exp(-spec.lam * (idx - 1.0))
    return check_prior(weights / weights.sum(), require_positive=True)


def _closed_form(density):
    """`density(y, spec)` for y in [1, C], in float64 without warnings; a
    result that is not finite and nonnegative (inf, NaN or a negative value)
    makes the form undefined at `spec`, a ValueError."""

    @functools.wraps(density)
    def evaluate(y, spec: LTSpec):
        y = np.asarray(y, dtype=np.float64)
        if np.any(y < 1.0) or np.any(y > spec.num_classes):
            raise ValueError(f"class index must lie in [1, {spec.num_classes}]")
        with np.errstate(all="ignore"):
            values = density(y, spec)
        if not (np.min(values) >= 0.0 and np.max(values) < math.inf):
            raise ValueError(f"{density.__name__} is not a finite, nonnegative float64 at {spec}")
        return values

    return evaluate


def _mass(x, m):
    """Integral of e^(-x*s) over [0, m], m a scalar or an array: m at x = 0, else
    -expm1(-x*m)/x, which is inf, not an OverflowError, for large negative x."""
    return -np.expm1(-x * m) / x if x else m


@_closed_form
def continuous_lt_density(y, spec: LTSpec):
    """Continuous LT density lam/(e^-lam - e^-lam*C) * e^(-lam*y) on [1, C].

    Integrates to 1 over [1, C]; density(1)/density(C) = rho. The balanced
    limit (lam = 0) is the uniform density 1/(C-1). Evaluated in the
    head-shifted s = y - 1 as e^(-lam*s) / mass(lam), so no exponent is positive.
    """
    return np.exp(-spec.lam * (y - 1.0)) / _mass(spec.lam, spec.num_classes - 1)


@_closed_form
def unimix_density(y, spec: LTSpec):
    """Mixed-class density with the prior-aware factor and pairing by prior^tau.

    Unit-normalized form of

        lam / ((e^-lam - e^-lam*C) * (e^(-lam*tau*C) - e^(-lam*tau)))
            * (e^(-lam*y*(tau+1)) - e^(-lam*(tau+y))),

    zero at the head for every tau. In s = y - 1 and M = C - 1 it is
    e^(-lam*s) expm1(-lam*tau*s) / (mass(lam*(tau+1)) - mass(lam)), with
    mass(x) the integral of e^(-x*s) over [0, M]. Random pairing, tau = 1, is
    the factor-only curve: middle-majority, peaking at y = ln(2)/lam + 1.
    tau = -1 reduces to (1 - e^(-lam*s)) / Z: monotone nondecreasing toward
    the tail. For |tau| < 1/2 the exact identity mass(lam(1+tau)) - mass(lam) =
    -lam tau (mass(lam) - e^(-lam M) mass(lam tau)) / (lam(1+tau)), with expm1(-lam tau s)
    = -lam tau mass_s(lam tau) (mass over [0, s]), lets nothing cancel as tau -> 0.
    """
    lam, tau, m = spec.lam, spec.tau, spec.num_classes - 1
    s = y - 1.0
    if abs(tau) < 0.5:
        return (lam * (1.0 + tau) * np.exp(-lam * s) * _mass(lam * tau, s)
                / (_mass(lam, m) - math.exp(-lam * m) * _mass(lam * tau, m)))
    norm = _mass(lam * (tau + 1.0), m) - _mass(lam, m)
    if norm == math.inf:  # every value would read 0: leave the form undefined instead
        norm = math.nan
    return np.exp(-lam * s) * np.expm1(-lam * tau * s) / norm


@dataclass(frozen=True)
class DensityCurve:
    """One sampled density curve: kind plus (y, density) grid points."""

    kind: str
    y: np.ndarray
    density: np.ndarray


def emit_density_curves(spec: LTSpec, resolution: int) -> list[DensityCurve]:
    """The curves of `CURVE_KINDS` whose closed form has a value at `spec`
    (the mixed-class ones need rho > 1), on a uniform grid over [1, C]."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    grid = np.linspace(1.0, float(spec.num_classes), resolution)
    # plain beta mixing leaves the LT prior unchanged; random pairing is tau = 1
    laws = [(continuous_lt_density, spec)] * 2 + [(unimix_density, replace(spec, tau=1.0)),
                                                  (unimix_density, spec)]
    curves = []
    for kind, (density, at) in zip(CURVE_KINDS, laws):
        try:
            curves.append(DensityCurve(kind, grid, density(grid, at)))
        except ValueError:  # undefined at `at`
            pass
    return curves
