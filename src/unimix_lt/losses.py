"""Cross-entropy variants for long-tailed training, with analytic gradients.

The central loss adds a per-class margin to the logits before the softmax
to compensate the mismatch between the training label prior pi and the
target (test-time) prior pi':

    margin_y = ln(pi_y) - ln(pi'_y),

which for a balanced target reduces to ln(pi_y) + ln(C) and vanishes when
train and target priors agree. The margin is a training-time device only;
inference uses the raw logits.

The comparison zoo covers the usual suspects: focal reweighting,
effective-number (class-balanced) weights, per-class logit temperatures,
a true-class-only margin scaled by n^(-1/4), and the prior-scaled margin
on every logit. A `LossSpec` validates its kind's parameters and fixes
them once per run as a margin on every logit (bayias_ce, la), a margin on
the true logit only (ldam), a per-class temperature `scale` (cdt) or
per-class `weights` (cb). Every kind but focal then shares one path: the
loss is w_y * -log softmax(u)_y of the transformed logits u, and its
gradient is w_y * (softmax(u) - e_y) / scale. The per-class temperature
rescales logits rather than shifting them, so cdt alone breaks softmax
shift invariance and simplex-tangent gradients.

Natural log throughout. `batch_loss` and `batch_grad` are the one
evaluation path: they take an (N, C) logit matrix and N labels, and a
single logit vector is the N = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .theory import check_prior

__all__ = [
    "LossSpec",
    "LOSS_KINDS",
    "softmax",
    "log_softmax",
    "bayias_margin",
    "batch_loss",
    "batch_grad",
]

LOSS_KINDS = ("ce", "bayias_ce", "focal", "cb", "cdt", "ldam", "la")


def softmax(z: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis; rows sum to 1. Works in place
    on one new array, so `z` is left as it was."""
    z = np.asarray(z, dtype=np.float64)
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def bayias_margin(train_prior: np.ndarray, target_prior: np.ndarray | None = None) -> np.ndarray:
    """Per-class margin ln(pi) - ln(pi'); balanced target when pi' is None.

    Zero everywhere when the two priors coincide (in particular for a
    uniform train prior with a balanced target).
    """
    pi = check_prior(train_prior, require_positive=True)
    if target_prior is None:
        return np.log(pi) + math.log(pi.shape[0])
    pi_target = check_prior(target_prior, require_positive=True)
    if pi_target.shape != pi.shape:
        raise ValueError("train and target priors must have the same length")
    return np.log(pi) - np.log(pi_target)


def _nll(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-log softmax(u)_y for each row of an (N, C) logit matrix."""
    m = u.max(axis=-1, keepdims=True)
    lse = (m + np.log(np.exp(u - m).sum(axis=-1, keepdims=True)))[..., 0]
    return lse - u[np.arange(u.shape[0]), y]


@dataclass(frozen=True, eq=False)
class LossSpec:
    """Tagged loss selection with its per-kind parameters.

    `class_counts` feeds cb/cdt/ldam, `prior` feeds the margin losses;
    `target_prior` (margin loss only) defaults to a balanced target.
    Construction fixes the kind's logit transform in `margins`,
    `true_margins`, `scale` and `weights`, each None where the kind has none.
    """

    kind: str
    gamma: float = 1.0
    beta: float = 0.999
    ldam_c: float = 0.5
    la_tau: float = 1.0
    class_counts: np.ndarray | None = None
    prior: np.ndarray | None = None
    target_prior: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"loss kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        if self.kind in ("bayias_ce", "la") and self.prior is None:
            raise ValueError(f"{self.kind} loss needs the training prior")
        if self.kind in ("cb", "cdt", "ldam"):
            if self.class_counts is None:
                raise ValueError(f"{self.kind} loss needs class_counts")
            counts = np.asarray(self.class_counts, dtype=np.float64)
        # fail fast on bad parameters; each kind's logit transform is fixed once per run
        margins = true_margins = scale = weights = None
        if self.kind == "bayias_ce":
            margins = bayias_margin(self.prior, self.target_prior)
        elif self.kind == "la":
            margins = self.la_tau * np.log(check_prior(self.prior, require_positive=True))
        elif self.kind == "focal" and not self.gamma >= 0:
            raise ValueError(f"focal gamma must be >= 0, got {self.gamma}")
        elif self.kind == "cb":
            if not 0.0 <= self.beta < 1.0:
                raise ValueError(f"effective-number beta must be in [0, 1), got {self.beta}")
            weights = (1.0 - self.beta) / (1.0 - self.beta**counts)
        elif self.kind == "cdt":
            if not self.gamma >= 0:
                raise ValueError(f"temperature gamma must be >= 0, got {self.gamma}")
            scale = (counts.max() / counts) ** self.gamma
        elif self.kind == "ldam":
            if not self.ldam_c > 0:
                raise ValueError(f"margin constant must be positive, got {self.ldam_c}")
            true_margins = self.ldam_c / counts**0.25
        for name, value in (("margins", margins), ("true_margins", true_margins),
                            ("scale", scale), ("weights", weights)):
            object.__setattr__(self, name, value)


def _logits(spec: LossSpec, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The logits u the softmax sees: z + margins, z less the true-class margin, or z / scale."""
    if spec.margins is not None:
        return z + spec.margins
    if spec.true_margins is not None:
        u = z.copy()
        u[np.arange(u.shape[0]), y] -= spec.true_margins[y]
        return u
    if spec.scale is not None:
        return z / spec.scale
    return z


def batch_loss(spec: LossSpec, z: np.ndarray, y) -> np.ndarray:
    """Per-sample loss values for an (N, C) logit matrix and (N,) labels."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if spec.kind == "focal" and spec.gamma != 0.0:
        log_p = np.take_along_axis(log_softmax(z), y[:, None], axis=1)[:, 0]
        return -((1.0 - np.exp(log_p)) ** spec.gamma) * log_p
    nll = _nll(_logits(spec, z, y), y)
    return nll if spec.weights is None else spec.weights[y] * nll


def batch_grad(spec: LossSpec, z: np.ndarray, y) -> np.ndarray:
    """Per-sample gradients d loss / d logits, shape (N, C)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    rows = np.arange(z.shape[0])
    if spec.kind == "focal" and spec.gamma != 0.0:
        p = softmax(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p = np.log(p[rows, y])
            p_y = np.exp(log_p)
            coef = spec.gamma * (1.0 - p_y) ** (spec.gamma - 1.0) * p_y * log_p \
                - (1.0 - p_y) ** spec.gamma
        # where p_y rounds to 1 or 0 the formula meets 0 * inf; use its limits there
        coef[p_y == 1.0] = 0.0
        coef[p_y == 0.0] = -1.0
        onehot = np.zeros_like(p)
        onehot[rows, y] = 1.0
        return coef[:, None] * (onehot - p)
    g = softmax(_logits(spec, z, y))
    g[rows, y] -= 1.0
    if spec.weights is not None:
        g *= spec.weights[y][:, None]
    if spec.scale is not None:
        g /= spec.scale
    return g
