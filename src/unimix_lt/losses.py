"""Cross-entropy variants for long-tailed training, with analytic gradients.

The central loss adds a per-class margin to the logits before the softmax
to compensate the mismatch between the training label prior pi and the
target (test-time) prior pi', scaled by tau (`la_tau`, default 1):

    margin_y = tau * (ln(pi_y) - ln(pi'_y)),

which vanishes when the priors agree or tau = 0. Toward a balanced target
it is logit adjustment, tau * ln(pi_y) up to a constant the softmax ignores.
The margin is a training-time device only; inference uses the raw logits.

The comparison zoo covers the usual suspects: focal reweighting,
effective-number (class-balanced) weights, per-class logit temperatures
and a true-class-only margin scaled by n^(-1/4). A `LossSpec` validates
its kind's parameters and fixes them once per run as a margin on every
logit (bayias_ce), a margin on the true logit only (ldam), a per-class
temperature `scale` (cdt) or per-class `weights` (cb). Each kind's loss
is w_y * -log softmax(u)_y of the transformed logits u, focal's times
(1 - p_y)^gamma. Every kind has the one gradient
w * (softmax(u) - e_y) / scale: w is w_y, or for focal the per-row weight
(1 - p_y)^gamma - gamma * (1 - p_y)^(gamma - 1) * p_y * ln(p_y). The
per-class temperature rescales logits rather than shifting them, so cdt
alone breaks softmax shift invariance and simplex-tangent gradients.

Natural log throughout. `step_loss` and `batch_grad` are the one
evaluation path: they take an (N, C) logit matrix and N labels in [0, C),
and a single logit vector is the N = 1 case. `step_loss` takes a step's
weighted labels, (y_i, xi) and (y_j, 1 - xi) for a mixed pair, and computes
the transformed logits and their log-sum-exp once for all of them (ldam's
transform depends on the label: once per label); `batch_loss` is its
one-label case. `batch_grad` runs once per label.
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
    "bayias_margin",
    "step_loss",
    "batch_grad",
]

LOSS_KINDS = ("ce", "bayias_ce", "focal", "cb", "cdt", "ldam")


def softmax(z: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis; rows sum to 1. Works in place
    on one new array, so `z` is left as it was."""
    z = np.asarray(z, dtype=np.float64)
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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


@dataclass(frozen=True, eq=False)
class LossSpec:
    """Tagged loss selection with its per-kind parameters.

    `class_counts` feeds cb/cdt/ldam; `prior`, `target_prior` (balanced
    when None) and `la_tau` feed the bayias_ce margin.
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
        if self.kind == "bayias_ce" and self.prior is None:
            raise ValueError(f"{self.kind} loss needs the training prior")
        if self.kind in ("cb", "cdt", "ldam"):
            if self.class_counts is None:
                raise ValueError(f"{self.kind} loss needs class_counts")
            counts = np.asarray(self.class_counts, dtype=np.float64)
        # fail fast on bad parameters; each kind's logit transform is fixed once per run
        margins = true_margins = scale = weights = None
        if self.kind == "bayias_ce":
            margins = self.la_tau * bayias_margin(self.prior, self.target_prior)
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


def _true_class(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat index of each row's true-class entry in an (N, C) matrix, row by row."""
    return np.arange(0, u.size, u.shape[-1]) + y


def _logits(spec: LossSpec, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The logits u the softmax sees: z + margins, z less the true-class margin, or z / scale."""
    if spec.margins is not None:
        return z + spec.margins
    if spec.true_margins is not None:
        u = z.copy()
        u.ravel()[_true_class(u, y)] -= spec.true_margins[y]
        return u
    if spec.scale is not None:
        return z / spec.scale
    return z


def step_loss(spec: LossSpec, z: np.ndarray, labels) -> np.ndarray:
    """Per-sample loss of a step for an (N, C) logit matrix and its weighted
    labels, a sequence of (y, w): the sum of w * loss(y) in label order, the
    first term plus the second."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    total = u = None
    for y, w in labels:
        y = np.atleast_1d(np.asarray(y, dtype=np.int64))
        if u is None or spec.true_margins is not None:
            u = _logits(spec, z, y)
            m = u.max(axis=-1)
            e = u - m[:, None]
            lse = np.log(np.exp(e, out=e).sum(axis=-1)) + m
        loss = lse - u.take(_true_class(u, y))  # -log softmax(u)_y
        if spec.kind == "focal":
            loss *= (1.0 - np.exp(-loss)) ** spec.gamma  # exactly 1.0 at gamma = 0
        if spec.weights is not None:
            loss *= spec.weights[y]
        loss *= w  # exact at a plain step's w = 1.0
        total = loss if total is None else total + loss
    return total


def batch_loss(spec: LossSpec, z: np.ndarray, y) -> np.ndarray:
    """Per-sample loss values for an (N, C) logit matrix and (N,) labels:
    the one-label `step_loss`."""
    return step_loss(spec, z, ((y, 1.0),))


def batch_grad(spec: LossSpec, z: np.ndarray, y) -> np.ndarray:
    """Per-sample gradients d loss / d logits, shape (N, C)."""
    z = np.atleast_2d(np.ascontiguousarray(z, dtype=np.float64))  # for `g.ravel()` below
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    g = softmax(_logits(spec, z, y))
    true = _true_class(g, y)
    w = None if spec.weights is None else spec.weights[y]
    if spec.kind == "focal" and spec.gamma != 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p = np.log(g.take(true))
            p_y = np.exp(log_p)
            w = (1.0 - p_y) ** spec.gamma \
                - spec.gamma * (1.0 - p_y) ** (spec.gamma - 1.0) * p_y * log_p
        # where p_y rounds to 1 or 0 the formula meets 0 * inf; use its limits there
        w[p_y == 1.0] = 0.0
        w[p_y == 0.0] = 1.0
    g.ravel()[true] -= 1.0
    if w is not None:
        g *= w[:, None]
    if spec.scale is not None:
        g /= spec.scale
    return g
