"""Class samplers: plain categorical draws and the tau-powered inverse sampler.

Batches are drawn in two stages (class per the chosen prior, then a
uniform instance within the class) so the tau contract holds exactly no
matter how skewed the per-class counts are. tau = 1 reproduces plain
uniform-over-instances sampling when composed with the empirical prior;
tau < 1 favors the tail.

`draw_batch` draws every class of a batch with `draw_classes`, then one
uniform offset per sample, and picks the instances from the dataset's
class-sorted index in one vectorized gather.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .theory import check_prior

__all__ = ["inverse_prior", "draw_class", "draw_classes", "draw_batch"]


def inverse_prior(prior: np.ndarray, tau: float) -> np.ndarray:
    """Reweighted prior pi_i^tau / sum_j pi_j^tau.

    tau = 1 returns the prior unchanged, tau = 0 the uniform distribution,
    and negative tau inverts head and tail.
    """
    p = check_prior(prior)
    if tau < 0 and np.any(p == 0):
        raise ValueError("inverse sampling with negative tau needs strictly positive priors")
    if tau == 1.0:
        return p  # exactly the random sampler, no renormalization drift
    if tau == 0.0:
        weights = np.ones_like(p)
    else:
        weights = p**tau
    return check_prior(weights / weights.sum())


def draw_classes(prior: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized categorical draw of `size` class indices."""
    p = check_prior(prior)
    edges = np.cumsum(p)
    edges[-1] = 1.0  # guard against cumsum rounding at the top edge
    return np.searchsorted(edges, rng.random(size), side="right").astype(np.int64)


def draw_class(prior: np.ndarray, rng: np.random.Generator) -> int:
    """Single categorical draw."""
    return int(draw_classes(prior, 1, rng)[0])


def draw_batch(ds: Dataset, prior: np.ndarray, batch_size: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample (features, labels) with replacement: class by prior, instance uniform.

    Every class carrying prior mass must be populated in the dataset.
    """
    p = check_prior(prior)
    if p.shape[0] != ds.num_classes:
        raise ValueError("prior length does not match the dataset class count")
    if np.any((p > 0) & (ds.class_counts == 0)):
        bad = np.flatnonzero((p > 0) & (ds.class_counts == 0)).tolist()
        raise ValueError(f"prior puts mass on empty classes {bad}")
    if batch_size == 0:
        return np.empty((0, ds.dims)), np.empty(0, dtype=np.int64)
    classes = draw_classes(p, batch_size, rng)
    offsets = rng.random(batch_size)
    within = (offsets * ds.class_counts[classes]).astype(np.int64)
    picks = ds.class_order[ds.class_starts[classes] + within]
    return ds.features[picks], ds.labels[picks]
