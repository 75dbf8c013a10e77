"""Class samplers: plain categorical draws and the tau-powered inverse sampler.

Batches are drawn in two stages (class per the chosen prior, then a
uniform instance within the class) so the tau contract holds exactly no
matter how skewed the per-class counts are. tau = 1 reproduces plain
uniform-over-instances sampling when composed with the empirical prior;
tau < 1 favors the tail.

`draw_batch` draws every class of a batch with `draw_classes`, then one
uniform offset per sample, and picks the instances from the dataset's
class-sorted index in one vectorized gather.

`draw_classes` inverts the prior's CDF at one uniform per draw. Bulk draws
(the Monte Carlo histogram's) look the class up in a guide table, the
"indexed search" of Chen & Asau (1974): the bucket floor(u * 4096) gives
the first candidate class and a few branchless halving steps finish, with
exactly the classes `np.searchsorted` returns. Small batches, such as the
trainer's, keep `np.searchsorted`, which costs less than building a table.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .theory import check_prior

__all__ = ["inverse_prior", "draw_classes", "draw_batch"]

# Guide-table buckets; a power of two, so u * _GUIDE_SIZE is exact. Below it
# building the table costs more than it saves.
_GUIDE_SIZE = 4096


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
    weights = p**tau  # p**0.0 is 1.0 for every p, 0 included: tau = 0 is uniform
    return check_prior(weights / weights.sum())


def draw_classes(prior: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized categorical draw of `size` class indices.

    One uniform u per draw; the class is the number of cumulative edges
    <= u, as `np.searchsorted(edges, u, side="right")` counts it. From
    `_GUIDE_SIZE` draws up, `_guided_search` gives the same classes faster.
    """
    p = check_prior(prior)
    edges = np.cumsum(p)
    edges[-1] = 1.0  # guard against cumsum rounding at the top edge
    u = rng.random(size)
    if size < _GUIDE_SIZE:
        return np.searchsorted(edges, u, side="right").astype(np.int64, copy=False)
    return _guided_search(edges, u)


def _guided_search(edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """`np.searchsorted(edges, u, side="right")` for u in [0, 1), by a guide table.

    With M = `_GUIDE_SIZE`, u lies in bucket k = floor(u * M), that is in
    [k/M, (k+1)/M), and its class in [lo[k], lo[k+1]] with
    lo[k] = #{edges <= k/M}. A branchless binary search of bit_length(W)
    halving steps from lo[k], W the widest bucket, ends on the class. All
    edges but the last are a cumsum of non-negative terms, so they never
    decrease, and the last is 1 > u: "edge <= u" holds on a prefix of them,
    which makes both searches count the same edges.
    """
    lo = np.searchsorted(edges, np.arange(_GUIDE_SIZE) / _GUIDE_SIZE, side="right")
    width = np.diff(lo, append=edges.size - 1)  # no class above C - 1 since u < 1
    steps = int(width.max()).bit_length()
    padded = np.concatenate([edges, np.full(1 << steps, np.inf)])
    pos = lo[(u * _GUIDE_SIZE).astype(np.intp)]
    for k in reversed(range(steps)):
        pos += (1 << k) * (padded[(1 << k) - 1:][pos] <= u)
    return pos.astype(np.int64, copy=False)


def draw_batch(ds: Dataset, prior: np.ndarray, batch_size: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample (features, labels) with replacement: class by prior, instance uniform.

    Every class carrying prior mass must be populated in the dataset.
    """
    p = check_prior(prior)
    if p.shape[0] != ds.num_classes:
        raise ValueError("prior length does not match the dataset class count")
    if ((p > 0) & (ds.class_counts == 0)).any():
        bad = np.flatnonzero((p > 0) & (ds.class_counts == 0)).tolist()
        raise ValueError(f"prior puts mass on empty classes {bad}")
    classes = draw_classes(p, batch_size, rng)
    offsets = rng.random(batch_size)
    within = (offsets * ds.class_counts[classes]).astype(np.int64)
    picks = ds.class_order[ds.class_starts[classes] + within]
    return ds.features[picks], ds.labels[picks]
