"""Class samplers: plain categorical draws and the tau-powered inverse sampler.

Batches are drawn in two stages (class per the chosen prior, then a
uniform instance within the class) so the tau contract holds exactly no
matter how skewed the per-class counts are. tau = 1 reproduces plain
uniform-over-instances sampling when composed with the empirical prior;
tau < 1 favors the tail.

`draw_batch` draws every class of a batch with `draw_classes`, then one
uniform offset per sample, and picks the instances from the dataset's
class-sorted index in one vectorized gather.

`draw_classes` inverts the prior's CDF at one uniform per draw, through
the lookup `class_table` builds: it validates the prior once and holds
its cumulative edges, so a caller drawing many times from one prior, as
each Monte Carlo stream does, builds it once. A table built for bulk
draws also holds a guide table, the "indexed search" of Chen & Asau
(1974): the bucket floor(u * 4096) gives the first candidate class and a
few branchless halving steps finish, with exactly the classes
`np.searchsorted` returns. A table for a small batch, such as a trainer
step's, leaves the guide table out and keeps `np.searchsorted`, which
costs less there than building the guide table.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import Dataset
from .theory import check_prior

__all__ = ["inverse_prior", "class_table", "draw_classes", "draw_batch"]

# Guide-table buckets; a power of two, so u * _GUIDE_SIZE is exact. For fewer
# draws building the guide table costs more than it saves.
_GUIDE_SIZE = 4096


def inverse_prior(prior: np.ndarray, tau: float) -> np.ndarray:
    """Reweighted prior pi_i^tau / sum_j pi_j^tau.

    tau = 1 returns the prior unchanged, tau = 0 the uniform distribution,
    and negative tau inverts head and tail. The prior is first divided by the
    entry that becomes the largest weight (its minimum for tau < 0, else its
    maximum), so that weight is 1 and no power overflows at large |tau|.
    """
    p = check_prior(prior)
    if tau < 0 and np.any(p == 0):
        raise ValueError("inverse sampling with negative tau needs strictly positive priors")
    if tau == 1.0:
        return p  # exactly the random sampler, no renormalization drift
    # x**0.0 is 1.0 for every x, 0 included: tau = 0 is uniform
    weights = (p / (p.min() if tau < 0 else p.max())) ** tau
    return check_prior(weights / weights.sum())


class ClassTable(NamedTuple):
    """A prior's cumulative `edges` and, for bulk draws, the guide table of
    `_guided_search`: each bucket's first candidate class `lo`, the halving
    `steps` of the widest bucket, and the edges `padded` by 2^steps infinities."""

    edges: np.ndarray
    lo: np.ndarray | None = None
    steps: int = 0
    padded: np.ndarray | None = None


def class_table(prior: np.ndarray, size: int) -> ClassTable:
    """Validate `prior` and build the lookup for `size` class draws from it,
    in one `draw_classes` call or several; from `_GUIDE_SIZE` draws up it
    includes the guide table."""
    p = check_prior(prior)
    edges = np.cumsum(p)
    edges[np.flatnonzero(p)[-1]:] = 1.0  # cumsum rounding must not reach a zero-mass tail
    if size < _GUIDE_SIZE:
        return ClassTable(edges)
    lo = np.searchsorted(edges, np.arange(_GUIDE_SIZE) / _GUIDE_SIZE, side="right")
    width = np.diff(lo, append=edges.size - 1)  # no class above C - 1 since u < 1
    steps = int(width.max()).bit_length()
    padded = np.concatenate([edges, np.full(1 << steps, np.inf)])
    return ClassTable(edges, lo, steps, padded)


def draw_classes(table: ClassTable, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized categorical draw of `size` class indices from a `class_table`.

    One uniform u per draw; the class is the number of cumulative edges
    <= u, as `np.searchsorted(edges, u, side="right")` counts it. A table
    with a guide table gives the same classes faster through `_guided_search`.
    """
    u = rng.random(size)
    if table.lo is None:
        return np.searchsorted(table.edges, u, side="right").astype(np.int64, copy=False)
    return _guided_search(table, u)


def _guided_search(table: ClassTable, u: np.ndarray) -> np.ndarray:
    """`np.searchsorted(table.edges, u, side="right")` for u in [0, 1), by the guide table.

    With M = `_GUIDE_SIZE`, u lies in bucket k = floor(u * M), that is in
    [k/M, (k+1)/M), and its class in [lo[k], lo[k+1]] with
    lo[k] = #{edges <= k/M}. A branchless binary search of bit_length(W)
    halving steps from lo[k], W the widest bucket, ends on the class. The
    edges below the last positive class are a cumsum of non-negative terms,
    so they never decrease, and the rest are 1 > u: "edge <= u" holds on a
    prefix of them, which makes both searches count the same edges.
    """
    pos = table.lo.take((u * _GUIDE_SIZE).astype(np.intp))
    for k in reversed(range(table.steps)):
        pos += (table.padded[(1 << k) - 1:].take(pos) <= u) << k
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
    classes = draw_classes(class_table(p, batch_size), batch_size, rng)
    offsets = rng.random(batch_size)
    within = (offsets * ds.class_counts[classes]).astype(np.int64)
    picks = ds.class_order[ds.class_starts[classes] + within]
    return ds.features[picks], ds.labels[picks]
