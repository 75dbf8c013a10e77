"""Calibration metrics, confusion matrices, and reliability-diagram data.

Binned metrics use equal-width confidence bins on [0, 1], half-open
[lo, hi) with the final bin closed so that confidence 1.0 lands in a bin.
Empty bins contribute nothing to the weighted sums and are skipped by the
max in the worst-case metric. The adaptive metrics instead cut each
class's sorted probabilities into equal-count ranges (remainder samples
go one-per-range from the first range onward; ties are broken by stable
sort on original index).

`evaluate_predictions` is the one public entry point. It validates the
matrix and every size and threshold once, then runs private cores on the
checked arrays: the row maxima are taken once, and SCE, ACE and TACE share
one pass over class-major copies of blocks of columns. Each class is
sorted once for ACE and TACE; a class whose values tie is ordered by a
stable argsort instead, so the tie rule above holds on every build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CalibrationReport", "evaluate_predictions"]

# Defaults of `evaluate_predictions`, and through it of the `eval` command's flags.
DEFAULT_BINS = 15
DEFAULT_TACE_THRESHOLD = 1e-3
DEFAULT_DENSITY_BATCH = 100
# Upper bound on bins and on ranges; each one costs memory and time per class.
MAX_BINS = 100_000
CLASS_BLOCK = 16  # most classes per block of the class-major pass behind SCE, ACE and TACE
BLOCK_BINS = 2**16  # most bins per block, which bound the block's three bin-sum arrays
# The scalar fields of a `CalibrationReport`: the keys of report.json, in summary.csv order.
SCALARS = ("accuracy", "ece", "mce", "ace", "tace", "sce", "brier")


def _check_inputs(preds, labels):
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if p.ndim != 2 or p.shape[0] == 0:
        raise ValueError("predictions must be a nonempty N x C matrix")
    if y.shape != (p.shape[0],):
        raise ValueError("labels must be a vector matching the prediction rows")
    # written so that NaN, which fails every comparison, fails the check
    if not ((p >= 0).all() and (p <= 1).all()):
        raise ValueError("predictions must be finite and lie in [0, 1]")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("prediction rows must sum to 1")
    if y.min() < 0 or y.max() >= p.shape[1]:
        raise ValueError("labels out of range for the prediction width")
    return p, y


def _top(p, y):
    """(confidence, predicted class, 0/1 correctness) of each row."""
    pred = p.argmax(axis=1)
    return p.max(axis=1), pred, (pred == y).astype(np.float64)


def _bin_index(conf: np.ndarray, num_bins: int) -> np.ndarray:
    # [lo, hi) bins, except the last bin also contains 1.0
    return np.minimum((conf * num_bins).astype(np.int64), num_bins - 1)


def _bin_sums(scores, hits, num_bins):
    """Per-bin (count, hit count, score sum) of each row of `scores`, where
    `hits` holds the flat indices of the hits: three (rows, num_bins) arrays.
    Each row's bins are offset by row, and bincount adds in input order, so
    each row's sums equal those of that row alone."""
    size = scores.shape[0] * num_bins
    idx = (_bin_index(scores, num_bins) + np.arange(0, size, num_bins)[:, None]).ravel()
    sums = (np.bincount(idx, minlength=size), np.bincount(idx[hits], minlength=size),
            np.bincount(idx, weights=scores.ravel(), minlength=size))
    return [s.reshape(-1, num_bins) for s in sums]


def _nonempty_gaps(counts, acc_sum, conf_sum):
    nonempty = counts > 0
    return counts[nonempty], np.abs(acc_sum[nonempty] - conf_sum[nonempty]) / counts[nonempty]


def _ece(bins) -> float:
    counts, gaps = _nonempty_gaps(*bins)
    return float((counts / counts.sum()) @ gaps)


def _mce(bins) -> float:
    return float(_nonempty_gaps(*bins)[1].max())


def _reliability(bins):
    counts, acc_sum, conf_sum = bins
    num_bins = counts.shape[0]
    rows = []
    for b in range(num_bins):
        n = int(counts[b])
        acc = acc_sum[b] / n if n else 0.0
        conf = conf_sum[b] / n if n else 0.0
        rows.append((b / num_bins, (b + 1) / num_bins, n, float(acc), float(conf)))
    return rows


def _per_class_errors(p, y, num_bins: int, num_ranges: int, thresholds):
    """(SCE, the adaptive error at each threshold) in one pass over blocks of classes.

    A threshold keeps the suffix of a class's sorted values from the first
    value >= threshold: the same values, in the same order, as sorting the
    survivors alone.
    """
    n, c = p.shape
    by_label = np.argsort(y, kind="stable")
    label_start = np.searchsorted(y, np.arange(c + 1), sorter=by_label)
    sce, survivors, gap_sums = 0.0, [0] * len(thresholds), [0.0] * len(thresholds)
    step = max(1, min(CLASS_BLOCK, BLOCK_BINS // num_bins))
    for k0 in range(0, c, step):
        block = np.ascontiguousarray(p[:, k0:k0 + step].T)
        hit_rows = by_label[label_start[k0]:label_start[k0 + block.shape[0]]]
        bins = _bin_sums(block, (y[hit_rows] - k0) * n + hit_rows, num_bins)
        ranked = np.sort(block, axis=1)
        tied = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
        for j, col in enumerate(block):
            k = k0 + j
            sce += _ece([b[j] for b in bins])
            if tied[j]:  # -0.0 ties 0.0 too; equal values go in row order
                order = np.argsort(col, kind="stable")
                values, ranks = col[order], np.flatnonzero(y[order] == k)
            else:  # unique values: a labeled row's position is its searchsorted index
                values = ranked[j]
                rows = by_label[label_start[k]:label_start[k + 1]]
                ranks = np.searchsorted(values, np.sort(col[rows]))
            for t, threshold in enumerate(thresholds):
                start = int(np.searchsorted(values, threshold, "left"))
                survivors[t] += n - start
                for gap in _range_gaps(values, ranks, start, num_ranges):
                    gap_sums[t] += gap
    for threshold, kept in zip(thresholds, survivors):
        if kept == 0:
            raise ValueError(f"threshold {threshold} discarded every probability")
    return sce / c, [gap_sum / (c * num_ranges) for gap_sum in gap_sums]


def _range_gaps(values, ranks, start: int, num_ranges: int) -> list[float]:
    """|hit rate - mean value| of each nonempty range of values[start:], hits
    at the sorted positions `ranks`; equal to |hits[lo:hi].mean() -
    values[lo:hi].mean()| bit for bit, as a count of hits is exact.
    """
    m = values.size - start
    base, extra = divmod(m, num_ranges)
    r = np.arange(min(m, num_ranges))
    edges = np.append(start + r * base + np.minimum(r, extra), values.size)
    sizes = np.diff(edges)
    hits = np.diff(np.searchsorted(ranks, edges))
    bounds = edges.tolist()
    sums = np.array([values[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:])])
    return np.abs(hits / sizes - sums / sizes).tolist()


def _brier(p, y) -> float:
    # p - 1 is exactly -(1 - p), so these squares equal (onehot - p) ** 2, in p's layout
    gaps = np.copy(p)
    gaps[np.arange(p.shape[0]), y] -= 1.0
    np.square(gaps, out=gaps)
    return float(gaps.mean())


def _confusion(pred, y, c: int):
    counts = np.bincount(y * c + pred, minlength=c * c).reshape(c, c)
    return counts, np.log1p(counts.astype(np.float64))


def _density(conf, correct, batch_size: int) -> list[tuple[float, float]]:
    return [(float(conf[start:start + batch_size].mean()),
             float(correct[start:start + batch_size].mean()))
            for start in range(0, conf.shape[0], batch_size)]


@dataclass(eq=False)
class CalibrationReport:
    """Every metric of one prediction matrix.

    ece and mce are the count-weighted mean and the worst bin gap
    |accuracy - confidence| of the winning scores. ace averages that gap
    over the C x R (class, range) grid, empty ranges counting zero; tace
    does the same after discarding probabilities below its threshold. sce
    is the binned gap of each class probability, averaged over classes,
    and brier the mean squared gap between the one-hot truth and every
    class probability. reliability holds per-bin (lo, hi, count, accuracy,
    confidence), zeros for an empty bin; confusion counts rows by true
    label and columns by prediction, and confusion_log is ln(1 + counts).
    density holds the (mean confidence, accuracy) of each chunk of rows.
    """

    accuracy: float
    ece: float
    mce: float
    ace: float
    tace: float
    sce: float
    brier: float
    reliability: list[tuple[float, float, int, float, float]]
    confusion: np.ndarray
    confusion_log: np.ndarray
    density: list[tuple[float, float]]

    def scalars(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in SCALARS}


def evaluate_predictions(preds, labels, num_bins: int = DEFAULT_BINS,
                         num_ranges: int = DEFAULT_BINS,
                         tace_threshold: float = DEFAULT_TACE_THRESHOLD,
                         density_batch: int = DEFAULT_DENSITY_BATCH) -> CalibrationReport:
    """Full metric suite over one prediction matrix, validated once.

    Binned metrics use `num_bins` confidence bins, ACE and TACE use
    `num_ranges` equal-count ranges per class, and TACE first discards
    probabilities below `tace_threshold`, which must lie in [0, 1).
    The density points average the winning score and the 0/1 correctness
    over sequential chunks of `density_batch` rows.
    """
    p, y = _check_inputs(preds, labels)
    for unit, count in (("bin", num_bins), ("range", num_ranges)):
        if count < 1:
            raise ValueError(f"need at least one {unit}")
        if count > MAX_BINS:
            raise ValueError(f"need at most {MAX_BINS} {unit}s, got {count}")
    # written so that NaN, which fails every comparison, fails the check
    if not 0.0 <= tace_threshold < 1.0:
        raise ValueError(f"threshold must lie in [0, 1), got {tace_threshold}")
    if density_batch < 1:
        raise ValueError(f"density_batch must be >= 1, got {density_batch}")
    conf, pred, correct = _top(p, y)
    bins = [b[0] for b in _bin_sums(conf[None], np.flatnonzero(correct), num_bins)]
    counts, counts_log = _confusion(pred, y, p.shape[1])
    sce, (ace, tace) = _per_class_errors(p, y, num_bins, num_ranges, (0.0, tace_threshold))
    return CalibrationReport(
        accuracy=float(correct.mean()),
        ece=_ece(bins),
        mce=_mce(bins),
        ace=ace,
        tace=tace,
        sce=sce,
        brier=_brier(p, y),
        reliability=_reliability(bins),
        confusion=counts,
        confusion_log=counts_log,
        density=_density(conf, correct, density_batch),
    )
