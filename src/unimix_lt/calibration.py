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
checked arrays: the row maxima are taken once, and each class column is
sorted once for both ACE and TACE. That sort uses numpy's fast default
kind and falls back to a stable sort for a column whose values tie, so
the tie rule above holds on every build and the reported numbers do not
depend on the sort kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CalibrationReport", "evaluate_predictions"]

DEFAULT_BINS = 15
DEFAULT_TACE_THRESHOLD = 1e-3
# Upper bound on bins and on ranges; each one costs memory and time per class.
MAX_BINS = 100_000


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


def _bin_sums(conf, correct, num_bins):
    """Per-bin (count, correct sum, confidence sum) of the winning scores."""
    idx = _bin_index(conf, num_bins)
    counts = np.bincount(idx, minlength=num_bins)
    acc_sum = np.bincount(idx, weights=correct, minlength=num_bins)
    conf_sum = np.bincount(idx, weights=conf, minlength=num_bins)
    return counts, acc_sum, conf_sum


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


def _ranges(m: int, num_ranges: int):
    base, extra = divmod(m, num_ranges)
    sizes = [base + (1 if r < extra else 0) for r in range(num_ranges)]
    stop = np.cumsum(sizes)
    return zip(stop - sizes, stop)


def _adaptive_errors(p, y, num_ranges: int, thresholds) -> list[float]:
    """The adaptive error at each threshold, sorting each class column once.

    A threshold keeps the suffix of the sorted column from its first value
    >= threshold: the same probabilities, in the same order, as sorting the
    survivors alone.
    """
    c = p.shape[1]
    survivors = [0] * len(thresholds)
    gap_sums = [0.0] * len(thresholds)
    for k in range(c):
        col = np.ascontiguousarray(p[:, k])
        order = np.argsort(col)
        ranked = col[order]
        if np.any(ranked[1:] == ranked[:-1]):
            # the default kind may put equal values in any order; ties go by row
            order = np.argsort(col, kind="stable")
            ranked = col[order]
        hits = (y[order] == k).astype(np.float64)
        for t, threshold in enumerate(thresholds):
            start = int(np.searchsorted(ranked, threshold, "left"))
            survivors[t] += ranked.size - start
            for lo, hi in _ranges(ranked.size - start, num_ranges):
                if hi > lo:
                    lo, hi = start + lo, start + hi
                    gap_sums[t] += abs(hits[lo:hi].mean() - ranked[lo:hi].mean())
    for threshold, kept in zip(thresholds, survivors):
        if kept == 0:
            raise ValueError(f"threshold {threshold} discarded every probability")
    return [gap_sum / (c * num_ranges) for gap_sum in gap_sums]


def _sce(p, y, num_bins: int) -> float:
    """ECE of each class column against its 0/1 hits, averaged over classes."""
    c = p.shape[1]
    total = 0.0
    for k in range(c):
        total += _ece(_bin_sums(p[:, k], (y == k).astype(np.float64), num_bins))
    return total / c


def _brier(p, y) -> float:
    onehot = np.zeros_like(p)
    onehot[np.arange(p.shape[0]), y] = 1.0
    return float(((onehot - p) ** 2).mean())


def _confusion(pred, y, c: int):
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (y, pred), 1)
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
        return {
            "accuracy": self.accuracy,
            "ece": self.ece,
            "mce": self.mce,
            "ace": self.ace,
            "tace": self.tace,
            "sce": self.sce,
            "brier": self.brier,
        }


def evaluate_predictions(preds, labels, num_bins: int = DEFAULT_BINS,
                         num_ranges: int = DEFAULT_BINS,
                         tace_threshold: float = DEFAULT_TACE_THRESHOLD,
                         density_batch: int = 100) -> CalibrationReport:
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
    bins = _bin_sums(conf, correct, num_bins)
    counts, counts_log = _confusion(pred, y, p.shape[1])
    ace, tace = _adaptive_errors(p, y, num_ranges, (0.0, tace_threshold))
    return CalibrationReport(
        accuracy=float(correct.mean()),
        ece=_ece(bins),
        mce=_mce(bins),
        ace=ace,
        tace=tace,
        sce=_sce(p, y, num_bins),
        brier=_brier(p, y),
        reliability=_reliability(bins),
        confusion=counts,
        confusion_log=counts_log,
        density=_density(conf, correct, density_batch),
    )
