"""Desk-scale dataset synthesis and CSV ingestion.

Two generators cover the experiments: isotropic Gaussian clusters with
exponentially decaying per-class counts, and the two-disjoint-circles
binary set used for the decision-boundary study. Both are deterministic
functions of (spec, seed).

Datasets travel as CSV: a `f0,...,f{d-1},label` header, then one row of d
repr-written floats and an integer label per sample, CRLF-terminated.
`load_csv` parses a well-formed file in one vectorized pass and hands any
other file to a per-line parser, so the accepted inputs and the
`path:line` errors are those of that parser alone.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .streams import derive_rng
from .theory import check_prior

__all__ = [
    "Dataset",
    "TwoCircleSpec",
    "gen_lt_gaussians",
    "gen_two_circles",
    "load_csv",
    "save_csv",
    "empirical_prior",
    "lt_class_counts",
    "class_means",
]

# Printable ASCII and the whitespace Python's `float` and `int` strip: on
# these bytes numpy's number parsers accept what Python's accept, with the
# same values. numpy also takes \x1c-\x1f as whitespace and some non-ASCII
# characters in an integer, which Python refuses.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\r\x0b\x0c"


@dataclass(eq=False)
class Dataset:
    """Immutable labeled feature set: N x d features, non-negative integer labels.

    The class count C is the largest label + 1, and `class_counts[k]` the
    number of samples labeled k (zero for a label that never occurs).
    `class_order` lists the sample indices sorted by class (ascending within
    a class) and `class_starts[k]` is where class k begins in it, so class
    k's members are `class_order[class_starts[k]:class_starts[k] + n_k]`.
    """

    features: np.ndarray
    labels: np.ndarray
    class_counts: np.ndarray = field(init=False)
    class_order: np.ndarray = field(init=False, repr=False)
    class_starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be N x d and labels a vector")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be non-negative")
        self.class_counts = np.bincount(self.labels)
        self.class_order = np.argsort(self.labels, kind="stable")
        self.class_starts = np.cumsum(self.class_counts) - self.class_counts

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_classes(self) -> int:
        return self.class_counts.shape[0]

    @property
    def dims(self) -> int:
        return self.features.shape[1]


def lt_class_counts(num_classes: int, rho: float, n_max: int,
                    reverse: bool = False) -> np.ndarray:
    """Integer per-class counts n_i = max(1, round(n_max * rho^(-(i-1)/(C-1)))).

    Ties round half up. The floor at 1 keeps every class populated so
    prior-based margins stay finite. `reverse` flips the count vector
    (class C-1 becomes the head) while leaving class identities alone,
    which builds reversed-LT test sets.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if rho < 1:
        raise ValueError(f"imbalance factor must be >= 1, got {rho}")
    if n_max < num_classes:
        raise ValueError("n_max must be >= num_classes so every class gets a sample")
    exponents = -np.arange(num_classes, dtype=np.float64) / (num_classes - 1)
    counts = np.maximum(1, np.floor(n_max * rho**exponents + 0.5).astype(np.int64))
    return counts[::-1].copy() if reverse else counts


DEFAULT_SPREAD = 1.0  # default cluster_spread of `gen_lt_gaussians` and of its commands


def class_means(num_classes: int, dims: int, cluster_spread: float) -> np.ndarray:
    """Fixed deterministic layout of class means.

    Depends only on (C, dims, spread) so train and test sets built with
    different counts or seeds share class-conditional distributions.
    Means are scaled so the minimum pairwise distance is 4x the cluster
    spread, keeping the balanced problem nearly separable.
    """
    if dims < 2:
        raise ValueError("need at least 2 feature dimensions")
    if cluster_spread <= 0:
        raise ValueError("cluster_spread must be positive")
    if num_classes <= dims:
        dirs = np.eye(num_classes, dims)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(0x6D65616E))  # fixed layout stream
        dirs = rng.standard_normal((num_classes, dims))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    diffs = dirs[:, None, :] - dirs[None, :, :]
    dist = np.linalg.norm(diffs, axis=-1)
    min_dist = dist[~np.eye(num_classes, dtype=bool)].min()
    if min_dist <= 0:
        raise ValueError("degenerate mean layout; reduce num_classes or raise dims")
    return dirs * (4.0 * cluster_spread / min_dist)


def gen_lt_gaussians(num_classes: int, rho: float, n_max: int, dims: int,
                     cluster_spread: float = DEFAULT_SPREAD, seed: int = 0,
                     reverse: bool = False) -> Dataset:
    """Long-tailed isotropic Gaussian clusters.

    Class i (0-indexed) draws its count from the exponential decay model
    and its features from N(mean_i, spread^2 * I) with means on the fixed
    layout from `class_means`.
    """
    counts = lt_class_counts(num_classes, rho, n_max, reverse=reverse)
    means = class_means(num_classes, dims, cluster_spread)
    rng = derive_rng(seed, "data")
    feats = []
    labels = []
    for k in range(num_classes):
        feats.append(means[k] + cluster_spread * rng.standard_normal((counts[k], dims)))
        labels.append(np.full(counts[k], k, dtype=np.int64))
    return _generated(np.concatenate(feats), np.concatenate(labels))


@dataclass(frozen=True)
class TwoCircleSpec:
    """Two disjoint disks: positives around (x0, y0), negatives around (-x0, -y0)."""

    center: tuple[float, float] = (2.0, 2.0)
    radius: float = 1.5
    n_pos: int = 500
    n_neg: int = 10
    seed: int = 0

    def __post_init__(self):
        x0, y0 = self.center
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if math.hypot(x0, y0) <= self.radius:  # squares of huge floats would overflow
            raise ValueError("circles overlap: need x0^2 + y0^2 > r^2")
        if self.n_pos < 1 or self.n_neg < 1:
            raise ValueError("both circles need at least one sample")


def _uniform_disk(rng: np.random.Generator, n: int, center, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    return np.stack([center[0] + r * np.cos(theta), center[1] + r * np.sin(theta)], axis=1)


def gen_two_circles(spec: TwoCircleSpec) -> Dataset:
    """Uniform samples from the two disks: label 0 positive disk, label 1 negative."""
    rng = derive_rng(spec.seed, "data")
    x0, y0 = spec.center
    pos = _uniform_disk(rng, spec.n_pos, (x0, y0), spec.radius)
    neg = _uniform_disk(rng, spec.n_neg, (-x0, -y0), spec.radius)
    features = np.concatenate([pos, neg])
    labels = np.concatenate([np.zeros(spec.n_pos, np.int64), np.ones(spec.n_neg, np.int64)])
    return _generated(features, labels)


def _generated(features: np.ndarray, labels: np.ndarray) -> Dataset:
    """The generated `Dataset`; features that overflowed to inf or NaN are a ValueError."""
    if not np.isfinite(features).all():
        raise ValueError("generated features are not finite; use a smaller spread, "
                         "centre or radius")
    return Dataset(features, labels)


def empirical_prior(ds: Dataset) -> np.ndarray:
    """Per-class instance proportions; errors if any class is empty."""
    if np.any(ds.class_counts == 0):
        empty = np.flatnonzero(ds.class_counts == 0).tolist()
        raise ValueError(f"classes {empty} have no samples; prior margins would diverge")
    return check_prior(ds.class_counts / ds.num_samples, require_positive=True)


def save_csv(ds: Dataset, path) -> None:
    """Write `f0,...,f{d-1},label` rows; floats use repr for exact round-trips.

    Rows end in CRLF, as `csv.writer` ends them; the text is built in one
    pass and written with one call.
    """
    header = ",".join([f"f{i}" for i in range(ds.dims)] + ["label"])
    rows = [",".join([*map(repr, row), str(label)])
            for row, label in zip(ds.features.tolist(), ds.labels.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([header, *rows, ""]))


def load_csv(path, max_classes: int) -> Dataset:
    """Read a dataset in `save_csv`'s format; C is max label + 1.

    The header must be exactly `f0,...,f{d-1},label`. Each row holds d
    floats and a non-negative integer label, in any form Python's `float`
    and `int` accept (quoted fields too), with LF, CRLF or CR line ends.
    Blank rows, ragged rows, fields over the `csv` module's size limit,
    negative or out-of-range labels and non-finite features raise
    ValueError naming the file and line. A label at or above `max_classes`
    is out of range, and is refused before any array sized by the labels
    is built.

    A well-formed file is parsed in one vectorized `np.loadtxt` pass. Any
    file that pass cannot take whole is read again by the per-line parser,
    which is the one source of errors: loadtxt raises or warns, or returns
    fewer rows than it read lines (it skips blank ones), or the file holds
    a byte outside printable ASCII and tab/VT/FF/CR/LF, or a feature is
    non-finite, or a label out of range.
    """
    with open(path, newline="") as fh:
        dims = _read_header(path, _records(path, csv.reader(fh)))
        table, lines = _parse_body(fh, dims)
    if table is not None and table.shape[0] == lines and _is_plain(path):
        features = np.ascontiguousarray(table["f"])
        labels = np.ascontiguousarray(table["y"])
        if np.isfinite(features).all() and (labels >= 0).all() and (labels < max_classes).all():
            return Dataset(features, labels)
    return _load_lines(path, max_classes)


def _records(path, reader):
    """The rows of a `csv.reader`; its errors become ValueErrors naming file and line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _read_header(path, rows) -> int:
    """Check the `f0,...,f{d-1},label` header row and return d."""
    try:
        header = next(rows)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    if not header or header[-1] != "label":
        raise ValueError(f"{path}: last column must be 'label', got header {header}")
    dims = len(header) - 1
    if dims < 1 or header[:-1] != [f"f{i}" for i in range(dims)]:
        raise ValueError(f"{path}: expected feature columns f0..f{dims - 1}")
    return dims


def _parse_body(fh, dims: int):
    """(the rest of `fh` as one structured array or None if numpy balks, lines read).

    numpy reads the lines the per-line parser's `csv.reader` would get, so
    it splits rows at the same LF, CRLF and lone CR. A line longer than the
    `csv` field size limit may hold a field that parser refuses, so numpy's
    result is dropped then.
    """
    dtype = np.dtype([("f", np.float64, (dims,)), ("y", np.int64)])
    lines, too_long, limit = 0, False, csv.field_size_limit()

    def counted():
        nonlocal lines, too_long
        for line in fh:
            lines += 1
            if len(line) > limit:
                too_long = True
            yield line

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on an empty body
        try:
            table = np.loadtxt(counted(), dtype=dtype, delimiter=",", comments=None,
                               ndmin=1)
        except (ValueError, Warning):
            return None, 0
    if too_long:
        return None, 0
    return table, lines


def _is_plain(path) -> bool:
    """Whether every byte of the file is in `_PLAIN_BYTES`, read in 1 MiB blocks."""
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            if block.translate(None, _PLAIN_BYTES):
                return False
    return True


def _load_lines(path, limit: int) -> Dataset:
    """The per-line parser: every input `load_csv` accepts, every error it raises.

    Labels must lie in [0, limit).
    """
    with open(path, newline="") as fh:
        rows = _records(path, csv.reader(fh))
        dims = _read_header(path, rows)
        features, labels = [], []
        for lineno, row in enumerate(rows, start=2):
            if len(row) != dims + 1:
                raise ValueError(f"{path}:{lineno}: expected {dims + 1} fields, got {len(row)}")
            try:
                features.append([float(v) for v in row[:-1]])
                label = int(row[-1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if label < 0:
                raise ValueError(f"{path}:{lineno}: negative label {label}")
            if label >= limit:
                raise ValueError(f"{path}:{lineno}: label {label} out of range [0, {limit})")
            labels.append(label)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    features = np.asarray(features)
    bad_rows = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad_rows.size:
        raise ValueError(f"{path}:{bad_rows[0] + 2}: features must be finite")
    return Dataset(features, labels)
