"""Beta mixing, the prior-aware mixing factor, and its Monte Carlo validator.

The prior-aware factor redistributes a symmetric Beta(alpha, alpha) draw
by a cyclic shift: with pair priors (pi_i, pi_j) and

    c = pi_j / (pi_i + pi_j),

the factor is xi* = frac(xi_beta + c). The shift moves the Beta density's
mass to peak at c and its vicinity, which is exactly the piecewise form
obtained by splitting the Beta density at c; the rarer class of the pair
then tends to receive the dominant mixing weight. The cyclic shift is the
unique sampling rule with that density. The Beta draws, the shift and
the factor all work on arrays, one entry per pair.

`mix_batch` is the one pair-draw-and-mix step: it draws the first pair
members by the prior and the second by the pair prior, picks each pair's
factor (a plain Beta draw in vanilla mode, the prior-aware factor
otherwise, shifted in place) and combines the features. A mixed sample
reinforces the class whose weight is >= 0.5 (ties go to the first pair
member), which `reinforced_class` picks without a branch.
`mc_xi_aug_histogram` tallies that class over many random pairs to
validate the closed forms in `theory`. It validates the prior once, where
it enters. Each stream builds its own two class tables once and has three
named generators, one each for the first members, the second members and
the factors. It draws in blocks of 2^16 pairs, so memory stays flat in the
trial count. Each generator serves one kind of draw, in order, so the
blocks draw the values whole arrays would, bit for bit, whatever a draw
consumes.
The streams run on one thread pool, a single stream included, and their
counts add up in stream order, so the worker count never changes them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .sampling import class_table, draw_batch, draw_classes, inverse_prior
from .streams import derive_rng
from .theory import check_prior

__all__ = [
    "MixConfig",
    "MIX_MODES",
    "sample_beta",
    "mix_batch",
    "reinforced_class",
    "mc_xi_aug_histogram",
]

MIX_MODES = ("vanilla_mixup", "unimix_factor_only", "unimix_full")

_MC_BLOCK = 1 << 16  # Monte Carlo pairs drawn per block of one stream
DEFAULT_STREAMS = 4  # default Monte Carlo streams of `mc_xi_aug_histogram` and verify-dist


@dataclass(frozen=True)
class MixConfig:
    """Mixing-pipeline selection: Beta parameter, mode, pair-sampler exponent."""

    alpha: float = 0.5
    mode: str = "unimix_full"
    tau: float = -1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.mode not in MIX_MODES:
            raise ValueError(f"mode must be one of {MIX_MODES}, got {self.mode!r}")

    @property
    def pair_tau(self) -> float:
        """Exponent for the pair-member sampler; random (tau=1) except in full mode."""
        return self.tau if self.mode == "unimix_full" else 1.0


def sample_beta(alpha: float, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """An array of `size` Beta(alpha, alpha) draws.

    Two cases take one uniform U = `rng.random` per draw, each an exact
    transform: alpha = 1 is U itself, and alpha = 1/2 (the arcsine law) is
    sin^2(pi U / 2). Every other alpha draws `rng.beta`, which refuses
    alpha <= 0.
    """
    if alpha == 1.0:
        return rng.random(size)
    if alpha == 0.5:
        u = rng.random(size)
        u *= np.pi / 2
        np.sin(u, out=u)
        return np.square(u, out=u)
    return rng.beta(alpha, alpha, size=size)


def _factor(mix: MixConfig, prior: np.ndarray, y_i: np.ndarray, y_j: np.ndarray,
            rng: np.random.Generator) -> np.ndarray:
    """Mixing weight of each pair: Beta(alpha, alpha) in vanilla mode, else prior-aware.

    The prior-aware weight frac(xi_beta + c), c = pi_j / (pi_i + pi_j), is
    computed in place. The callers take `prior` from `empirical_prior` or
    validate it strictly positive, so c is finite. xi_beta + c < 2, and
    subtracting the 0.0 of a false `>= 1.0` leaves a value bit for bit.
    """
    xi = sample_beta(mix.alpha, rng, size=y_i.shape[0])
    if mix.mode == "vanilla_mixup":
        return xi
    c = prior.take(y_j)
    total = prior.take(y_i)
    total += c
    c /= total
    xi += c
    xi -= xi >= 1.0
    return xi


def mix_batch(ds: Dataset, prior: np.ndarray, pair_prior: np.ndarray, mix: MixConfig,
              n: int, rng_i: np.random.Generator, rng_j: np.random.Generator,
              rng_mix: np.random.Generator):
    """`n` mixed samples: returns (x, y_i, y_j, xi) with x = xi*x_i + (1-xi)*x_j.

    In the factor modes `prior` must be strictly positive, as `empirical_prior`
    returns it. The streams are drawn in order: first members (rng_i), second members
    (rng_j), then the factors (rng_mix); one stream may serve all three.
    """
    x_i, y_i = draw_batch(ds, prior, n, rng_i)
    x_j, y_j = draw_batch(ds, pair_prior, n, rng_j)
    xi = _factor(mix, prior, y_i, y_j, rng_mix)
    x = xi[:, None] * x_i + (1.0 - xi)[:, None] * x_j
    return x, y_i, y_j, xi


def reinforced_class(y_i: np.ndarray, y_j: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The class each mixed pair reinforces, y_i where xi >= 0.5 (ties
    included) else y_j, as y_j + [xi >= 0.5] * (y_i - y_j): branch-free,
    written over y_i."""
    y_i -= y_j
    y_i *= xi >= 0.5
    y_i += y_j
    return y_i


def _mc_chunk(prior, pair_prior, config, trials, rngs):
    """Reinforced-class counts of `trials` pairs drawn from one stream.

    `rngs` are the stream's three generators, for the first members, the
    second members and the factors. Blocks of `_MC_BLOCK` pairs draw the
    values whole `trials`-long arrays would, while memory stays flat in
    `trials`. The two class tables are built before the first block and
    belong to this stream alone; the blocks only draw, weigh and count.
    """
    rng_i, rng_j, rng_mix = rngs
    table_i = class_table(prior, trials)
    table_j = class_table(pair_prior, trials)
    counts = np.zeros(prior.shape[0], dtype=np.int64)
    for start in range(0, trials, _MC_BLOCK):
        n = min(_MC_BLOCK, trials - start)
        y_i = draw_classes(table_i, n, rng_i)
        y_j = draw_classes(table_j, n, rng_j)
        xi = _factor(config, prior, y_i, y_j, rng_mix)
        counts += np.bincount(reinforced_class(y_i, y_j, xi), minlength=counts.shape[0])
    return counts


def _max_workers() -> int:
    """Worker-thread cap from UNIMIX_LT_THREADS; unset, empty or 0 means every core."""
    raw = os.environ.get("UNIMIX_LT_THREADS", "").strip()
    try:
        workers = int(raw or 0)
    except ValueError:
        workers = -1
    if workers < 0:
        raise ValueError(f"UNIMIX_LT_THREADS must be a non-negative integer, got {raw!r}")
    return workers or os.cpu_count() or 1


def mc_xi_aug_histogram(ds_prior: np.ndarray, config: MixConfig, trials: int,
                        seed: int, streams: int = DEFAULT_STREAMS) -> np.ndarray:
    """Empirical distribution of the reinforced class over `trials` mixed pairs.

    The first pair member is drawn from `ds_prior`; the second from
    `ds_prior` reweighted by the config's pair exponent (plain prior
    except in full mode). Trials are split over independent seeded
    streams whose partial histograms merge in stream order, so the result
    depends only on (seed, streams). UNIMIX_LT_THREADS caps the worker
    threads used to evaluate the streams.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if streams < 1:
        raise ValueError("streams must be >= 1")
    prior = check_prior(ds_prior, require_positive=True)
    pair_prior = inverse_prior(prior, config.pair_tau)
    # only the first min(streams, trials) streams draw; the first trials % streams draw one more
    jobs = [(trials // streams + (k < trials % streams),
             [derive_rng(seed, "mc", k, part) for part in ("i", "j", "mix")])
            for k in range(min(streams, trials))]
    with ThreadPoolExecutor(max_workers=min(len(jobs), _max_workers())) as pool:
        parts = list(pool.map(
            lambda job: _mc_chunk(prior, pair_prior, config, job[0], job[1]), jobs))
    counts = np.sum(parts, axis=0)
    return check_prior(counts / trials)
