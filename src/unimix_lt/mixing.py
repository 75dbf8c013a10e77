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
otherwise) and combines the features. A mixed sample reinforces the class
whose weight is >= 0.5 (ties go to the first pair member).
`mc_xi_aug_histogram` tallies that class over many random pairs to
validate the closed forms in `theory`. Each of its streams is drawn in
blocks of 2^16 pairs from three generators placed where the first
members, the second members and the factors of the whole stream begin
(0, trials and 2 * trials 64-bit outputs in), so memory stays flat in the
trial count and the counts are those of whole-array draws, bit for bit.
The streams run on one thread pool, a single stream included, and their
counts add up in stream order, so the worker count never changes them.
"""

from __future__ import annotations

import copy
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .sampling import draw_batch, draw_classes, inverse_prior
from .streams import derive_rng
from .theory import check_prior

__all__ = [
    "MixConfig",
    "MIX_MODES",
    "sample_beta",
    "cyclic_shift",
    "unimix_factor",
    "mix_batch",
    "mc_xi_aug_histogram",
]

MIX_MODES = ("vanilla_mixup", "unimix_factor_only", "unimix_full")

_MC_BLOCK = 1 << 16  # Monte Carlo pairs drawn per block of one stream


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
    """An array of `size` Beta(alpha, alpha) draws; alpha = 1 is uniform on [0, 1]."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return rng.beta(alpha, alpha, size=size)


def cyclic_shift(xi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """frac(xi + c) on [0, 1), implemented so c = 0 returns xi bit-for-bit."""
    out = xi + c
    return np.where(out >= 1.0, out - 1.0, out)


def unimix_factor(pi_i: np.ndarray, pi_j: np.ndarray, alpha: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Prior-aware mixing weights for equal-length arrays of pair priors
    (pi_i, pi_j); one Beta draw per pair."""
    if (pi_i <= 0).any() or (pi_j <= 0).any():
        raise ValueError("pair priors must be strictly positive")
    c = pi_j / (pi_i + pi_j)
    return cyclic_shift(sample_beta(alpha, rng, size=c.shape), c)


def _factor(mix: MixConfig, prior: np.ndarray, y_i: np.ndarray, y_j: np.ndarray,
            rng: np.random.Generator) -> np.ndarray:
    """Mixing weight of each pair: Beta(alpha, alpha) in vanilla mode, else prior-aware."""
    if mix.mode == "vanilla_mixup":
        return sample_beta(mix.alpha, rng, size=y_i.shape[0])
    return unimix_factor(prior[y_i], prior[y_j], mix.alpha, rng)


def mix_batch(ds: Dataset, prior: np.ndarray, pair_prior: np.ndarray, mix: MixConfig,
              n: int, rng_i: np.random.Generator, rng_j: np.random.Generator,
              rng_mix: np.random.Generator):
    """`n` mixed samples: returns (x, y_i, y_j, xi) with x = xi*x_i + (1-xi)*x_j.

    The streams are drawn in order: first members (rng_i), second members
    (rng_j), then the factors (rng_mix); one stream may serve all three.
    """
    x_i, y_i = draw_batch(ds, prior, n, rng_i)
    x_j, y_j = draw_batch(ds, pair_prior, n, rng_j)
    xi = _factor(mix, prior, y_i, y_j, rng_mix)
    x = xi[:, None] * x_i + (1.0 - xi)[:, None] * x_j
    return x, y_i, y_j, xi


def _advanced(rng: np.random.Generator, draws: int) -> np.random.Generator:
    """A copy of `rng` placed `draws` 64-bit outputs further along its stream."""
    bit_generator = copy.deepcopy(rng.bit_generator)
    bit_generator.advance(draws)
    return np.random.Generator(bit_generator)


def _mc_chunk(prior, pair_prior, config, trials, rng):
    """Reinforced-class counts of `trials` pairs drawn from one stream.

    The stream is read as if whole `trials`-long arrays were drawn from it
    in turn: first members, second members, then the factors. Each of the
    three generators starts where its array began (one 64-bit output per
    uniform), and Beta draws are taken one element after another, so
    blocks of `_MC_BLOCK` pairs draw the same values in the same order
    while memory stays flat in `trials`.
    """
    rng_j = _advanced(rng, trials)
    rng_mix = _advanced(rng, 2 * trials)
    counts = np.zeros(prior.shape[0], dtype=np.int64)
    for start in range(0, trials, _MC_BLOCK):
        n = min(_MC_BLOCK, trials - start)
        y_i = draw_classes(prior, n, rng)
        y_j = draw_classes(pair_prior, n, rng_j)
        xi = _factor(config, prior, y_i, y_j, rng_mix)
        counts += np.bincount(np.where(xi >= 0.5, y_i, y_j), minlength=counts.shape[0])
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
                        seed: int, streams: int = 4) -> np.ndarray:
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
    sizes = [trials // streams + (1 if k < trials % streams else 0) for k in range(streams)]
    jobs = [(size, derive_rng(seed, "mc", k)) for k, size in enumerate(sizes) if size > 0]
    with ThreadPoolExecutor(max_workers=min(len(jobs), _max_workers())) as pool:
        parts = list(pool.map(
            lambda job: _mc_chunk(prior, pair_prior, config, job[0], job[1]), jobs))
    counts = np.sum(parts, axis=0)
    return check_prior(counts / trials)
