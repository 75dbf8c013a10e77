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
member), which `reinforced_class` picks into a new array.
`mc_xi_aug_histogram` tallies that class over many random pairs to
validate the closed forms in `theory`. It validates the prior once per
call; a stream is just its three named generators, rng_i, rng_j and
rng_mix, and memory stays flat in the trial count. A call takes one of two
paths:

- per draw: the call builds the two class tables once, and each stream
  draws blocks of 2^16 pairs, first members by rng_i, second members by
  rng_j and factors by rng_mix (one kind of draw per generator, so the
  values whole arrays would, bit for bit), then tallies their winners;
- threshold table: a call at alpha = 1/2 with enough draws per class pair
  and at most 1024 classes computes the exact law q of one pair's
  reinforced class in closed form (`_table_law`: O(C) in vanilla mode,
  where each pair's winner is a fair coin, else O(C^2) work and memory
  from the Beta CDF). The counts of n i.i.d. pairs are Multinomial(n, q),
  which each stream draws whole by rng_i: O(C) work, whatever the trial
  count. The counts differ in bits from the per-draw path's, not in law.

The per-draw path runs its streams on one thread pool, a single stream
included; the table path runs its streams, one multinomial each, in the
calling thread. Either way the counts add up in stream order, so the worker
count never changes them.
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
# A call takes the threshold table at alpha = 1/2 from _TABLE_PAIR_DRAWS draws per
# class pair plus _TABLE_FIXED_DRAWS. Measured break-even of the whole call (full
# mode, rho = 200, 4 streams, one call per fresh process, 2-core x86-64 VM, numpy
# 2.4.6): at C = 10, 100 and 200 the two paths are within noise of each other up to
# about 1e4 trials (11-15 ms a call, most of it numpy.random's first import), and
# the table is faster above that. The constants are 20 to 800 times that; lowering
# them moves calls onto the table, which changes their histograms' bits (not their law).
_TABLE_PAIR_DRAWS = 200
_TABLE_FIXED_DRAWS = 200_000
MAX_STREAMS = 1024  # Monte Carlo streams of one call; each holds three generators
MAX_TABLE_CLASSES = 1024  # most classes of `_table_law` (factor modes: 24 MiB, 64 ms, at 1024)
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

    def pair_prior(self, prior: np.ndarray) -> np.ndarray:
        """The prior of second pair members: prior^tau in full mode, else `prior`."""
        return inverse_prior(prior, self.tau if self.mode == "unimix_full" else 1.0)


def sample_beta(alpha: float, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """An array of `size` Beta(alpha, alpha) draws.

    Two cases take one uniform U = `rng.random` per draw, each an exact
    transform: alpha = 1 is U itself, and alpha = 1/2 (the arcsine law) is
    sin^2(pi U / 2), computed in place. Every other alpha draws `rng.beta`,
    which refuses alpha <= 0.
    """
    if alpha not in (0.5, 1.0):
        return rng.beta(alpha, alpha, size=size)
    u = rng.random(size)
    if alpha == 0.5:
        u *= np.pi / 2
        np.sin(u, out=u)
        np.square(u, out=u)
    return u


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
    (rng_j), then the factors (rng_mix); one stream may serve all three. The
    features are mixed in place in the two member batches `draw_batch` gathered,
    so x reuses the first member's buffer.
    """
    x_i, y_i = draw_batch(ds, prior, n, rng_i)
    x_j, y_j = draw_batch(ds, pair_prior, n, rng_j)
    xi = _factor(mix, prior, y_i, y_j, rng_mix)
    x_i *= xi[:, None]
    x_j *= (1.0 - xi)[:, None]
    x_i += x_j
    return x_i, y_i, y_j, xi


def reinforced_class(y_i: np.ndarray, y_j: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The class each mixed pair reinforces, y_i where xi >= 0.5 (ties
    included) else y_j, as a new array."""
    return _pick_first(y_i.copy(), y_j, xi >= 0.5)


def _pick_first(y_i: np.ndarray, y_j: np.ndarray, first: np.ndarray) -> np.ndarray:
    """y_i where `first` holds else y_j, as y_j + first * (y_i - y_j):
    branch-free, written over y_i."""
    y_i -= y_j
    y_i *= first
    y_i += y_j
    return y_i


def _beta_cdf(x: np.ndarray) -> np.ndarray:
    """The Beta(1/2, 1/2) (arcsine) CDF (2/pi) asin(sqrt(x)) at `x` clipped
    to [0, 1], in place: the inverse of `sample_beta`'s map at alpha = 1/2."""
    np.clip(x, 0.0, 1.0, out=x)
    np.sqrt(x, out=x)
    np.arcsin(x, out=x)
    x *= 2 / np.pi
    return x


def _table_pays_off(config: MixConfig, prior: np.ndarray, trials: int) -> bool:
    """Whether `_table_law` saves a call more than it costs: at alpha = 1/2,
    the one measured of the two it holds at, from enough draws per pair and
    up to `MAX_TABLE_CLASSES` classes."""
    return (config.alpha == 0.5 and prior.shape[0] <= MAX_TABLE_CLASSES
            and trials >= _TABLE_PAIR_DRAWS * prior.shape[0] ** 2 + _TABLE_FIXED_DRAWS)


def _table_law(config: MixConfig, prior: np.ndarray) -> np.ndarray:
    """q = pi (P pi') + pi' ((1 - P)^T pi), the law of one pair's reinforced
    class at alpha in {1/2, 1}, pi' the pair prior. The first member i wins
    with P_ij = 1/2 wherever the shift cannot move the winner (vanilla mode,
    and alpha = 1, where frac(U + c) is uniform), so q is
    (pi sum(pi') + pi' sum(pi)) / 2, in O(C). The factor modes at alpha = 1/2
    take P_ij = P(frac(beta + c) >= 1/2) = F(1 - c) - F(1/2 - c) + 1 - F(3/2 - c),
    F the `_beta_cdf` and c as `_factor` computes it. This is the law in real
    arithmetic: the rounding of `_factor`'s shift moves the sampler's law off
    it by up to 1.35e-8 in L1 (measured at two-class priors within 2^-54 of
    1/2 or with an entry above 1; 4.1e-14 at C = 20, rho = 1e6).
    """
    pair_prior = config.pair_prior(prior)
    if config.mode == "vanilla_mixup" or config.alpha == 1.0:
        return 0.5 * (prior * pair_prior.sum() + pair_prior * prior.sum())
    c = prior[None, :] / (prior[:, None] + prior[None, :])
    p = _beta_cdf(1.0 - c)
    p -= _beta_cdf(0.5 - c)
    p += 1.0
    p -= _beta_cdf(1.5 - c)
    return prior * (p @ pair_prior) + pair_prior * ((1.0 - p).T @ prior)


def _class_counts(n: int, prior: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Class counts of `n` draws from `prior` by one `rng.multinomial`: the
    law of `draw_classes`.

    numpy refuses an entry above 1, which `check_prior` lets a prior hold
    within its 1e-12 sum tolerance, so the prior is renormalized; it is cut
    after its last class with mass, which takes numpy's rounding remainder
    as the last edge of a `class_table` does.
    """
    top = np.flatnonzero(prior)[-1] + 1
    counts = np.zeros(prior.shape, dtype=np.int64)
    counts[:top] = rng.multinomial(n, prior[:top] / prior[:top].sum())
    return counts


def _mc_chunk(prior, tables, config, trials, rngs, law):
    """Reinforced-class counts of `trials` pairs drawn from one stream.

    A stream is just `rngs`: rng_i, rng_j and rng_mix; with a `law`, rng_i
    alone, which draws the counts whole, as one multinomial. Without one, the
    stream reads the call's two `class_table`s in blocks of `_MC_BLOCK` pairs, so
    memory stays flat in `trials`: each block draws its first members by
    rng_i, its second by rng_j and their factors by rng_mix, the values
    whole arrays would, and tallies the winners.
    """
    if law is not None:
        return _class_counts(trials, law, rngs[0])
    (table_i, table_j), (rng_i, rng_j, rng_mix) = tables, rngs
    classes = prior.shape[0]
    counts = np.zeros(classes, dtype=np.int64)
    for start in range(0, trials, _MC_BLOCK):
        n = min(_MC_BLOCK, trials - start)
        y_i = draw_classes(table_i, n, rng_i)
        y_j = draw_classes(table_j, n, rng_j)
        # `wins` stays bound until the next block replaces it: released within
        # the block, it let glibc trim and refault the thread's heap each block
        # (about 60,000 minor faults per 1e7-pair call instead of 4,000-12,000)
        wins = _factor(config, prior, y_i, y_j, rng_mix) >= 0.5
        counts += np.bincount(_pick_first(y_i, y_j, wins), minlength=classes)
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
    depends only on (seed, streams), with 1 <= streams <= `MAX_STREAMS`.
    Each stream draws the first members by rng_i, the second by rng_j and
    one factor per pair by rng_mix, on a thread pool whose workers
    UNIMIX_LT_THREADS caps; or, where `_table_pays_off`, its counts whole
    by rng_i from their exact law, `_table_law`, in the calling thread.
    """
    workers = _max_workers()
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= streams <= MAX_STREAMS:
        raise ValueError(f"streams must lie in [1, {MAX_STREAMS}], got {streams}")
    prior = check_prior(ds_prior, require_positive=True)
    table = _table_pays_off(config, prior, trials)
    parts = ("i",) if table else ("i", "j", "mix")  # a table stream draws by rng_i alone
    # only the first min(streams, trials) streams draw; the first trials % streams draw one more
    jobs = [(trials // streams + (k < trials % streams),
             [derive_rng(seed, "mc", k, part) for part in parts])
            for k in range(min(streams, trials))]
    if table:
        law = _table_law(config, prior)
        counts = [_mc_chunk(prior, None, config, *job, law) for job in jobs]
    else:
        tables = [class_table(p, trials) for p in (prior, config.pair_prior(prior))]
        with ThreadPoolExecutor(max_workers=min(len(jobs), workers)) as pool:
            counts = list(pool.map(lambda job: _mc_chunk(prior, tables, config, *job, None), jobs))
    return check_prior(np.sum(counts, axis=0) / trials)
