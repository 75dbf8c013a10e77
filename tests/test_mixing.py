import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from unimix_lt import mixing
from unimix_lt.cli import main
from unimix_lt.data import Dataset, gen_lt_gaussians
from unimix_lt.mixing import (MixConfig, cyclic_shift, mc_xi_aug_histogram, mix_batch,
                              sample_beta, unimix_factor)
from unimix_lt.sampling import draw_batch, inverse_prior
from unimix_lt.streams import derive_rng
from unimix_lt.theory import LTSpec, discrete_lt_prior


def shifted_cdf(t, c, alpha):
    """Closed-form CDF of frac(beta + c) used as the independent oracle."""
    f = stats.beta(alpha, alpha).cdf
    t = np.asarray(t, dtype=float)
    above = f(np.clip(t - c, 0.0, 1.0)) + 1.0 - f(1.0 - c)
    below = f(np.clip(t + 1.0 - c, 0.0, 1.0)) - f(1.0 - c)
    return np.where(t >= c, above, below)


def test_sample_beta_uniform_ks():
    draws = sample_beta(1.0, derive_rng(0, "beta"), size=1_000_000)
    stat = stats.kstest(draws, "uniform").statistic
    # critical KS value at significance 0.001 for n = 1e6
    assert stat < 1.949 / math.sqrt(1_000_000)


@pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0])
def test_sample_beta_symmetric_mean(alpha):
    n = 1_000_000
    draws = sample_beta(alpha, derive_rng(1, "beta"), size=n)
    sigma = math.sqrt(1.0 / (4 * (2 * alpha + 1)) / n)
    assert abs(draws.mean() - 0.5) < 3 * sigma


def test_sample_beta_deterministic_and_domain():
    assert np.array_equal(sample_beta(0.5, derive_rng(2, "beta"), size=8),
                          sample_beta(0.5, derive_rng(2, "beta"), size=8))
    with pytest.raises(ValueError):
        sample_beta(0.0, derive_rng(0, "beta"), size=8)


def test_cyclic_shift_zero_is_bitwise_identity():
    draws = sample_beta(0.5, derive_rng(3, "beta"), size=100_000)
    np.testing.assert_array_equal(cyclic_shift(draws, np.zeros_like(draws)), draws)


def test_cyclic_shift_range():
    draws = sample_beta(1.0, derive_rng(4, "beta"), size=100_000)
    out = cyclic_shift(draws, np.full_like(draws, 0.73))
    assert np.all((out >= 0.0) & (out < 1.0))


def test_unimix_factor_symmetric_priors():
    n = 1_000_000
    xi = unimix_factor(np.full(n, 0.3), np.full(n, 0.3), 0.5, derive_rng(5, "mix"))
    # c = 0.5 keeps the shifted density symmetric around 0.5
    assert abs((xi >= 0.5).mean() - 0.5) < 3 * math.sqrt(0.25 / n)


def test_unimix_factor_uniform_case_half_mass():
    # pi = (0.2, 0.8) gives c = 0.8; with a uniform base draw the mass
    # above 0.5 is P(beta < 0.2) + P(beta >= 0.7) = 0.5 exactly
    n = 1_000_000
    xi = unimix_factor(np.full(n, 0.2), np.full(n, 0.8), 1.0, derive_rng(6, "mix"))
    assert abs((xi >= 0.5).mean() - 0.5) < 3 * math.sqrt(0.25 / n)


def test_unimix_factor_arcsine_oracle():
    n = 1_000_000
    c = 0.8
    xi = unimix_factor(np.full(n, 0.2), np.full(n, 0.8), 0.5, derive_rng(7, "mix"))
    expected = float(1.0 - shifted_cdf(0.5, c, 0.5))  # P(xi* >= 0.5)
    p_hat = (xi >= 0.5).mean()
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(p_hat - expected) < 3 * sigma


@pytest.mark.parametrize("alpha,c", [(1.0, 0.8), (0.5, 0.3), (0.5, 0.62)])
def test_unimix_factor_full_cdf_ks(alpha, c):
    n = 1_000_000
    pi_j = c
    pi_i = 1.0 - c
    xi = unimix_factor(np.full(n, pi_i), np.full(n, pi_j), alpha, derive_rng(8, "mix"))
    stat = stats.kstest(xi, lambda t: shifted_cdf(t, c, alpha)).statistic
    assert stat < 0.005


def test_unimix_factor_rejects_bad_priors():
    with pytest.raises(ValueError, match="strictly positive"):
        unimix_factor(np.array([0.5, 0.0]), np.array([0.5, 0.5]), 0.5, derive_rng(0, "mix"))
    with pytest.raises(ValueError, match="strictly positive"):
        unimix_factor(np.array([0.5]), np.array([-0.5]), 0.5, derive_rng(0, "mix"))


class _FixedBeta:
    """Stands in for a factor stream: every Beta draw returns `values`."""

    def __init__(self, values, rng=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.rng = rng

    def beta(self, a, b, size=None):
        return self.values.copy()

    def random(self, size=None):
        return self.rng.random(size)


# one sample per class: first members always class 0, second always class 1
PAIR_DS = Dataset(np.array([[0.0, 0.0], [2.0, 4.0]]), np.array([0, 1]))
VANILLA = MixConfig(alpha=1.0, mode="vanilla_mixup", tau=1.0)


def test_mix_batch_endpoints_and_midpoint():
    x, y_i, y_j, xi = mix_batch(PAIR_DS, np.array([1.0, 0.0]), np.array([0.0, 1.0]), VANILLA,
                                3, derive_rng(0, "t"), derive_rng(1, "t"),
                                _FixedBeta([1.0, 0.0, 0.5]))
    np.testing.assert_array_equal(x, [[0.0, 0.0], [2.0, 4.0], [1.0, 2.0]])
    np.testing.assert_array_equal(y_i, [0, 0, 0])
    np.testing.assert_array_equal(y_j, [1, 1, 1])
    np.testing.assert_array_equal(xi, [1.0, 0.0, 0.5])


@pytest.mark.parametrize("mode", ["vanilla_mixup", "unimix_factor_only", "unimix_full"])
def test_mix_batch_stream_order(mode):
    ds = gen_lt_gaussians(5, 20.0, 50, 3, seed=2)
    prior = ds.class_counts / ds.num_samples
    mix = MixConfig(alpha=0.5, mode=mode, tau=-1.0)
    pair_prior = inverse_prior(prior, mix.pair_tau)
    for seed in range(5):
        streams = [derive_rng(seed, "t", k) for k in range(3)]
        x, y_i, y_j, xi = mix_batch(ds, prior, pair_prior, mix, 32, *streams)
        a, b, m = (derive_rng(seed, "t", k) for k in range(3))
        x_i, want_i = draw_batch(ds, prior, 32, a)
        x_j, want_j = draw_batch(ds, pair_prior, 32, b)
        want_xi = (sample_beta(0.5, m, size=32) if mode == "vanilla_mixup"
                   else unimix_factor(prior[want_i], prior[want_j], 0.5, m))
        assert np.array_equal(y_i, want_i) and np.array_equal(y_j, want_j)
        assert np.array_equal(xi, want_xi)
        assert np.array_equal(x, xi[:, None] * x_i + (1.0 - xi)[:, None] * x_j)
        assert all(s.random() == r.random() for s, r in zip(streams, (a, b, m)))


def test_reinforced_class_threshold(monkeypatch):
    # first members are always class 0 and second members class 1, so the
    # histogram counts how many weights reach 0.5; the tie goes to y_i
    monkeypatch.setattr(mixing, "sample_beta",
                        lambda alpha, rng, size=None: np.array([0.7, 0.5, 0.49]))
    counts = mixing._mc_chunk(np.array([1.0, 0.0]), np.array([0.0, 1.0]), VANILLA, 3,
                              derive_rng(0, "t"))
    np.testing.assert_array_equal(counts, [2, 1])


# around one block of pairs, and a prime count spanning many blocks
MC_TRIALS = [1, 7, 65_535, 65_536, 65_537, 200_000, 1_000_003]


@pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0])
@pytest.mark.parametrize("mode", ["vanilla_mixup", "unimix_factor_only", "unimix_full"])
def test_blocked_mc_counts_match_whole_arrays(mode, alpha, whole_array_mc_chunk,
                                              monkeypatch):
    prior = discrete_lt_prior(LTSpec(20, 100.0))
    cfg = MixConfig(alpha=alpha, mode=mode, tau=-1.0)
    blocked = mixing._mc_chunk
    chunks = []

    def checked(prior, pair_prior, config, trials, rng):
        start = np.random.Generator(copy.deepcopy(rng.bit_generator))
        got = blocked(prior, pair_prior, config, trials, rng)
        chunks.append((got, whole_array_mc_chunk(prior, pair_prior, config, trials, start)))
        return got

    monkeypatch.setattr(mixing, "_mc_chunk", checked)
    for n, trials in enumerate(MC_TRIALS):
        streams = 1 + n % 4
        chunks.clear()
        hist = mc_xi_aug_histogram(prior, cfg, trials, seed=5, streams=streams)
        assert len(chunks) == min(trials, streams)
        for got, want in chunks:
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want, err_msg=f"{trials} trials")
        np.testing.assert_array_equal(hist, sum(got for got, _ in chunks) / trials)


def test_mc_histogram_memory_is_flat_in_trials(monkeypatch):
    # whole 1e6-long arrays peak near 74 MB; blocks of 2^16 pairs need a few
    monkeypatch.setenv("UNIMIX_LT_THREADS", "1")
    prior = discrete_lt_prior(LTSpec(100, 200.0, -1.0))
    cfg = MixConfig(alpha=0.5, mode="unimix_full", tau=-1.0)
    tracemalloc.start()
    try:
        mc_xi_aug_histogram(prior, cfg, 1_000_000, seed=7, streams=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_mc_histogram_mixup_matches_prior():
    spec = LTSpec(10, 100.0)
    prior = discrete_lt_prior(spec)
    hist = mc_xi_aug_histogram(prior, MixConfig(alpha=1.0, mode="vanilla_mixup"),
                               200_000, seed=7)
    assert np.abs(hist - prior).sum() <= 0.01
    assert abs(hist.sum() - 1.0) <= 1e-12


def test_mc_histogram_full_more_uniform_than_mixup():
    spec = LTSpec(100, 200.0, -1.0)
    prior = discrete_lt_prior(spec)
    uniform = np.full(100, 0.01)
    mix_hist = mc_xi_aug_histogram(prior, MixConfig(alpha=0.5, mode="vanilla_mixup"),
                                   200_000, seed=7)
    full_hist = mc_xi_aug_histogram(
        prior, MixConfig(alpha=0.5, mode="unimix_full", tau=-1.0), 200_000, seed=7)
    assert np.abs(full_hist - uniform).sum() < np.abs(mix_hist - uniform).sum()


def test_mc_histogram_factor_interior_argmax():
    # small alpha keeps the factor concentrated at the pair prior ratio,
    # the regime where the middle-majority shape holds for the discrete
    # sampler as well
    spec = LTSpec(100, 200.0)
    prior = discrete_lt_prior(spec)
    hist = mc_xi_aug_histogram(
        prior, MixConfig(alpha=0.2, mode="unimix_factor_only"), 200_000, seed=7)
    assert 1 <= hist.argmax() <= 98  # classes 2..99, 1-indexed


def test_mc_histogram_deterministic_per_stream_count():
    spec = LTSpec(10, 50.0)
    prior = discrete_lt_prior(spec)
    cfg = MixConfig(alpha=0.5, mode="unimix_full", tau=-1.0)
    a = mc_xi_aug_histogram(prior, cfg, 50_000, seed=3, streams=4)
    b = mc_xi_aug_histogram(prior, cfg, 50_000, seed=3, streams=4)
    np.testing.assert_array_equal(a, b)
    c = mc_xi_aug_histogram(prior, cfg, 50_000, seed=3, streams=1)
    assert not np.array_equal(a, c)  # stream split is part of the contract


def test_mc_histogram_trials_domain():
    prior = discrete_lt_prior(LTSpec(5, 10.0))
    with pytest.raises(ValueError):
        mc_xi_aug_histogram(prior, MixConfig(), 0, seed=0)


def test_mix_config_validation():
    with pytest.raises(ValueError):
        MixConfig(alpha=0.0)
    with pytest.raises(ValueError):
        MixConfig(alpha=1.5)
    with pytest.raises(ValueError):
        MixConfig(mode="remix")
    assert MixConfig(mode="vanilla_mixup", tau=-2.0).pair_tau == 1.0
    assert MixConfig(mode="unimix_full", tau=-2.0).pair_tau == -2.0


@pytest.mark.parametrize("value", ["0", "1"])
def test_thread_cap_values_keep_the_histogram(value, monkeypatch):
    prior = discrete_lt_prior(LTSpec(10, 50.0))
    cfg = MixConfig(alpha=0.5, mode="unimix_full", tau=-1.0)
    monkeypatch.delenv("UNIMIX_LT_THREADS", raising=False)
    want = mc_xi_aug_histogram(prior, cfg, 20_000, seed=3, streams=4)
    monkeypatch.setenv("UNIMIX_LT_THREADS", value)
    np.testing.assert_array_equal(mc_xi_aug_histogram(prior, cfg, 20_000, seed=3, streams=4),
                                  want)


@pytest.mark.parametrize("value", ["-1", "abc"])
def test_thread_cap_rejects_bad_values(value, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("UNIMIX_LT_THREADS", value)
    prior = discrete_lt_prior(LTSpec(10, 50.0))
    with pytest.raises(ValueError, match="UNIMIX_LT_THREADS"):
        mc_xi_aug_histogram(prior, MixConfig(), 1000, seed=0, streams=2)
    rc = main(["verify-dist", "--classes", "10", "--trials", "1000", "--out",
               str(tmp_path / "mc")])
    err = capsys.readouterr().err
    assert rc == 1 and "UNIMIX_LT_THREADS" in err and "Traceback" not in err
