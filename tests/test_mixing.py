import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from unimix_lt import mixing
from unimix_lt.cli import main
from unimix_lt.data import Dataset, gen_lt_gaussians
from unimix_lt.mixing import (MIX_MODES, MixConfig, mc_xi_aug_histogram, mix_batch,
                              reinforced_class, sample_beta)
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


def test_sample_beta_arcsine_ks():
    draws = sample_beta(0.5, derive_rng(0, "beta"), size=1_000_000)
    stat = stats.kstest(draws, stats.beta(0.5, 0.5).cdf).statistic
    # critical KS value at significance 0.001 for n = 1e6
    assert stat < 1.949 / math.sqrt(1_000_000)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_sample_beta_takes_one_uniform_per_draw(alpha):
    # the blocked Monte Carlo relies on this: n draws leave the stream where
    # n uniforms would, whatever block sizes the n draws are split into
    for n in (0, 1, 1000):
        rng, twin = derive_rng(9, "beta"), derive_rng(9, "beta")
        sample_beta(alpha, rng, size=n)
        twin.random(n)
        assert rng.random() == twin.random()


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


def prior_aware(pi_i, pi_j, alpha, rng, n):
    """`n` prior-aware weights of pairs with priors (pi_i, pi_j), drawn by
    `mixing._factor` as the trainer and the Monte Carlo draw them."""
    return mixing._factor(MixConfig(alpha=alpha, mode="unimix_factor_only"),
                          np.array([pi_i, pi_j]), np.zeros(n, dtype=np.int64),
                          np.ones(n, dtype=np.int64), rng)


def test_cyclic_shift_zero_is_bitwise_identity():
    draws = sample_beta(0.5, derive_rng(3, "beta"), size=100_000)
    xi = prior_aware(1.0, 0.0, 0.5, derive_rng(3, "beta"), 100_000)  # c = 0
    np.testing.assert_array_equal(xi.view(np.uint64), draws.view(np.uint64))


def test_cyclic_shift_range():
    xi = prior_aware(0.27, 0.73, 1.0, derive_rng(4, "beta"), 100_000)
    assert np.all((xi >= 0.0) & (xi < 1.0))


# (xi, pi_i, pi_j): xi + c exactly 1.0, c = 0, xi = 0, xi = 1 - 2^-53, the
# tie xi* = 0.5 and its neighbours, and c next to 1
FUSED_EDGES = [
    (0.75, 0.75, 0.25), (0.5, 0.5, 0.5), (0.25, 0.25, 0.75),
    (0.0, 1.0, 0.0), (0.5, 1.0, 0.0), (1 - 2**-53, 1.0, 0.0),
    (0.0, 0.75, 0.25), (0.0, 1.0, 1.0), (0.0, 1e-300, 1.0),
    (1 - 2**-53, 0.75, 0.25), (1 - 2**-53, 0.5, 0.5), (1 - 2**-53, 1e-300, 1.0),
    (0.25, 0.75, 0.25), (np.nextafter(0.25, 0.0), 0.75, 0.25),
    (np.nextafter(0.25, 1.0), 0.75, 0.25), (np.nextafter(0.5, 0.0), 1.0, 0.0),
]


def test_in_place_factor_and_tally_match_the_where_forms(cyclic_shift):
    """The in-place shift of `_factor` and `reinforced_class` against
    frac(xi + c) and the reinforced class as `np.where` picks them."""
    rng = np.random.default_rng(3)
    edge_xi, edge_i, edge_j = (np.array(col) for col in zip(*FUSED_EDGES))
    draws = np.concatenate([edge_xi, rng.random(5000)])
    pi_i = np.concatenate([edge_i, rng.random(5000) + 1e-3])
    pi_j = np.concatenate([edge_j, rng.random(5000) + 1e-3])
    n = draws.shape[0]
    # pair k draws classes (2k, 2k + 1), whose priors are pi_i[k] and pi_j[k]
    prior = np.column_stack([pi_i, pi_j]).ravel()
    y_i, y_j = 2 * np.arange(n), 2 * np.arange(n) + 1
    xi = mixing._factor(MixConfig(alpha=1.0, mode="unimix_factor_only"), prior, y_i, y_j,
                        _FixedBeta(draws))
    want = cyclic_shift(draws, pi_j / (pi_i + pi_j))
    np.testing.assert_array_equal(xi.view(np.uint64), want.view(np.uint64))
    assert xi[0] == 0.0 and xi[1] == 0.0  # xi + c = 1.0 wraps to 0
    np.testing.assert_array_equal(xi[3:6], edge_xi[3:6])  # c = 0 keeps xi
    reinforced = np.where(xi >= 0.5, y_i, y_j)
    np.testing.assert_array_equal(reinforced_class(y_i.copy(), y_j, xi), reinforced)
    assert reinforced_class(y_i.copy(), y_j, np.full(n, 0.5)).tolist() == y_i.tolist()


def test_unimix_factor_symmetric_priors():
    n = 1_000_000
    xi = prior_aware(0.3, 0.3, 0.5, derive_rng(5, "mix"), n)
    # c = 0.5 keeps the shifted density symmetric around 0.5
    assert abs((xi >= 0.5).mean() - 0.5) < 3 * math.sqrt(0.25 / n)


def test_unimix_factor_uniform_case_half_mass():
    # pi = (0.2, 0.8) gives c = 0.8; with a uniform base draw the mass
    # above 0.5 is P(beta < 0.2) + P(beta >= 0.7) = 0.5 exactly
    n = 1_000_000
    xi = prior_aware(0.2, 0.8, 1.0, derive_rng(6, "mix"), n)
    assert abs((xi >= 0.5).mean() - 0.5) < 3 * math.sqrt(0.25 / n)


def test_unimix_factor_arcsine_oracle():
    n = 1_000_000
    c = 0.8
    xi = prior_aware(0.2, 0.8, 0.5, derive_rng(7, "mix"), n)
    expected = float(1.0 - shifted_cdf(0.5, c, 0.5))  # P(xi* >= 0.5)
    p_hat = (xi >= 0.5).mean()
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(p_hat - expected) < 3 * sigma


@pytest.mark.parametrize("alpha,c", [(1.0, 0.8), (0.5, 0.3), (0.5, 0.62)])
def test_unimix_factor_full_cdf_ks(alpha, c):
    n = 1_000_000
    pi_j = c
    pi_i = 1.0 - c
    xi = prior_aware(pi_i, pi_j, alpha, derive_rng(8, "mix"), n)
    stat = stats.kstest(xi, lambda t: shifted_cdf(t, c, alpha)).statistic
    assert stat < 0.005


def test_unimix_factor_rejects_bad_priors():
    """The factor modes take their prior validated strictly positive where it
    enters (here, or in `empirical_prior` for the trainer and the circles
    study), so no pair's c = pi_j / (pi_i + pi_j) is ever 0 / 0."""
    for mode in ("unimix_factor_only", "unimix_full"):
        cfg = MixConfig(mode=mode)
        with pytest.raises(ValueError, match="strictly positive"):
            mc_xi_aug_histogram(np.array([0.5, 0.5, 0.0]), cfg, 1000, seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            mc_xi_aug_histogram(np.array([0.75, 0.5, -0.25]), cfg, 1000, seed=0)


class _FixedBeta:
    """Stands in for a factor stream: every draw returns `values`, whichever
    generator method (`beta` or `random`) the sampler calls."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def _draw(self, *args, **kwargs):
        return self.values.copy()

    beta = random = _draw


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
def test_mix_batch_stream_order(mode, unimix_factor):
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
                              [derive_rng(0, "t", k) for k in range(3)])
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

    def checked(prior, pair_prior, config, trials, rngs):
        start = [np.random.Generator(copy.deepcopy(rng.bit_generator)) for rng in rngs]
        got = blocked(prior, pair_prior, config, trials, rngs)
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


def mixed_class_law(prior, pair_prior, alpha, mode):
    """Exact distribution of the reinforced class of one mixed pair.

    The first member i comes from `prior` and the second j from
    `pair_prior`. With c = pi_j / (pi_i + pi_j), i wins with probability
    P_ij = P(frac(beta + c) >= 0.5) = F(1-c) - F(0.5-c) + 1 - F(1.5-c) in
    the factor modes (F the Beta(alpha, alpha) CDF clipped to [0, 1]),
    and 1/2 in vanilla mode, where the weight is the symmetric draw itself.
    """
    c = prior[None, :] / (prior[:, None] + prior[None, :])
    if mode == "vanilla_mixup":
        p_first = np.full_like(c, 0.5)
    else:
        p_first = 1.0 - shifted_cdf(0.5, c, alpha)
    return prior * (p_first @ pair_prior) + pair_prior * ((1.0 - p_first).T @ prior)


LAW_TRIALS = 1_000_000


@pytest.mark.parametrize("classes,rho", [(10, 10.0), (100, 200.0)])
@pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0])
@pytest.mark.parametrize("mode", MIX_MODES)
def test_mc_histogram_matches_the_exact_mixed_class_law(mode, alpha, classes, rho):
    prior = discrete_lt_prior(LTSpec(classes, rho))
    cfg = MixConfig(alpha=alpha, mode=mode, tau=-1.0)
    law = mixed_class_law(prior, inverse_prior(prior, cfg.pair_tau), alpha, mode)
    assert abs(law.sum() - 1.0) < 1e-12
    hist = mc_xi_aug_histogram(prior, cfg, LAW_TRIALS, seed=7)
    # each count is binomial, so hist_k - law_k is near N(0, sigma_k^2): the
    # L1 distance has mean sqrt(2/pi) * sum(sigma_k), and the bound allows
    # six of its standard deviations, counting the classes as independent
    sigma = np.sqrt(law * (1.0 - law) / LAW_TRIALS)
    bound = (math.sqrt(2.0 / math.pi) * sigma.sum()
             + 6.0 * math.sqrt((1.0 - 2.0 / math.pi) * (sigma**2).sum()))
    assert np.abs(hist - law).sum() < bound


@pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0])
def test_factor_only_histogram_is_full_mode_at_tau_one(alpha):
    # random pairing is the tau = 1 pair sampler, bit for bit
    prior = discrete_lt_prior(LTSpec(20, 50.0))
    factor = mc_xi_aug_histogram(prior, MixConfig(alpha=alpha, mode="unimix_factor_only",
                                                  tau=-1.0), 50_000, seed=5)
    full = mc_xi_aug_histogram(prior, MixConfig(alpha=alpha, mode="unimix_full", tau=1.0),
                               50_000, seed=5)
    assert factor.tobytes() == full.tobytes()


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


def test_mc_histogram_plans_only_the_streams_that_draw(monkeypatch):
    # 10 trials over 10^6 streams: a plan over every stream would take
    # 8 bytes per stream, 8 MB here, before anything is drawn
    monkeypatch.setenv("UNIMIX_LT_THREADS", "2")
    prior = discrete_lt_prior(LTSpec(100, 200.0, -1.0))
    cfg = MixConfig(alpha=0.5, mode="unimix_full", tau=-1.0)
    tracemalloc.start()
    try:
        hist = mc_xi_aug_histogram(prior, cfg, 10, seed=7, streams=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    assert np.round(hist * 10).sum() == 10


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


@pytest.mark.parametrize("value", ["0", "1", "2", "", " 2 ", "3"])
def test_thread_cap_values_keep_the_histogram(value, monkeypatch, tmp_path):
    cfg = MixConfig(alpha=0.5, mode="unimix_full", tau=-1.0)
    # one block per stream, and the verify-dist problem with two blocks in each
    # of 4 streams, so each worker draws several blocks from its own tables
    for prior, trials in ((discrete_lt_prior(LTSpec(10, 50.0)), 20_000),
                          (discrete_lt_prior(LTSpec(100, 200.0, -1.0)),
                           4 * (mixing._MC_BLOCK + 1000))):
        monkeypatch.delenv("UNIMIX_LT_THREADS", raising=False)
        want = mc_xi_aug_histogram(prior, cfg, trials, seed=3, streams=4)
        monkeypatch.setenv("UNIMIX_LT_THREADS", value)
        got = mc_xi_aug_histogram(prior, cfg, trials, seed=3, streams=4)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    # and through the CLI, against a run with the variable unset
    argv = ["verify-dist", "--classes", "10", "--trials", "20000", "--streams", "4"]
    assert main([*argv, "--out", str(tmp_path / "set")]) == 0
    monkeypatch.delenv("UNIMIX_LT_THREADS")
    assert main([*argv, "--out", str(tmp_path / "unset")]) == 0
    assert ((tmp_path / "set" / "histogram.csv").read_bytes()
            == (tmp_path / "unset" / "histogram.csv").read_bytes())


@pytest.mark.parametrize("value", ["-1", "abc", "1.5"])
def test_thread_cap_rejects_bad_values(value, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("UNIMIX_LT_THREADS", value)
    prior = discrete_lt_prior(LTSpec(10, 50.0))
    with pytest.raises(ValueError, match="UNIMIX_LT_THREADS"):
        mc_xi_aug_histogram(prior, MixConfig(), 1000, seed=0, streams=2)
    rc = main(["verify-dist", "--classes", "10", "--trials", "1000", "--out",
               str(tmp_path / "mc")])
    err = capsys.readouterr().err
    assert rc == 1 and "UNIMIX_LT_THREADS" in err and "Traceback" not in err
