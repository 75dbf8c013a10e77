import copy
import itertools
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
from unimix_lt.sampling import class_table, draw_batch, inverse_prior
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
    # n uniforms would, whatever block sizes the n draws are split into; and
    # each draw is its uniform's exact transform, bit for bit
    for n in (0, 1, 1000):
        rng, twin = derive_rng(9, "beta"), derive_rng(9, "beta")
        got = sample_beta(alpha, rng, size=n)
        u = twin.random(n)
        want = u if alpha == 1.0 else np.square(np.sin(u * (np.pi / 2)))
        assert got.tobytes() == want.tobytes()
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
    pair_prior = mix.pair_prior(prior)
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
    tables = (class_table(np.array([1.0, 0.0]), 3), class_table(np.array([0.0, 1.0]), 3))
    counts = mixing._mc_chunk(np.array([1.0, 0.0]), tables, VANILLA, 3,
                              [derive_rng(0, "t", k) for k in range(3)], None)
    np.testing.assert_array_equal(counts, [2, 1])


def test_reinforced_class_leaves_its_inputs_alone():
    y_i, y_j, xi = np.array([0, 1, 2]), np.array([3, 4, 5]), np.array([0.7, 0.5, 0.49])
    np.testing.assert_array_equal(reinforced_class(y_i, y_j, xi), [0, 1, 5])
    assert y_i.tolist() == [0, 1, 2] and y_j.tolist() == [3, 4, 5]


@pytest.mark.parametrize("streams", [1, 4, 7])
def test_a_call_builds_its_two_class_tables_once(streams, monkeypatch):
    built = []
    monkeypatch.setattr(mixing, "class_table",
                        lambda *args: built.append(args) or class_table(*args))
    prior = discrete_lt_prior(LTSpec(10, 100.0))
    mc_xi_aug_histogram(prior, MixConfig(), 100_000, seed=1, streams=streams)
    assert len(built) == 2
    # the threshold-table path (from 200 * 10^2 + 200,000 trials) draws each
    # stream's counts from the exact law and reads no class table
    built.clear()
    mc_xi_aug_histogram(prior, MixConfig(), 220_000, seed=1, streams=streams)
    assert built == []


# around one block of pairs, and a prime count spanning many blocks; at C = 20
# and alpha = 1/2, 1,000,003 trials take the threshold table by size (from
# 200 * 20^2 + 200,000 = 280,000 trials) and the smaller counts the per-draw factor
MC_TRIALS = [1, 7, 65_535, 65_536, 65_537, 200_000, 1_000_003]


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("mode", ["vanilla_mixup", "unimix_factor_only", "unimix_full"])
def test_blocked_mc_counts_match_whole_arrays(mode, alpha, whole_array_mc_chunk,
                                              exact_law_chunk, monkeypatch):
    cfg = MixConfig(alpha=alpha, mode=mode, tau=-1.0)
    blocked, pays_off = mixing._mc_chunk, mixing._table_pays_off
    chunks = []

    def checked(prior, tables, config, trials, rngs, law):
        start = [np.random.Generator(copy.deepcopy(rng.bit_generator)) for rng in rngs]
        got = blocked(prior, tables, config, trials, rngs, law)
        if law is None:
            want = whole_array_mc_chunk(prior, config.pair_prior(prior), config, trials, start)
        else:
            want = exact_law_chunk(mixing._table_law(config, prior), trials, start)
        chunks.append((got, want, law is not None))
        return got

    monkeypatch.setattr(mixing, "_mc_chunk", checked)
    monkeypatch.setattr(mixing, "_table_pays_off", lambda *args: forced or pays_off(*args))
    # the table's law is the closed form at alpha in {1/2, 1}, so it is forced
    # only there
    forcing = [False, True] if alpha in (0.5, 1.0) else [False]
    # at rho = 1e6 many pairs' shifts c lie near 0 and 1, where the CDF's arguments clip
    for rho, forced in itertools.product([100.0, 1e6], forcing):
        prior = discrete_lt_prior(LTSpec(20, rho))
        for n, trials in enumerate(MC_TRIALS):
            streams = 1 + n % 4
            chunks.clear()
            hist = mc_xi_aug_histogram(prior, cfg, trials, seed=5, streams=streams)
            assert len(chunks) == min(trials, streams)
            by_size = alpha == 0.5 and trials == 1_000_003
            assert {used for *_, used in chunks} == {forced or by_size}
            for got, want, _ in chunks:
                assert got.dtype == want.dtype == np.int64
                np.testing.assert_array_equal(got, want, err_msg=f"{rho=}, {trials} trials")
            np.testing.assert_array_equal(hist, sum(got for got, *_ in chunks) / trials)


TABLE_PRIORS = {"rho=100": discrete_lt_prior(LTSpec(20, 100.0)),
                "rho=1e6": discrete_lt_prior(LTSpec(20, 1e6)),
                "exactness-trap": np.array([0.5 - 2.0**-54, 0.5 + 2.0**-54])}


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("mode", MIX_MODES)
@pytest.mark.parametrize("prior", TABLE_PRIORS.values(), ids=TABLE_PRIORS.keys())
def test_odd_levels_decide_as_the_factor(mode, alpha, prior, grid_thresholds):
    # `rng.random` draws m / 2^53, and the grid oracle gives each pair's levels
    # as grid indices. At 0, 2^53 - 1, some uniform draws, and each index and
    # the one below it, in every pair (i, j), the factor's `>= 0.5` holds where
    # the point reaches an odd number of those indices, bit for bit
    cfg = MixConfig(alpha=alpha, mode=mode)
    table = grid_thresholds(cfg, prior)
    classes, grid = prior.shape[0], 2**53
    y_i, y_j = (a.ravel() for a in np.indices((classes, classes)))
    edges = table[:, y_i, y_j]
    uniform = (derive_rng(0, "draws").random((8, classes**2)) * grid).astype(np.int64)
    for m in [np.zeros(classes**2, dtype=np.int64), np.full(classes**2, grid - 1), *uniform,
              *np.concatenate([edges, edges - 1]).clip(0, grid - 1)]:
        want = (m >= edges).sum(axis=0) % 2 == 1
        xi = mixing._factor(cfg, prior, y_i, y_j, _FixedBeta(m * 2.0**-53))
        np.testing.assert_array_equal(xi >= 0.5, want)


# the L1 bound of each prior is about five times the largest measured over the
# modes and alphas: 1.6e-16 at rho = 100, 4.1e-14 at rho = 1e6 (full mode,
# alpha = 1/2) and 6.9e-10 at the exactness trap (factor modes, alpha = 1/2)
GRID_LAW_L1 = {"rho=100": 1e-15, "rho=1e6": 2e-13, "exactness-trap": 3.5e-9}


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("mode", MIX_MODES)
@pytest.mark.parametrize("prior,l1", [(TABLE_PRIORS[k], b) for k, b in GRID_LAW_L1.items()],
                         ids=GRID_LAW_L1.keys())
def test_win_probs_count_the_grid_points_that_win(mode, alpha, prior, l1, grid_thresholds,
                                                  grid_win_probs):
    # `_table_law` is the law whose P_ij is, per pair, the share of `rng.random`'s
    # grid that reaches an odd number of the pair's levels: the points where the
    # factor's `>= 0.5` holds. Its closed form is that count in real arithmetic,
    # so the two differ only by the rounding of the factor's shift c
    cfg = MixConfig(alpha=alpha, mode=mode)
    p = grid_win_probs(grid_thresholds(cfg, prior))
    pair_prior = cfg.pair_prior(prior)
    grid_law = prior * (p @ pair_prior) + pair_prior * ((1.0 - p).T @ prior)
    assert np.abs(mixing._table_law(cfg, prior) - grid_law).sum() <= l1


def test_rng_random_draws_the_grid_the_table_counts():
    # the grid oracle's law rests on `rng.random` returning (raw >> 11) / 2^53
    # for each 64-bit raw output; a change there would move P_ij by about
    # 2^-53, far below what any Monte Carlo bound can see
    for k, part in itertools.product(range(3), ("i", "j", "mix")):
        rng = derive_rng(11, "mc", k, part)
        raw = copy.deepcopy(rng.bit_generator).random_raw(2**16)
        assert rng.random(2**16).tobytes() == ((raw >> 11) * 2.0**-53).tobytes()


@pytest.mark.parametrize("mode", MIX_MODES)
def test_threshold_table_path_takes_a_prior_entry_above_one(mode):
    # `check_prior` lets a prior sum to 1 within 1e-12, so an entry may exceed 1,
    # which numpy's multinomial refuses; 200,800 trials at C = 2 take the table
    prior = np.array([1.0 + 5e-13, 1e-300])
    cfg = MixConfig(mode=mode)
    assert mixing._table_pays_off(cfg, prior, 200_800)
    hist = mc_xi_aug_histogram(prior, cfg, 200_800, seed=3)
    # the pairs are (0, 0) but in full mode, whose pair prior is about [1e-300, 1]:
    # there class 0 wins a pair (0, 1) with probability 1/2
    want = [0.5, 0.5] if mode == "unimix_full" else [1.0, 0.0]
    assert np.abs(hist - want).max() <= 6 * 0.5 / math.sqrt(200_800)


def test_class_counts_leave_a_class_without_mass_empty():
    # numpy's multinomial gives its last class what rounding leaves of 1 - sum
    # (1.1e-16 here, about 111 of 10^18 draws); as a class table's last edge
    # does, the counts give it to the last class with mass
    prior = np.array([0.01, 0.41, 0.58, 0.0])
    counts = mixing._class_counts(10**18, prior, derive_rng(0, "counts"))
    assert counts[3] == 0 and counts.sum() == 10**18


def test_threshold_table_is_built_only_up_to_max_table_classes():
    # the law's build peaks near 24 C^2 bytes, about 1.5 GiB at iNaturalist's
    # C = 8142; uniform priors, and nothing is built
    cfg = MixConfig(alpha=0.5)
    for classes, pays_off in [(1024, True), (1025, False)]:
        prior = np.full(classes, 1.0 / classes)
        assert mixing._table_pays_off(cfg, prior, 10**12) is pays_off


@pytest.mark.parametrize("mode", MIX_MODES)
def test_table_law_peaks_under_64_mib_at_max_table_classes(mode):
    # measured 24 MiB in the factor modes at alpha = 1/2; where every pair's
    # winner is a fair coin (vanilla mode, or alpha = 1) the law is O(C)
    prior = discrete_lt_prior(LTSpec(mixing.MAX_TABLE_CLASSES, 200.0))
    for alpha in (0.5, 1.0):
        tracemalloc.start()
        try:
            mixing._table_law(MixConfig(alpha=alpha, mode=mode), prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20
        if mode == "vanilla_mixup" or alpha == 1.0:
            assert peak < 2**20, f"{alpha=}"


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


def l1_bound(law, trials):
    """Six-sigma bound on the L1 distance of a `trials`-pair histogram to `law`.

    Each count is binomial, so hist_k - law_k is near N(0, sigma_k^2): the
    L1 distance has mean sqrt(2/pi) * sum(sigma_k), and the bound allows
    six of its standard deviations, counting the classes as independent.
    """
    sigma = np.sqrt(law * (1.0 - law) / trials)
    return (math.sqrt(2.0 / math.pi) * sigma.sum()
            + 6.0 * math.sqrt((1.0 - 2.0 / math.pi) * (sigma**2).sum()))


LAW_TRIALS = 1_000_000


@pytest.mark.parametrize("classes,rho", [(10, 10.0), (100, 200.0)])
@pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0])
@pytest.mark.parametrize("mode", MIX_MODES)
def test_mc_histogram_matches_the_exact_mixed_class_law(mode, alpha, classes, rho):
    prior = discrete_lt_prior(LTSpec(classes, rho))
    cfg = MixConfig(alpha=alpha, mode=mode, tau=-1.0)
    law = mixed_class_law(prior, cfg.pair_prior(prior), alpha, mode)
    assert abs(law.sum() - 1.0) < 1e-12
    # at C = 100 every alpha takes the per-draw path, so these cases check the
    # closed form that `_table_law` samples against the sampler itself
    assert classes == 10 or not mixing._table_pays_off(cfg, prior, LAW_TRIALS)
    hist = mc_xi_aug_histogram(prior, cfg, LAW_TRIALS, seed=7)
    assert np.abs(hist - law).sum() < l1_bound(law, LAW_TRIALS)


# keyed by the ids pytest gives a (classes, rho) pair
LAW_PRIORS = {f"{c}-{rho}": discrete_lt_prior(LTSpec(c, rho))
              for c, rho in [(10, 10.0), (100, 200.0), (200, 200.0)]}
# c one ulp below 1/2 in pair (1, 0): the exactness trap of any interval form
LAW_PRIORS["exactness-trap"] = np.array([0.5 - 2.0**-54, 0.5 + 2.0**-54])
# c = 1.0 exactly in pair (1, 0), and an entry above 1 within the sum tolerance
LAW_PRIORS["entry-above-one"] = np.array([1.0 + 5e-13, 1e-300])


@pytest.mark.parametrize("prior", LAW_PRIORS.values(), ids=LAW_PRIORS.keys())
@pytest.mark.parametrize("mode", MIX_MODES)
def test_win_probs_give_the_exact_mixed_class_law(mode, prior):
    # the law the threshold-table path samples, pi (P pi') + pi' ((1 - P)^T pi),
    # is the Beta-CDF law of the scipy oracle at both alphas it holds at. The
    # largest L1 measured is 2.2e-16 (exactness trap, full mode, alpha = 1/2),
    # 9e-17 on the long-tailed priors and 0 at the entry above one; 1e-15 is
    # about four times the largest
    for alpha in (0.5, 1.0):
        cfg = MixConfig(alpha=alpha, mode=mode, tau=-1.0)
        law = mixed_class_law(prior, cfg.pair_prior(prior), alpha, mode)
        assert np.abs(mixing._table_law(cfg, prior) - law).sum() <= 1e-15


def test_threshold_table_cost_does_not_grow_with_trials(monkeypatch):
    # each stream's counts are one multinomial draw, so 10^12 trials draw no factor
    def no_draws(*args, **kwargs):
        raise AssertionError("the threshold-table path drew a factor")

    monkeypatch.setattr(mixing, "sample_beta", no_draws)
    prior = discrete_lt_prior(LTSpec(20, 100.0))
    cfg = MixConfig(alpha=0.5, mode="unimix_full", tau=-1.0)
    trials = 10**12
    assert mixing._table_pays_off(cfg, prior, trials)
    hist = mc_xi_aug_histogram(prior, cfg, trials, seed=3)
    law = mixed_class_law(prior, cfg.pair_prior(prior), 0.5, "unimix_full")
    assert np.abs(hist - law).sum() < l1_bound(law, trials)


@pytest.mark.parametrize("classes,rho", [(10, 10.0), (100, 200.0)])
def test_factor_only_law_is_the_prior_at_alpha_one(classes, rho):
    # frac(U + c) is uniform for every shift c, so at alpha = 1 the prior-aware
    # factor leaves each pair's winner a fair coin: the law of plain mixup
    prior = discrete_lt_prior(LTSpec(classes, rho))
    law = mixed_class_law(prior, prior, 1.0, "unimix_factor_only")
    assert np.abs(law - prior).max() <= 1e-15
    # at alpha = 1/2 the factor does move the law away from the prior
    assert np.abs(mixed_class_law(prior, prior, 0.5, "unimix_factor_only") - prior).sum() > 0.1


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
    # whole 1e6-long arrays peak near 74 MB; blocks of 2^16 pairs need a few;
    # 5e6 trials take the threshold table (from 200 * 100^2 + 200,000), where
    # whole arrays would hold 40 MB of raw draws alone
    monkeypatch.setenv("UNIMIX_LT_THREADS", "1")
    prior = discrete_lt_prior(LTSpec(100, 200.0, -1.0))
    cfg = MixConfig(alpha=0.5, mode="unimix_full", tau=-1.0)
    for trials in (1_000_000, 5_000_000):
        assert mixing._table_pays_off(cfg, prior, trials) is (trials == 5_000_000)
        tracemalloc.start()
        try:
            mc_xi_aug_histogram(prior, cfg, trials, seed=7, streams=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


def test_mc_histogram_plans_only_the_streams_that_draw(monkeypatch):
    # 10 trials over the most streams a call takes: three generators for each
    # of 1,024 streams would take about 4 MB before anything is drawn
    monkeypatch.setenv("UNIMIX_LT_THREADS", "2")
    prior = discrete_lt_prior(LTSpec(100, 200.0, -1.0))
    cfg = MixConfig(alpha=0.5, mode="unimix_full", tau=-1.0)
    tracemalloc.start()
    try:
        hist = mc_xi_aug_histogram(prior, cfg, 10, seed=7, streams=mixing.MAX_STREAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
    assert np.round(hist * 10).sum() == 10


@pytest.mark.parametrize("streams", [0, mixing.MAX_STREAMS + 1, 10**6])
def test_mc_histogram_streams_domain(streams):
    prior = discrete_lt_prior(LTSpec(5, 10.0))
    with pytest.raises(ValueError, match="streams"):
        mc_xi_aug_histogram(prior, MixConfig(), 10, seed=0, streams=streams)


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
    prior = discrete_lt_prior(LTSpec(5, 10.0))
    np.testing.assert_array_equal(MixConfig(mode="vanilla_mixup", tau=-2.0).pair_prior(prior),
                                  prior)
    np.testing.assert_array_equal(MixConfig(mode="unimix_full", tau=-2.0).pair_prior(prior),
                                  inverse_prior(prior, -2.0))


@pytest.mark.parametrize("value", ["0", "1", "2", "", " 2 ", "3"])
def test_thread_cap_values_keep_the_histogram(value, monkeypatch, tmp_path):
    # one block per stream; the verify-dist problem with two blocks in each of
    # 4 streams, so each worker draws several blocks from its own generators,
    # at alpha = 1/2 and at alpha = 0.2, whose factors `rng.beta` draws; and
    # 300,000 trials at C = 10, past the threshold table's 220,000
    wide = discrete_lt_prior(LTSpec(100, 200.0, -1.0))
    for alpha, prior, trials in ((0.5, discrete_lt_prior(LTSpec(10, 50.0)), 20_000),
                                 (0.5, wide, 4 * (mixing._MC_BLOCK + 1000)),
                                 (0.2, wide, 4 * (mixing._MC_BLOCK + 1000)),
                                 (0.5, discrete_lt_prior(LTSpec(10, 50.0)), 300_000)):
        cfg = MixConfig(alpha=alpha, mode="unimix_full", tau=-1.0)
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
