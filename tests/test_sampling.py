import numpy as np
import pytest

from unimix_lt import sampling
from unimix_lt.data import Dataset, gen_lt_gaussians
from unimix_lt.sampling import class_table, draw_batch, draw_classes, inverse_prior
from unimix_lt.streams import derive_rng
from unimix_lt.theory import LTSpec, discrete_lt_prior


def test_inverse_prior_identity_at_tau_one():
    p = np.array([0.7, 0.2, 0.1])
    np.testing.assert_array_equal(inverse_prior(p, 1.0), p)


def test_inverse_prior_uniform_at_tau_zero():
    p = np.array([0.7, 0.2, 0.1])
    np.testing.assert_allclose(inverse_prior(p, 0.0), np.full(3, 1 / 3), atol=1e-15)


def test_inverse_prior_flips_two_class():
    np.testing.assert_allclose(inverse_prior(np.array([0.8, 0.2]), -1.0),
                               [0.2, 0.8], atol=1e-12)


@pytest.mark.parametrize("tau", [-2.0, -1.0, -0.5, 0.5, 2.0])
def test_inverse_prior_round_trip(tau):
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rng.dirichlet(np.ones(8) * 2)
        back = inverse_prior(inverse_prior(p, tau), 1.0 / tau)
        np.testing.assert_allclose(back, p, atol=1e-10)
        assert abs(inverse_prior(p, tau).sum() - 1.0) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [-400.0, 400.0])
def test_inverse_prior_large_tau_is_finite(tau):
    # the extreme entry's weight is 1 before the power, so nothing overflows
    for prior in (discrete_lt_prior(LTSpec(30, 1e6)), np.array([0.5, 0.3, 0.2])):
        q = inverse_prior(prior, tau)
        assert np.isfinite(q).all() and abs(q.sum() - 1.0) <= 1e-12
        assert q.argmax() == (prior.argmin() if tau < 0 else prior.argmax())


def test_inverse_prior_zero_entry_negative_tau():
    with pytest.raises(ValueError):
        inverse_prior(np.array([1.0, 0.0]), -1.0)


def test_draw_class_degenerate_prior():
    rng = derive_rng(0, "t")
    table = class_table(np.array([1.0, 0.0]), 1)
    assert all(draw_classes(table, 1, rng)[0] == 0 for _ in range(100))


def test_draw_class_uniform_frequencies():
    rng = derive_rng(1, "t")
    c, n = 10, 1_000_000
    draws = draw_classes(class_table(np.full(c, 0.1), n), n, rng)
    freq = np.bincount(draws, minlength=c) / n
    sigma = np.sqrt(0.1 * 0.9 / n)
    assert np.all(np.abs(freq - 0.1) < 3 * sigma + 1e-12)


def test_draw_class_deterministic():
    table = class_table(np.array([0.3, 0.7]), 50)
    a = draw_classes(table, 50, derive_rng(3, "t"))
    b = draw_classes(table, 50, derive_rng(3, "t"))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("prior", [[0.5, np.nan], [1.5, -0.5], [0.5, 0.4], [1.0]])
def test_class_table_validates_the_prior(prior):
    with pytest.raises(ValueError, match="class prior"):
        class_table(np.array(prior), 1)


GUIDE = sampling._GUIDE_SIZE


def _lookup_priors() -> dict[str, np.ndarray]:
    """Priors that stress the guide table, by name."""
    rng = np.random.default_rng(11)
    priors = {
        "zero_mass": np.array([0.0, 0.25, 0.0, 0.0, 0.5, 0.25, 0.0]),
        "quarters_on_bucket_edges": np.full(4, 0.25),
        "every_edge_on_a_bucket_edge": np.full(GUIDE, 1.0 / GUIDE),
        "tiny_masses": np.array([1e-300] * 50 + [0.5] + [1e-300] * 50 + [0.5]),
        "tiny_top_class": np.array([0.5, 0.5, 1e-300]),
        "cumsum_above_one": np.array([0.5, 0.5 + 2**-52, 1e-300]),
        "one_heavy_class": np.r_[np.full(4999, 1e-300), 1.0],
    }
    for c in (2, 3, 17, 100, 1000, 5000):
        priors[f"lt_{c}"] = discrete_lt_prior(LTSpec(c, 200.0))
        priors[f"sparse_dirichlet_{c}"] = rng.dirichlet(np.full(c, 0.05))
    return priors


LOOKUP_PRIORS = _lookup_priors()


def _edges(prior):
    edges = np.cumsum(prior)
    edges[np.flatnonzero(prior)[-1]:] = 1.0
    return edges


@pytest.mark.parametrize("name", sorted(LOOKUP_PRIORS))
def test_guided_search_matches_searchsorted(name):
    edges = _edges(LOOKUP_PRIORS[name])
    grid = np.arange(GUIDE) / GUIDE
    u = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                        [0.0, np.nextafter(1.0, 0.0)]])
    u = u[(u >= 0.0) & (u < 1.0)]
    got = sampling._guided_search(class_table(LOOKUP_PRIORS[name], GUIDE), u)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.searchsorted(edges, u, side="right"))


class _TopUniform:
    """A stand-in generator whose every uniform is the largest `Generator.random` returns."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("size", [1, GUIDE])
def test_zero_mass_tail_classes_are_never_drawn(size):
    # ten tenths sum to 1 - 2^-53, the largest uniform; the classes after
    # them carry no mass and must stay out of reach on either table
    prior = np.array([0.1] * 10 + [0.0, 0.0])
    table = class_table(prior, size)
    assert (table.lo is None) == (size < GUIDE)
    assert (draw_classes(table, size, _TopUniform()) == 9).all()


@pytest.mark.parametrize("size", [GUIDE - 1, GUIDE, GUIDE + 1, 3 * GUIDE])
def test_draw_classes_equals_searchsorted_on_the_same_draws(size):
    for name, prior in LOOKUP_PRIORS.items():
        rng, ref = derive_rng(9, "t"), derive_rng(9, "t")
        got = draw_classes(class_table(prior, size), size, rng)
        want = np.searchsorted(_edges(prior), ref.random(size), side="right")
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want, err_msg=name)
        assert rng.random() == ref.random()  # one uniform per draw, either path


def test_draw_batch_empty():
    ds = gen_lt_gaussians(4, 10.0, 40, 3, seed=0)
    x, y = draw_batch(ds, np.full(4, 0.25), 0, derive_rng(0, "t"))
    assert x.shape == (0, 3) and y.shape == (0,)


def test_draw_batch_inverse_prior_tail_frequency():
    # two classes with prior (0.8, 0.2); the inverted sampler hits the
    # tail with probability 0.8
    features = np.zeros((100, 2))
    labels = np.array([0] * 80 + [1] * 20)
    ds = Dataset(features, labels)
    prior = inverse_prior(np.array([0.8, 0.2]), -1.0)
    n = 100_000
    _, y = draw_batch(ds, prior, n, derive_rng(11, "t"))
    freq = (y == 1).mean()
    sigma = np.sqrt(0.8 * 0.2 / n)
    assert abs(freq - 0.8) < 3 * sigma


def test_draw_batch_instance_marginal_uniform():
    # class prob x within-class uniform = count/N * 1/count = 1/N per instance
    ds = gen_lt_gaussians(4, 8.0, 24, 2, seed=1)
    n_inst = ds.num_samples
    prior = ds.class_counts / n_inst
    n = 200_000
    x, _ = draw_batch(ds, prior, n, derive_rng(2, "t"))
    # identify instances by matching features
    idx = {tuple(row): k for k, row in enumerate(ds.features)}
    hits = np.bincount([idx[tuple(row)] for row in x], minlength=n_inst)
    target = 1.0 / n_inst
    sigma = np.sqrt(target * (1 - target) / n)
    assert np.all(np.abs(hits / n - target) < 4 * sigma)


def test_draw_batch_mass_on_empty_class():
    ds = Dataset(np.zeros((3, 2)), np.array([0, 0, 2]))
    with pytest.raises(ValueError, match="empty"):
        draw_batch(ds, np.array([0.5, 0.25, 0.25]), 4, derive_rng(0, "t"))


def test_draw_batch_deterministic():
    ds = gen_lt_gaussians(4, 10.0, 40, 3, seed=0)
    prior = ds.class_counts / ds.num_samples
    xa, ya = draw_batch(ds, prior, 32, derive_rng(4, "t"))
    xb, yb = draw_batch(ds, prior, 32, derive_rng(4, "t"))
    np.testing.assert_array_equal(xa, xb)
    np.testing.assert_array_equal(ya, yb)


def _oracle_cases():
    """(name, dataset, prior) covering interleaved labels, singletons, empty classes, C=100."""
    rng = np.random.default_rng(20)
    labels = rng.integers(0, 5, 60)
    labels[:5] = np.arange(5)  # every class populated, labels interleaved
    shuffled = Dataset(rng.standard_normal((60, 3)), labels)
    singletons = gen_lt_gaussians(8, 500.0, 40, 2, seed=3)  # tail classes hold one sample
    assert np.sum(singletons.class_counts == 1) >= 2
    gaps = np.array([0, 0, 2, 2, 2, 5, 5, 7, 2, 5])  # classes 1, 3, 4 and 6 are empty
    holes = Dataset(rng.standard_normal((10, 2)), gaps)
    wide = gen_lt_gaussians(100, 50.0, 120, 4, seed=5)

    def empirical(ds):
        return ds.class_counts / ds.num_samples

    return [
        ("shuffled", shuffled, empirical(shuffled)),
        ("shuffled-inverse", shuffled, inverse_prior(empirical(shuffled), -1.0)),
        ("singletons", singletons, inverse_prior(empirical(singletons), -1.0)),
        ("empty-classes", holes, empirical(holes)),
        ("c100", wide, empirical(wide)),
        ("c100-uniform", wide, np.full(100, 0.01)),
    ]


@pytest.mark.parametrize("batch_size", [0, 1, 7, 128])
def test_class_sorted_draw_matches_per_sample_oracle(batch_size, per_sample_draw_batch):
    for name, ds, prior in _oracle_cases():
        for seed in range(40):
            rng, after = derive_rng(seed, "o"), derive_rng(seed, "o")
            want = per_sample_draw_batch(ds, prior, batch_size, after)
            got = draw_batch(ds, prior, batch_size, rng)
            assert np.array_equal(got[0], want[0]), (name, seed)
            assert np.array_equal(got[1], want[1]), (name, seed)
            assert got[1].dtype == np.int64
            # the draw leaves the stream where the oracle left it
            assert rng.random() == after.random(), (name, seed)


def test_class_order_lists_each_class_in_index_order():
    for _, ds, _ in _oracle_cases():
        for k, (start, count) in enumerate(zip(ds.class_starts, ds.class_counts)):
            np.testing.assert_array_equal(ds.class_order[start:start + count],
                                          np.flatnonzero(ds.labels == k))


def test_draw_batch_rejects_bad_priors():
    ds = Dataset(np.zeros((3, 2)), np.array([0, 0, 2]))
    with pytest.raises(ValueError, match="empty classes \\[1\\]"):
        draw_batch(ds, np.array([0.5, 0.25, 0.25]), 4, derive_rng(0, "t"))
    with pytest.raises(ValueError, match="class count"):
        draw_batch(ds, np.array([0.5, 0.5]), 4, derive_rng(0, "t"))
    with pytest.raises(ValueError, match="sums to"):
        draw_batch(ds, np.array([0.5, 0.0, 0.25]), 4, derive_rng(0, "t"))
    _, y = draw_batch(ds, np.array([0.75, 0.0, 0.25]), 50, derive_rng(0, "t"))
    assert set(y.tolist()) == {0, 2}
