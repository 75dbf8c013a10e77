import math

import numpy as np
import pytest

from unimix_lt.data import (Dataset, TwoCircleSpec, class_means, empirical_prior,
                            gen_lt_gaussians, gen_two_circles, load_csv,
                            lt_class_counts, save_csv)


def test_lt_counts_spec_values():
    counts = lt_class_counts(10, 100.0, 500)
    assert counts[0] == 500
    assert counts[-1] == 5
    assert counts.sum() == counts.sum()  # all defined
    assert np.all(np.diff(counts) <= 0)


def test_lt_counts_balanced():
    assert np.all(lt_class_counts(10, 1.0, 100) == 100)


def test_lt_counts_head_tail_ratio_exact():
    # when n_max * rho^-1 is an exact integer the ratio is recovered exactly
    counts = lt_class_counts(10, 100.0, 500)
    assert counts[0] / counts[-1] == 100.0


def test_lt_counts_reverse():
    fwd = lt_class_counts(10, 100.0, 500)
    rev = lt_class_counts(10, 100.0, 500, reverse=True)
    np.testing.assert_array_equal(rev, fwd[::-1])


def test_lt_counts_errors():
    with pytest.raises(ValueError):
        lt_class_counts(10, 100.0, 5)  # cannot populate every class
    with pytest.raises(ValueError):
        lt_class_counts(10, 0.5, 100)


def test_class_means_separation_and_stability():
    means = class_means(10, 16, 1.0)
    dists = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
    off = dists[~np.eye(10, dtype=bool)]
    assert math.isclose(off.min(), 4.0, rel_tol=1e-12)
    np.testing.assert_array_equal(means, class_means(10, 16, 1.0))
    # more classes than dims falls back to the fixed direction layout
    many = class_means(20, 8, 0.5)
    d = np.linalg.norm(many[:, None] - many[None, :], axis=-1)
    assert d[~np.eye(20, dtype=bool)].min() >= 2.0 - 1e-12


def test_gen_lt_gaussians_deterministic():
    a = gen_lt_gaussians(10, 100.0, 500, 16, seed=7)
    b = gen_lt_gaussians(10, 100.0, 500, 16, seed=7)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = gen_lt_gaussians(10, 100.0, 500, 16, seed=8)
    assert not np.array_equal(a.features, c.features)


def test_gen_lt_gaussians_counts_and_prior():
    ds = gen_lt_gaussians(10, 100.0, 500, 16, seed=0)
    np.testing.assert_array_equal(ds.class_counts, lt_class_counts(10, 100.0, 500))
    prior = empirical_prior(ds)
    assert abs(prior.sum() - 1.0) <= 1e-12
    # ratio is exact on the integer counts; the float prior only approximates it
    assert ds.class_counts[0] / ds.class_counts[-1] == 100.0
    assert math.isclose(prior[0] / prior[-1], 100.0, rel_tol=1e-9)


def test_two_circles_counts_and_prior():
    ds = gen_two_circles(TwoCircleSpec(n_pos=500, n_neg=500, seed=1))
    np.testing.assert_array_equal(ds.class_counts, [500, 500])
    ds = gen_two_circles(TwoCircleSpec(n_pos=500, n_neg=10, seed=1))
    np.testing.assert_array_equal(ds.class_counts, [500, 10])
    np.testing.assert_allclose(empirical_prior(ds),
                               [0.9803921568627451, 0.0196078431372549], atol=1e-15)


def test_two_circles_points_inside():
    spec = TwoCircleSpec(center=(2.0, 2.0), radius=1.5, n_pos=400, n_neg=50, seed=3)
    ds = gen_two_circles(spec)
    pos = ds.features[ds.labels == 0] - np.array([2.0, 2.0])
    neg = ds.features[ds.labels == 1] + np.array([2.0, 2.0])
    assert np.all((pos**2).sum(axis=1) <= spec.radius**2)
    assert np.all((neg**2).sum(axis=1) <= spec.radius**2)


def test_two_circles_disjointness_enforced():
    with pytest.raises(ValueError):
        TwoCircleSpec(center=(1.0, 1.0), radius=1.5)  # 1+1 < 2.25


def test_two_circles_deterministic():
    a = gen_two_circles(TwoCircleSpec(seed=9))
    b = gen_two_circles(TwoCircleSpec(seed=9))
    np.testing.assert_array_equal(a.features, b.features)


def test_csv_round_trip(tmp_path):
    ds = gen_lt_gaussians(5, 10.0, 40, 3, seed=2)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    back = load_csv(path)
    # repr-based serialization is exact for float64
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_load_csv_small_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,1\n")
    ds = load_csv(path)
    assert ds.num_samples == 3
    assert ds.num_classes == 2
    np.testing.assert_array_equal(ds.class_counts, [1, 2])


def test_load_csv_missing_label_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(ValueError, match="label"):
        load_csv(path)


def test_load_csv_ragged_row_reports_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(ValueError, match=":3"):
        load_csv(path)


def test_load_csv_negative_label(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("f0,label\n1.0,-1\n")
    with pytest.raises(ValueError, match="negative label"):
        load_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_load_csv_non_finite_feature_reports_line(tmp_path, bad):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"f0,f1,label\n1.0,2.0,0\n1.0,2.0,1\n3.0,{bad},1\n")
    with pytest.raises(ValueError, match=r"nonfinite\.csv:4: features must be finite"):
        load_csv(path)


def test_load_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        load_csv(path)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), np.array([1, 1, 1]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 1]), np.array([2, 1]))


def test_empirical_prior_empty_class():
    ds = Dataset(np.zeros((3, 2)), np.array([0, 0, 2]), np.array([2, 0, 1]))
    with pytest.raises(ValueError, match="no samples"):
        empirical_prior(ds)
