import math
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unimix_lt import data
from unimix_lt.data import (Dataset, TwoCircleSpec, class_means, empirical_prior,
                            gen_lt_gaussians, gen_two_circles, load_csv,
                            lt_class_counts, save_csv)
from unimix_lt.theory import LTSpec

# A label bound above every int64 label, so that only the int64 range bounds a label.
EVERY_INT64 = 2**63


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
    with pytest.raises(ValueError, match="2\\^53"):  # the int64 cast would wrap to [1, 1]
        lt_class_counts(2, 1.0, 2**63 - 1)


@pytest.mark.parametrize("classes,rho", [(1, 10.0), (10, 0.5), (10, math.nan)])
def test_lt_counts_and_lt_spec_refuse_the_same_domain(classes, rho):
    with pytest.raises(ValueError) as counts_error:
        lt_class_counts(classes, rho, 100)
    with pytest.raises(ValueError) as spec_error:
        LTSpec(classes, rho)
    assert str(counts_error.value) == str(spec_error.value)


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


def test_class_means_memory_is_linear_in_classes():
    # the C x C x d difference tensor of all pairs peaked at 13 MiB here
    tracemalloc.start()
    try:
        class_means(300, 8, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
    back = load_csv(path, ds.num_classes)
    # repr-based serialization is exact for float64
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_load_csv_small_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,1\n")
    ds = load_csv(path, 2)
    assert ds.num_samples == 3
    assert ds.num_classes == 2
    np.testing.assert_array_equal(ds.class_counts, [1, 2])


def test_load_csv_missing_label_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(ValueError, match="label"):
        load_csv(path, EVERY_INT64)


def test_load_csv_ragged_row_reports_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(ValueError, match=":3"):
        load_csv(path, EVERY_INT64)


def test_load_csv_negative_label(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("f0,label\n1.0,-1\n")
    with pytest.raises(ValueError, match="negative label"):
        load_csv(path, EVERY_INT64)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_load_csv_non_finite_feature_reports_line(tmp_path, bad):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"f0,f1,label\n1.0,2.0,0\n1.0,2.0,1\n3.0,{bad},1\n")
    with pytest.raises(ValueError, match=r"nonfinite\.csv:4: features must be finite"):
        load_csv(path, EVERY_INT64)


def test_load_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        load_csv(path, EVERY_INT64)


def test_dataset_validation():
    with pytest.raises(ValueError, match="non-negative"):
        Dataset(np.zeros((3, 2)), np.array([0, -1, 1]))
    with pytest.raises(ValueError, match="sample count"):
        Dataset(np.zeros((3, 2)), np.array([0, 1]))
    with pytest.raises(ValueError, match="N x d"):
        Dataset(np.zeros(3), np.array([0, 1, 1]))


def test_dataset_counts_every_label_up_to_the_largest():
    ds = Dataset(np.zeros((4, 2)), np.array([3, 0, 3, 1]))
    assert ds.class_counts.tolist() == [1, 1, 0, 2] and ds.num_classes == 4
    assert ds.class_counts.dtype == np.int64


def test_empirical_prior_empty_class():
    ds = Dataset(np.zeros((3, 2)), np.array([0, 0, 2]))
    with pytest.raises(ValueError, match="no samples"):
        empirical_prior(ds)


# ------------------------------------------------------- CSV boundary: oracle

H = "f0,f1,label"
BIG = "99999999999999999999"  # above int64

# id -> (file content, the per-line parser's error text or None when it accepts)
CSV_CORPUS = {
    "lf": (f"{H}\n1.5,-2.0,0\n0.25,3e-5,2\n", None),
    "crlf": (f"{H}\r\n1.5,-2.0,0\r\n0.25,3e-5,2\r\n", None),
    "lone-cr": (f"{H}\r1.5,-2.0,0\r0.25,3e-5,2\r", None),
    "lone-cr-and-blank": (f"{H}\n1.5,-2.0,0\r0.25,3e-5,2\n\n", "expected 3 fields, got 0"),
    "mixed-line-ends": (f"{H}\r\n1.5,-2.0,0\n0.25,3e-5,2\r\n", None),
    "no-trailing-newline": (f"{H}\n1.5,-2.0,0\n0.25,3e-5,2", None),
    "crlf-no-trailing-newline": (f"{H}\r\n1.5,-2.0,0\r\n0.25,3e-5,2", None),
    "blank-line": (f"{H}\n1.5,-2.0,0\n\n0.25,3e-5,2\n", ":3: expected 3 fields, got 0"),
    "trailing-blank-line": (f"{H}\n1.5,-2.0,0\n\n", ":3: expected 3 fields, got 0"),
    "whitespace-line": (f"{H}\n1.5,-2.0,0\n   \n", ":3: expected 3 fields, got 1"),
    "hash-line": (f"{H}\n1.5,-2.0,0\n# note,1,1\n", ":3: could not convert"),
    "trailing-comma": (f"{H}\n1.5,-2.0,0,\n", ":2: expected 3 fields, got 4"),
    "short-row": (f"{H}\n1.5,0\n", ":2: expected 3 fields, got 2"),
    "empty-field": (f"{H}\n1.5,,0\n", ":2: could not convert"),
    "quoted-field": (f'{H}\n"1.5",-2.0,"0"\n', None),
    "quoted-newline": (f'{H}\n"1.5\n",-2.0,0\n', None),
    "underscore-digits": (f"{H}\n1_0.5,-2.0,0\n", None),
    "full-width-digit": (f"{H}\n１.5,-2.0,２\n", None),
    "padded-fields": (f"{H}\n 1.5 ,\t-2.0, 1 \n", None),
    "label-3.0": (f"{H}\n1.5,-2.0,3.0\n", ":2: invalid literal for int()"),
    "label-+3": (f"{H}\n1.5,-2.0,+3\n", None),
    "label-space-3": (f"{H}\n1.5,-2.0, 3\n", None),
    "label-1e2": (f"{H}\n1.5,-2.0,1e2\n", ":2: invalid literal for int()"),
    "label-negative": (f"{H}\n1.5,-2.0,0\n1.5,-2.0,-3\n", ":3: negative label -3"),
    "label-above-int64": (f"{H}\n1.5,-2.0,{BIG}\n", f":2: label {BIG} out of range"),
    "field-over-csv-limit": (f'{H}\n1.5,-2.0,0\n"{"1" * 200_000}",-2.0,0\n',
                             ":3: field larger than field limit"),
    "unquoted-field-over-csv-limit": (f"{H}\n{'1' * 200_000},-2.0,0\n",
                                      ":2: field larger than field limit"),
    "plain-number-over-csv-limit": (f"{H}\n0.{'0' * 200_000}1,-2.0,0\n",
                                    ":2: field larger than field limit"),
    "long-line-under-csv-limit": (f"{H}\n{'0' * 100_000}.5,{'0' * 100_000}1.5,0\n", None),
    "header-over-csv-limit": (f"{'f' * 200_000},label\n1.5,0\n",
                              ":1: field larger than field limit"),
    "feature-nan": (f"{H}\n1.5,-2.0,0\nnan,1.0,1\n", ":3: features must be finite"),
    "feature-inf": (f"{H}\n1.5,inf,0\n", ":2: features must be finite"),
    "feature-Infinity": (f"{H}\n-Infinity,1.0,0\n", ":2: features must be finite"),
    "feature-overflow": (f"{H}\n1e999,1.0,0\n", ":2: features must be finite"),
    "feature-hex": (f"{H}\n0x1p3,1.0,0\n", ":2: could not convert"),
    "feature-nbsp": (f"{H}\n\xa01.5,1.0,0\n", None),
    # numpy's parsers take these; Python's `float` and `int` do not
    "feature-x1c": (f"{H}\n1.5\x1c,1.0,0\n", ":2: could not convert"),
    "label-x1f": (f"{H}\n1.5,1.0,\x1f0\n", ":2: invalid literal for int()"),
    "label-non-ascii": (f"{H}\n1.5,1.0,0\u01fe\n", ":2: invalid literal for int()"),
    "feature-extremes": (f"{H}\n-0.0,5e-324,0\n1.797e308,2.2250738585072014e-308,1\n"
                         "1e-05,-1e-400,1\n", None),
    "header-only": (f"{H}\n", ": no data rows"),
    "header-only-no-newline": (H, ": no data rows"),
    "header-then-blank": (f"{H}\n\n", ":2: expected 3 fields, got 0"),
    "empty-file": ("", ": empty file"),
    "bad-header": ("f0,f2,label\n1.5,-2.0,0\n", "expected feature columns"),
    "invalid-utf8": (f"{H}\n1.5,-2.0,0\n".encode() + b"\xff,1.0,1\n", "can't decode"),
}


def _write(tmp_path, content):
    path = tmp_path / "data.csv"
    path.write_bytes(content.encode() if isinstance(content, str) else content)
    return path


def _load(path):
    return load_csv(path, EVERY_INT64)


def _lines(path):
    return data._load_lines(path, EVERY_INT64)


def _outcome(fn, path):
    """(features bytes, shape, labels, class counts) or (error type, message)."""
    try:
        ds = fn(path)
    except Exception as exc:  # compared by type and message below
        return type(exc), str(exc)
    return (ds.features.tobytes(), ds.features.shape, ds.labels.tolist(),
            ds.class_counts.tolist())


@pytest.mark.parametrize("content,error", CSV_CORPUS.values(), ids=CSV_CORPUS.keys())
def test_load_csv_matches_per_line_parser(tmp_path, content, error):
    path = _write(tmp_path, content)
    expected = _outcome(_lines, path)
    assert _outcome(_load, path) == expected
    if error is None:
        assert isinstance(expected[0], bytes)
    else:
        assert issubclass(expected[0], ValueError) and error in expected[1]


def test_load_csv_fast_path_reads_save_csv_output(tmp_path, monkeypatch):
    ds = gen_lt_gaussians(6, 10.0, 60, 4, seed=5)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    expected = _outcome(_lines, path)

    def refuse(path, limit):
        raise AssertionError("per-line parser called on a well-formed file")

    monkeypatch.setattr(data, "_load_lines", refuse)
    back = load_csv(path, ds.num_classes)
    assert _outcome(lambda _: back, path) == expected
    assert back.features.flags.c_contiguous and back.labels.flags.c_contiguous


def _special_datasets():
    yield gen_lt_gaussians(5, 10.0, 40, 3, seed=2)
    yield gen_two_circles(TwoCircleSpec(n_pos=30, n_neg=5, seed=4))
    extremes = np.array([[-0.0, 5e-324], [1.797e308, -2.2250738585072014e-308],
                         [1e-05, 123456789.0], [0.1, -1e22]])
    yield Dataset(extremes, np.array([0, 2, 2, 0]))


@pytest.mark.parametrize("ds", list(_special_datasets()), ids=["gaussians", "circles",
                                                                "extremes"])
def test_save_csv_matches_csv_writer(tmp_path, csv_writer_save_csv, ds):
    csv_writer_save_csv(ds, tmp_path / "oracle.csv")
    save_csv(ds, tmp_path / "data.csv")
    assert (tmp_path / "data.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    back = load_csv(tmp_path / "data.csv", ds.num_classes)
    assert back.features.tobytes() == ds.features.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)


# ------------------------------------------------------ CSV boundary: fuzzing

_FUZZ = settings(max_examples=150, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
_FIELD_CHARS = "0123456789.-+eE_ \t\"#xXpnaifINFy\x00\x0b\x0c\x1c\x1f\x85\xa0\u01fe１"
_SPECIAL = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.797e308, -1.797e308, 1e-05,
            1.5e-07, 0.1, 1e16, 123456789012345678.0]


def _often(common, rare, ratio=7):
    """A draw from `common` about `ratio` times as often as one from `rare`."""
    return st.sampled_from([common] * ratio + [rare]).flatmap(lambda strategy: strategy)


# mostly well-formed rows, so that both parsers see every field position
_JUNK = st.text(_FIELD_CHARS, max_size=6)
_FEATURE = _often(st.sampled_from(["1.5", "-0.0", "1e-05", " 3", "+4", "5e-324"]), _JUNK)
_LABEL = _often(st.sampled_from(["0", "2", " 1", "+3"]), _JUNK)
_ROW = _often(st.tuples(_FEATURE, _FEATURE, _LABEL).map(",".join),
              st.lists(_FEATURE, max_size=4).map(",".join))
_END = _often(st.sampled_from(["\n", "\r\n"]), st.sampled_from(["\r", ""]))


@_FUZZ
@given(content=st.one_of(
    st.binary(max_size=40),
    st.binary(max_size=40).map(lambda body: f"{H}\n".encode() + body),
    st.lists(st.tuples(_ROW, _END), max_size=5).map(
        lambda rows: (f"{H}\r\n" + "".join(r + end for r, end in rows)).encode())))
def test_load_csv_fuzz_matches_per_line_parser(tmp_path, content):
    path = _write(tmp_path, content)
    got = _outcome(_load, path)
    assert got == _outcome(_lines, path)
    assert isinstance(got[0], bytes) or issubclass(got[0], ValueError)


@_FUZZ
@given(shape=st.tuples(st.integers(1, 20), st.integers(1, 5)), data_=st.data())
def test_save_load_round_trip_fuzz(tmp_path, csv_writer_save_csv, shape, data_):
    floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(_SPECIAL))
    features = data_.draw(hnp.arrays(np.float64, shape, elements=floats))
    labels = data_.draw(hnp.arrays(np.int64, shape[0], elements=st.integers(0, 3)))
    ds = Dataset(features, labels)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    csv_writer_save_csv(ds, tmp_path / "oracle.csv")
    assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    back = load_csv(path, 4)
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tolist() == ds.labels.tolist()
    assert _outcome(_lines, path) == _outcome(lambda _: back, path)
