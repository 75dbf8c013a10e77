import math

import numpy as np
import pytest

from unimix_lt import calibration
from unimix_lt.calibration import evaluate_predictions


def two_class(confidences, labels):
    p = np.asarray(confidences, dtype=float)
    return np.column_stack([p, 1.0 - p]), np.asarray(labels)


def random_fixture(rng, n=200, c=5):
    preds = rng.dirichlet(np.ones(c), size=n)
    labels = rng.integers(0, c, n)
    return preds, labels


def test_ece_single_bin_hand_value():
    # 10 samples at confidence 0.8, 6 correct: |0.6 - 0.8| = 0.2
    preds, labels = two_class([0.8] * 10, [0] * 6 + [1] * 4)
    assert math.isclose(evaluate_predictions(preds, labels, num_bins=1).ece, 0.2, abs_tol=1e-12)


def test_ece_zero_for_perfectly_calibrated_bins():
    preds, labels = two_class([0.8] * 10, [0] * 8 + [1] * 2)
    assert evaluate_predictions(preds, labels, num_bins=1).ece <= 1e-12


def test_ece_equals_mce_with_all_mass_in_one_bin():
    preds, labels = two_class([0.8] * 10, [0] * 5 + [1] * 5)
    report = evaluate_predictions(preds, labels, num_bins=1)
    assert report.ece == report.mce


def test_mce_two_bin_hand_fixture():
    # bin 0: conf 0.4, acc 0.5 (gap 0.1); bin 1: conf 0.8, acc 0.5 (gap 0.3)
    preds = np.array([
        [0.4, 0.2, 0.2, 0.2], [0.4, 0.2, 0.2, 0.2],
        [0.8, 0.1, 0.05, 0.05], [0.8, 0.1, 0.05, 0.05],
    ])
    labels = np.array([0, 1, 0, 1])
    report = evaluate_predictions(preds, labels, num_bins=2)
    assert math.isclose(report.mce, 0.3, abs_tol=1e-12)
    assert math.isclose(report.ece, 0.2, abs_tol=1e-12)


def test_mce_dominates_ece_on_random_fixtures():
    rng = np.random.default_rng(0)
    for _ in range(100):
        report = evaluate_predictions(*random_fixture(rng))
        assert report.mce >= report.ece


def test_adaptive_hand_fixture():
    preds = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
    labels = np.array([0, 1, 1, 0])
    # one range per class: both classes give |0.5 - 0.65|, |0.5 - 0.35| = 0.15
    assert math.isclose(evaluate_predictions(preds, labels, num_ranges=1).ace,
                        0.15, abs_tol=1e-12)


def test_tace_threshold_discards_small_probabilities():
    preds, labels = two_class([0.9995, 0.9995], [0, 0])
    report = evaluate_predictions(preds, labels, num_ranges=1, tace_threshold=1e-3)
    assert math.isclose(report.ace, 0.0005, abs_tol=1e-12)
    assert math.isclose(report.tace, 0.00025, abs_tol=1e-12)


@pytest.mark.parametrize("threshold", [-1.0, -1e-12, 1.0, 1.5, float("nan")])
def test_adaptive_threshold_outside_unit_interval_is_error(threshold):
    preds, labels = two_class([0.9995, 0.25], [0, 1])
    with pytest.raises(ValueError, match=r"threshold must lie in \[0, 1\)"):
        evaluate_predictions(preds, labels, num_ranges=1, tace_threshold=threshold)


def test_adaptive_all_discarded_is_error():
    preds = np.full((6, 4), 0.25)
    labels = np.zeros(6, dtype=int)
    with pytest.raises(ValueError, match="discarded every probability"):
        evaluate_predictions(preds, labels, num_ranges=2, tace_threshold=0.5)


@pytest.mark.parametrize("kwargs,message", [
    ({"num_bins": 0}, "need at least one bin"),
    ({"num_bins": 100_001}, "need at most 100000 bins"),
    ({"num_ranges": 0}, "need at least one range"),
    ({"num_ranges": 10**11}, "need at most 100000 ranges"),
    ({"density_batch": 0}, "density_batch must be >= 1"),
])
def test_sizes_are_checked_before_any_metric(kwargs, message):
    preds, labels = two_class([0.9, 0.4], [0, 1])
    with pytest.raises(ValueError, match=message):
        evaluate_predictions(preds, labels, **kwargs)
    assert evaluate_predictions(preds, labels, num_bins=100_000, num_ranges=100_000).ece >= 0


def test_adaptive_remainder_distribution():
    # 5 survivors over 2 ranges: sizes 3 then 2
    preds, labels = two_class([0.6, 0.7, 0.8, 0.9, 0.95], [0, 0, 1, 0, 0])
    val = evaluate_predictions(preds, labels, num_ranges=2).ace
    # class 0 sorted probs (0.05..0.4 side is class 1): hand evaluation
    c0 = (abs(2 / 3 - (0.6 + 0.7 + 0.8) / 3) + abs(1.0 - (0.9 + 0.95) / 2)) / 2 / 2
    c1 = (abs(1 / 3 - (0.05 + 0.1 + 0.2) / 3) + abs(0.0 - (0.3 + 0.4) / 2)) / 2 / 2
    assert math.isclose(val, c0 + c1, abs_tol=1e-12)


def test_sce_perfect_predictions():
    preds = np.eye(3)[np.array([0, 1, 2, 1])]
    labels = np.array([0, 1, 2, 1])
    assert evaluate_predictions(preds, labels).sce == 0.0


def test_sce_matches_brute_force():
    rng = np.random.default_rng(1)
    preds, labels = random_fixture(rng, n=50, c=3)
    bins = 10
    total = 0.0
    n, c = preds.shape
    for k in range(c):
        for b in range(bins):
            lo, hi = b / bins, (b + 1) / bins
            if b == bins - 1:
                mask = (preds[:, k] >= lo) & (preds[:, k] <= hi)
            else:
                mask = (preds[:, k] >= lo) & (preds[:, k] < hi)
            if mask.any():
                acc = (labels[mask] == k).mean()
                conf = preds[mask, k].mean()
                total += mask.sum() / n * abs(acc - conf)
    assert math.isclose(evaluate_predictions(preds, labels, num_bins=bins).sce, total / c,
                        abs_tol=1e-12)
    assert 0.0 <= evaluate_predictions(preds, labels).sce <= 1.0


def test_brier_hand_values():
    preds, labels = two_class([0.5], [0])
    assert math.isclose(evaluate_predictions(preds, labels).brier, 0.25, abs_tol=1e-15)
    preds, labels = two_class([0.0], [0])  # maximally wrong one-hot
    assert math.isclose(evaluate_predictions(preds, labels).brier, 1.0, abs_tol=1e-15)
    perfect = np.eye(4)[np.array([0, 3, 2])]
    assert evaluate_predictions(perfect, np.array([0, 3, 2])).brier == 0.0


def test_confusion_matrix_fixture():
    preds = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
    labels = np.array([0, 1, 1])
    report = evaluate_predictions(preds, labels)
    counts, logc = report.confusion, report.confusion_log
    np.testing.assert_array_equal(counts, [[1, 0], [1, 1]])
    np.testing.assert_allclose(logc, np.log1p(counts), atol=1e-15)
    assert counts.sum() == 3


def test_confusion_matrix_all_correct_is_diagonal():
    preds = np.eye(4)[np.array([2, 0, 1, 3, 3])]
    labels = np.array([2, 0, 1, 3, 3])
    counts = evaluate_predictions(preds, labels).confusion
    assert np.all(counts == np.diag(np.diag(counts)))


def test_batch_density_chunking():
    rng = np.random.default_rng(2)
    preds, labels = random_fixture(rng, n=25)
    assert len(evaluate_predictions(preds, labels, density_batch=25).density) == 1
    assert len(evaluate_predictions(preds, labels, density_batch=10).density) == 3  # ceil(25/10)


def test_batch_density_calibrated_predictor_on_diagonal():
    rng = np.random.default_rng(3)
    n, m = 5000, 500
    conf = rng.uniform(0.5, 1.0, n)
    labels = (rng.random(n) >= conf).astype(int)  # label 0 with prob conf
    preds = np.column_stack([conf, 1 - conf])
    for confidence, accuracy in evaluate_predictions(preds, labels, density_batch=m).density:
        sigma = math.sqrt(np.mean(conf * (1 - conf)) / m)
        assert abs(accuracy - confidence) < 4 * sigma


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    preds, labels = random_fixture(rng, n=300)
    perm = rng.permutation(len(labels))
    report = evaluate_predictions(preds, labels).scalars()
    permuted = evaluate_predictions(preds[perm], labels[perm]).scalars()
    for name in ("ece", "mce", "sce", "brier", "ace", "tace"):
        assert abs(report[name] - permuted[name]) <= 1e-12, name


def test_reliability_bins_structure():
    preds = np.eye(3)[np.array([0, 1, 2])]
    labels = np.array([0, 1, 2])
    rows = evaluate_predictions(preds, labels, num_bins=15).reliability
    assert len(rows) == 15
    assert sum(r[2] for r in rows) == 3
    # confidence 1.0 lands in the final, closed bin
    assert rows[-1][2] == 3 and rows[-1][3] == 1.0 and rows[-1][4] == 1.0


def test_evaluate_predictions_report():
    rng = np.random.default_rng(5)
    preds, labels = random_fixture(rng, n=120, c=4)
    report = evaluate_predictions(preds, labels, density_batch=40)
    scalars = report.scalars()
    assert set(scalars) == {"accuracy", "ece", "mce", "ace", "tace", "sce", "brier"}
    assert all(type(value) is float for value in scalars.values())
    assert 0.0 <= scalars["ece"] <= scalars["mce"] <= 1.0
    assert report.confusion.sum() == 120
    assert len(report.density) == 3


def test_empty_input_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        evaluate_predictions(np.empty((0, 3)), np.empty(0, dtype=int))


def test_non_finite_predictions_rejected():
    preds, labels = random_fixture(np.random.default_rng(6), n=20, c=3)
    for bad in (np.nan, np.inf, -np.inf):
        broken = preds.copy()
        broken[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            evaluate_predictions(broken, labels)


def stable_sort_ace(preds, labels, num_ranges, threshold):
    """The adaptive error as first written: survivors of each class stably sorted."""
    if not 0.0 <= threshold < 1.0:
        raise ValueError("threshold must lie in [0, 1)")
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels)
    c = p.shape[1]
    total_survivors = 0
    gap_sum = 0.0
    for k in range(c):
        probs = p[:, k]
        keep = np.flatnonzero(probs >= threshold)
        if keep.size == 0:
            continue
        total_survivors += keep.size
        order = keep[np.argsort(probs[keep], kind="stable")]
        hits = (y[order] == k).astype(np.float64)
        sorted_probs = probs[order]
        base, extra = divmod(order.size, num_ranges)
        sizes = [base + (1 if r < extra else 0) for r in range(num_ranges)]
        stop = np.cumsum(sizes)
        for lo, hi in zip(stop - sizes, stop):
            if hi > lo:
                gap_sum += abs(hits[lo:hi].mean() - sorted_probs[lo:hi].mean())
    if total_survivors == 0:
        raise ValueError("every probability discarded")
    return gap_sum / (c * num_ranges)


def tied_fixtures(seed, c=6):
    """Prediction matrices from smooth to heavily tied, with labels.

    The last one has both -0.0 and 0.0 in column 0 and labels no row with
    class c - 1.
    """
    rng = np.random.default_rng(seed)
    n = 240
    labels = rng.integers(0, c, n)
    smooth = rng.dirichlet(np.full(c, 0.3), size=n)
    # a few probability levels per row: integer weights 0..3, renormalised
    weights = rng.integers(0, 4, (n, c)).astype(np.float64)
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    quantised = weights / weights.sum(axis=1, keepdims=True)
    onehot = np.eye(c)[rng.integers(0, c, n)]
    mixed = np.where(rng.random((n, 1)) < 0.5, onehot, np.full((n, c), 1.0 / c))
    signed_zeros = smooth.copy()
    zero = rng.random(n) < 0.5
    signed_zeros[zero, 1] += signed_zeros[zero, 0]
    signed_zeros[zero, 0] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    return [(smooth, labels), (quantised, labels), (onehot, labels), (mixed, labels),
            (signed_zeros, np.where(labels == c - 1, 0, labels))]


# class counts below, at and across the class block of the blocked pass
CLASS_COUNTS = [6, calibration.CLASS_BLOCK, calibration.CLASS_BLOCK + 1, 40]


def fixtures_of_every_width(seed):
    return [fixture for c in CLASS_COUNTS for fixture in tied_fixtures(seed, c)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adaptive_matches_stable_sort_oracle(seed):
    # thresholds keep every, some or (for some classes) none of the probabilities;
    # 500 ranges outnumber the survivors of every class
    for preds, labels in fixtures_of_every_width(seed):
        for num_ranges in (1, 7, 15, 500):
            ace = stable_sort_ace(preds, labels, num_ranges, 0.0)
            for threshold in (0.0, 1e-3, 0.2, 0.5, 0.99, 1.0):
                try:
                    expected = (ace if threshold == 0.0 else
                                stable_sort_ace(preds, labels, num_ranges, threshold))
                except ValueError:
                    with pytest.raises(ValueError):
                        evaluate_predictions(preds, labels, num_ranges=num_ranges,
                                             tace_threshold=threshold)
                    continue
                report = evaluate_predictions(preds, labels, num_ranges=num_ranges,
                                              tace_threshold=threshold)
                assert report.tace == expected
                assert report.ace == ace


def test_adaptive_at_max_ranges_matches_oracle():
    # every class keeps far fewer probabilities than ranges, so most ranges are empty
    for preds, labels in tied_fixtures(3, 3):
        preds, labels = preds[:20], labels[:20]
        for threshold in (0.0, 0.3):
            report = evaluate_predictions(preds, labels, num_ranges=calibration.MAX_BINS,
                                          tace_threshold=threshold)
            assert report.ace == stable_sort_ace(preds, labels, calibration.MAX_BINS, 0.0)
            assert report.tace == stable_sort_ace(preds, labels, calibration.MAX_BINS,
                                                  threshold)


def binned_oracle(scores, hits, num_bins):
    """Per-bin (lo, hi, count, hit sum, score sum) by explicit comparison with
    the bin edges, [lo, hi) except the last bin, which also holds 1.0; each
    sum adds the rows in order."""
    rows = []
    for b in range(num_bins):
        lo, hi = b / num_bins, (b + 1) / num_bins
        count, hit_sum, score_sum = 0, 0.0, 0.0
        for score, hit in zip(scores, hits):
            if lo <= score < hi or (b == num_bins - 1 and score == hi):
                count += 1
                hit_sum += hit
                score_sum += score
        rows.append((lo, hi, count, hit_sum, score_sum))
    return rows


def binned_error_oracle(rows, n):
    """(count-weighted mean gap, largest gap) over the nonempty bins; the mean
    is a numpy dot product, so it rounds as the report's does."""
    weights = [count / n for _, _, count, _, _ in rows if count]
    gaps = [abs(hit_sum - score_sum) / count for _, _, count, hit_sum, score_sum in rows if count]
    return float(np.dot(weights, gaps)), max(gaps)


def report_oracle(preds, labels, num_bins, density_batch):
    """Everything in the report but ACE and TACE, one row or one bin at a time.

    Only the final means are numpy reductions, so that `==` can hold."""
    n, c = preds.shape
    top = [int(np.argmax(row)) for row in preds]
    conf = [float(preds[i, top[i]]) for i in range(n)]
    correct = [float(top[i] == labels[i]) for i in range(n)]
    rows = binned_oracle(conf, correct, num_bins)
    ece, mce = binned_error_oracle(rows, n)
    sce = sum(binned_error_oracle(binned_oracle(preds[:, k], labels == k, num_bins), n)[0]
              for k in range(c)) / c
    squared = np.empty((n, c))
    for i, label in enumerate(labels):
        for k in range(c):
            squared[i, k] = (float(k == label) - preds[i, k]) ** 2
    confusion = np.zeros((c, c), dtype=np.int64)
    for label, guess in zip(labels, top):
        confusion[label, guess] += 1
    density = [(np.mean(conf[i:i + density_batch]), np.mean(correct[i:i + density_batch]))
               for i in range(0, n, density_batch)]
    return {
        "scalars": {"accuracy": sum(correct) / n, "ece": ece, "mce": mce, "sce": sce,
                    "brier": float(squared.mean())},
        "reliability": [(lo, hi, count, hit_sum / count if count else 0.0,
                         score_sum / count if count else 0.0)
                        for lo, hi, count, hit_sum, score_sum in rows],
        "confusion": confusion,
        "density": density,
    }


@pytest.mark.parametrize("seed", [0, 1])
def test_evaluate_predictions_matches_separate_metrics(seed):
    for preds, labels in fixtures_of_every_width(seed):
        expected = report_oracle(preds, labels, num_bins=10, density_batch=50)
        # 0.3 at C = 6; lower for more classes, whose quantised rows hold nothing >= 0.3
        c = preds.shape[1]
        for num_ranges, threshold in ((15, 1e-3), (500, min(0.3, 1.8 / c))):
            report = evaluate_predictions(preds, labels, num_bins=10, num_ranges=num_ranges,
                                          tace_threshold=threshold, density_batch=50)
            assert report.scalars() == {
                **expected["scalars"],
                "ace": stable_sort_ace(preds, labels, num_ranges, 0.0),
                "tace": stable_sort_ace(preds, labels, num_ranges, threshold),
            }
            assert report.reliability == expected["reliability"]
            assert np.array_equal(report.confusion, expected["confusion"])
            assert np.array_equal(report.confusion_log, np.log1p(expected["confusion"]))
            assert report.density == expected["density"]


@pytest.mark.parametrize("block_bins", [10, 50, 100])
def test_fewer_classes_per_block_when_bins_are_many(monkeypatch, block_bins):
    # at 10 bins these budgets give blocks of 1, 5 and 10 of the 17 classes,
    # as a large --bins does under the default budget
    monkeypatch.setattr(calibration, "BLOCK_BINS", block_bins)
    for preds, labels in tied_fixtures(0, calibration.CLASS_BLOCK + 1):
        expected = report_oracle(preds, labels, num_bins=10, density_batch=50)["scalars"]
        report = evaluate_predictions(preds, labels, num_bins=10, num_ranges=15,
                                      tace_threshold=0.1, density_batch=50)
        assert report.scalars() == {
            **expected,
            "ace": stable_sort_ace(preds, labels, 15, 0.0),
            "tace": stable_sort_ace(preds, labels, 15, 0.1),
        }


def test_evaluate_predictions_validates_once(monkeypatch):
    calls = []
    check = calibration._check_inputs

    def counting(preds, labels):
        calls.append(1)
        return check(preds, labels)

    monkeypatch.setattr(calibration, "_check_inputs", counting)
    preds, labels = random_fixture(np.random.default_rng(7), n=90, c=4)
    evaluate_predictions(preds, labels)
    assert len(calls) == 1
