import math
import warnings

import numpy as np
import pytest

from unimix_lt.data import lt_class_counts
from unimix_lt.losses import LossSpec, batch_grad, batch_loss, bayias_margin, softmax

COUNTS = np.array([500, 300, 180, 108, 65, 5])
PRIOR = COUNTS / COUNTS.sum()
CE = LossSpec(kind="ce")


def all_specs():
    return {
        "ce": LossSpec(kind="ce"),
        "bayias_ce": LossSpec(kind="bayias_ce", prior=PRIOR),
        "bayias_gen": LossSpec(kind="bayias_ce", prior=PRIOR,
                               target_prior=PRIOR[::-1].copy()),
        "focal": LossSpec(kind="focal", gamma=2.0),
        "cb": LossSpec(kind="cb", beta=0.999, class_counts=COUNTS),
        "cdt": LossSpec(kind="cdt", gamma=0.3, class_counts=COUNTS),
        "ldam": LossSpec(kind="ldam", ldam_c=0.5, class_counts=COUNTS),
        # the tempered margin a "loss": "la" config (logit adjustment) runs
        "la": LossSpec(kind="bayias_ce", la_tau=0.5, prior=PRIOR),
    }


def test_softmax_basics():
    np.testing.assert_allclose(softmax(np.zeros(2)), [0.5, 0.5], atol=1e-15)
    z = np.array([0.3, -1.2, 2.0])
    np.testing.assert_allclose(softmax(z + 17.0), softmax(z), atol=1e-12)
    p = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0)
    assert abs(softmax(np.array([0.1, 0.4, -2.0])).sum() - 1.0) <= 1e-12


def test_softmax_leaves_its_argument_and_matches_the_allocating_form():
    z = np.random.default_rng(0).standard_normal((7, 5)) * 30.0
    before = z.copy()
    p = softmax(z)
    assert np.array_equal(z, before)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    assert np.array_equal(p, e / e.sum(axis=-1, keepdims=True))


def test_bayias_margin_balanced_target():
    np.testing.assert_allclose(bayias_margin(np.full(10, 0.1)), np.zeros(10), atol=1e-12)
    m = bayias_margin(np.array([0.8, 0.2]))
    np.testing.assert_allclose(m, [0.47000362924573563, -0.916290731874155], atol=1e-12)


def test_bayias_margin_matching_priors_exact_zero():
    p = np.array([0.5, 0.3, 0.2])
    np.testing.assert_array_equal(bayias_margin(p, p), np.zeros(3))


def test_bayias_margin_rejects_zero_prior():
    with pytest.raises(ValueError):
        bayias_margin(np.array([1.0, 0.0]))


def test_bayias_ce_zero_margin_is_cross_entropy():
    spec = LossSpec(kind="bayias_ce", prior=PRIOR, target_prior=PRIOR)
    np.testing.assert_array_equal(spec.margins, np.zeros(6))
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = rng.standard_normal(6) * 3
        y = int(rng.integers(6))
        assert batch_loss(spec, z, y)[0] == batch_loss(CE, z, y)[0]


def test_bayias_ce_hand_value():
    # a balanced target turns the prior (0.8, 0.2) into margins (ln 1.6, ln 0.4)
    spec = LossSpec(kind="bayias_ce", prior=np.array([0.8, 0.2]))
    np.testing.assert_allclose(spec.margins, [math.log(1.6), math.log(0.4)], atol=1e-15)
    assert math.isclose(batch_loss(spec, np.zeros(2), 0)[0], 0.2231435513142097, abs_tol=1e-12)


def test_bayias_ce_pairwise_identity(bayias_ce_pairwise):
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        c = int(rng.integers(2, 8))
        z = rng.standard_normal(c) * 3
        m = rng.standard_normal(c)
        y = int(rng.integers(c))
        # a prior proportional to e^m puts the margin m + const on the logits
        spec = LossSpec(kind="bayias_ce", prior=np.exp(m) / np.exp(m).sum())
        assert abs(batch_loss(spec, z, y)[0] - bayias_ce_pairwise(z, y, spec.margins)) <= 1e-12


def test_bayias_ce_pairwise_limits(bayias_ce_pairwise):
    z = np.zeros(5)
    assert math.isclose(bayias_ce_pairwise(z, 2, np.zeros(5)), math.log(5), rel_tol=1e-15)
    assert math.isclose(batch_loss(CE, z, 2)[0], math.log(5), rel_tol=1e-15)
    dominant = np.array([50.0, 0.0, 0.0])
    assert bayias_ce_pairwise(dominant, 0, np.zeros(3)) < 1e-15
    assert batch_loss(CE, dominant, 0)[0] < 1e-15


def test_loss_grads_match_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-5
    for name, spec in all_specs().items():
        for _ in range(20):
            z = rng.standard_normal(6) * 2
            y = int(rng.integers(6))
            g = batch_grad(spec, z, y)[0]
            num = np.empty(6)
            for k in range(6):
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                num[k] = (batch_loss(spec, zp, y)[0] - batch_loss(spec, zm, y)[0]) / (2 * h)
            rel = np.linalg.norm(num - g) / max(np.linalg.norm(g), 1e-12)
            assert rel <= 1e-5, f"{name}: finite-difference mismatch {rel}"


def test_bayias_grad_balanced_hand_value():
    spec = LossSpec(kind="bayias_ce", prior=np.array([0.5, 0.5]))
    np.testing.assert_allclose(batch_grad(spec, np.zeros(2), 0)[0], [-0.5, 0.5], atol=1e-15)


def test_grad_sums_to_zero_for_shift_invariant_losses():
    rng = np.random.default_rng(7)
    specs = all_specs()
    for name, spec in specs.items():
        if name == "cdt":
            continue  # per-class temperatures break simplex tangency
        for _ in range(20):
            z = rng.standard_normal(6)
            g = batch_grad(spec, z, int(rng.integers(6)))[0]
            assert abs(g.sum()) <= 1e-12, name
    g = batch_grad(specs["cdt"], rng.standard_normal(6), 2)[0]
    assert abs(g.sum()) > 1e-6


def test_shift_invariance_of_values():
    rng = np.random.default_rng(8)
    z = rng.standard_normal(6)
    y = 3
    for name, spec in all_specs().items():
        shifted = batch_loss(spec, z + 5.0, y)[0]
        if name == "cdt":
            assert abs(shifted - batch_loss(spec, z, y)[0]) > 1e-6
        else:
            assert abs(shifted - batch_loss(spec, z, y)[0]) <= 1e-10, name


def test_focal_gamma_zero_is_ce():
    spec = LossSpec(kind="focal", gamma=0.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.standard_normal(4) * 2
        y = int(rng.integers(4))
        assert batch_loss(spec, z, y)[0] == batch_loss(CE, z, y)[0]


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_focal_loss_is_the_textbook_form(gamma):
    """-(1 - p_y)^gamma * log p_y, with p the softmax of the logits."""
    rng = np.random.default_rng(5)
    z = rng.standard_normal((64, 6)) * 3
    y = rng.integers(0, 6, 64)
    p_y = softmax(z)[np.arange(64), y]
    want = -((1.0 - p_y) ** gamma) * np.log(p_y)
    np.testing.assert_allclose(batch_loss(LossSpec(kind="focal", gamma=gamma), z, y), want,
                               rtol=1e-12)


def test_la_tau_zero_is_ce():
    spec = LossSpec(kind="bayias_ce", la_tau=0.0, prior=np.array([0.6, 0.3, 0.1]))
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.standard_normal(3) * 2
        y = int(rng.integers(3))
        assert batch_loss(spec, z, y)[0] == batch_loss(CE, z, y)[0]


def test_cb_equal_counts_is_scaled_ce():
    counts = np.full(4, 120)
    beta = 0.99
    w = (1 - beta) / (1 - beta**120)
    spec = LossSpec(kind="cb", beta=beta, class_counts=counts)
    rng = np.random.default_rng(4)
    z = rng.standard_normal(4)
    assert math.isclose(batch_loss(spec, z, 1)[0], w * batch_loss(CE, z, 1)[0], rel_tol=1e-15)
    g = batch_grad(spec, z, 1)[0]
    g_ce = batch_grad(CE, z, 1)[0]
    cos = g @ g_ce / (np.linalg.norm(g) * np.linalg.norm(g_ce))
    assert abs(cos - 1.0) <= 1e-10


def test_ldam_margin_hits_true_logit_only():
    z = np.array([1.0, 0.5, -0.3, 0.2, 0.1, 0.05])
    y = 5  # tail class, largest margin
    spec = LossSpec(kind="ldam", ldam_c=0.5, class_counts=COUNTS)
    margins = 0.5 / COUNTS**0.25
    u_true_only = z.copy()
    u_true_only[y] -= margins[y]
    expected = -np.log(softmax(u_true_only)[y])
    assert math.isclose(batch_loss(spec, z, y)[0], expected, rel_tol=1e-14)
    # the deliberately-wrong variant margins every logit and disagrees
    wrong = -np.log(softmax(z - margins)[y])
    assert abs(wrong - batch_loss(spec, z, y)[0]) > 1e-3


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(kind="hinge")
    with pytest.raises(ValueError):
        LossSpec(kind="cb", class_counts=None)
    with pytest.raises(ValueError):
        LossSpec(kind="bayias_ce")  # needs the prior
    with pytest.raises(ValueError):
        LossSpec(kind="focal", gamma=-1.0)
    with pytest.raises(ValueError):
        LossSpec(kind="cb", beta=1.0, class_counts=COUNTS)
    with pytest.raises(ValueError):
        LossSpec(kind="focal", gamma=float("nan"))
    with pytest.raises(ValueError):
        LossSpec(kind="cdt", gamma=-0.5, class_counts=COUNTS)
    with pytest.raises(ValueError):
        LossSpec(kind="ldam", ldam_c=0.0, class_counts=COUNTS)


def test_loss_spec_fixes_each_kind_transform_once():
    specs = all_specs()
    np.testing.assert_array_equal(specs["bayias_ce"].margins, bayias_margin(PRIOR))
    np.testing.assert_array_equal(specs["la"].margins, 0.5 * bayias_margin(PRIOR))
    # logit adjustment's margin tau * ln(pi), up to a constant the softmax ignores
    assert np.ptp(specs["la"].margins - 0.5 * np.log(PRIOR)) <= 1e-15
    np.testing.assert_array_equal(specs["ldam"].true_margins, 0.5 / COUNTS**0.25)
    np.testing.assert_array_equal(specs["cdt"].scale, (500 / COUNTS) ** 0.3)
    np.testing.assert_array_equal(specs["cb"].weights, (1 - 0.999) / (1 - 0.999**COUNTS))
    for name in ("ce", "focal"):
        spec = specs[name]
        assert (spec.margins, spec.true_margins, spec.scale, spec.weights) == (None,) * 4


def _oracle_specs(c):
    counts = lt_class_counts(c, 50.0, 500)
    prior = counts / counts.sum()
    target = np.linspace(1.0, 2.0, c)
    return [
        LossSpec(kind="ce"),
        LossSpec(kind="bayias_ce", prior=prior),
        LossSpec(kind="bayias_ce", prior=prior, target_prior=target / target.sum()),
        *(LossSpec(kind="focal", gamma=g) for g in (0.0, 0.5, 1.0, 2.0)),
        LossSpec(kind="cb", beta=0.999, class_counts=counts),
        LossSpec(kind="cb", beta=0.0, class_counts=counts),
        LossSpec(kind="cdt", gamma=0.3, class_counts=counts),
        LossSpec(kind="cdt", gamma=0.0, class_counts=counts),
        LossSpec(kind="ldam", ldam_c=0.5, class_counts=counts),
        LossSpec(kind="bayias_ce", la_tau=0.5, prior=prior, target_prior=target / target.sum()),
        LossSpec(kind="bayias_ce", la_tau=0.0, prior=prior),
    ]


@pytest.mark.parametrize("c", [2, 3, 10, 100])
@pytest.mark.parametrize("scale", [0.1, 3.0, 30.0])
def test_batch_path_matches_per_kind_oracle(c, scale, if_chain_losses):
    oracle_loss, oracle_grad = if_chain_losses
    rng = np.random.default_rng(c * 1000 + int(scale * 10))
    z = rng.standard_normal((64, c)) * scale
    y = rng.integers(0, c, 64)
    specs = _oracle_specs(c)
    assert len(specs) == 14
    for spec in specs:
        got, want = batch_loss(spec, z, y), oracle_loss(spec, z, y)
        assert np.array_equal(got, want), (spec.kind, spec.gamma)
        got, want = batch_grad(spec, z, y), oracle_grad(spec, z, y)
        # the oracle's focal gradient is NaN where p_y rounds to 1 (gamma < 1)
        finite = np.isfinite(want).all(axis=1)
        assert np.array_equal(got[finite], want[finite]), (spec.kind, spec.gamma)
        assert np.isfinite(got).all(), (spec.kind, spec.gamma)


@pytest.mark.parametrize("gamma", [0.5, 0.9, 1.0, 2.0])
def test_focal_grad_finite_where_p_y_rounds_to_one_or_zero(gamma):
    rng = np.random.default_rng(9)
    z = rng.standard_normal((64, 5)) * 30
    y = z.argmax(axis=1)
    z_far = np.array([[0.0, 800.0, 1.0]])  # p_y underflows to 0
    spec = LossSpec(kind="focal", gamma=gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = batch_grad(spec, z, y)
        g_far = batch_grad(spec, z_far, [0])
    p_y = softmax(z)[np.arange(64), y]
    assert np.any(p_y == 1.0)
    assert np.isfinite(g).all()
    assert np.all(g[p_y == 1.0] == 0.0)  # the limit: no push on a certain sample
    # as p_y -> 0 the focal weight tends to 1: the plain cross-entropy gradient
    np.testing.assert_array_equal(g_far, batch_grad(CE, z_far, [0]))
