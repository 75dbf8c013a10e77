import math

import numpy as np
import pytest
from scipy import integrate

from unimix_lt.theory import (CURVE_KINDS, LTSpec, continuous_lt_density,
                              discrete_lt_prior, emit_density_curves, factor_density,
                              lambda_from_rho, unimix_density)

SPEC = LTSpec(num_classes=100, rho=200.0, tau=-1.0)


def test_lambda_from_rho_values():
    # reference values evaluated at 40-digit precision
    assert math.isclose(lambda_from_rho(100, 100), 0.046516870565536276445, rel_tol=1e-15)
    assert math.isclose(lambda_from_rho(10, 10), 0.25584278811044952045, rel_tol=1e-15)
    assert lambda_from_rho(1, 10) == 0.0


def test_lambda_from_rho_domain():
    with pytest.raises(ValueError):
        lambda_from_rho(0.5, 10)
    with pytest.raises(ValueError):
        lambda_from_rho(10, 1)


def test_lambda_from_rho_monotone():
    rhos = [1.0, 1.5, 2.0, 10.0, 100.0, 1e4]
    vals = [lambda_from_rho(r, 50) for r in rhos]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    classes = [2, 3, 5, 10, 100, 1000]
    vals = [lambda_from_rho(100.0, c) for c in classes]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_discrete_prior_two_class():
    # lam = ln 4, so the weights are in ratio 4:1
    p = discrete_lt_prior(LTSpec(2, 4.0))
    np.testing.assert_allclose(p, [0.8, 0.2], atol=1e-15)


def test_discrete_prior_balanced():
    p = discrete_lt_prior(LTSpec(10, 1.0))
    np.testing.assert_allclose(p, np.full(10, 0.1), atol=1e-15)


def test_discrete_prior_head_tail_ratio():
    p = discrete_lt_prior(LTSpec(10, 100.0))
    assert math.isclose(p[0] / p[-1], 100.0, rel_tol=1e-9)
    assert abs(p.sum() - 1.0) <= 1e-12


def test_continuous_density_normalization():
    val, err = integrate.quad(lambda y: continuous_lt_density(y, SPEC), 1, 100)
    assert abs(val - 1.0) <= 1e-6


def test_continuous_density_ratio_and_value():
    assert math.isclose(continuous_lt_density(1.0, SPEC) / continuous_lt_density(100.0, SPEC),
                        200.0, rel_tol=1e-9)
    # independent evaluation at 40-digit precision
    assert math.isclose(continuous_lt_density(1.0, SPEC), 0.053787293706390910892,
                        rel_tol=1e-14)


def test_continuous_density_domain_and_balanced_limit():
    with pytest.raises(ValueError):
        continuous_lt_density(0.5, SPEC)
    with pytest.raises(ValueError):
        continuous_lt_density(101.0, SPEC)
    balanced = LTSpec(10, 1.0)
    assert continuous_lt_density(5.0, balanced) == pytest.approx(1.0 / 9.0)


def test_mixup_density_identical_to_original():
    curves = {c.kind: c.density for c in emit_density_curves(SPEC, 1000)}
    np.testing.assert_array_equal(curves["mixup"], curves["original"])
    np.testing.assert_array_equal(curves["original"],
                                  continuous_lt_density(np.linspace(1, 100, 1000), SPEC))


def test_original_density_strictly_decreasing():
    y = np.linspace(1, 100, 1000)
    d = continuous_lt_density(y, SPEC)
    assert np.all(np.diff(d) < 0)


def test_factor_density_head_zero_and_value():
    assert factor_density(1.0, SPEC) == 0.0
    assert math.isclose(factor_density(10.0, SPEC), 0.025529669494184781764, rel_tol=1e-14)


def test_factor_density_is_twice_raw_form():
    lam, c = SPEC.lam, SPEC.num_classes
    d = math.exp(-lam) - math.exp(-lam * c)
    y = np.linspace(1, 100, 101)
    raw = lam / d**2 * (np.exp(-lam * (y + 1)) - np.exp(-2 * lam * y))
    np.testing.assert_allclose(factor_density(y, SPEC), 2 * raw, rtol=1e-14)


def test_factor_density_interior_stationary_point():
    # the derivative vanishes once, at ln(2)/lam + 1
    expected = math.log(2) / SPEC.lam + 1
    y = np.linspace(1, 100, 100001)
    d = np.asarray(factor_density(y, SPEC))
    signs = np.sign(np.diff(d))
    flips = np.nonzero(np.diff(signs) != 0)[0]
    assert len(flips) == 1
    assert abs(y[d.argmax()] - expected) < 0.01
    assert 1 < expected < 100


def test_factor_density_normalized():
    val, _ = integrate.quad(lambda y: factor_density(y, SPEC), 1, 100)
    assert abs(val - 1.0) <= 1e-6


def test_unimix_density_tail_majority():
    y = np.linspace(1, 100, 1000)
    d = np.asarray(unimix_density(y, SPEC))
    assert np.all(np.diff(d) >= 0)
    assert d[0] == 0.0


def test_unimix_density_value_against_high_precision():
    # tau = -1 reduces to (1 - e^(-lam(y-1)))/Z; reference from 40-digit arithmetic
    assert math.isclose(unimix_density(50.0, SPEC), 0.011533289633783154898, rel_tol=1e-13)


@pytest.mark.parametrize("tau", [-1.0, -2.0, 0.5, 2.0])
def test_unimix_density_normalized(tau):
    spec = LTSpec(100, 200.0, tau)
    val, _ = integrate.quad(lambda y: unimix_density(y, spec), 1, 100)
    assert abs(val - 1.0) <= 1e-6


def test_unimix_density_tau_zero_rejected():
    with pytest.raises(ValueError):
        unimix_density(5.0, LTSpec(100, 200.0, 0.0))


def test_closed_forms_require_imbalance():
    balanced = LTSpec(10, 1.0)
    with pytest.raises(ValueError):
        factor_density(5.0, balanced)
    with pytest.raises(ValueError):
        unimix_density(5.0, balanced)


def test_emit_density_curves_contract():
    curves = emit_density_curves(SPEC, 1000)
    assert [c.kind for c in curves] == list(CURVE_KINDS)
    for c in curves:
        assert c.y.shape == (1000,) and c.density.shape == (1000,)
        assert np.all(c.density >= 0)
    by_kind = {c.kind: c for c in curves}
    np.testing.assert_array_equal(by_kind["original"].density, by_kind["mixup"].density)


def test_emit_density_curves_trapezoid_mass():
    # original and mixup are exact densities; the grid must be fine enough
    curves = emit_density_curves(SPEC, 4001)
    for c in curves:
        if c.kind in ("original", "mixup"):
            assert abs(np.trapezoid(c.density, c.y) - 1.0) <= 1e-6


def test_emit_density_curves_resolution_domain():
    with pytest.raises(ValueError):
        emit_density_curves(SPEC, 1)
