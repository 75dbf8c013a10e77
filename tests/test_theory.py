import math
from dataclasses import replace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from unimix_lt.theory import (CURVE_KINDS, PRIOR_SUM_TOL, LTSpec, check_prior,
                              continuous_lt_density, discrete_lt_prior, emit_density_curves,
                              lambda_from_rho, unimix_density)

SPEC = LTSpec(num_classes=100, rho=200.0, tau=-1.0)


def factor_density(y, spec):
    """The factor-only curve: the mixed-class density with random pairing, tau = 1."""
    return unimix_density(y, replace(spec, tau=1.0))


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
    # exp(-0 * x) is 1 and the sum is exactly C, so the general path is 1/C bit for bit
    for classes in (2, 3, 10, 12_345):
        p = discrete_lt_prior(LTSpec(classes, 1.0))
        assert p.tobytes() == np.full(classes, 1.0 / classes).tobytes()


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


def test_unimix_density_tau_zero_is_the_limit():
    """tau = 0 is a removable 0/0: its branch integrates to 1, peaks where
    (y-1) e^(-lam(y-1)) does, at y = 1 + 1/lam, and the general form meets it
    as tau -> 0 from either side, to within O(tau)."""
    spec = LTSpec(100, 200.0, 0.0)
    val, _ = integrate.quad(lambda y: unimix_density(y, spec), 1, 100)
    assert abs(val - 1.0) <= 1e-6
    y = np.linspace(1, 100, 100001)
    at_zero = unimix_density(y, spec)
    assert at_zero[0] == 0.0
    assert abs(y[at_zero.argmax()] - (1 + 1 / spec.lam)) < 0.01
    for tau in (1e-6, -1e-6):
        near = unimix_density(y, replace(spec, tau=tau))
        assert np.max(np.abs(near - at_zero)) <= 1e-5 * at_zero.max()


@pytest.mark.parametrize("tau", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_unimix_density_head_is_positive_zero(tau):
    # for tau > 0 the head is 0 / negative, which without care is -0.0
    head = unimix_density(1.0, LTSpec(100, 200.0, tau))
    assert head == 0.0 and math.copysign(1.0, head) == 1.0


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


@pytest.mark.parametrize("rho,tau,kinds", [
    (200.0, 0.0, CURVE_KINDS), (1.0, -1.0, CURVE_KINDS[:2]), (1.0, 0.0, CURVE_KINDS[:2])])
def test_emit_density_curves_skips_undefined_closed_forms(rho, tau, kinds):
    spec = LTSpec(100, rho, tau)
    curves = emit_density_curves(spec, 50)
    assert tuple(c.kind for c in curves) == kinds
    np.testing.assert_array_equal(curves[0].density, continuous_lt_density(curves[0].y, spec))


# (C, rho, tau) where float64 cannot represent some closed forms on the class
# grid, and the kinds still emitted there; every emitted curve is its law
@pytest.mark.parametrize("spec,kinds", [
    (LTSpec(10, 100.0, -200.0), CURVE_KINDS[:3]),  # expm1(-lam tau s) overflows
    (LTSpec(2, 1e14, -25.0), CURVE_KINDS[:3]),
    (LTSpec(2, 1e200, -1.0), CURVE_KINDS),
    (LTSpec(2, 1e100, 5.0), CURVE_KINDS),
    (LTSpec(2, 1.7e308, -1.0), CURVE_KINDS),
    (LTSpec(7081, math.exp(708), -2.0), CURVE_KINDS[:3]),  # so does its normalizer
    (LTSpec(7081, 2.0, -1022.0), CURVE_KINDS[:3]),  # only the normalizer overflows
])
def test_closed_forms_float64_cannot_represent_are_undefined(spec, kinds, closed_form_law):
    grid = np.arange(1.0, spec.num_classes + 1)
    curves = emit_density_curves(spec, spec.num_classes)
    assert tuple(c.kind for c in curves) == kinds
    for c in curves:
        assert np.all(np.isfinite(c.density)) and np.all(c.density >= 0)
        np.testing.assert_allclose(c.density, closed_form_law(c.kind, c.y, spec), rtol=1e-12,
                                   atol=0)
    for kind, fn in (("original", continuous_lt_density), ("unimix_factor", factor_density),
                     ("unimix_full", unimix_density)):
        if kind not in kinds:
            with pytest.raises(ValueError, match="not a finite, nonnegative float64"):
                fn(grid, spec)


@pytest.mark.parametrize("classes,rho,rtol", [
    (2, 1e160, 1e-12), (2, 1e22, 1e-12), (10, 1 + 1e-6, 1e-8), (10, 1 + 1e-9, 1e-8),
    (100, 200.0, 1e-12)])
def test_closed_forms_are_exact_where_the_unshifted_forms_failed(classes, rho, rtol):
    """The factor curve against its closed form at tau = 1, and the full curve's
    mass, where the unshifted forms cancelled or underflowed.

    The bound is 1e-12 where nothing cancels: the two forms agree to 3e-16
    there, and against exact values e^(-lam s) alone carries the rounding of
    lam * s, up to 710 * 2^-53 = 8e-14. Near rho = 1 the two masses of the
    normalizer agree to about ln(rho) / 2 of their size, which amplifies their
    rounding: 5.1e-10 at rho = 1 + 1e-6 and 1.5e-9 at 1 + 1e-9, so the bound
    is 1e-8 there.
    """
    spec = LTSpec(classes, rho)
    lam, m = spec.lam, classes - 1
    y = np.linspace(1.0, classes, 201)
    s = y - 1.0
    # random pairing, tau = 1, integrated in closed form
    exact = 2 * lam * np.exp(-lam * s) * -np.expm1(-lam * s) / np.expm1(-lam * m) ** 2
    np.testing.assert_allclose(factor_density(y, spec), exact, rtol=rtol, atol=0)
    mass, _ = integrate.quad(lambda t: unimix_density(t, spec), 1, classes)
    assert abs(mass - 1.0) <= rtol


@pytest.mark.parametrize("classes,rho,tau,rtol", [
    *((classes, rho, tau, 1e-12) for classes, rho in ((10, 100.0), (100, 200.0))
      for tau in (1e-14, -1e-14, 1e-12, 1e-6, -1e-6, 0.0, 0.25, -0.49)),
    (10, 1 + 1e-6, 0.0, 1e-8), (10, 1 + 1e-9, 0.0, 1e-8)])
def test_full_curve_is_exact_as_tau_approaches_zero(classes, rho, tau, rtol):
    """The full curve against g(s) / (integral of g over [0, M]), with
    g = e^(-lam s) expm1(-lam tau s) / (-lam tau), or s e^(-lam s) at tau = 0,
    where the difference of two masses cancelled as tau -> 0 (1.9e-5 off at
    tau = 1e-12, 9.8e-4 at 1e-14) and, at tau = 0, near rho = 1.

    The bound is 1e-12 where nothing cancels, as in the test above: the curve
    is within 1e-15 of 80-digit references there, and g alone carries the
    rounding of lam * s; quad's epsrel = 1e-13 keeps the integral below it.
    Near rho = 1 the normalizer mass(lam) - e^(-lam M) mass(0) still subtracts
    two numbers that agree to about ln(rho) / 2 of their size: 2.8e-10 at
    rho = 1 + 1e-6 and 1.2e-9 at 1 + 1e-9, so the bound is 1e-8 there.
    """
    spec = LTSpec(classes, rho, tau)
    lam, m = spec.lam, classes - 1
    if tau == 0.0:
        def g(s):
            return s * np.exp(-lam * s)
    else:
        def g(s):
            return np.exp(-lam * s) * np.expm1(-lam * tau * s) / (-lam * tau)
    mass, _ = integrate.quad(g, 0, m, epsabs=0, epsrel=1e-13)
    y = np.linspace(1.0, classes, 201)
    np.testing.assert_allclose(unimix_density(y, spec), g(y - 1.0) / mass, rtol=rtol, atol=0)


def test_emit_density_curves_trapezoid_mass():
    # original and mixup are exact densities; the grid must be fine enough
    curves = emit_density_curves(SPEC, 4001)
    for c in curves:
        if c.kind in ("original", "mixup"):
            assert abs(np.trapezoid(c.density, c.y) - 1.0) <= 1e-6


def test_emit_density_curves_resolution_domain():
    with pytest.raises(ValueError):
        emit_density_curves(SPEC, 1)


def _any_all_check_prior(probs, require_positive=False):
    """`check_prior` with its elementwise `np.any`/`np.all` tests, before the reductions."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("class prior must be a vector of at least 2 entries")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("class prior entries must be finite and nonnegative")
    if require_positive and np.any(p <= 0):
        raise ValueError("class prior entries must be strictly positive")
    if abs(p.sum() - 1.0) > PRIOR_SUM_TOL:
        raise ValueError(f"class prior sums to {p.sum()!r}, expected 1 within {PRIOR_SUM_TOL}")
    return p


def _prior_outcome(check, probs, require_positive):
    try:
        p = check(probs, require_positive=require_positive)
    except ValueError as exc:
        return str(exc)
    return p.dtype, p.shape, p.tobytes()


_SUBNORMAL = 5e-324
_PRIOR_CASES = {
    "valid": [0.25, 0.75],
    "nan": [0.5, math.nan],
    "inf": [math.inf, 0.5],
    "minus-inf": [0.5, -math.inf],
    "inf-and-minus-inf": [math.inf, -math.inf],
    "negative": [1.5, -0.5],
    "negative-zero": [-0.0, 1.0],
    "zero": [0.0, 1.0],
    "subnormal": [_SUBNORMAL, 1.0],
    "negative-subnormal": [-_SUBNORMAL, 1.0],
    "bad-sum": [0.25, 0.25],
    "overflowing-sum": [1.7e308, 1.7e308],
    "0-d": 1.0,
    "2-d": [[0.5, 0.5]],
    "length-1": [1.0],
    "empty": [],
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing sum
@pytest.mark.parametrize("require_positive", [False, True])
@pytest.mark.parametrize("probs", _PRIOR_CASES.values(), ids=_PRIOR_CASES.keys())
def test_check_prior_matches_any_all_form(probs, require_positive):
    got = _prior_outcome(check_prior, probs, require_positive)
    assert got == _prior_outcome(_any_all_check_prior, probs, require_positive)


_PRIOR_ENTRIES = st.one_of(
    st.floats(-1.0, 2.0),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, _SUBNORMAL, -_SUBNORMAL,
                     2.2250738585072014e-308, 1e-300, 1.0, 0.5]))


@settings(max_examples=300, deadline=None, database=None)
@given(probs=hnp.arrays(np.float64,
                        st.one_of(st.just(()), hnp.array_shapes(min_dims=1, max_dims=2,
                                                                 min_side=0, max_side=5)),
                        elements=_PRIOR_ENTRIES),
       normalise=st.booleans(), require_positive=st.booleans())
def test_check_prior_fuzz_matches_any_all_form(probs, normalise, require_positive):
    """Same outcome and message as the elementwise form; normalising first
    lets most draws reach the positivity and sum checks."""
    if normalise and probs.ndim == 1:
        with np.errstate(all="ignore"):
            probs = probs / probs.sum()
    with np.errstate(all="ignore"):
        got = _prior_outcome(check_prior, probs, require_positive)
        assert got == _prior_outcome(_any_all_check_prior, probs, require_positive)
