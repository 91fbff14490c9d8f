import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from clamm import (
    AXIS_ALIGNMENT,
    DomainError,
    RotatedPoint,
    arsinh,
    curve_for,
    hyperbolic_angle,
    hyperbolic_angle_from_unit,
    normalize,
    rotate,
    t_hat_from_price,
    trig_identities,
    u_hat_from_price,
    unit_from_state,
)

from .conftest import LN4, assert_rel, random_bancor

SQRT2 = math.sqrt(2.0)


class TestRotation:
    def test_matrix_is_orthonormal_with_unit_determinant(self):
        (m00, m01), (m10, m11) = AXIS_ALIGNMENT
        assert_rel(m00 * m00 + m10 * m10, 1.0, rel=1e-15)
        assert_rel(m01 * m01 + m11 * m11, 1.0, rel=1e-15)
        assert abs(m00 * m01 + m10 * m11) < 1e-15
        assert_rel(m00 * m11 - m01 * m10, 1.0, rel=1e-15)

    def test_symmetric_point_lands_on_axis(self):
        p = rotate(100.0, 100.0)
        assert_rel(p.t, 100.0 * SQRT2)
        assert abs(p.u) < 1e-12

    def test_axis_point(self):
        p = rotate(0.0, 300.0)
        assert_rel(p.t, 150.0 * SQRT2)
        assert_rel(p.u, 150.0 * SQRT2)

    def test_quadratic_form_along_curve(self):
        # every point of x*y = 10000 maps to t^2 - u^2 = 20000
        for x in (1.0, 10.0, 100.0, 2500.0):
            p = rotate(x, 10000.0 / x)
            assert_rel(p.t * p.t - p.u * p.u, 20000.0, rel=1e-12)


# coordinate ratios stay moderate: the quadratic form is a difference of
# squares and binary64 cancellation grows linearly with the ratio
@settings(max_examples=300)
@given(
    x=st.floats(min_value=1e-6, max_value=1e12),
    ratio=st.floats(min_value=1e-3, max_value=1e3),
)
def test_rotation_preserves_quadratic_form(x, ratio):
    y = x * ratio
    p = rotate(x, y)
    assert_rel(p.t * p.t - p.u * p.u, 2.0 * x * y, rel=1e-12)


class TestNormalize:
    def test_curve_vertex(self):
        unit = normalize(RotatedPoint(100.0 * SQRT2, 0.0), 10000.0)
        assert_rel(unit.t_hat, 1.0)
        assert unit.u_hat == 0.0

    def test_amplified_point_maps_to_same_vertex(self):
        unit = normalize(RotatedPoint(200.0 * SQRT2, 0.0), 40000.0)
        assert_rel(unit.t_hat, 1.0)

    def test_off_curve_point_flagged(self):
        # the rotated image of (0, 300) does not sit on the k = 10000 curve
        with pytest.raises(DomainError):
            normalize(RotatedPoint(150.0 * SQRT2, 150.0 * SQRT2), 10000.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(DomainError):
            normalize(RotatedPoint(1.0, 0.0), 0.0)

    @pytest.mark.parametrize("t, u", [(math.nan, 0.0), (0.0, math.nan), (math.inf, math.inf)])
    def test_non_finite_point_flagged(self, t, u):
        # its residual is NaN, which no tolerance accepts
        with pytest.raises(DomainError) as err:
            normalize(RotatedPoint(t, u), 1.0)
        assert err.value.field == "point"


class TestUnitFromState:
    def test_symmetric_state(self):
        unit = unit_from_state(100.0, 100.0)
        assert_rel(unit.t_hat, 1.0)
        assert unit.u_hat == 0.0

    def test_worked_state(self):
        unit = unit_from_state(100.0, 400.0)
        assert_rel(unit.t_hat, 1.25)
        assert_rel(unit.u_hat, 0.75)
        assert_rel(unit.t_hat ** 2 - unit.u_hat ** 2, 1.0, rel=1e-12)

    def test_axis_state_rejected(self):
        with pytest.raises(DomainError):
            unit_from_state(0.0, 300.0)

    @settings(max_examples=200)
    @given(
        x=st.floats(min_value=1e-3, max_value=1e3),
        ratio=st.floats(min_value=1e-3, max_value=1e3),
        lam=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariance(self, x, ratio, lam):
        y = x * ratio
        base = unit_from_state(x, y)
        scaled = unit_from_state(lam * x, lam * y)
        assert_rel(scaled.t_hat, base.t_hat, rel=1e-12)
        assert math.isclose(scaled.u_hat, base.u_hat, rel_tol=1e-12, abs_tol=1e-15)


class TestPriceForms:
    def test_unit_price_is_axis(self):
        assert u_hat_from_price(1.0) == 0.0

    def test_worked_prices(self):
        assert_rel(u_hat_from_price(4.0), 0.75)
        assert_rel(u_hat_from_price(0.25), -0.75)
        assert_rel(t_hat_from_price(4.0), 1.25)

    @settings(max_examples=200)
    @given(price=st.floats(min_value=1e-6, max_value=1e6))
    def test_antisymmetric_under_price_inversion(self, price):
        assert math.isclose(u_hat_from_price(price), -u_hat_from_price(1.0 / price),
                            rel_tol=1e-12, abs_tol=1e-15)

    def test_strictly_increasing(self):
        prices = [10.0 ** (k / 4.0) for k in range(-24, 25)]
        values = [u_hat_from_price(p) for p in prices]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_nonpositive_price_rejected(self):
        with pytest.raises(DomainError):
            u_hat_from_price(0.0)


class TestArsinh:
    @settings(max_examples=500)
    @given(u=st.floats(min_value=-1e12, max_value=1e12))
    def test_matches_library(self, u):
        assert math.isclose(arsinh(u), math.asinh(u), rel_tol=1e-14, abs_tol=1e-300)

    def test_stable_near_zero(self):
        # the naive log form collapses to log(1) here; arsinh must not
        for u in (1e-12, 1e-15, 1e-18):
            assert_rel(arsinh(u), u, rel=1e-12)

    def test_large_argument(self):
        assert_rel(arsinh(1e200), math.log(2.0) + 200.0 * math.log(10.0), rel=1e-14)


class TestHyperbolicAngle:
    def test_worked_range(self):
        assert_rel(hyperbolic_angle(4.0, 0.25), LN4, rel=1e-12)
        assert_rel(2.0 * arsinh(0.75), LN4, rel=1e-12)

    def test_only_the_ratio_matters(self):
        assert_rel(hyperbolic_angle(16.0, 1.0), LN4, rel=1e-12)

    @pytest.mark.parametrize("p_high, p_low", [(1.0, 2.0), (2.0, 2.0), (2.0, 0.0),
                                               (math.inf, 1.0), (2.0, math.nan)])
    def test_both_routes_reject_the_same_ranges(self, p_high, p_low):
        fields = []
        for route in (hyperbolic_angle, hyperbolic_angle_from_unit):
            with pytest.raises(DomainError) as err:
                route(p_high, p_low)
            fields.append(err.value.field)
        assert fields[0] == fields[1]

    def test_zero_width_rejected_and_vanishes_in_the_limit(self):
        with pytest.raises(DomainError):
            hyperbolic_angle(2.0, 2.0)
        assert hyperbolic_angle(2.0 * (1.0 + 1e-12), 2.0) < 1e-11

    @settings(max_examples=200)
    @given(
        p_low=st.floats(min_value=1e-6, max_value=1e5),
        ratio=st.floats(min_value=1.0 + 1e-9, max_value=1e6),
    )
    def test_log_and_arsinh_routes_agree(self, p_low, ratio):
        p_high = p_low * ratio
        phi = hyperbolic_angle(p_high, p_low)
        assert math.isclose(phi, hyperbolic_angle_from_unit(p_high, p_low),
                            rel_tol=1e-12, abs_tol=1e-13)

    @settings(max_examples=200)
    @given(
        p_low=st.floats(min_value=1e-6, max_value=1e3),
        r1=st.floats(min_value=1.001, max_value=1e3),
        r2=st.floats(min_value=1.001, max_value=1e3),
    )
    def test_angle_additivity(self, p_low, r1, r2):
        p_mid = p_low * r1
        p_high = p_mid * r2
        total = hyperbolic_angle(p_high, p_low)
        split = hyperbolic_angle(p_high, p_mid) + hyperbolic_angle(p_mid, p_low)
        assert_rel(split, total, rel=1e-12)

    def test_sector_area_oracle(self):
        # the angle equals twice the area between the curve and the rays from
        # the origin; computed here by ordinary quadrature, no inverse trig
        def half_sector_area(u_hat):
            t_hat = math.sqrt(1.0 + u_hat * u_hat)
            under_curve, _ = quad(lambda t: math.sqrt(t * t - 1.0), 1.0, t_hat)
            return 0.5 * t_hat * u_hat - under_curve

        for price in (4.0, 9.0, 1.5):
            u_hat = u_hat_from_price(price)
            assert_rel(2.0 * half_sector_area(u_hat), arsinh(u_hat), rel=1e-8)
        # a symmetric price range spans equal areas on both sides of the axis
        phi = hyperbolic_angle(4.0, 0.25)
        assert_rel(4.0 * half_sector_area(0.75), phi, rel=1e-8)


class TestTrigIdentities:
    def test_worked_angle(self):
        trig = trig_identities(LN4)
        assert_rel(trig.sinh, 15.0 / 8.0, rel=1e-12)
        assert_rel(trig.cosh, 17.0 / 8.0, rel=1e-12)
        assert_rel(trig.tanh, 15.0 / 17.0, rel=1e-12)
        assert_rel(trig.e_phi, 4.0, rel=1e-12)

    @pytest.mark.parametrize("phi", [800.0, -800.0, 710.0])
    def test_overflowing_angle_names_phi(self, phi):
        with pytest.raises(DomainError) as err:
            trig_identities(phi)
        assert err.value.field == "phi"

    def test_zero_angle(self):
        trig = trig_identities(0.0)
        assert (trig.sinh, trig.cosh, trig.tanh, trig.e_phi) == (0.0, 1.0, 0.0, 1.0)

    @settings(max_examples=200)
    @given(phi=st.floats(min_value=-30.0, max_value=30.0))
    def test_fundamental_identity(self, phi):
        # the residual's float error is bounded by the cancellation magnitude
        trig = trig_identities(phi)
        budget = max(1e-15, 8.0 * 2.3e-16 * trig.cosh ** 2)
        assert abs(trig.cosh ** 2 - trig.sinh ** 2 - 1.0) <= budget

    @settings(max_examples=100)
    @given(
        p_low=st.floats(min_value=1e-4, max_value=1e3),
        ratio=st.floats(min_value=1.01, max_value=1e4),
    )
    def test_price_form_equivalents(self, p_low, ratio):
        p_high = p_low * ratio
        trig = trig_identities(hyperbolic_angle(p_high, p_low))
        mean = 2.0 * math.sqrt(p_high) * math.sqrt(p_low)
        assert_rel(trig.sinh, (p_high - p_low) / mean, rel=1e-12)
        assert_rel(trig.cosh, (p_high + p_low) / mean, rel=1e-12)
        assert_rel(trig.tanh, (p_high - p_low) / (p_high + p_low), rel=1e-12)
        assert_rel(trig.e_phi, math.sqrt(p_high / p_low), rel=1e-12)


class TestCurveIntegration:
    def test_exp_phi_is_concentration(self, rng):
        for _ in range(100):
            curve = curve_for(random_bancor(rng))
            assert_rel(math.exp(curve.geom.phi), curve.geom.c, rel=1e-12)

    def test_reference_and_virtual_states_share_unit_image(self, rng):
        for _ in range(100):
            x = 10.0 ** rng.uniform(-2.0, 2.0)
            y = x * 10.0 ** rng.uniform(-2.0, 2.0)
            amp = rng.uniform(1.01, 50.0)
            base = unit_from_state(x, y)
            lifted = unit_from_state(amp * x, amp * y)
            assert_rel(lifted.t_hat, base.t_hat, rel=1e-12)
            assert math.isclose(lifted.u_hat, base.u_hat, rel_tol=1e-12, abs_tol=1e-15)
