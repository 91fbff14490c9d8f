import math
import random
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clamm import (
    AXIS_ALIGNMENT,
    DomainError,
    RotatedPoint,
    UnitPoint,
    adaptive_gauss_kronrod,
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
from clamm.quadrature import random_bancor_params

from . import exact
from .conftest import LN4, assert_rel

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

    @pytest.mark.parametrize("point, field", [((10**400, 1.0), "x"), ((math.nan, 1.0), "x"),
                                              ((1.0, math.inf), "y"), ((1.0, -10**400), "y")],
                             ids=["int_x", "nan_x", "inf_y", "int_y"])
    def test_non_finite_coordinate_names_its_axis(self, point, field):
        with pytest.raises(DomainError) as err:
            rotate(*point)
        assert (err.value.field, err.value.reason) == (field, "must be finite")

    @pytest.mark.parametrize("point, field", [((1.7e308, 1.7e308), "t"), ((-1.7e308, 1.7e308), "u")],
                             ids=["t", "u"])
    def test_overflow_past_the_float_range_names_its_axis(self, point, field):
        with pytest.raises(DomainError) as err:
            rotate(*point)
        assert err.value.field == field
        assert "overflows" in err.value.reason

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

    def test_int_scale_past_binary64_rejected(self):
        with pytest.raises(DomainError) as err:
            normalize(RotatedPoint(1.0, 0.0), 10**400)
        assert err.value.field == "k"

    @pytest.mark.parametrize("t, u", [(math.nan, 0.0), (0.0, math.nan), (math.inf, math.inf),
                                      (math.inf, 0.0), (1e200, 0.0),
                                      pytest.param(0.0, 2**1100, id="int_past_binary64")])
    def test_non_finite_point_flagged(self, t, u):
        # its residual is NaN, or its square and so its tolerance infinite, or
        # it is an int that no float holds
        with pytest.raises(DomainError) as err:
            normalize(RotatedPoint(t, u), 1.0)
        assert err.value.field == "point"

    def test_wide_balance_ratio_accepted(self):
        # t_hat^2 - u_hat^2 - 1 cancels: its rounding error exceeds REL_TOL here
        unit = normalize(rotate(1.0, 1e8), 1e8)
        expected = unit_from_state(1.0, 1e8)
        assert_rel(unit.t_hat, expected.t_hat, rel=1e-15)
        assert_rel(unit.u_hat, expected.u_hat, rel=1e-15)

    def test_on_curve_pairs_accepted_up_to_a_ratio_of_1e12(self):
        rng = random.Random(20000)
        for _ in range(5000):
            x, y = 10.0 ** rng.uniform(-6.0, 6.0), 10.0 ** rng.uniform(-6.0, 6.0)
            normalize(rotate(x, y), x * y)

    @pytest.mark.parametrize("eps", [1e-8, 1e-7, 1e-6])
    def test_off_curve_pairs_rejected_up_to_a_ratio_of_1e6(self, eps):
        # the rounding term stays below 1e-9 up to a ratio of 1e6
        rng = random.Random(20000)
        for _ in range(2000):
            x = 10.0 ** rng.uniform(-6.0, 6.0)
            y = x * 10.0 ** rng.uniform(-6.0, 6.0)
            with pytest.raises(DomainError):
                normalize(rotate(x, y * (1.0 + eps)), x * y)


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

    @pytest.mark.parametrize("x, y, field", [(10**400, 1.0, "x"), (1.0, 10**400, "y")],
                             ids=["x", "y"])
    def test_int_balance_past_binary64_rejected(self, x, y, field):
        with pytest.raises(DomainError) as err:
            unit_from_state(x, y)
        assert err.value.field == field

    def test_balances_near_the_float_limit(self):
        # x + y and 2*sqrt(x*y) overflow here, though the point is finite
        assert unit_from_state(1e308, 1e308) == UnitPoint(1.0, 0.0)
        x, y = 1e308, sys.float_info.max
        want = exact.unit_point(x, y)
        unit = unit_from_state(x, y)
        assert_rel(unit.t_hat, float(want[0]), rel=4e-16)
        assert_rel(unit.u_hat, float(want[1]), rel=4e-16)

    @pytest.mark.parametrize("x, y, field", [(5e-324, 1e308, "y"), (1e308, 5e-324, "x")], ids=["y", "x"])
    def test_a_point_past_the_float_range_names_the_larger_balance(self, x, y, field):
        # t_hat is about sqrt(y/x)/2 = 2.2e315 here, past the float range
        with pytest.raises(DomainError) as err:
            unit_from_state(x, y)
        assert err.value.field == field

    def test_subnormal_balances(self):
        # halving a subnormal rounds, and sqrt(x)*sqrt(y) is itself subnormal:
        # (5e-324, 5e-324) gave (0, 0), off the unit hyperbola, and
        # (1.5e-323, 1.5e-323) a t_hat of 4/3.  Beside a large balance, y - x
        # overflowed before it was halved, and u_hat 1.2e308 read inf.
        assert unit_from_state(5e-324, 5e-324) == UnitPoint(1.0, 0.0)
        rng = random.Random(9)
        pairs = [(8.276687e-318, 4.5076215120663466e+299)]
        pairs += [tuple(2.0 ** rng.uniform(-1074.0, -1021.0) for _ in range(2)) for _ in range(2000)]
        for x, y in pairs:
            unit, (t_hat, u_hat) = unit_from_state(x, y), exact.unit_point(x, y)
            assert exact.rel(unit.t_hat, t_hat) <= 4 * 2.0 ** -53, (x, y)
            assert exact.rel(unit.u_hat, u_hat) <= 4 * 2.0 ** -53, (x, y)

    def test_halving_keeps_the_bits_of_every_finite_sum(self):
        # halving a balance of 2**-1021 or more is exact, so wherever x + y and
        # 2*sqrt(x)*sqrt(y) are finite the point is the unhalved quotient's
        rng = random.Random(8)
        for _ in range(20000):
            x, y = (2.0 ** rng.uniform(-1021.0, 1024.0) for _ in range(2))
            denom = 2.0 * math.sqrt(x) * math.sqrt(y)
            if x + y <= sys.float_info.max and denom <= sys.float_info.max:
                assert unit_from_state(x, y) == UnitPoint((x + y) / denom, (y - x) / denom)

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

    @pytest.mark.parametrize("form", [t_hat_from_price, u_hat_from_price], ids=["t_hat", "u_hat"])
    def test_int_price_past_binary64_rejected(self, form):
        with pytest.raises(DomainError) as err:
            form(10**400)
        assert (err.value.field, err.value.reason) == ("price", "must be positive and finite")

    @pytest.mark.parametrize("form", [t_hat_from_price, u_hat_from_price], ids=["t_hat", "u_hat"])
    def test_the_largest_float_price_is_accepted(self, form):
        # the top of the domain: (price -+ 1)/(2*sqrt(price)) both round to
        # sqrt(price)/2 there
        assert form(sys.float_info.max) == 6.703903964971299e+153


class TestArsinh:
    def test_matches_library(self):
        assert arsinh is math.asinh

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
                                               (math.inf, 1.0), (2.0, math.nan),
                                               pytest.param(10**400, 1.0, id="int_p_high"),
                                               pytest.param(2.0, 10**400, id="int_p_low")])
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

    @staticmethod
    def decimal_angle(p_high, p_low):
        with localcontext() as ctx:
            ctx.prec = 60
            return (Decimal(p_high).ln() - Decimal(p_low).ln()) / 2

    def test_narrow_ranges_keep_every_digit(self):
        # up to p_high = 2*p_low the gap p_high - p_low is exact, and the angle
        # is half its log1p; the difference of the logs lost 2.7e-3 of the
        # angle at a ratio of 1 + 1e-12
        rng = random.Random(12)
        ranges = [(3 * 5e-324, 2 * 5e-324), (1.5e308, 1e308), (2.0, 1.0)]
        for gap in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.5):
            for _ in range(200):
                p_low = 10.0 ** rng.uniform(-8.0, 8.0)
                ranges.append((p_low * (1.0 + gap), p_low))
        for p_high, p_low in ranges:
            got = hyperbolic_angle(p_high, p_low)
            assert exact.rel(got, self.decimal_angle(p_high, p_low)) <= 4e-16, (p_high, p_low)

    def test_wide_ranges_take_the_log_of_the_ratio(self):
        # above p_high = 2*p_low the angle is half the log of the rounded
        # ratio; the difference of the logs, kept only where the ratio
        # overflows, lost 5.4e-14 of the angle at p_low = 4.4e292
        for p_high, p_low in ((math.nextafter(2.0, 3.0), 1.0), (16.0, 1.0), (4.0, 0.25),
                              (4.4e292 * 3.0, 4.4e292), (4.4e-292 * 3.0, 4.4e-292),
                              (1e300, 1e-300), (1.7976931348623157e308, 5e-324)):
            phi = hyperbolic_angle(p_high, p_low)
            ratio = p_high / p_low
            if math.isinf(ratio):
                assert phi == 0.5 * (math.log(p_high) - math.log(p_low))
            else:
                assert phi == 0.5 * math.log(ratio)
            assert exact.rel(phi, self.decimal_angle(p_high, p_low)) <= 4e-16, (p_high, p_low)

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
        # the origin; computed here by the package's Gauss-Kronrod kernel, which
        # tests/test_quadrature.py pins to exact values, with no inverse trig.
        # A node next to t = 1 can round below it, so the radicand is clamped.
        def half_sector_area(u_hat):
            t_hat = math.sqrt(1.0 + u_hat * u_hat)
            under_curve = adaptive_gauss_kronrod(lambda t: math.sqrt(max(t * t - 1.0, 0.0)),
                                                 1.0, t_hat, abs_tol=1e-12)
            return 0.5 * t_hat * u_hat - under_curve

        for price in (4.0, 9.0, 1.5):
            u_hat = u_hat_from_price(price)
            assert_rel(2.0 * half_sector_area(u_hat), arsinh(u_hat), rel=1e-13)
        # a symmetric price range spans equal areas on both sides of the axis
        phi = hyperbolic_angle(4.0, 0.25)
        assert_rel(4.0 * half_sector_area(0.75), phi, rel=1e-13)


class TestTrigIdentities:
    def test_worked_angle(self):
        trig = trig_identities(LN4)
        assert_rel(trig.sinh, 15.0 / 8.0, rel=1e-12)
        assert_rel(trig.cosh, 17.0 / 8.0, rel=1e-12)
        assert_rel(trig.tanh, 15.0 / 17.0, rel=1e-12)
        assert_rel(trig.e_phi, 4.0, rel=1e-12)

    @pytest.mark.parametrize("phi", [800.0, -800.0, 710.0,
                                     pytest.param(10**400, id="int"), pytest.param(-10**400, id="-int")])
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
            curve = curve_for(random_bancor_params(rng))
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
