"""The (x0, y0, A) encoding: its own checks (limits in A, an asymmetric curve,
the virtual emulation and the A*x0 chain), and its rows and identities of the
worked-curve table in test_encodings.py, named by what they check."""

import math

import pytest

from clamm import (
    BancorCurve,
    BancorV2Params,
    DomainError,
    PoolState,
    ReferenceCurve,
    ReferenceParams,
    curve_for,
)
from clamm.quadrature import random_bancor_params

from . import exact
from .conftest import assert_rel
from .test_encodings import assert_identities, assert_worked


class TestVirtualBounds:
    def test_worked_curve(self):
        assert_worked("bancor_v2", "virtual_bounds", "virtual_bound_means")

    def test_asymmetric_curve(self):
        vb = BancorCurve(BancorV2Params(100, 400, 2)).virtual_bounds()
        assert_rel(vb.min_xv, 100.0)
        assert_rel(vb.max_xv, 400.0)
        assert_rel(vb.min_yv, 400.0)
        assert_rel(vb.max_yv, 1600.0)
        assert_rel(math.sqrt(vb.max_yv * vb.min_yv), 2.0 * 400.0)

    def test_weak_amplification_limit(self):
        vb = BancorCurve(BancorV2Params(100, 100, 1 + 1e-6)).virtual_bounds()
        assert vb.min_xv < 1e-3
        assert vb.max_xv > 1e7

    def test_extreme_quotients_match_concentration(self):
        assert_identities("bancor_v2", "virtual-bound spans = c")

    def test_a_bound_past_the_float_range_is_a_domain_error(self):
        # max_xv = scale/shift_y is about 1.98e308, past the float range; the
        # reference bound points are read from it
        curve = curve_for(BancorV2Params(4.4e307, 1.0, 1.5))
        for bounds in (curve.virtual_bounds, curve.reference_bound_points):
            with pytest.raises(DomainError) as err:
                bounds()
            assert (err.value.field, err.value.reason) == ("spec", "virtual max_xv overflows the float range")


class TestPriceBounds:
    def test_worked_curve(self):
        assert_worked("bancor_v2", "geometry")

    def test_range_ratio_depends_only_on_amplification(self, rng):
        for _ in range(100):
            params = random_bancor_params(rng)
            g = BancorCurve(params).geom
            p_high, p_low = g.p_high, g.p_low
            amp = params.A
            expected = (amp / (amp - 1.0)) ** 4
            assert_rel(p_high / p_low, expected, rel=1e-9)

    def test_infinite_amplification_limit(self):
        g = BancorCurve(BancorV2Params(100, 100, 1e9)).geom
        p_high, p_low, p0 = g.p_high, g.p_low, g.p0
        assert_rel(p_high, 1.0, rel=1e-6)
        assert_rel(p_low, 1.0, rel=1e-6)
        assert_rel(p0, 1.0)


class TestRealSwap:
    def test_worked_swap(self):
        assert_worked("bancor_v2", "swap")

    def test_worked_swap_quadrature(self):
        assert_worked("bancor_v2", "integral")

    def test_zero_trade(self):
        assert_worked("bancor_v2", "zero_trade")

    def test_swap_to_intercept_drains_y(self):
        assert_worked("bancor_v2", "swap_to_intercept")

    def test_overshoot_rejected(self):
        assert_worked("bancor_v2", "overshoot_past_x_int")

    def test_negative_x_rejected(self):
        assert_worked("bancor_v2", "overshoot_below_0")

    def test_invariant_preserved(self):
        assert_worked("bancor_v2", "invariant_loop")

    def test_exact_out_round_trips_exact_in(self):
        assert_worked("bancor_v2", "exact_out_round_trip")


class TestMarginalPrice:
    def test_center(self):
        assert_worked("bancor_v2", "marginal_price_center")

    def test_y_intercept_quotes_high_bound(self):
        assert_worked("bancor_v2", "marginal_price_y_int")

    def test_x_intercept_quotes_low_bound(self):
        assert_worked("bancor_v2", "marginal_price_x_int")

    def test_slopes_where_the_virtual_balance_squared_overflows(self):
        # (1.5e200 + 1e200)**2 is past the float range, the slope -6.4e-101 is
        # not: squaring first gave -0.0.  The token mirror quotes it on y.
        curve = curve_for(BancorV2Params(1e200, 1e100, 2.0))
        slope = curve.price_slope_at_x(1.5e200)
        # exact on the virtual balance the core reads, 1.5e200 + shift_x rounded
        want = exact.slope_at_x((0, 0, exact.of_curve(curve)[2]), 1.5e200 + curve.shift_x)
        assert_rel(slope, float(want), rel=2 * 2.0 ** -53, abs_floor=0.0)
        assert curve_for(BancorV2Params(1e100, 1e200, 2.0)).price_slope_at_y(1.5e200) == slope


class TestReferenceBoundPoints:
    def test_worked_curve(self):
        assert_worked("bancor_v2", "reference_bound_points", "reference_bound_means")

    def test_span_ratio_is_concentration(self):
        assert_identities("bancor_v2", "reference-bound spans = c")

    def test_weak_amplification_limit(self):
        min_x, max_x, _, _ = BancorCurve(BancorV2Params(100, 100, 1 + 1e-6)).reference_bound_points()
        assert min_x < 1e-3
        assert max_x > 1e7


class TestConcentrationConstant:
    def test_doubling_amplification(self):
        assert_rel(BancorCurve(BancorV2Params(1, 1, 2)).concentration(), 4.0)
        assert_rel(BancorCurve(BancorV2Params(1, 1, 3)).concentration(), 2.25)

    def test_infinite_amplification_limit(self):
        assert_rel(BancorCurve(BancorV2Params(1, 1, 1e9)).concentration(), 1.0, rel=1e-6)

    def test_four_redundant_routes_agree(self):
        assert_identities("bancor_v2", "p_high/p0, p0/p_low, sqrt(p_high/p_low), exp(phi) = c")


class TestVirtualRealIndifference:
    def test_matched_swaps_are_identical(self, rng):
        # the emulated curve and the shifted real curve price every trade alike
        for _ in range(100):
            params = random_bancor_params(rng)
            real = BancorCurve(params)
            emulated = ReferenceCurve(ReferenceParams(params.A * params.x0, params.A * params.y0))
            x = rng.uniform(0.05, 0.9) * real.geom.x_int
            state = real.state_from_x(x)
            dx = rng.uniform(0.05, 0.95) * (real.geom.x_int - x)
            virtual_state = PoolState(state.x + real.shift_x, state.y + real.shift_y)
            dy_real = real.swap_exact_in_x(state, dx).dy
            dy_virtual = emulated.swap_exact_in_x(virtual_state, dx).dy
            assert_rel(dy_real, dy_virtual, rel=1e-12)

    def test_depletion_duality(self):
        assert_identities("bancor_v2", "a swap to x_int drains y")


class TestGeometricChains:
    def test_geometric_mean_chain(self, rng):
        for _ in range(100):
            params = random_bancor_params(rng)
            curve = BancorCurve(params)
            vb = curve.virtual_bounds()
            min_x, max_x, _, _ = curve.reference_bound_points()
            assert_rel(math.sqrt(vb.min_xv) * math.sqrt(vb.max_xv), params.A * params.x0, rel=1e-12)
            assert_rel(math.sqrt(min_x) * math.sqrt(max_x), params.x0, rel=1e-12)

    def test_quotient_chain(self):
        assert_identities("bancor_v2", "intercept and asymptote quotients = p0", "virtual-bound quotients = p0")


def test_random_swaps_match_price_integral():
    assert_identities("bancor_v2", "quotes the price integral")
