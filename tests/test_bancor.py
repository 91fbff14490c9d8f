import math

import pytest

from clamm import (
    BancorCurve,
    BancorV2Params,
    BoundsExceeded,
    PoolState,
    ReferenceCurve,
    ReferenceParams,
    apply_delta,
    integrate_price_curve,
)

from .conftest import assert_rel, random_bancor


class TestVirtualBounds:
    def test_worked_curve(self, bancor_curve):
        vb = bancor_curve.virtual_bounds()
        assert_rel(vb.min_xv, 100.0)
        assert_rel(vb.max_xv, 400.0)
        assert_rel(vb.min_yv, 100.0)
        assert_rel(vb.max_yv, 400.0)
        # geometric mean of the x extremes recovers the virtual center
        assert_rel(math.sqrt(vb.max_xv * vb.min_xv), 2.0 * 100.0)

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

    def test_extreme_quotients_match_concentration(self, rng):
        for _ in range(100):
            curve = BancorCurve(random_bancor(rng))
            vb = curve.virtual_bounds()
            c = curve.concentration()
            assert_rel(vb.max_xv / vb.min_xv, c, rel=1e-12)
            assert_rel(vb.max_yv / vb.min_yv, c, rel=1e-12)


class TestPriceBounds:
    def test_worked_curve(self, bancor_curve):
        g = bancor_curve.geom
        p_high, p_low, p0 = g.p_high, g.p_low, g.p0
        assert_rel(p_high, 4.0)
        assert_rel(p_low, 0.25)
        assert_rel(p0, 1.0)
        assert_rel(math.sqrt(p_high * p_low), p0, rel=1e-12)

    def test_range_ratio_depends_only_on_amplification(self, rng):
        for _ in range(100):
            params = random_bancor(rng)
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
    def test_worked_swap(self, bancor_curve):
        delta = bancor_curve.swap_exact_in_x(PoolState(100, 100), 100.0)
        assert_rel(delta.dy, -200.0 / 3.0)

    def test_worked_swap_quadrature(self, bancor_curve):
        quad = integrate_price_curve(bancor_curve, 100.0, 100.0, abs_tol=1e-10)
        assert_rel(quad, -200.0 / 3.0, rel=1e-8)

    def test_zero_trade(self, bancor_curve):
        delta = bancor_curve.swap_exact_in_x(PoolState(100, 100), 0.0)
        assert delta.dx == 0.0 and delta.dy == 0.0

    def test_swap_to_intercept_drains_y(self, bancor_curve):
        delta = bancor_curve.swap_exact_in_x(PoolState(100, 100), 200.0)
        assert_rel(delta.dy, -100.0)

    def test_overshoot_rejected(self, bancor_curve):
        with pytest.raises(BoundsExceeded):
            bancor_curve.swap_exact_in_x(PoolState(100, 100), 200.0 + 1e-6)

    def test_negative_x_rejected(self, bancor_curve):
        with pytest.raises(BoundsExceeded):
            bancor_curve.swap_exact_in_x(PoolState(100, 100), -100.0 - 1e-6)

    def test_invariant_preserved(self, bancor_curve, rng):
        for _ in range(200):
            x = rng.uniform(1.0, 299.0)
            state = bancor_curve.state_from_x(x)
            dx = rng.uniform(0.0, 299.0 - x)
            after = apply_delta(state, bancor_curve.swap_exact_in_x(state, dx))
            assert abs(bancor_curve.invariant_residual(after)) <= 1e-9

    def test_exact_out_round_trips_exact_in(self, bancor_curve):
        state = PoolState(100, 100)
        delta = bancor_curve.swap_exact_in_x(state, 100.0)
        inverse = bancor_curve.swap_exact_out_y(state, delta.dy)
        assert_rel(inverse.dx, 100.0)


class TestMarginalPrice:
    def test_center(self, bancor_curve):
        assert_rel(bancor_curve.marginal_price(PoolState(100, 100)), -1.0)

    def test_y_intercept_quotes_high_bound(self, bancor_curve):
        assert_rel(bancor_curve.marginal_price(PoolState(0, 300)), -4.0)

    def test_x_intercept_quotes_low_bound(self, bancor_curve):
        assert_rel(bancor_curve.marginal_price(PoolState(300, 0)), -0.25)


class TestReferenceBoundPoints:
    def test_worked_curve(self, bancor_curve):
        min_x, max_x, min_y, max_y = bancor_curve.reference_bound_points()
        assert_rel(min_x, 50.0)
        assert_rel(max_x, 200.0)
        assert_rel(min_y, 50.0)
        assert_rel(max_y, 200.0)
        assert_rel(min_x * max_x, 100.0 ** 2)
        assert_rel(min_y * max_y, 100.0 ** 2)

    def test_span_ratio_is_concentration(self, bancor_curve):
        min_x, max_x, _, _ = bancor_curve.reference_bound_points()
        assert_rel(max_x / min_x, bancor_curve.concentration(), rel=1e-12)

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

    def test_four_redundant_routes_agree(self, rng):
        for _ in range(200):
            curve = BancorCurve(random_bancor(rng))
            p_high, p_low, p0 = curve.geom.p_high, curve.geom.p_low, curve.geom.p0
            c = curve.concentration()
            assert_rel(p_high / p0, c, rel=1e-12)
            assert_rel(p0 / p_low, c, rel=1e-12)
            assert_rel(math.sqrt(p_high / p_low), c, rel=1e-12)


class TestVirtualRealIndifference:
    def test_matched_swaps_are_identical(self, rng):
        # the emulated curve and the shifted real curve price every trade alike
        for _ in range(100):
            params = random_bancor(rng)
            real = BancorCurve(params)
            emulated = ReferenceCurve(ReferenceParams(params.A * params.x0, params.A * params.y0))
            x = rng.uniform(0.05, 0.9) * real.geom.x_int
            state = real.state_from_x(x)
            dx = rng.uniform(0.05, 0.95) * (real.geom.x_int - x)
            virtual_state = PoolState(state.x + real.shift_x, state.y + real.shift_y)
            dy_real = real.swap_exact_in_x(state, dx).dy
            dy_virtual = emulated.swap_exact_in_x(virtual_state, dx).dy
            assert_rel(dy_real, dy_virtual, rel=1e-12)

    def test_depletion_duality(self, rng):
        for _ in range(100):
            curve = BancorCurve(random_bancor(rng))
            x = rng.uniform(0.05, 0.95) * curve.geom.x_int
            state = curve.state_from_x(x)
            delta = curve.swap_exact_in_x(state, curve.geom.x_int - x)
            assert_rel(delta.dy, -state.y, rel=1e-9)


class TestGeometricChains:
    def test_geometric_mean_chain(self, rng):
        for _ in range(100):
            params = random_bancor(rng)
            curve = BancorCurve(params)
            vb = curve.virtual_bounds()
            min_x, max_x, _, _ = curve.reference_bound_points()
            assert_rel(math.sqrt(vb.min_xv) * math.sqrt(vb.max_xv), params.A * params.x0, rel=1e-12)
            assert_rel(math.sqrt(min_x) * math.sqrt(max_x), params.x0, rel=1e-12)

    def test_quotient_chain(self, rng):
        for _ in range(100):
            curve = BancorCurve(random_bancor(rng))
            g = curve.geom
            vb = curve.virtual_bounds()
            p0 = g.p0
            assert_rel(g.y_int / g.x_int, p0, rel=1e-12)
            assert_rel(g.y_asym / g.x_asym, p0, rel=1e-12)
            assert_rel(vb.min_yv / vb.min_xv, p0, rel=1e-12)
            assert_rel(vb.max_yv / vb.max_xv, p0, rel=1e-12)


def test_random_swaps_match_price_integral(rng):
    for _ in range(20):
        curve = BancorCurve(random_bancor(rng, exp_range=(-1.0, 4.0)))
        x = rng.uniform(0.05, 0.9) * curve.geom.x_int
        state = curve.state_from_x(x)
        dx = rng.uniform(0.05, 0.9) * (curve.geom.x_int - x)
        closed = curve.swap_exact_in_x(state, dx).dy
        quad = integrate_price_curve(curve, state.x, dx)
        assert_rel(quad, closed, rel=1e-8)
