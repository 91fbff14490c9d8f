import math

import pytest

from clamm import (
    BancorCurve,
    BoundsExceeded,
    PoolState,
    UniswapCurve,
    UniswapV3Params,
    integrate_price_curve,
)
from clamm.quadrature import random_bancor_params
from clamm.rosetta import translate

from .conftest import assert_rel


class TestSwap:
    def test_worked_swap(self, uniswap_curve):
        delta = uniswap_curve.swap_exact_in_x(PoolState(100, 100), 100.0)
        assert_rel(delta.dy, -200.0 / 3.0)

    def test_zero_trade(self, uniswap_curve):
        delta = uniswap_curve.swap_exact_in_x(PoolState(100, 100), 0.0)
        assert delta.dy == 0.0

    def test_full_traversal(self, uniswap_curve):
        delta = uniswap_curve.swap_exact_in_x(PoolState(0, 300), 300.0)
        assert_rel(delta.dy, -300.0)

    def test_overshoot_rejected(self, uniswap_curve):
        with pytest.raises(BoundsExceeded):
            uniswap_curve.swap_exact_in_x(PoolState(0, 300), 300.5)

    def test_quadrature_agreement(self, uniswap_curve):
        quad = integrate_price_curve(uniswap_curve, 100.0, 100.0)
        assert_rel(quad, -200.0 / 3.0, rel=1e-8)


class TestMarginalPrice:
    def test_y_intercept(self, uniswap_curve):
        assert_rel(uniswap_curve.marginal_price(PoolState(0, 300)), -4.0)

    def test_x_intercept(self, uniswap_curve):
        assert_rel(uniswap_curve.marginal_price(PoolState(300, 0)), -0.25)

    def test_center(self, uniswap_curve):
        assert_rel(uniswap_curve.marginal_price(PoolState(100, 100)), -1.0)


class TestVirtualBounds:
    def test_worked_curve(self, uniswap_curve):
        vb = uniswap_curve.virtual_bounds()
        assert_rel(vb.min_xv, 100.0)
        assert_rel(vb.max_xv, 400.0)
        assert_rel(vb.min_yv, 100.0)
        assert_rel(vb.max_yv, 400.0)

    def test_x_extreme_mean_recovers_liquidity_over_price(self, rng):
        for _ in range(100):
            params = translate(random_bancor_params(rng), "uniswap_v3")
            curve = UniswapCurve(params)
            vb = curve.virtual_bounds()
            assert_rel(math.sqrt(vb.max_xv * vb.min_xv),
                       params.L / math.sqrt(curve.geom.p0), rel=1e-12)
            assert_rel(math.sqrt(vb.max_yv * vb.min_yv),
                       params.L * math.sqrt(curve.geom.p0), rel=1e-12)


class TestCenter:
    def test_worked_curve(self, uniswap_curve):
        x0, y0 = uniswap_curve.center()
        assert_rel(x0, 100.0)
        assert_rel(y0, 100.0)

    def test_wider_curve(self):
        # hand-substitution with fourth roots 2 and 1; confirmed on-curve below
        curve = UniswapCurve(UniswapV3Params(200.0, 16.0, 1.0))
        x0, y0 = curve.center()
        assert_rel(x0, 50.0)
        assert_rel(y0, 200.0)
        assert curve.on_curve(PoolState(x0, y0), rel_tol=1e-12)

    def test_center_price_ratio(self, rng):
        for _ in range(100):
            curve = UniswapCurve(translate(random_bancor_params(rng), "uniswap_v3"))
            x0, y0 = curve.center()
            assert_rel(y0 / x0, curve.geom.p0, rel=1e-9)

    def test_center_is_on_real_curve(self, rng):
        for _ in range(100):
            curve = UniswapCurve(translate(random_bancor_params(rng), "uniswap_v3"))
            x0, y0 = curve.center()
            assert curve.on_curve(PoolState(x0, y0), rel_tol=1e-9)


class TestReferenceScale:
    def test_worked_curve(self, uniswap_curve):
        assert_rel(uniswap_curve.reference_scale(), 10000.0)

    def test_concentration_shrinks_reference(self, rng):
        for _ in range(100):
            params = translate(random_bancor_params(rng), "uniswap_v3")
            assert UniswapCurve(params).reference_scale() < params.L ** 2

    def test_reference_bound_points(self, uniswap_curve):
        min_x, max_x, min_y, max_y = uniswap_curve.reference_bound_points()
        assert_rel(min_x, 50.0)
        assert_rel(max_x, 200.0)
        assert_rel(min_y, 50.0)
        assert_rel(max_y, 200.0)


class TestTranslationEquivalence:
    def test_liquidity_recovery(self, rng):
        for _ in range(200):
            params = translate(random_bancor_params(rng), "uniswap_v3")
            curve = UniswapCurve(params)
            x0, y0 = curve.center()
            recovered = curve.amplification() * math.sqrt(x0) * math.sqrt(y0)
            assert_rel(recovered, params.L, rel=1e-12)

    def test_every_operation_matches_source_curve(self, rng):
        for _ in range(50):
            src = random_bancor_params(rng)
            bancor = BancorCurve(src)
            uni = UniswapCurve(translate(src, "uniswap_v3"))
            x = rng.uniform(0.05, 0.9) * bancor.geom.x_int
            state = bancor.state_from_x(x)
            dx = rng.uniform(0.05, 0.9) * (bancor.geom.x_int - x)
            assert_rel(uni.swap_exact_in_x(state, dx).dy,
                       bancor.swap_exact_in_x(state, dx).dy, rel=1e-9)
            assert_rel(uni.marginal_price(state), bancor.marginal_price(state), rel=1e-9)
            for got, want in zip(uni.reference_bound_points(), bancor.reference_bound_points()):
                assert_rel(got, want, rel=1e-9)

    def test_intercept_quotients(self, rng):
        for _ in range(100):
            g = UniswapCurve(translate(random_bancor_params(rng), "uniswap_v3")).geom
            assert_rel(g.y_int / g.x_int, g.p0, rel=1e-12)
            assert_rel(g.y_asym / g.x_asym, g.p0, rel=1e-12)


def test_random_swaps_match_price_integral(rng):
    for _ in range(20):
        params = translate(random_bancor_params(rng, (-1.0, 4.0)), "uniswap_v3")
        curve = UniswapCurve(params)
        x = rng.uniform(0.05, 0.9) * curve.geom.x_int
        state = curve.state_from_x(x)
        dx = rng.uniform(0.05, 0.9) * (curve.geom.x_int - x)
        closed = curve.swap_exact_in_x(state, dx).dy
        quad = integrate_price_curve(curve, state.x, dx)
        assert_rel(quad, closed, rel=1e-8)
