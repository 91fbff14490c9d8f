"""The (L, p_high, p_low) encoding: its own checks (recovering L, and the wider
16/1 curve), and its rows and identities of the worked-curve table in
test_encodings.py, named by what they check."""

import math

from clamm import PoolState, UniswapCurve, UniswapV3Params
from clamm.quadrature import random_bancor_params
from clamm.rosetta import translate

from .conftest import assert_rel
from .test_encodings import assert_identities, assert_worked


class TestSwap:
    def test_worked_swap(self):
        assert_worked("uniswap_v3", "swap")

    def test_zero_trade(self):
        assert_worked("uniswap_v3", "zero_trade")

    def test_full_traversal(self):
        assert_worked("uniswap_v3", "full_traversal")

    def test_overshoot_rejected(self):
        assert_worked("uniswap_v3", "overshoots_from_y_int")

    def test_quadrature_agreement(self):
        assert_worked("uniswap_v3", "integral")


class TestMarginalPrice:
    def test_y_intercept(self):
        assert_worked("uniswap_v3", "marginal_price_y_int")

    def test_x_intercept(self):
        assert_worked("uniswap_v3", "marginal_price_x_int")

    def test_center(self):
        assert_worked("uniswap_v3", "marginal_price_center")


class TestVirtualBounds:
    def test_worked_curve(self):
        assert_worked("uniswap_v3", "virtual_bounds")

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
    def test_worked_curve(self):
        assert_worked("uniswap_v3", "center")

    def test_wider_curve(self):
        # hand-substitution with fourth roots 2 and 1; confirmed on-curve below
        curve = UniswapCurve(UniswapV3Params(200.0, 16.0, 1.0))
        x0, y0 = curve.center()
        assert_rel(x0, 50.0)
        assert_rel(y0, 200.0)
        assert curve.on_curve(PoolState(x0, y0), rel_tol=1e-12)

    def test_center_price_ratio(self):
        assert_identities("uniswap_v3", "center quotient = p0")

    def test_center_is_on_real_curve(self):
        assert_identities("uniswap_v3", "the center is on the curve")


class TestReferenceScale:
    def test_worked_curve(self):
        assert_worked("uniswap_v3", "reference_scale")

    def test_concentration_shrinks_reference(self):
        assert_identities("uniswap_v3", "reference_scale < scale")

    def test_reference_bound_points(self):
        assert_worked("uniswap_v3", "reference_bound_points")


class TestTranslationEquivalence:
    def test_liquidity_recovery(self, rng):
        for _ in range(200):
            params = translate(random_bancor_params(rng), "uniswap_v3")
            curve = UniswapCurve(params)
            x0, y0 = curve.center()
            recovered = curve.amplification() * math.sqrt(x0) * math.sqrt(y0)
            assert_rel(recovered, params.L, rel=1e-12)

    def test_every_operation_matches_source_curve(self):
        assert_identities("uniswap_v3", "quotes the source's swap", "quotes the source's marginal price",
                          "quotes the source's reference bound points")

    def test_intercept_quotients(self):
        assert_identities("uniswap_v3", "intercept and asymptote quotients = p0")


def test_random_swaps_match_price_integral():
    assert_identities("uniswap_v3", "quotes the price integral")
