import math
from decimal import Decimal, localcontext

import pytest

from clamm import (
    BancorCurve,
    BoundsExceeded,
    CarbonCurve,
    PoolState,
    ShiftedProductCurve,
    UniswapCurve,
    integrate_price_curve,
)
from clamm.quadrature import battery_cases, random_bancor_params
from clamm.rosetta import translate

from .conftest import assert_rel, exact_curve, rel_dev


class TestSwap:
    def test_worked_swap(self, carbon_curve):
        delta = carbon_curve.swap_exact_in_x(PoolState(100, 100), 100.0)
        assert_rel(delta.dy, -200.0 / 3.0)

    def test_zero_trade(self, carbon_curve):
        assert carbon_curve.swap_exact_in_x(PoolState(100, 100), 0.0).dy == 0.0

    def test_full_traversal(self, carbon_curve):
        # x intercept is z/(b*(a+b)) = 300
        assert_rel(carbon_curve.geom.x_int, 300.0)
        delta = carbon_curve.swap_exact_in_x(PoolState(0, 300), 300.0)
        assert_rel(delta.dy, -300.0)

    def test_overshoot_rejected(self, carbon_curve):
        with pytest.raises(BoundsExceeded):
            carbon_curve.swap_exact_in_x(PoolState(0, 300), 301.0)

    def test_exact_out_inverts_exact_in(self, carbon_curve):
        state = PoolState(100, 100)
        delta = carbon_curve.swap_exact_in_x(state, 100.0)
        assert_rel(carbon_curve.swap_exact_out_y(state, delta.dy).dx, 100.0)

    def test_quadrature_agreement(self, carbon_curve):
        quad = integrate_price_curve(carbon_curve, 100.0, 100.0)
        assert_rel(quad, -200.0 / 3.0, rel=1e-8)


class TestMarginalPrice:
    def test_y_intercept(self, carbon_curve):
        assert_rel(carbon_curve.marginal_price(PoolState(0, 300)), -4.0)

    def test_x_intercept(self, carbon_curve):
        assert_rel(carbon_curve.marginal_price(PoolState(300, 0)), -0.25)

    def test_center(self, carbon_curve):
        assert_rel(carbon_curve.marginal_price(PoolState(100, 100)), -1.0)


class TestPriceIdentities:
    def test_worked_curve(self, carbon_curve):
        g = carbon_curve.geom
        p_high, p_low, p0 = g.p_high, g.p_low, g.p0
        assert_rel(p_high, 4.0)
        assert_rel(p_low, 0.25)
        assert_rel(p0, 1.0)

    def test_gap_above_center(self, carbon_curve):
        p_high, p0 = carbon_curve.geom.p_high, carbon_curve.geom.p0
        assert_rel(carbon_curve.price_gap_above_center(), p_high - p0)
        assert_rel(carbon_curve.price_gap_above_center(), 3.0)


class TestVirtualBounds:
    def test_worked_curve(self, carbon_curve):
        vb = carbon_curve.virtual_bounds()
        assert_rel(vb.min_xv, 100.0)
        assert_rel(vb.max_xv, 400.0)
        assert_rel(vb.min_yv, 100.0)
        assert_rel(vb.max_yv, 400.0)

    def test_extreme_quotient_is_concentration(self, carbon_curve):
        vb = carbon_curve.virtual_bounds()
        assert_rel(vb.max_xv / vb.min_xv, 4.0, rel=1e-12)
        assert_rel(carbon_curve.concentration(), 4.0)

    def test_geometric_means_locate_virtual_center(self, carbon_curve):
        vb = carbon_curve.virtual_bounds()
        assert_rel(math.sqrt(vb.min_xv * vb.max_xv), 200.0)
        assert_rel(math.sqrt(vb.min_yv * vb.max_yv), 200.0)


class TestCenterAndReference:
    def test_worked_curve(self, carbon_curve):
        x0, y0 = carbon_curve.center()
        k, amp = carbon_curve.reference_scale(), carbon_curve.amplification()
        assert_rel(x0, 100.0)
        assert_rel(y0, 100.0)
        assert_rel(k, 10000.0)
        assert_rel(amp, 2.0)

    def test_center_price_ratio(self, rng):
        for _ in range(100):
            curve = CarbonCurve(translate(random_bancor_params(rng), "carbon"))
            x0, y0 = curve.center()
            assert_rel(y0 / x0, curve.geom.p0, rel=1e-9)

    def test_reference_bound_points(self, carbon_curve):
        min_x, max_x, min_y, max_y = carbon_curve.reference_bound_points()
        assert_rel(min_x, 50.0)
        assert_rel(max_x, 200.0)
        assert_rel(min_y, 50.0)
        assert_rel(max_y, 200.0)


class TestLegacyConstantProduct:
    def test_square_of_balance_over_spread(self, carbon_curve):
        a, z = carbon_curve.params.a, carbon_curve.params.z
        assert_rel(z * z / (a * a), 40000.0)
        assert_rel(z * z / (a * a), carbon_curve.scale, rel=1e-12)

    def test_intercept_quotients(self, rng):
        for _ in range(100):
            params = translate(random_bancor_params(rng), "carbon")
            g = CarbonCurve(params).geom
            p0 = params.b * (params.a + params.b)
            assert_rel(g.y_int / g.x_int, p0, rel=1e-12)
            assert_rel(g.y_asym / g.x_asym, p0, rel=1e-12)


class TestThreeWayEquivalence:
    def test_swap_outputs_agree_across_forms(self, rng):
        for _ in range(100):
            src = random_bancor_params(rng)
            bancor = BancorCurve(src)
            uni = UniswapCurve(translate(src, "uniswap_v3"))
            carbon = CarbonCurve(translate(src, "carbon"))
            x = rng.uniform(0.05, 0.9) * bancor.geom.x_int
            state = bancor.state_from_x(x)
            dx = rng.uniform(0.05, 0.9) * (bancor.geom.x_int - x)
            dy_b = bancor.swap_exact_in_x(state, dx).dy
            dy_u = uni.swap_exact_in_x(state, dx).dy
            dy_c = carbon.swap_exact_in_x(state, dx).dy
            assert_rel(dy_b, dy_u, rel=1e-9)
            assert_rel(dy_u, dy_c, rel=1e-9)
            assert_rel(dy_c, dy_b, rel=1e-9)


def test_random_swaps_match_price_integral(rng):
    for _ in range(20):
        params = translate(random_bancor_params(rng, (-1.0, 4.0)), "carbon")
        curve = CarbonCurve(params)
        x = rng.uniform(0.05, 0.9) * curve.geom.x_int
        state = curve.state_from_x(x)
        dx = rng.uniform(0.05, 0.9) * (curve.geom.x_int - x)
        closed = curve.swap_exact_in_x(state, dx).dy
        quad = integrate_price_curve(curve, state.x, dx)
        assert_rel(quad, closed, rel=1e-8)


def test_native_y_slope_matches_the_core_and_an_exact_value():
    """-z^2/(a*y + b*z)^2 against the core's -scale/(y + shift_y)^2 and a
    60-digit value, on the 5000 carbon translations of the battery.  The
    native form rounds six times, one of them a square, so it stays within
    8*2**-53 of exact (measured worst 5.0); the core's shifts and scale add
    their own roundings, so the two stay within 16*2**-53 (measured worst
    6.3)."""
    to_core = to_exact = 0.0
    for curve, state, _ in battery_cases(0, 20000):
        if type(curve) is not CarbonCurve:
            continue
        y = state.y
        native = curve.price_slope_at_y(y)
        to_core = max(to_core, rel_dev(native, ShiftedProductCurve.price_slope_at_y(curve, y)))
        a, b, z = (Decimal(v) for v in (curve.params.a, curve.params.b, curve.params.z))
        with localcontext() as ctx:
            ctx.prec = 60
            exact = -z * z / (a * Decimal(y) + b * z) ** 2
            to_exact = max(to_exact, float(abs((Decimal(native) - exact) / exact)))
    assert to_core <= 16 * 2.0 ** -53
    assert to_exact <= 8 * 2.0 ** -53


def test_native_forms_are_bit_identical_to_their_expressions():
    """Carbon's native dy, dx, marginal price and both slopes against their
    60-digit values on the exact curve of the stored (a, b, z), over the 1000
    carbon cases of ``battery_cases(0, 4000)``.  The swaps are read with the
    trade and the end balance they are given.  Each form rounds a handful of
    times and never cancels, so each stays within 8*2**-53 of exact (measured
    worst 4.8, on dx).  The test checks that bound, not bits, whatever its
    name says: the golden digest of ``tests/test_curve_bits.py`` pins the
    swaps' bits, and no test pins the bits of the price and the slopes
    (ROADMAP item 14)."""
    checked = 0
    for curve, state, dx in battery_cases(0, 4000):
        if type(curve) is not CarbonCurve:
            continue
        dy = curve.swap_exact_in_x(state, dx).dy
        x_new, y_new = state.x + dx, state.y + dy
        native = (curve._dy(state, dx, x_new), curve._dx(state, dy, y_new), curve.marginal_price(state),
                  curve.price_slope_at_x(state.x), curve.price_slope_at_y(state.y))
        with localcontext() as ctx:
            ctx.prec = 60
            sx, sy, s = exact_curve(curve.params)
            x, y = Decimal(state.x) + sx, Decimal(state.y) + sy
            exact = (-Decimal(dx) * s / (x * (Decimal(x_new) + sx)),
                     -Decimal(dy) * s / (y * (Decimal(y_new) + sy)),
                     -y / x, -s / (x * x), -s / (y * y))
            for got, want in zip(native, exact):
                assert abs((Decimal(got) - want) / want) <= 8 * Decimal(2) ** -53, (curve, state, dx)
        checked += 1
    assert checked == 1000
