"""The (a, b, z) encoding: its own checks (``price_gap_above_center``, (a, b,
z) quotients, and the native closed forms of ``tests/native.py`` against the
core's quotes and the exact oracle), and its rows and identities of the
worked-curve table in test_encodings.py, named by what they check."""

from clamm import CarbonCurve, CarbonParams, curve_for, integrate_price_curve
from clamm.quadrature import battery_cases, oracle_compare, random_bancor_params
from clamm.rosetta import translate

from . import exact, native
from .conftest import assert_rel, rel_dev
from .test_encodings import assert_identities, assert_worked


class TestSwap:
    def test_worked_swap(self):
        assert_worked("carbon", "swap")

    def test_zero_trade(self):
        assert_worked("carbon", "zero_trade")

    def test_full_traversal(self):
        assert_worked("carbon", "geometry", "full_traversal")

    def test_overshoot_rejected(self):
        assert_worked("carbon", "overshoots_from_y_int")

    def test_exact_out_inverts_exact_in(self):
        assert_worked("carbon", "exact_out_round_trip")

    def test_quadrature_agreement(self):
        assert_worked("carbon", "integral")


class TestMarginalPrice:
    def test_y_intercept(self):
        assert_worked("carbon", "marginal_price_y_int")

    def test_x_intercept(self):
        assert_worked("carbon", "marginal_price_x_int")

    def test_center(self):
        assert_worked("carbon", "marginal_price_center")


class TestPriceIdentities:
    def test_worked_curve(self):
        assert_worked("carbon", "geometry")

    def test_gap_above_center(self, carbon_curve):
        p_high, p0 = carbon_curve.geom.p_high, carbon_curve.geom.p0
        assert_rel(carbon_curve.price_gap_above_center(), p_high - p0)
        assert_rel(carbon_curve.price_gap_above_center(), 3.0)


class TestVirtualBounds:
    def test_worked_curve(self):
        assert_worked("carbon", "virtual_bounds")

    def test_extreme_quotient_is_concentration(self):
        assert_worked("carbon", "virtual_bounds", "concentration")

    def test_geometric_means_locate_virtual_center(self):
        assert_worked("carbon", "virtual_bound_means")


class TestCenterAndReference:
    def test_worked_curve(self):
        assert_worked("carbon", "center", "reference_scale", "amplification")

    def test_center_price_ratio(self):
        assert_identities("carbon", "center quotient = p0")

    def test_reference_bound_points(self):
        assert_worked("carbon", "reference_bound_points")


class TestLegacyConstantProduct:
    def test_square_of_balance_over_spread(self, carbon_curve):
        a, z = carbon_curve.params.a, carbon_curve.params.z
        assert_worked("carbon", "scale")
        assert_rel(z * z / (a * a), carbon_curve.scale, rel=1e-12)

    def test_intercept_quotients(self, rng):
        for _ in range(100):
            params = translate(random_bancor_params(rng), "carbon")
            g = CarbonCurve(params).geom
            p0 = params.b * (params.a + params.b)
            assert_rel(g.y_int / g.x_int, p0, rel=1e-12)
            assert_rel(g.y_asym / g.x_asym, p0, rel=1e-12)


class TestThreeWayEquivalence:
    def test_swap_outputs_agree_across_forms(self):
        for encoding in ("uniswap_v3", "carbon"):
            assert_identities(encoding, "quotes the source's swap")


def test_random_swaps_match_price_integral():
    assert_identities("carbon", "quotes the price integral")


def test_native_y_slope_matches_the_core_and_an_exact_value():
    """The native -z^2/(a*y + b*z)^2 against the core's slope and its exact
    value, on the 5000 carbon translations of the battery.  The native form
    rounds five times, the last a square, so it stays within 8*2**-53 of
    exact (measured worst 5.4); the core's shifts and scale add their own
    roundings, so the two stay within 16*2**-53 (measured worst 6.4)."""
    to_core = to_exact = 0.0
    for curve, state, _ in battery_cases(0, 20000):
        if type(curve) is not CarbonCurve:
            continue
        y = state.y
        value = native.slope_at_y(curve.params, y)
        to_core = max(to_core, rel_dev(value, curve.price_slope_at_y(y)))
        to_exact = max(to_exact, exact.rel(value, exact.slope_at_y(exact.of_params(curve.params), y)))
    assert to_core <= 16 * 2.0 ** -53
    assert to_exact <= 8 * 2.0 ** -53


def test_native_slopes_where_their_squares_overflow():
    """A carbon translation that ``random_bancor_params`` draws on balances
    out to 1e150: z*(a+b) and a*y + b*z are about 2.3e161, whose squares are
    past the float range, while the slopes are not.  Squaring first gave -inf
    on x and -0.0 on y, and the quadrature of -inf did not converge.  The
    native slopes and the core's, which the curve quotes with, both divide
    first."""
    curve = curve_for(CarbonParams(a=6.622073457514659e+74, b=2.8268146404290487e+76, z=8.1141436606093e+84))
    state = curve.state_from_x(3.6601070552228673e-69)
    constants = exact.of_params(curve.params)
    for slope_at_x, slope_at_y in ((curve.price_slope_at_x, curve.price_slope_at_y),
                                   (lambda x: native.slope_at_x(curve.params, x),
                                    lambda y: native.slope_at_y(curve.params, y))):
        assert exact.rel(slope_at_x(state.x), exact.slope_at_x(constants, state.x)) <= 8 * 2.0 ** -53
        assert exact.rel(slope_at_y(state.y), exact.slope_at_y(constants, state.y)) <= 8 * 2.0 ** -53
    dx = state.x  # doubles x, inside the x intercept 9.9e-69
    assert integrate_price_curve(curve, state.x, dx) < 0
    assert oracle_compare(curve, state, dx, rel_tol=1e-13).passed


def test_native_forms_are_bit_identical_to_their_expressions():
    """The native dy, dx, marginal price and both slopes of ``tests/native.py``
    against their exact values on the real curve of the stored (a, b, z),
    over the 1000 carbon cases of ``battery_cases(0, 4000)``.  The swaps are
    read with the trade the curve quotes and the end balance it reaches.
    Each form rounds a handful of times and never cancels, so each stays
    within 8*2**-53 of exact (measured worst 5.5, on the x slope).  The test
    checks that bound, not bits, whatever its name says: the golden digest of
    ``tests/test_curve_bits.py`` pins the bits of the core's quotes that the
    curve gives."""
    checked = 0
    for curve, state, dx in battery_cases(0, 4000):
        if type(curve) is not CarbonCurve:
            continue
        params = curve.params
        dy = curve.swap_exact_in_x(state, dx).dy
        x_new, y_new = state.x + dx, state.y + dy
        got = (native.dy(params, state.x, dx, x_new), native.dx(params, state.y, dy, y_new),
               native.marginal_price(params, state.x, state.y),
               native.slope_at_x(params, state.x), native.slope_at_y(params, state.y))
        constants = exact.of_params(params)
        want = (exact.dy(constants, state.x, dx, x_new), exact.dx(constants, state.y, dy, y_new),
                exact.marginal_price(constants, state.x, state.y),
                exact.slope_at_x(constants, state.x), exact.slope_at_y(constants, state.y))
        for value, exact_value in zip(got, want):
            assert exact.rel(value, exact_value) <= 8 * 2.0 ** -53, (curve, state, dx)
        checked += 1
    assert checked == 1000
