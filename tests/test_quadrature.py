import math
import random
import sys
from collections import Counter

import pytest

import clamm.quadrature
from clamm import (
    BancorV2Params,
    ConvergenceFailure,
    DomainError,
    PoolState,
    ReferenceParams,
    SwapDelta,
    UniswapV3Params,
    adaptive_gauss_kronrod,
    curve_for,
    integrate_price_curve,
    oracle_compare,
    verify_cases,
)
from clamm.quadrature import (
    _BATTERY_FORMS,
    _MAX_DEPTH,
    _WG,
    _WGK,
    DEFAULT_ABS_TOL,
    _panel,
    battery_cases,
    random_admissible_swap,
    random_bancor_params,
    random_cases,
)
from clamm.params import REL_TOL
from clamm.rosetta import translate, translation_report

from .conftest import (
    WORKED_BANCOR,
    WORKED_CARBON,
    WORKED_NATURAL,
    WORKED_UNISWAP,
    assert_rel,
    rel_dev,
)
from . import exact

# ---------------------------------------------------------------------------
# Second quadrature: adaptive Simpson.  It shares no code with the library's
# Gauss-Kronrod rule, so the two agreeing is a check on both.
# ---------------------------------------------------------------------------


def _simpson_slice(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, eps, whole, m, fm, depth):
    lm, flm, left = _simpson_slice(f, a, fa, m, fm)
    rm, frm, right = _simpson_slice(f, m, fm, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0
    if depth <= 0:
        raise ConvergenceFailure(f"interval [{a}, {b}] did not converge to {eps}")
    return (_adaptive(f, a, fa, m, fm, 0.5 * eps, left, lm, flm, depth - 1)
            + _adaptive(f, m, fm, b, fb, 0.5 * eps, right, rm, frm, depth - 1))


def reference_adaptive_simpson(f, lower, upper, abs_tol):
    fa, fb = f(lower), f(upper)
    m, fm, whole = _simpson_slice(f, lower, fa, upper, fb)
    return _adaptive(f, lower, fa, upper, fb, abs_tol, whole, m, fm, _MAX_DEPTH)


def reference_integral(curve, x, dx):
    """The dy of a trade of dx from x on the Simpson kernel, for in-range trades.

    It integrates t -> slope(x + t) over [0, dx], whose width is the trade
    exactly, in x rather than along the angle the library integrates over.
    """
    slope = curve.price_slope_at_x
    f = lambda t: slope(x + t)  # noqa: E731
    lo, hi = sorted((0.0, dx))
    _, _, coarse = _simpson_slice(f, lo, f(lo), hi, f(hi))
    abs_tol = abs(coarse) * 1e-13
    if abs_tol == 0.0:
        abs_tol = DEFAULT_ABS_TOL
    value = reference_adaptive_simpson(f, lo, hi, abs_tol)
    return value if dx > 0 else -value


def spelled_bancor(rng):
    """One Bancor curve, its draws spelled with rng.uniform."""
    return BancorV2Params(x0=10.0 ** rng.uniform(-3.0, 9.0), y0=10.0 ** rng.uniform(-3.0, 9.0),
                          A=rng.uniform(1.01, 100.0))


def spelled_swap(rng, curve):
    """A state and a trade on curve, their draws spelled with rng.uniform.

    A bounded curve keeps 2 % of its range clear at each end; the unshifted
    curve starts within a decade of its x0 and trades 0.05 to 3 times x.
    """
    x_int = curve.geom.x_int
    if math.isinf(x_int):
        x = curve.params.x0 * 10.0 ** rng.uniform(-1.0, 1.0)
        dx = rng.uniform(0.05, 3.0) * x
    else:
        x = rng.uniform(0.02, 0.98) * x_int
        dx = rng.uniform(0.02, 0.98) * (x_int - x)
    return curve.state_from_x(x), dx


def reference_group_cases(seed, cases):
    """The battery spelled out as a list of (params, state, dx): each group of
    four cases draws one Bancor curve and checks it as the unshifted curve on
    its balances, as itself, and as its uniswap and carbon translations; every
    case draws its own state and trade."""
    rng = random.Random(seed)
    out = []
    for i in range(cases):
        form = _BATTERY_FORMS[i % len(_BATTERY_FORMS)]
        if form == "reference":
            bancor = spelled_bancor(rng)
            params = ReferenceParams(x0=bancor.x0, y0=bancor.y0)
        elif form == "bancor_v2":
            params = bancor
        else:
            params = translate(bancor, form)
        out.append((params, *spelled_swap(rng, curve_for(params))))
    return out


EXACT_BOUND = 2e-15
SIMPSON_BOUND = 1e-13


def angle_integral(curve, x, dx):
    """(g, lo, hi, sign): integrate_price_curve's integrand along the angle
    u = log(v/s) of the virtual balance v, from its value s = x + shift where
    the trade starts, and the sorted interval between 0 and the angle U the
    trade spans: log1p(dx/s) for dx >= -s/2, else log((x + dx + shift)/s)."""
    shift = -curve.geom.x_asym
    s = x + shift
    f = curve.price_slope_at_x

    def g(u):
        e = s * math.exp(u)
        return f(e - shift) * e

    width = math.log1p(dx / s) if dx >= -0.5 * s else math.log((x + dx + shift) / s)
    lo, hi = sorted((0.0, width))
    return g, lo, hi, (1.0 if width > 0 else -1.0)


def derived_tolerance(curve, x, dx):
    """The tolerance integrate_price_curve derives from its first panel: the
    binary64 floor, 1e-13 of the panel's magnitude, or the smallest normal float."""
    g, lo, hi, _ = angle_integral(curve, x, dx)
    return max(abs(_panel(g, lo, hi)[0]) * 1e-13, sys.float_info.min)


def kernel_integral(curve, x, dx, abs_tol=None):
    """integrate_price_curve spelled out as one adaptive_gauss_kronrod call."""
    g, lo, hi, sign = angle_integral(curve, x, dx)
    if abs_tol is None:
        abs_tol = derived_tolerance(curve, x, dx)
    return sign * adaptive_gauss_kronrod(g, lo, hi, abs_tol)


class CountingSlope:
    """Slope-only curve stub that counts integrand evaluations."""

    def __init__(self, curve):
        self.geom = curve.geom
        self._slope = curve.price_slope_at_x
        self.evals = 0

    def price_slope_at_x(self, x):
        self.evals += 1
        return self._slope(x)


WORKED_CURVES = (WORKED_BANCOR, WORKED_UNISWAP, WORKED_CARBON, WORKED_NATURAL)


def worked_intervals(count=50):
    """(curve, x, dx) on each worked curve: fixed trades, then random ones."""
    rng = random.Random(1729)
    for params in WORKED_CURVES:
        curve = curve_for(params)
        for x, dx in ((100.0, 100.0), (200.0, -100.0), (100.0, 200.0), (0.0, 300.0)):
            yield curve, x, dx
        for _ in range(count):
            state, dx = random_admissible_swap(rng, curve)
            yield curve, state.x, dx


def battery_intervals(seed, cases):
    for params, state, dx in random_cases(seed, cases):
        yield curve_for(params), state.x, dx


class TestIntegralSpec:
    """The checks of adaptive_gauss_kronrod's arguments.  The class keeps the
    name of the IntegralSpec value they were first the checks of, so that its
    test ids stay stable."""

    def test_rejects_reversed_bounds(self):
        with pytest.raises(DomainError) as err:
            adaptive_gauss_kronrod(math.exp, 2.0, 1.0)
        assert (err.value.field, err.value.reason) == ("lower", "must be below upper")

    def test_rejects_zero_width(self):
        with pytest.raises(DomainError) as err:
            adaptive_gauss_kronrod(math.exp, 1.0, 1.0)
        assert (err.value.field, err.value.reason) == ("lower", "must be below upper")

    def test_rejects_nonpositive_tolerance(self):
        for abs_tol in (0.0, -1e-10, math.nan):
            with pytest.raises(DomainError) as err:
                adaptive_gauss_kronrod(math.exp, 0.0, 1.0, abs_tol)
            assert (err.value.field, err.value.reason) == ("abs_tol", "must be positive")

    def test_int_tolerance_past_binary64_on_a_range_wider_than_binary64(self):
        # the range's width overflows, so the first panel's error is NaN and the kernel bisects
        assert adaptive_gauss_kronrod(lambda x: 0.0, -1e308, 1e308, 10**400) == 0.0


class TestAdaptiveSimpson:
    """The public adaptive kernel, adaptive_gauss_kronrod.  The class keeps the
    name of the Simpson kernel it first tested, so that its test ids stay
    stable; every check holds for any adaptive rule."""

    def test_polynomial_is_exact(self):
        value = adaptive_gauss_kronrod(lambda x: x * x * x, 0.0, 2.0)
        assert_rel(value, 4.0, rel=1e-12)

    def test_smooth_transcendental(self):
        value = adaptive_gauss_kronrod(math.exp, 0.0, 1.0, abs_tol=1e-12)
        assert_rel(value, math.e - 1.0, rel=1e-11)

    def test_depth_exhaustion_raises(self):
        # a NaN error estimate never shrinks, so every branch would bisect to
        # the depth limit, and the first one to reach it fails the integral
        evals = []

        def nan(x):
            evals.append(x)
            return math.nan

        with pytest.raises(ConvergenceFailure):
            adaptive_gauss_kronrod(nan, 0.0, 1.0)
        assert len(evals) == 15 * (2 * _MAX_DEPTH + 1)

    def test_halving_tolerance_is_conservative(self):
        f = lambda x: 1.0 / (x * x)
        tol = 1e-6
        for _ in range(6):
            coarse = adaptive_gauss_kronrod(f, 1.0, 50.0, abs_tol=tol)
            fine = adaptive_gauss_kronrod(f, 1.0, 50.0, abs_tol=tol / 2.0)
            assert abs(coarse - fine) <= tol
            tol /= 2.0


class TestIntegratePriceCurve:
    def test_reference_interval(self):
        curve = curve_for(ReferenceParams(100.0, 100.0))
        dy = integrate_price_curve(curve, 100.0, 100.0)
        assert_rel(dy, -50.0, rel=1e-8)

    def test_zero_width_interval(self):
        assert integrate_price_curve(curve_for(WORKED_BANCOR), 100.0, 0.0) == 0.0

    def test_full_depletion_interval(self):
        dy = integrate_price_curve(curve_for(WORKED_BANCOR), 100.0, 200.0)
        assert_rel(dy, -100.0, rel=1e-8)

    def test_reversed_interval_flips_sign(self):
        forward = integrate_price_curve(curve_for(WORKED_BANCOR), 100.0, 100.0)
        backward = integrate_price_curve(curve_for(WORKED_BANCOR), 200.0, -100.0)
        assert_rel(backward, -forward, rel=1e-12)

    def test_interval_outside_range_rejected(self):
        with pytest.raises(DomainError):
            integrate_price_curve(curve_for(WORKED_BANCOR), 100.0, 201.0)

    def test_dual_axis_reproduces_dx(self, bancor_curve):
        # same routine, axes swapped: integrate dx/dy over the y move
        state = PoolState(100.0, 100.0)
        delta = bancor_curve.swap_exact_in_x(state, 100.0)
        dx = -adaptive_gauss_kronrod(bancor_curve.price_slope_at_y, state.y + delta.dy, state.y)
        assert_rel(dx, delta.dx, rel=1e-8)

    def test_subnormal_integral_stops_at_the_first_panels(self):
        # every dy on this curve is below the smallest normal float, so a
        # tolerance derived from the integral alone would be finer than any
        # panel's error estimate resolves, and the kernel would bisect toward
        # its depth limit
        class Budgeted(CountingSlope):
            def price_slope_at_x(self, x):
                assert self.evals < 1000, "the kernel bisects toward its depth limit"
                return super().price_slope_at_x(x)

        curve = curve_for(ReferenceParams(1e10, 1e-310))
        rng = random.Random(0)
        for _ in range(2):
            state, dx = random_admissible_swap(rng, curve)
            counting = Budgeted(curve)
            dy = integrate_price_curve(counting, state.x, dx)
            assert -sys.float_info.min < dy < 0.0
            assert counting.evals <= 2 * 15

    def test_consumes_only_the_slope_callback(self, bancor_curve):
        class SlopeOnly:
            def __init__(self):
                self.geom = bancor_curve.geom
                self.price_slope_at_x = bancor_curve.price_slope_at_x

            def swap_exact_in_x(self, state, dx):
                raise AssertionError("oracle must not consult the swap formula")

        dy = integrate_price_curve(SlopeOnly(), 100.0, 100.0)
        assert_rel(dy, -200.0 / 3.0, rel=1e-8)


class TestKronrodKernel:
    """The QUADPACK qk15 tables, guarded against a mistyped node or weight,
    and the bisection that uses them."""

    def test_each_weight_set_sums_to_two(self):
        assert abs(2.0 * sum(_WGK[:7]) + _WGK[7] - 2.0) <= 1e-15
        assert abs(2.0 * sum(_WG[:3]) + _WG[3] - 2.0) <= 1e-15

    def test_kronrod_integrates_degree_22_exactly(self):
        value, err = _panel(lambda x: x ** 22, -1.0, 1.0)
        assert abs(value - 2.0 / 23.0) <= 1e-15 * (2.0 / 23.0)
        assert err > 1e-3  # seven Gauss points cannot: the estimate is real

    def test_gauss_integrates_degree_12_exactly(self):
        value, err = _panel(lambda x: x ** 12, -1.0, 1.0)
        assert abs(value - 2.0 / 13.0) <= 1e-15 * (2.0 / 13.0)
        assert err <= 1e-15

    def test_reversed_panel_has_a_nonnegative_error(self):
        value, err = _panel(lambda x: x ** 22, 1.0, -1.0)
        assert value == -_panel(lambda x: x ** 22, -1.0, 1.0)[0]
        assert err == _panel(lambda x: x ** 22, -1.0, 1.0)[1] > 1e-3

    def test_reversed_interval_is_refined(self):
        # a negative error estimate would accept the first panel of [50, 1]
        f = lambda x: 1.0 / (x * x)  # noqa: E731
        whole, err = _panel(f, 50.0, 1.0)
        forward = adaptive_gauss_kronrod(f, 1.0, 50.0, abs_tol=1e-12)
        got = clamm.quadrature._adaptive(f, 50.0, 1.0, 1e-12, whole, err, _MAX_DEPTH)
        assert got != whole
        assert got == -forward
        assert abs(got + 49.0 / 50.0) <= 1e-12

    def test_each_panel_meets_its_share_of_the_tolerance(self, monkeypatch):
        # a panel of width w out of W is held to abs_tol * w / W, so the
        # accepted error estimates add up to at most abs_tol
        frames = []
        kernel = clamm.quadrature._adaptive

        def recording(f, a, b, eps, whole, err, depth):
            frames.append((b - a, eps, err))
            return kernel(f, a, b, eps, whole, err, depth)

        monkeypatch.setattr(clamm.quadrature, "_adaptive", recording)
        abs_tol = 1e-9
        adaptive_gauss_kronrod(lambda x: 1.0 / (x * x), 1.0, 50.0, abs_tol)
        assert len(frames) > 1
        for width, eps, _ in frames:
            assert math.isclose(eps, abs_tol * width / 49.0, rel_tol=1e-12)
        leaves = [err for _, eps, err in frames if err <= eps]
        assert sum(leaves) <= abs_tol


class TestKernelMatchesReference:
    """The kernel against an exact evaluation of the same integral and
    against the adaptive Simpson copy above."""

    @pytest.mark.parametrize("seed", [0, 3, 11, 2024])
    def test_battery_integrals_are_bit_identical(self, seed):
        # the shared first panel changes nothing: integrate_price_curve
        # returns the public kernel's value at the tolerance it derives
        for curve, x, dx in battery_intervals(seed, 400):
            assert integrate_price_curve(curve, x, dx) == kernel_integral(curve, x, dx)

    def test_worked_curve_integrals_are_bit_identical(self):
        for curve, x, dx in worked_intervals():
            assert integrate_price_curve(curve, x, dx) == kernel_integral(curve, x, dx)

    @pytest.mark.parametrize("seed", [0, 3, 11, 2024])
    def test_battery_integrals_are_exact(self, seed):
        for curve, x, dx in battery_intervals(seed, 400):
            got = integrate_price_curve(curve, x, dx)
            assert exact.rel(got, exact.dy(exact.of_params(curve.params), x, dx)) <= EXACT_BOUND
            assert rel_dev(got, reference_integral(curve, x, dx)) <= SIMPSON_BOUND

    def test_worked_curve_integrals_are_exact(self):
        for curve, x, dx in worked_intervals():
            got = integrate_price_curve(curve, x, dx)
            assert exact.rel(got, exact.dy(exact.of_params(curve.params), x, dx)) <= EXACT_BOUND
            assert rel_dev(got, reference_integral(curve, x, dx)) <= SIMPSON_BOUND

    def test_adaptive_gauss_kronrod_agrees_with_simpson(self):
        for f, lower, upper, abs_tol, want in ((math.exp, 0.0, 1.0, 1e-12, math.e - 1.0),
                                               (lambda x: 1.0 / (x * x), 1.0, 50.0, 1e-9, 0.98),
                                               (math.sqrt, 0.0, 4.0, 1e-11, 16.0 / 3.0)):
            got = adaptive_gauss_kronrod(f, lower, upper, abs_tol)
            assert abs(got - want) <= abs_tol
            simpson = reference_adaptive_simpson(f, lower, upper, abs_tol)
            assert abs(got - simpson) <= 2.0 * abs_tol

    def test_reference_integrals_cost_less_than_simpson(self):
        for seed in (0, 3, 11, 2024):
            for curve, x, dx in battery_intervals(seed, 400):
                if curve.params.form != "reference":
                    continue
                new, old = CountingSlope(curve), CountingSlope(curve)
                integrate_price_curve(new, x, dx)
                reference_integral(old, x, dx)
                assert new.evals < old.evals

    def test_first_panel_is_computed_once(self):
        intervals = [*battery_intervals(3, 40), *worked_intervals(5)]
        for curve, x, dx in intervals:
            tol = derived_tolerance(curve, x, dx)
            new, old = CountingSlope(curve), CountingSlope(curve)
            integrate_price_curve(new, x, dx)
            kernel_integral(old, x, dx, abs_tol=tol)
            assert new.evals == old.evals


def near_pole_trades():
    """(curve, state, dx): sales that end at or near the drained end of wide
    curves, whose pole lies just beyond it, and one deep sale on the
    unshifted curve, whose pole is x = 0."""
    for params in (BancorV2Params(1, 1, 1.000000001), UniswapV3Params(1, 1e10, 1e-10)):
        curve = curve_for(params)
        x_int = curve.geom.x_int
        state = curve.state_from_x(0.999 * x_int)
        for end in (0.5, 0.1, 1e-3, 1e-6, 0.0):
            yield curve, state, end * x_int - state.x
    curve = curve_for(ReferenceParams(1, 1))
    yield curve, curve.state_from_x(1e9), -1e9 * (1 - 1e-15)


class TestAngleOracle:
    """The integral along the angle of the virtual balance: exact width, one
    panel on smooth trades, and convergence up to the pole."""

    def test_near_pole_trades_converge(self):
        # the x-space kernel ran out of depth on 8 of these 11 trades
        for curve, state, dx in near_pole_trades():
            quad = integrate_price_curve(curve, state.x, dx)
            closed = curve.swap_exact_in_x(state, dx).dy
            assert rel_dev(quad, closed) <= 1e-14, (curve.params, dx)
            assert exact.rel(quad, exact.dy(exact.of_curve(curve), state.x, dx), quad) <= 1e-14

    def test_near_pole_trades_are_the_kernels_integral(self):
        # trades that bisect reach the public kernel's recursion on the
        # angle's integrand, bit for bit
        for curve, state, dx in near_pole_trades():
            assert integrate_price_curve(curve, state.x, dx) == kernel_integral(curve, state.x, dx)

    def test_small_trade_keeps_its_width(self):
        # 100.1 is not a float, so the rounded end balance would narrow the
        # trade by 5.7e-14 of itself
        curve = curve_for(WORKED_CARBON)
        state, dx = curve.state_from_x(100.0), 0.1
        assert (state.x + dx) - state.x != dx
        report = oracle_compare(curve, state, dx)
        assert report.rel_deviation <= 2e-15
        assert exact.rel(report.quadrature_dy, exact.dy(exact.of_curve(curve), state.x, dx), dx) <= 2e-15

    def test_large_sale_on_a_narrow_range(self):
        # x is far below the shift, so the end's virtual balance x + dx + shift
        # would round by more than the trade resolves; log1p(dx/s) keeps it
        curve = curve_for(BancorV2Params(1.0, 1.0, 1e4))
        rng = random.Random(1)
        for _ in range(200):
            x = (0.001 + 0.999 * rng.random()) * curve.geom.x_int
            dx = -(0.5 + 0.5 * rng.random()) * x
            quad = integrate_price_curve(curve, x, dx)
            assert exact.rel(quad, exact.dy(exact.of_curve(curve), x, dx), quad) <= 2e-15

    def test_widest_trades(self):
        # exp(u) of every node stays a finite normal float up to |u| = 708;
        # a wider trade is rejected, not overflowed
        curve = curve_for(ReferenceParams(1e-300, 1.0))
        dy = integrate_price_curve(curve, 1e-300, 1e4)  # u = 700
        assert exact.rel(dy, exact.dy(exact.of_curve(curve), 1e-300, 1e4), dy) <= 1e-14
        for dx in (1e10, 1e300):
            with pytest.raises(DomainError) as err:
                integrate_price_curve(curve, 1e-300, dx)
            assert err.value.field == "dx"

    def test_flags_a_slope_outside_the_family(self, bancor_curve):
        class Bent:
            """The worked curve with a slope bent by up to one part in a million."""

            geom = bancor_curve.geom

            def price_slope_at_x(self, x):
                return bancor_curve.price_slope_at_x(x) * (1.0 + 1e-6 * x / self.geom.x_int)

            def swap_exact_in_x(self, state, dx):
                return bancor_curve.swap_exact_in_x(state, dx)

        report = oracle_compare(Bent(), PoolState(100, 100), 100.0)
        assert not report.passed
        assert report.rel_deviation > 1e-7

    def test_a_slope_that_is_not_finite_fails(self):
        # a NaN error estimate never meets a tolerance: the first branch to
        # reach the depth limit fails the integral
        class Broken(CountingSlope):
            def price_slope_at_x(self, x):
                super().price_slope_at_x(x)
                return math.nan

        broken = Broken(curve_for(WORKED_BANCOR))
        with pytest.raises(ConvergenceFailure):
            integrate_price_curve(broken, 100.0, 100.0)
        assert broken.evals == 15 * (2 * _MAX_DEPTH + 1)

    def test_rejects_trades_it_cannot_integrate(self):
        bounded, unshifted = curve_for(WORKED_BANCOR), curve_for(ReferenceParams(1.0, 1.0))
        for curve, x, dx, field in ((bounded, 100.0, 201.0, "dx"), (bounded, 100.0, -101.0, "dx"),
                                    (bounded, -1.0, 2.0, "x"), (bounded, math.nan, 1.0, "x"),
                                    (bounded, 400.0, -200.0, "x"),
                                    (bounded, 100.0, math.inf, "dx"), (unshifted, 1.0, -1.0, "dx"),
                                    (unshifted, 1e308, 1e308, "dx"),
                                    # an int past binary64, which x + dx would overflow
                                    (bounded, 10**400, 1.0, "x"), (bounded, 1.0, 10**400, "dx"),
                                    (unshifted, 10**400, 1.0, "x"), (unshifted, 1.0, 10**400, "dx")):
            with pytest.raises(DomainError) as err:
                integrate_price_curve(curve, x, dx)
            assert err.value.field == field, (x, dx)

    def test_quadrature_does_not_depend_on_the_threshold(self):
        # the threshold only passes or fails a case: every trade is integrated
        # to the binary64 floor
        cases = [*near_pole_trades(), *battery_cases(20240702, 200)]
        for curve, state, dx in cases:
            quads = {oracle_compare(curve, state, dx, rel_tol=t).quadrature_dy
                     for t in (1e-4, 1e-8, 1e-13)}
            assert quads == {integrate_price_curve(curve, state.x, dx)}, (curve.params, dx)


class TestOracleCompare:
    def test_worked_curve_passes(self, bancor_curve):
        report = oracle_compare(bancor_curve, PoolState(100, 100), 100.0)
        assert report.passed
        assert report.rel_deviation < 1e-10
        assert_rel(report.closed_form_dy, -200.0 / 3.0)

    def test_corrupted_closed_form_detected(self, bancor_curve):
        class Corrupted:
            def __init__(self):
                self.geom = bancor_curve.geom
                self.price_slope_at_x = bancor_curve.price_slope_at_x

            def swap_exact_in_x(self, state, dx):
                honest = bancor_curve.swap_exact_in_x(state, dx)
                return SwapDelta(honest.dx, honest.dy + 1e-3)

        report = oracle_compare(Corrupted(), PoolState(100, 100), 100.0)
        assert not report.passed
        assert report.rel_deviation > 1e-8

    def test_three_forms_of_the_worked_curve(self, bancor_curve, uniswap_curve, carbon_curve):
        for curve in (bancor_curve, uniswap_curve, carbon_curve):
            report = oracle_compare(curve, PoolState(100, 100), 100.0)
            assert report.passed
            assert report.rel_deviation < 1e-10

    def test_subnormal_disagreement_is_not_a_pass(self):
        # both sides are subnormal and 7.2e-4 apart; a denominator floored at
        # 1e-300 read that as 1.7e-13 and passed it.  The closed form is the
        # exact value rounded; the slope itself is subnormal and keeps only a
        # few digits, which the quadrature cannot recover
        curve = curve_for(ReferenceParams(1e10, 1e-310))
        state, dx = random_admissible_swap(random.Random(0), curve)
        report = oracle_compare(curve, state, dx)
        assert 0.0 < abs(report.closed_form_dy) < sys.float_info.min
        assert report.closed_form_dy == float(exact.dy(exact.of_curve(curve), state.x, dx))
        assert not report.passed
        assert report.rel_deviation > 5e-4

    def test_rel_tol_past_binary64_is_the_infinity_of_its_sign(self, bancor_curve):
        state = PoolState(100.0, 100.0)
        for big, inf in ((10**400, math.inf), (-10**400, -math.inf)):
            report = oracle_compare(bancor_curve, state, 100.0, rel_tol=big)
            assert report == oracle_compare(bancor_curve, state, 100.0, rel_tol=inf)
            assert report.passed is (big > 0)

    def test_nan_threshold_names_its_argument(self, bancor_curve):
        # NaN passes nothing, whatever the deviation, and so is refused; the
        # zero trade is its own integral, with no quadrature to run
        for dx in (100.0, 0.0):
            with pytest.raises(DomainError) as err:
                oracle_compare(bancor_curve, PoolState(100.0, 100.0), dx, rel_tol=math.nan)
            assert err.value.field == "rel_tol"


class TestBattery:
    def test_thousand_reference_cases(self, rng):
        # the unshifted curve admits any trade size, so sweep widely
        for _ in range(1000):
            x0 = 10.0 ** rng.uniform(-2.0, 6.0)
            y0 = 10.0 ** rng.uniform(-2.0, 6.0)
            curve = curve_for(ReferenceParams(x0, y0))
            x = x0 * 10.0 ** rng.uniform(-1.0, 1.0)
            state = curve.state_from_x(x)
            report = oracle_compare(curve, state, rng.uniform(0.01, 5.0) * x)
            assert report.passed

    def test_cases_are_deterministic(self):
        assert random_cases(7, 8) == random_cases(7, 8)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_random_cases_is_the_list_it_was(self, seed):
        cases = random_cases(seed, 400)
        assert isinstance(cases, list)
        assert cases == random_cases(seed, 400) == reference_group_cases(seed, 400)

    @pytest.mark.parametrize("seed", [0, 20240702])
    def test_each_group_checks_one_curve_in_every_form(self, seed):
        cases = [(curve.params, state, dx) for curve, state, dx in battery_cases(seed, 400)]
        assert Counter(params.form for params, _, _ in cases) == dict.fromkeys(_BATTERY_FORMS, 100)
        for g in range(0, len(cases), 4):
            reference, bancor, uniswap, carbon = (params for params, _, _ in cases[g:g + 4])
            assert (reference.x0, reference.y0) == (bancor.x0, bancor.y0)
            for target in (uniswap, carbon):
                assert translation_report(bancor, target).max_rel_deviation <= REL_TOL
        # a battery cut inside a group is a prefix of the longer one
        for count in (397, 398, 399):
            short = [(curve.params, state, dx) for curve, state, dx in battery_cases(seed, count)]
            assert short == cases[:count]

    def test_battery_cases_yield_built_curves(self):
        cases = battery_cases(5, 12)
        assert not isinstance(cases, list)
        built = list(cases)
        assert [(curve.params, state, dx) for curve, state, dx in built] == random_cases(5, 12)
        assert all(curve == curve_for(curve.params) for curve, _, _ in built)

    def test_small_battery_passes(self):
        summary = verify_cases(battery_cases(3, 40))
        assert summary["cases"] == summary["passed"] == 40
        assert summary["max_rel_deviation"] < 1e-9

    def test_rel_tol_past_binary64_is_inf(self):
        summary = verify_cases(battery_cases(3, 8), rel_tol=10**400)
        assert summary == verify_cases(battery_cases(3, 8), rel_tol=math.inf)
        assert summary["passed"] == 8

    @pytest.mark.parametrize("scale_exp_range", [(0, 10**400), (-10**400, 0), (0.0, 400.0), (0, math.inf),
                                                 (0, math.nan), (-400.0, -330.0), (-200.0, -199.0),
                                                 (200.0, 201.0)],
                             ids=["int_hi", "int_lo", "float_hi", "inf", "nan", "float_lo", "no_curve_lo",
                                  "no_curve_hi"])
    def test_scale_exp_range_past_the_float_range_names_its_argument(self, scale_exp_range):
        # no_curve_lo and no_curve_hi draw positive finite balances that no
        # curve accepts: A^2*x0*y0 underflows or overflows
        with pytest.raises(DomainError) as err:
            random_bancor_params(random.Random(0), scale_exp_range)
        assert err.value.field == "scale_exp_range"

    @pytest.mark.parametrize("scale_exp_range", [(-149.99, -149.9), (149.9, 149.99)], ids=["lo", "hi"])
    def test_every_balance_it_accepts_builds_a_curve(self, scale_exp_range):
        rng = random.Random(0)
        for _ in range(200):
            bancor = curve_for(random_bancor_params(rng, scale_exp_range))
            for form in _BATTERY_FORMS[2:]:
                curve_for(translate(bancor, form))

    def test_battery_covers_every_integrand_form(self):
        forms = {params.form for params, _, _ in random_cases(0, 8)}
        assert forms == {"reference", "bancor_v2", "uniswap_v3", "carbon"}
