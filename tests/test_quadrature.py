import math
import random
import sys

import mpmath
import pytest

import clamm.quadrature
from clamm import (
    ConvergenceFailure,
    DomainError,
    IntegralSpec,
    PoolState,
    ReferenceParams,
    SwapDelta,
    adaptive_gauss_kronrod,
    curve_for,
    integrate_price_curve,
    oracle_compare,
    verify_cases,
)
from clamm.quadrature import (
    _BATTERY_FORMS,
    _WG,
    _WGK,
    DEFAULT_ABS_TOL,
    DEFAULT_MAX_DEPTH,
    _panel,
    battery_cases,
    random_admissible_swap,
    random_bancor_params,
    random_cases,
)
from clamm.rosetta import translate

from .conftest import (
    WORKED_BANCOR,
    WORKED_CARBON,
    WORKED_NATURAL,
    WORKED_UNISWAP,
    assert_rel,
    exact_curve,
    rel_dev,
)

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


def reference_adaptive_simpson(f, spec):
    fa, fb = f(spec.lower), f(spec.upper)
    m, fm, whole = _simpson_slice(f, spec.lower, fa, spec.upper, fb)
    return _adaptive(f, spec.lower, fa, spec.upper, fb, spec.abs_tol, whole, m, fm, spec.max_depth)


def reference_integral(curve, x_from, x_to, abs_tol=None, rel_tol=1e-10):
    """integrate_price_curve on the Simpson kernel, for in-range intervals."""
    sign = 1.0
    lo, hi = x_from, x_to
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    f = curve.price_slope_at_x
    if abs_tol is None:
        _, _, coarse = _simpson_slice(f, lo, f(lo), hi, f(hi))
        abs_tol = abs(coarse) * max(rel_tol, 1e-13)
        if abs_tol == 0.0:
            abs_tol = DEFAULT_ABS_TOL
    return sign * reference_adaptive_simpson(f, IntegralSpec(lo, hi, abs_tol))


def reference_random_cases(seed, cases):
    """The battery as random_cases built it before it became a projection of battery_cases."""
    rng = random.Random(seed)
    out = []
    for i in range(cases):
        form = _BATTERY_FORMS[i % len(_BATTERY_FORMS)]
        bancor = random_bancor_params(rng)
        if form == "reference":
            params = ReferenceParams(x0=bancor.x0, y0=bancor.y0)
        elif form == "bancor_v2":
            params = bancor
        else:
            params = translate(bancor, form)
        curve = curve_for(params)
        state, dx = random_admissible_swap(rng, curve)
        out.append((params, state, dx))
    return out


EXACT_DIGITS = 60
EXACT_BOUND = 2e-15
SIMPSON_BOUND = 1e-13


def exact_rel_error(got, params, x_from, x_to) -> float:
    """Relative error of got against dy = y(x_to) - y(x_from) on
    (x + sx)(y + sy) = s, evaluated at 60 digits."""
    with mpmath.workdps(EXACT_DIGITS):
        sx, _, s = exact_curve(params)
        want = s / (mpmath.mpf(x_to) + sx) - s / (mpmath.mpf(x_from) + sx)
        return float(abs(mpmath.mpf(got) - want) / abs(want))


def derived_tolerance(f, lo, hi, rel_tol=1e-10):
    """The abs_tol integrate_price_curve derives from its first panel."""
    return abs(_panel(f, lo, hi)[0]) * max(rel_tol, 1e-13)


def kernel_integral(curve, x_from, x_to, abs_tol=None):
    """integrate_price_curve spelled out as one adaptive_gauss_kronrod call."""
    lo, hi = sorted((x_from, x_to))
    f = curve.price_slope_at_x
    if abs_tol is None:
        abs_tol = derived_tolerance(f, lo, hi)
    value = adaptive_gauss_kronrod(f, IntegralSpec(lo, hi, abs_tol))
    return value if x_from < x_to else -value


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
    """(curve, x_from, x_to) on each worked curve: fixed trades, then random ones."""
    rng = random.Random(1729)
    for params in WORKED_CURVES:
        curve = curve_for(params)
        for x_from, x_to in ((100.0, 200.0), (200.0, 100.0), (100.0, 300.0), (0.0, 300.0)):
            yield curve, x_from, x_to
        for _ in range(count):
            state, dx = random_admissible_swap(rng, curve)
            yield curve, state.x, state.x + dx


def battery_intervals(seed, cases):
    for params, state, dx in random_cases(seed, cases):
        yield curve_for(params), state.x, state.x + dx


class TestIntegralSpec:
    def test_rejects_reversed_bounds(self):
        with pytest.raises(DomainError):
            IntegralSpec(2.0, 1.0)

    def test_rejects_zero_width(self):
        with pytest.raises(DomainError):
            IntegralSpec(1.0, 1.0)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(DomainError):
            IntegralSpec(0.0, 1.0, abs_tol=0.0)


class TestAdaptiveSimpson:
    """The public adaptive kernel, adaptive_gauss_kronrod.  The class keeps the
    name of the Simpson kernel it first tested, so that its test ids stay
    stable; every check holds for any adaptive rule."""

    def test_polynomial_is_exact(self):
        value = adaptive_gauss_kronrod(lambda x: x * x * x, IntegralSpec(0.0, 2.0))
        assert_rel(value, 4.0, rel=1e-12)

    def test_smooth_transcendental(self):
        value = adaptive_gauss_kronrod(math.exp, IntegralSpec(0.0, 1.0, abs_tol=1e-12))
        assert_rel(value, math.e - 1.0, rel=1e-11)

    def test_depth_exhaustion_raises(self):
        with pytest.raises(ConvergenceFailure):
            adaptive_gauss_kronrod(lambda x: 1.0 / x, IntegralSpec(1e-6, 1.0, abs_tol=1e-12, max_depth=3))

    def test_halving_tolerance_is_conservative(self):
        f = lambda x: 1.0 / (x * x)
        tol = 1e-6
        for _ in range(6):
            coarse = adaptive_gauss_kronrod(f, IntegralSpec(1.0, 50.0, abs_tol=tol))
            fine = adaptive_gauss_kronrod(f, IntegralSpec(1.0, 50.0, abs_tol=tol / 2.0))
            assert abs(coarse - fine) <= tol
            tol /= 2.0


class TestIntegratePriceCurve:
    def test_reference_interval(self):
        curve = curve_for(ReferenceParams(100.0, 100.0))
        dy = integrate_price_curve(curve, 100.0, 200.0, abs_tol=1e-10)
        assert_rel(dy, -50.0, rel=1e-8)

    def test_zero_width_interval(self):
        assert integrate_price_curve(curve_for(WORKED_BANCOR), 100.0, 100.0) == 0.0

    def test_full_depletion_interval(self):
        dy = integrate_price_curve(curve_for(WORKED_BANCOR), 100.0, 300.0, abs_tol=1e-10)
        assert_rel(dy, -100.0, rel=1e-8)

    def test_reversed_interval_flips_sign(self):
        forward = integrate_price_curve(curve_for(WORKED_BANCOR), 100.0, 200.0)
        backward = integrate_price_curve(curve_for(WORKED_BANCOR), 200.0, 100.0)
        assert_rel(backward, -forward, rel=1e-12)

    def test_interval_outside_range_rejected(self):
        with pytest.raises(DomainError):
            integrate_price_curve(curve_for(WORKED_BANCOR), 100.0, 301.0)

    def test_dual_axis_reproduces_dx(self, bancor_curve):
        # same routine, axes swapped: integrate dx/dy over the y move
        state = PoolState(100.0, 100.0)
        delta = bancor_curve.swap_exact_in_x(state, 100.0)
        spec = IntegralSpec(state.y + delta.dy, state.y, abs_tol=1e-10)
        dx = -adaptive_gauss_kronrod(bancor_curve.price_slope_at_y, spec)
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
            dy = integrate_price_curve(counting, state.x, state.x + dx)
            assert -sys.float_info.min < dy < 0.0
            assert counting.evals <= 2 * 15

    def test_consumes_only_the_slope_callback(self, bancor_curve):
        class SlopeOnly:
            def __init__(self):
                self.geom = bancor_curve.geom
                self.price_slope_at_x = bancor_curve.price_slope_at_x

            def swap_exact_in_x(self, state, dx):
                raise AssertionError("oracle must not consult the swap formula")

        dy = integrate_price_curve(SlopeOnly(), 100.0, 200.0)
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
        forward = adaptive_gauss_kronrod(f, IntegralSpec(1.0, 50.0, abs_tol=1e-12))
        got = clamm.quadrature._adaptive(f, 50.0, 1.0, 1e-12, whole, err, DEFAULT_MAX_DEPTH)
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
        spec = IntegralSpec(1.0, 50.0, abs_tol=1e-9)
        adaptive_gauss_kronrod(lambda x: 1.0 / (x * x), spec)
        assert len(frames) > 1
        for width, eps, _ in frames:
            assert math.isclose(eps, spec.abs_tol * width / 49.0, rel_tol=1e-12)
        leaves = [err for _, eps, err in frames if err <= eps]
        assert sum(leaves) <= spec.abs_tol


class TestKernelMatchesReference:
    """The kernel against a 60-digit evaluation of the same integral and
    against the adaptive Simpson copy above."""

    @pytest.mark.parametrize("seed", [0, 3, 11, 2024])
    def test_battery_integrals_are_bit_identical(self, seed):
        # the shared first panel changes nothing: integrate_price_curve
        # returns the public kernel's value at the tolerance it derives
        for curve, x_from, x_to in battery_intervals(seed, 400):
            assert integrate_price_curve(curve, x_from, x_to) == kernel_integral(curve, x_from, x_to)

    def test_worked_curve_integrals_are_bit_identical(self):
        for curve, x_from, x_to in worked_intervals():
            for abs_tol in (None, 1e-10):
                got = integrate_price_curve(curve, x_from, x_to, abs_tol=abs_tol)
                assert got == kernel_integral(curve, x_from, x_to, abs_tol=abs_tol)

    @pytest.mark.parametrize("seed", [0, 3, 11, 2024])
    def test_battery_integrals_are_exact(self, seed):
        for curve, x_from, x_to in battery_intervals(seed, 400):
            got = integrate_price_curve(curve, x_from, x_to)
            assert exact_rel_error(got, curve.params, x_from, x_to) <= EXACT_BOUND
            assert rel_dev(got, reference_integral(curve, x_from, x_to)) <= SIMPSON_BOUND

    def test_worked_curve_integrals_are_exact(self):
        for curve, x_from, x_to in worked_intervals():
            for abs_tol in (None, 1e-10):
                got = integrate_price_curve(curve, x_from, x_to, abs_tol=abs_tol)
                assert exact_rel_error(got, curve.params, x_from, x_to) <= EXACT_BOUND
                simpson = reference_integral(curve, x_from, x_to, abs_tol=abs_tol)
                assert rel_dev(got, simpson) <= SIMPSON_BOUND

    def test_adaptive_gauss_kronrod_agrees_with_simpson(self):
        for f, spec, exact in ((math.exp, IntegralSpec(0.0, 1.0, abs_tol=1e-12), math.e - 1.0),
                               (lambda x: 1.0 / (x * x), IntegralSpec(1.0, 50.0, abs_tol=1e-9), 0.98),
                               (math.sqrt, IntegralSpec(0.0, 4.0, abs_tol=1e-11), 16.0 / 3.0)):
            got = adaptive_gauss_kronrod(f, spec)
            assert abs(got - exact) <= spec.abs_tol
            assert abs(got - reference_adaptive_simpson(f, spec)) <= 2.0 * spec.abs_tol

    def test_reference_integrals_cost_less_than_simpson(self):
        for seed in (0, 3, 11, 2024):
            for curve, x_from, x_to in battery_intervals(seed, 400):
                if curve.params.form != "reference":
                    continue
                new, old = CountingSlope(curve), CountingSlope(curve)
                integrate_price_curve(new, x_from, x_to)
                reference_integral(old, x_from, x_to)
                assert new.evals < old.evals

    def test_first_panel_is_computed_once(self):
        intervals = [*battery_intervals(3, 40), *worked_intervals(5)]
        for curve, x_from, x_to in intervals:
            tol = derived_tolerance(curve.price_slope_at_x, *sorted((x_from, x_to)))
            new, old = CountingSlope(curve), CountingSlope(curve)
            integrate_price_curve(new, x_from, x_to)
            kernel_integral(old, x_from, x_to, abs_tol=tol)
            assert new.evals == old.evals

    def test_explicit_tolerance_costs_the_same(self):
        for curve, x_from, x_to in worked_intervals(5):
            new, old = CountingSlope(curve), CountingSlope(curve)
            integrate_price_curve(new, x_from, x_to, abs_tol=1e-10)
            kernel_integral(old, x_from, x_to, abs_tol=1e-10)
            assert new.evals == old.evals


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
        # both sides are subnormal and 1.2 % apart; a denominator floored at
        # 1e-300 read that as 1.7e-13 and passed it
        curve = curve_for(ReferenceParams(1e10, 1e-310))
        state, dx = random_admissible_swap(random.Random(0), curve)
        report = oracle_compare(curve, state, dx)
        assert 0.0 < abs(report.closed_form_dy) < sys.float_info.min
        assert not report.passed
        assert report.rel_deviation > 1e-2


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

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_random_cases_is_the_list_it_was(self, seed):
        cases = random_cases(seed, 400)
        assert isinstance(cases, list)
        assert cases == random_cases(seed, 400) == reference_random_cases(seed, 400)

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

    def test_battery_covers_every_integrand_form(self):
        forms = {params.form for params, _, _ in random_cases(0, 8)}
        assert forms == {"reference", "bancor_v2", "uniswap_v3", "carbon"}
