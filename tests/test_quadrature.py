import math
import random

import pytest

from clamm import (
    ConvergenceFailure,
    DomainError,
    IntegralSpec,
    PoolState,
    ReferenceParams,
    SwapDelta,
    adaptive_simpson,
    curve_for,
    integrate_price_curve,
    oracle_compare,
    run_battery,
)
from clamm.quadrature import (
    _BATTERY_FORMS,
    DEFAULT_ABS_TOL,
    battery_cases,
    random_admissible_swap,
    random_bancor_params,
    random_cases,
)
from clamm.rosetta import translate

from .conftest import WORKED_BANCOR, WORKED_CARBON, WORKED_NATURAL, WORKED_UNISWAP, assert_rel

# ---------------------------------------------------------------------------
# Reference kernel: the recursion as it was before the half panels were
# written out in _adaptive and before integrate_price_curve shared its first
# panel with the kernel.  The library must still return these values bit for
# bit.
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
    """integrate_price_curve on the reference kernel, for in-range intervals."""
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
    def test_polynomial_is_exact(self):
        value = adaptive_simpson(lambda x: x * x * x, IntegralSpec(0.0, 2.0))
        assert_rel(value, 4.0, rel=1e-12)

    def test_smooth_transcendental(self):
        value = adaptive_simpson(math.exp, IntegralSpec(0.0, 1.0, abs_tol=1e-12))
        assert_rel(value, math.e - 1.0, rel=1e-11)

    def test_depth_exhaustion_raises(self):
        with pytest.raises(ConvergenceFailure):
            adaptive_simpson(lambda x: 1.0 / x, IntegralSpec(1e-6, 1.0, abs_tol=1e-12, max_depth=3))

    def test_halving_tolerance_is_conservative(self):
        f = lambda x: 1.0 / (x * x)
        tol = 1e-6
        for _ in range(6):
            coarse = adaptive_simpson(f, IntegralSpec(1.0, 50.0, abs_tol=tol))
            fine = adaptive_simpson(f, IntegralSpec(1.0, 50.0, abs_tol=tol / 2.0))
            assert abs(coarse - fine) <= tol
            tol /= 2.0


class TestIntegratePriceCurve:
    def test_reference_interval(self):
        curve = curve_for(ReferenceParams(100.0, 100.0))
        dy = integrate_price_curve(curve, 100.0, 200.0, abs_tol=1e-10)
        assert_rel(dy, -50.0, rel=1e-8)

    def test_zero_width_interval(self):
        assert integrate_price_curve(WORKED_BANCOR, 100.0, 100.0) == 0.0

    def test_full_depletion_interval(self):
        dy = integrate_price_curve(WORKED_BANCOR, 100.0, 300.0, abs_tol=1e-10)
        assert_rel(dy, -100.0, rel=1e-8)

    def test_reversed_interval_flips_sign(self):
        forward = integrate_price_curve(WORKED_BANCOR, 100.0, 200.0)
        backward = integrate_price_curve(WORKED_BANCOR, 200.0, 100.0)
        assert_rel(backward, -forward, rel=1e-12)

    def test_interval_outside_range_rejected(self):
        with pytest.raises(DomainError):
            integrate_price_curve(WORKED_BANCOR, 100.0, 301.0)

    def test_dual_axis_reproduces_dx(self, bancor_curve):
        # same routine, axes swapped: integrate dx/dy over the y move
        state = PoolState(100.0, 100.0)
        delta = bancor_curve.swap_exact_in_x(state, 100.0)
        spec = IntegralSpec(state.y + delta.dy, state.y, abs_tol=1e-10)
        dx = -adaptive_simpson(bancor_curve.price_slope_at_y, spec)
        assert_rel(dx, delta.dx, rel=1e-8)

    def test_consumes_only_the_slope_callback(self, bancor_curve):
        class SlopeOnly:
            def __init__(self):
                self.geom = bancor_curve.geom
                self.price_slope_at_x = bancor_curve.price_slope_at_x

            def swap_exact_in_x(self, state, dx):
                raise AssertionError("oracle must not consult the swap formula")

        dy = integrate_price_curve(SlopeOnly(), 100.0, 200.0)
        assert_rel(dy, -200.0 / 3.0, rel=1e-8)


class TestKernelMatchesReference:
    @pytest.mark.parametrize("seed", [0, 3, 11, 2024])
    def test_battery_integrals_are_bit_identical(self, seed):
        for curve, x_from, x_to in battery_intervals(seed, 400):
            assert integrate_price_curve(curve, x_from, x_to) == reference_integral(curve, x_from, x_to)

    def test_worked_curve_integrals_are_bit_identical(self):
        for curve, x_from, x_to in worked_intervals():
            for abs_tol in (None, 1e-10):
                got = integrate_price_curve(curve, x_from, x_to, abs_tol=abs_tol)
                assert got == reference_integral(curve, x_from, x_to, abs_tol=abs_tol)

    def test_adaptive_simpson_is_bit_identical(self):
        for f, spec in ((math.exp, IntegralSpec(0.0, 1.0, abs_tol=1e-12)),
                        (lambda x: 1.0 / (x * x), IntegralSpec(1.0, 50.0, abs_tol=1e-9)),
                        (math.sqrt, IntegralSpec(0.0, 4.0, abs_tol=1e-11))):
            assert adaptive_simpson(f, spec) == reference_adaptive_simpson(f, spec)

    def test_first_panel_is_computed_once(self):
        intervals = [*battery_intervals(3, 40), *worked_intervals(5)]
        for curve, x_from, x_to in intervals:
            new, old = CountingSlope(curve), CountingSlope(curve)
            integrate_price_curve(new, x_from, x_to)
            reference_integral(old, x_from, x_to)
            assert new.evals == old.evals - 3

    def test_explicit_tolerance_costs_the_same(self):
        for curve, x_from, x_to in worked_intervals(5):
            new, old = CountingSlope(curve), CountingSlope(curve)
            integrate_price_curve(new, x_from, x_to, abs_tol=1e-10)
            reference_integral(old, x_from, x_to, abs_tol=1e-10)
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
        reports = run_battery(seed=3, cases=40)
        assert len(reports) == 40
        assert all(r.passed for r in reports)
        assert max(r.rel_deviation for r in reports) < 1e-9

    def test_battery_covers_every_integrand_form(self):
        forms = {params.form for params, _, _ in random_cases(0, 8)}
        assert forms == {"reference", "bancor_v2", "uniswap_v3", "carbon"}
