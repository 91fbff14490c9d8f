"""Acceptance suite: every shipping criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from clamm import (
    PoolState,
    apply_delta,
    curve_for,
    geometry,
    hyperbolic_angle,
    trig_identities,
    unit_from_state,
)
from clamm.quadrature import battery_cases, verify_cases
from clamm.rosetta import (
    concentration_from_asymptotes,
    concentration_from_center,
    concentration_from_intercepts,
    translate,
)

from .conftest import (
    GOLDEN_DIR,
    LN4,
    WORKED_BANCOR,
    WORKED_CARBON,
    WORKED_UNISWAP,
    assert_rel,
    load_script,
    random_bancor,
    rel_dev,
)

BOUNDED_FORMS = ("bancor_v2", "uniswap_v3", "carbon", "natural")


@contextmanager
def criterion(num, name, budget=None):
    started = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - started
        assert budget is None or elapsed < budget, (
            f"runtime {elapsed:.2f}s exceeds the {budget}s budget"
        )
        ok = True
    finally:
        elapsed = time.perf_counter() - started
        print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")


def test_criterion_1_worked_curve_suite():
    with criterion(1, "worked-curve suite", budget=1.0):
        expected = {
            "x_int": 300.0, "y_int": 300.0,
            "x_asym": -100.0, "y_asym": -100.0,
            "p_high": 4.0, "p_low": 0.25, "p0": 1.0,
            "c": 4.0, "phi": LN4,
        }
        for params in (WORKED_BANCOR, WORKED_UNISWAP, WORKED_CARBON):
            geom = geometry(params)
            for name, want in expected.items():
                assert_rel(getattr(geom, name), want, rel=1e-9)
            delta = curve_for(params).swap_exact_in_x(PoolState(100.0, 100.0), 100.0)
            assert_rel(delta.dy, -200.0 / 3.0, rel=1e-9)


def test_criterion_2_three_way_equivalence():
    with criterion(2, "three-way closed-form equivalence", budget=10.0):
        rng = random.Random(2024)
        for _ in range(1000):
            src = random_bancor(rng)
            curves = [curve_for(src),
                      curve_for(translate(src, "uniswap_v3")),
                      curve_for(translate(src, "carbon"))]
            x_int = curves[0].geom.x_int
            for _ in range(10):
                x = rng.uniform(0.02, 0.98) * x_int
                state = curves[0].state_from_x(x)
                dx = rng.uniform(0.02, 0.96) * (x_int - x)
                outputs = [c.swap_exact_in_x(state, dx).dy for c in curves]
                assert rel_dev(outputs[0], outputs[1]) <= 1e-9
                assert rel_dev(outputs[1], outputs[2]) <= 1e-9
                assert rel_dev(outputs[0], outputs[2]) <= 1e-9


def test_criterion_3_oracle_battery():
    with criterion(3, "quadrature oracle battery", budget=30.0):
        summary = verify_cases(battery_cases(11, 200), rel_tol=1e-8)
        assert summary["cases"] == 200
        assert not summary["failed"], f"{summary['failed']} oracle disagreements"


def test_criterion_4_natural_invariant_constancy():
    with criterion(4, "natural-invariant constancy", budget=30.0):
        rng = random.Random(4096)
        for _ in range(100):
            params = random_bancor(rng)
            curve = curve_for(params)
            g = curve.geom
            k0 = params.x0 * params.y0
            values = []
            for _ in range(100):
                state = curve.state_from_x(rng.uniform(0.005, 0.995) * g.x_int)
                values.append(concentration_from_asymptotes(state, g.x_asym, g.y_asym))
                # the other two forms are skipped inside their cancellation
                # windows, where binary64 cannot resolve the 0/0 limit
                if abs(state.x * state.y - k0) >= 1e-4 * k0:
                    values.append(concentration_from_center(state, params.x0, params.y0))
                if state.x >= 1e-4 * g.x_int and state.y >= 1e-4 * g.y_int:
                    values.append(concentration_from_intercepts(state, g.x_int, g.y_int))
            spread = max(values) - min(values)
            assert spread <= 1e-9 * g.c, f"spread {spread:.3e} on c={g.c}"


def test_criterion_5_round_trip_translation():
    with criterion(5, "round-trip translation", budget=30.0):
        rng = random.Random(555)
        for _ in range(500):
            base = random_bancor(rng)
            by_form = {form: translate(base, form) for form in BOUNDED_FORMS}
            for form_a in BOUNDED_FORMS:
                for form_b in BOUNDED_FORMS:
                    if form_a == form_b:
                        continue
                    original = by_form[form_a]
                    recovered = translate(translate(original, form_b), form_a)
                    for name in type(original).__dataclass_fields__:
                        a, b = getattr(original, name), getattr(recovered, name)
                        if isinstance(a, str):
                            assert a == b
                        else:
                            assert rel_dev(a, b) <= 1e-9


def test_criterion_6_trigonometric_layer():
    with criterion(6, "trigonometric layer", budget=10.0):
        rng = random.Random(6174)
        for _ in range(300):
            g = geometry(random_bancor(rng))
            trig = trig_identities(g.phi)
            assert rel_dev(trig.e_phi, g.c) <= 1e-12
            mean = 2.0 * math.sqrt(g.p_high) * math.sqrt(g.p_low)
            assert rel_dev(trig.cosh, (g.p_high + g.p_low) / mean) <= 1e-12
        for _ in range(300):
            p_low = 10.0 ** rng.uniform(-6.0, 3.0)
            p_mid = p_low * 10.0 ** rng.uniform(0.01, 3.0)
            p_high = p_mid * 10.0 ** rng.uniform(0.01, 3.0)
            split = hyperbolic_angle(p_high, p_mid) + hyperbolic_angle(p_mid, p_low)
            assert rel_dev(split, hyperbolic_angle(p_high, p_low)) <= 1e-12
        # unit-hyperbola residual at 1e4 points; the coordinate ratio is kept
        # moderate because the residual's float error grows with t_hat^2
        for _ in range(10_000):
            x = 10.0 ** rng.uniform(-3.0, 3.0)
            y = x * 10.0 ** rng.uniform(-3.0, 3.0)
            unit = unit_from_state(x, y)
            assert abs(unit.t_hat ** 2 - unit.u_hat ** 2 - 1.0) <= 1e-12


def test_criterion_7_conservation_and_signs():
    with criterion(7, "conservation and sign properties", budget=10.0):
        rng = random.Random(777)
        curve = curve_for(WORKED_BANCOR)
        x_int = curve.geom.x_int
        lo, hi = 0.002 * x_int, 0.998 * x_int

        state = curve.state_from_x(0.5 * x_int)
        for _ in range(1000):
            dx = rng.uniform(lo - state.x, hi - state.x)
            delta = curve.swap_exact_in_x(state, dx)
            assert (delta.dx > 0) == (delta.dy < 0) or delta.dx == 0
            state = apply_delta(state, delta)
        assert abs(curve.invariant_residual(state)) <= 1e-6

        for _ in range(200):
            x = rng.uniform(lo, hi)
            start = curve.state_from_x(x)
            dx1 = rng.uniform(lo - x, hi - x)
            mid = apply_delta(start, curve.swap_exact_in_x(start, dx1))
            dx2 = rng.uniform(lo - mid.x, hi - mid.x)
            step = curve.swap_exact_in_x(mid, dx2)
            combined = curve.swap_exact_in_x(start, dx1 + dx2)
            sequential = apply_delta(mid, step)
            assert rel_dev(sequential.y, apply_delta(start, combined).y) <= 1e-8


def test_criterion_8_cli_golden_files():
    with criterion(8, "CLI golden files", budget=60.0):
        # the table that scripts/regen_cli_golden.py writes the goldens from
        for name, argv in load_script("regen_cli_golden").COMMANDS.items():
            result = subprocess.run(
                [sys.executable, "-m", "clamm", *argv],
                capture_output=True, check=False,
            )
            assert result.returncode == 0, result.stderr.decode()
            golden = (GOLDEN_DIR / name).read_bytes()
            assert result.stdout == golden, f"{name} drifted from its golden output"
