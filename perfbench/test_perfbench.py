"""Self-tests of the benchmark: small runs, determinism, and checkers that must reject.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import clamm  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload's round so a whole cycle takes well under a second."""
    monkeypatch.setattr(wl.PoolSim, "N_POOLS", 15)
    monkeypatch.setattr(wl.PoolSim, "N_TRADES", 2000)
    monkeypatch.setattr(wl.PoolSim, "N_SAMPLE", 40)
    monkeypatch.setattr(wl.Sweep, "POINTS", 40)
    monkeypatch.setattr(wl.Verify, "cycle", 2)
    monkeypatch.setattr(wl.Verify, "CASES", 12)
    monkeypatch.setattr(wl.Verify, "SPEC_CASES", 3)


def run_cycle(name: str, seed: int):
    workload = wl.make(name, seed, ROOT)
    workload.build()
    rounds = [workload.run_round(r) for r in range(2 * workload.cycle)]
    return workload, rounds


# -- small runs of every workload ---------------------------------------------


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_small_run_is_correct_and_repeats_exactly(small, name):
    workload, rounds = run_cycle(name, seed=3)
    assert [e for rd in rounds for e in rd.errors] == []
    exact, mismatches = run.exact_by_key(workload, rounds)
    assert mismatches == []
    assert workload.check(rounds) == []
    again, again_rounds = run_cycle(name, seed=3)
    assert run.exact_by_key(again, again_rounds)[0] == exact
    assert all(rd.ops > 0 and 0 < rd.timed_s <= rd.wall_s for rd in rounds)


def test_generators_are_deterministic_per_seed(small):
    a, b, c = (wl.PoolSim(seed, ROOT) for seed in (4, 4, 5))
    assert (a.specs, a.positions, a.trades, a.sample) == (b.specs, b.positions, b.trades, b.sample)
    assert a.trades != c.trades
    assert wl.Sweep(4, ROOT, "json").combos == wl.Sweep(4, ROOT, "json").combos
    assert wl.Verify(4, ROOT).subseeds == wl.Verify(4, ROOT).subseeds != wl.Verify(5, ROOT).subseeds


def test_pool_sim_covers_every_form_anchor_write_and_overshoot(small):
    sim = wl.PoolSim(6, ROOT)
    forms = [spec["form"] for spec in sim.specs]
    assert {forms.count(f) for f in wl.ALL_FORMS} == {len(forms) // len(wl.ALL_FORMS)}
    anchors = {spec.get("anchor") for spec in sim.specs if spec["form"] == "natural"}
    assert anchors == {"center", "intercepts", "asymptotes"}
    kinds = [t[1] for t in sim.trades]
    assert kinds.count(wl.WRITE) > 0 and sim.n_overshoots > 0


# -- each checker rejects a corrupted result ----------------------------------


def test_requote_check_rejects_a_wrong_dy(small):
    sim = wl.PoolSim(3, ROOT)
    sim.build()
    records = []
    sim.run_round(0, record=records)
    assert records and wl.check_requotes(records) == []
    idx, curve, state, kind, amount, delta = next(r for r in records if r[3] == wl.IN_X)
    wrong = replace(delta, dy=delta.dy * (1 + 1e-7))
    assert wl.check_requotes([(idx, curve, state, kind, amount, wrong)])


def test_final_state_check_rejects_an_off_curve_state(small):
    sim = wl.PoolSim(3, ROOT)
    sim.build()
    sim.run_round(0)
    curves, states = sim.final
    assert wl.check_final_states(curves, states) == []
    bad = list(states)
    bad[0] = clamm.PoolState(states[0].x, states[0].y * (1 + 1e-6))
    assert wl.check_final_states(curves, bad)


def test_off_curve_trade_is_an_error(small, monkeypatch):
    sim = wl.PoolSim(3, ROOT)
    sim.build()
    exact = clamm.params.apply_delta
    monkeypatch.setattr(clamm.params, "apply_delta", lambda state, delta:
                        exact(state, replace(delta, dy=delta.dy * (1 + 1e-6))))
    rd = sim.run_round(0, record=[])
    assert sum("off its curve" in e for e in rd.errors) > 0


@pytest.mark.xfail(strict=True, reason="known library defect: mixed exact-in/exact-out "
                   "trades carried over with apply_delta drift off the curve")
def test_chained_states_stay_on_their_curves(monkeypatch):
    # Without re-anchoring, pool 1 (uniswap_v3) on this seed ends about 1e-2
    # off its curve.  When the library is fixed this passes, and pool_sim can
    # carry states over again.
    monkeypatch.setattr(wl, "reanchor", lambda curve, state, kind: state)
    sim = wl.PoolSim(1168679176, ROOT)
    sim.build()
    assert sim.check([sim.run_round(0)]) == []


def test_unrejected_overshoot_is_an_error(small, monkeypatch):
    sim = wl.PoolSim(3, ROOT)
    sim.build()
    in_range = wl.trade_amount
    # Size every overshoot like an ordinary trade: none is rejected any more.
    monkeypatch.setattr(wl, "trade_amount", lambda curve, state, kind, sign, frac:
                        in_range(curve, state, kind % 2, sign, 1e-3))
    rd = sim.run_round(0)
    assert sum("not rejected" in e for e in rd.errors) == sim.n_overshoots > 0


def test_sweep_row_check_rejects_one_perturbed_row(small):
    sweep = wl.Sweep(1, ROOT, "csv")
    sweep.build()
    code, _, _, text = wl.call_cli(sweep.argv("worked_carbon", "price", 40))
    assert code == 0
    rows = list(wl.parse_sweep(text, "csv"))
    curve = sweep.worked["worked_carbon"][1]
    assert wl.check_sweep_rows(curve, rows, 40) == []
    x, y, mp, t, u = rows[17]
    assert wl.check_sweep_rows(curve, rows[:17] + [(x, y * (1 + 1e-6), mp, t, u)] + rows[18:], 40)
    assert wl.check_sweep_rows(curve, rows[:17] + [(x, y, rows[15][2], t, u)] + rows[18:], 40)
    assert wl.check_sweep_rows(curve, rows[:-1], 40)


@pytest.mark.parametrize("output", ["json", "csv"])
def test_sweep_output_check_rejects_broken_text(small, output):
    sweep = wl.Sweep(1, ROOT, output)
    sweep.build()
    code, _, _, text = wl.call_cli(sweep.argv("worked_uniswap", "x", 40))
    curve = sweep.worked["worked_uniswap"][1]
    assert code == 0 and wl.check_sweep_output(curve, text, output, 40) == []
    assert list(wl.parse_sweep(text, output)) == [
        tuple(row[k] for k in wl.SWEEP_COLUMNS)
        for row in (json.loads(text) if output == "json" else
                    [dict(zip(wl.SWEEP_COLUMNS, map(float, line.split(","))))
                     for line in text.splitlines()[1:]])]
    cut = text.rindex("}") if output == "json" else text.rindex(",")
    for broken in (text[:cut], text + "[]", text.replace(",", ";", 3), text[1:]):
        assert wl.check_sweep_output(curve, broken, output, 40)


def test_golden_check_rejects_one_flipped_byte(tmp_path):
    for output in ("json", "csv"):
        sweep = wl.Sweep(1, ROOT, output)
        sweep.build()
        assert sweep.check_golden() == []
        name = f"sweep_points3.{output}"
        data = bytearray((ROOT / "tests" / "golden" / name).read_bytes())
        data[5] ^= 1
        (tmp_path / "tests" / "golden").mkdir(parents=True, exist_ok=True)
        (tmp_path / "tests" / "golden" / name).write_bytes(bytes(data))
        sweep.root = tmp_path
        assert sweep.check_golden()


def test_verify_check_rejects_failed_or_missing_cases():
    good = json.dumps({"cases": 10, "passed": 10, "failed": 0, "max_rel_deviation": 0.0})
    assert wl.check_verify_output(good, 0, 10) == []
    assert wl.check_verify_output(good, 1, 10)
    assert wl.check_verify_output(good, 0, 11)
    bad = json.dumps({"cases": 10, "passed": 9, "failed": 1, "max_rel_deviation": 0.1})
    assert wl.check_verify_output(bad, 0, 10)
    assert wl.check_verify_output("{", 0, 10)


# -- tracing --------------------------------------------------------------------


def test_tracer_accounts_for_its_spans_and_restores_the_library(small):
    originals = (clamm.cli.main, clamm.params.apply_delta, clamm.BancorCurve.swap_exact_in_x,
                 clamm.quadrature.curve_for, "swap_exact_in_x" in clamm.BancorCurve.__dict__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert clamm.quadrature.curve_for is not originals[3]
        assert wl.call_cli(["verify", "--cases", "8", "--seed", "1"]).code == 0
        curve = clamm.curve_for(clamm.BancorV2Params(100.0, 100.0, 2.0))
        with pytest.raises(clamm.BoundsExceeded):
            curve.swap_exact_in_x(clamm.PoolState(100.0, 100.0), 1e6)
    finally:
        tracer.uninstall()
    assert (clamm.cli.main, clamm.params.apply_delta, clamm.BancorCurve.swap_exact_in_x,
            clamm.quadrature.curve_for, "swap_exact_in_x" in clamm.BancorCurve.__dict__) == originals
    assert tracer.self_total_ns() == tracer.top_ns
    assert tracer.agg["cli.main"][0] == 1
    assert tracer.agg["quadrature.oracle_compare"][0] == 8
    assert tracer.agg["bancor.swap_exact_in_x"][4] == 1  # one expected rejection
    assert tracer.agg["cli.main"][2] < tracer.agg["cli.main"][1]  # children are subtracted
    values = tracing.layer_values(tracer, 1)
    names = dict(tracing.per_layer_metrics())
    assert all(f"{name}.calls" in names for name in tracer.agg)
    assert sum(tracer.counts.values()) > 0
    assert values["quadrature.slope_evals_per_case.reference"] > 0


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# -- the command itself ------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_one_result_line(trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "sweep_csv",
                           "--seed", "2", "--seconds", "0.2", "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else tracing.per_layer_metrics()
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pool_sim",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_monitor_reports_its_own_share_and_a_scale():
    import calibrate

    with calibrate.SpeedMonitor() as monitor:
        start = time.perf_counter()
        calibrate._loop(60_000)
        end = time.perf_counter()
    own, scale = monitor.window(start, end)
    assert len(monitor.samples) > 0 and 0 < own < end - start
    assert scale > 0
    assert monitor.window(end + 1, end + 2) == (0.0, None)
