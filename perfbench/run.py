#!/usr/bin/env python3
"""clamm benchmark: one seeded workload per run, checked outputs, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload pool_sim --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end metrics;
``--trace 1`` runs it untraced for a quarter of the time, then traced, and
reports the per-layer metrics.  The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The run record (machine,
seed, sample counts, exact counts) goes to ``.perfbench_out/``.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import SpeedMonitor, loop_scale, pin_to_one_cpu

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Files the benchmark reads besides its own; without them it cannot run.
REQUIRED = (
    SRC / "clamm" / "__init__.py",
    SRC / "clamm" / "cli.py",
    ROOT / "tests" / "golden" / "sweep_points3.json",
    ROOT / "tests" / "data" / "worked_bancor.json",
)

HELD_OUT_SEED = 20240702  # kept out of tuning; use it to check a claimed gain
IMPORT_SAMPLES = 21
BUILD_SAMPLES = 5
TAIL_PCT = 90
MIN_BEYOND_TAIL = 10
# Each probe child scales its own import time by a speed monitor running
# beside the import: a calibration in the parent cannot track a child.
IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "from calibrate import SpeedMonitor, loop_scale\n"
                "scale = loop_scale()\n"
                "with SpeedMonitor() as monitor:\n"
                "    start = time.perf_counter()\n"
                "    import clamm, clamm.cli\n"
                "    end = time.perf_counter()\n"
                "own, mean_scale = monitor.window(start, end)\n"
                "print(repr((end - start - own) * (mean_scale or scale)))\n")

END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def percentile(sorted_values: list, pct: float):
    """Nearest-rank percentile of an ascending list; (value, samples beyond it)."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def fingerprint() -> str:
    """Hash of the program, the benchmark and the data it reads."""
    files = sorted([*SRC.glob("clamm/*.py"), *BENCH.glob("*.py"), *ROOT.glob("tests/data/*"),
                    *ROOT.glob("tests/golden/*")])
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_imports(n: int) -> tuple[list[float], list[str]]:
    """Reference seconds to import clamm and clamm.cli, each in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, failures = [], []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(BENCH)], capture_output=True,
                              env=env, cwd=ROOT, timeout=60, text=True)
        try:
            times.append(float(proc.stdout.strip()))
        except ValueError:
            failures.append(f"import probe exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return times, failures


def timed_round(workload, r: int):
    """One round with the speed scale it ran at.

    A short round takes the scale measured just before it.  A round of a
    monitored workload is one long request: it takes the mean scale of the
    monitor's samples, and the monitor's own time is taken off its duration.
    """
    scale = loop_scale()
    if not workload.monitored:
        rd = workload.run_round(r)
        rd.scale = scale
        return rd
    with SpeedMonitor() as monitor:
        rd = workload.run_round(r)
    own, mean_scale = monitor.window(rd.start_s, rd.start_s + rd.wall_s)
    rd.busy_s = rd.wall_s - own
    rd.latencies_ns = [round(rd.busy_s * 1e9)]
    rd.scale = scale if mean_scale is None else mean_scale
    return rd


def run_cycles(workload, seconds: float, first: int = 0) -> list:
    """Whole cycles of rounds until the time is up; at least one cycle.

    A workload with many requests per round has its latencies reduced to
    percentiles as each round ends, so that they do not pile up in the peak
    RSS being measured.
    """
    rounds = []
    deadline = time.perf_counter() + seconds
    r = first
    while True:
        for _ in range(workload.cycle):
            rd = timed_round(workload, r)
            if workload.per_round_latency:
                lat = sorted(rd.latencies_ns)
                p90, beyond = percentile(lat, TAIL_PCT)
                rd.latencies_ns = {"n": len(lat), "p50": statistics.median(lat), "p90": p90,
                                   "p99": percentile(lat, 99)[0], "beyond": beyond}
            rounds.append(rd)
            r += 1
        if time.perf_counter() >= deadline:
            return rounds


def exact_by_key(workload, rounds: list) -> tuple[dict, list[str]]:
    """Exact counts per round key; a round that differs from its key's first is a failure."""
    seen, failures = {}, []
    for r, rd in enumerate(rounds):
        key = str(r % workload.cycle)
        if key not in seen:
            seen[key] = rd.exact
        elif rd.exact != seen[key]:
            failures.append(f"round {r}: exact counts differ from round {key}: "
                            f"{rd.exact} != {seen[key]}")
    return seen, failures


def latency_metrics(workload, rounds: list) -> tuple[float, dict]:
    """Median request latency in reference µs; the p90 and sample counts for the record."""
    if workload.per_round_latency:
        def median_of(key):
            return statistics.median(rd.latencies_ns[key] * rd.scale for rd in rounds) / 1e3

        samples = {"latency": f"median over {len(rounds)} rounds of each round's p50 and p90, "
                              f"{min(rd.latencies_ns['n'] for rd in rounds)} or more requests "
                              "per round",
                   "beyond_p90_min": min(rd.latencies_ns["beyond"] for rd in rounds),
                   "latency_p99_us": median_of("p99")}
        samples["latency_p90_us"] = median_of("p90")
        return median_of("p50"), samples
    lat = sorted(ns * rd.scale for rd in rounds for ns in rd.latencies_ns)
    p90, beyond = percentile(lat, TAIL_PCT)
    samples = {"latency": f"p50 over {len(lat)} requests", "beyond_p90_min": beyond}
    if beyond >= MIN_BEYOND_TAIL:
        samples["latency"] = f"p50 and p90 over {len(lat)} requests"
        samples["latency_p90_us"] = p90 / 1e3
    return statistics.median(lat) / 1e3, samples


def compare_with_earlier(path: Path, record: dict) -> list[str]:
    """Exact counts must repeat across runs of the same code, workload and seed."""
    try:
        earlier = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    if earlier.get("fingerprint") != record["fingerprint"]:
        return []
    if earlier.get("exact") != record["exact"]:
        return [f"exact counts differ from the earlier run recorded in {path.name}"]
    return []


def main(argv=None) -> int:
    import workloads as wl  # noqa: deferred until the checkout is known to hold clamm

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = {"workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
              "seconds": args.seconds, "trace": args.trace, **machine_record(),
              "fingerprint": fingerprint()}
    pin_to_one_cpu()
    # Half the import probes run now and half after the timed rounds, so
    # that their median spans two stretches of host load.
    import_times, failures = measure_imports(IMPORT_SAMPLES - IMPORT_SAMPLES // 2)
    workload = wl.make(args.workload, args.seed, ROOT)
    build_times = []
    for _ in range(BUILD_SAMPLES):
        scale = loop_scale()
        start = time.perf_counter()
        workload.build()
        build_times.append((time.perf_counter() - start) * scale)

    if args.trace:
        rounds, metrics, units, trace_failures, layer_calls = traced_run(workload, args)
        failures += trace_failures
    else:
        rounds = run_cycles(workload, args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        p50, samples = latency_metrics(workload, rounds)
        rates = [rd.ops / (rd.timed_s * rd.scale) for rd in rounds]
        scales = sorted(rd.scale for rd in rounds)
        record["speed_scale"] = {"median": statistics.median(scales), "min": scales[0],
                                 "max": scales[-1]}
        record["unscaled_throughput_per_s"] = statistics.median(rd.ops / rd.timed_s for rd in rounds)
        if rounds[0].busy_s is not None:
            # The benchmark's own share of each round, kept out of the throughput.
            record["untimed_share"] = statistics.median(1 - rd.busy_s / rd.wall_s for rd in rounds)
        metrics = {
            "throughput_per_s": statistics.median(rates),
            "latency_p50_us": p50,
            "setup_s": statistics.median(build_times),  # the imports are added below
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = dict(END_TO_END)
        record["samples"] = {
            "throughput": f"median over {len(rounds)} rounds of work per second "
                          f"({sum(rd.ops for rd in rounds)} units of work), each round scaled "
                          + ("by the mean of its speed monitor samples" if workload.monitored
                             else "by the loop timed just before it"),
            **samples,
            "setup": f"median of {IMPORT_SAMPLES} fresh-interpreter imports "
                     f"+ median of {len(build_times)} builds",
        }
        if samples["beyond_p90_min"] < MIN_BEYOND_TAIL:
            record["no_p90"] = (f"only {samples['beyond_p90_min']} requests beyond the p90; "
                                f"a p90 needs {MIN_BEYOND_TAIL}")

    more_times, more_failures = measure_imports(IMPORT_SAMPLES // 2)
    import_s = statistics.median(import_times + more_times or [0.0])
    failures += more_failures
    if args.trace:
        metrics["cli.import_s"] = import_s
    else:
        metrics["setup_s"] += import_s

    exact, determinism = exact_by_key(workload, rounds)
    failures += determinism
    failures += workload.check(rounds)
    record["exact"] = {"rounds": exact, **workload.extra_exact}
    if args.trace:
        record["exact"]["layer_calls_per_cycle"] = layer_calls
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    failures += compare_with_earlier(path, record)

    attempted = sum(rd.attempted for rd in rounds)
    errors = [e for rd in rounds for e in rd.errors]
    failed = len(errors) + len(failures)
    record.update({"attempted": attempted, "failed": failed,
                   "error_rate": failed / attempted if attempted else 1.0,
                   "errors": (errors + failures)[:20], "metrics": metrics})
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for message in (errors + failures)[:20]:
        print(f"FAIL {message}")
    for key in ("python", "cpu_model", "nproc", "loadavg_1m_at_start"):
        print(f"{key}: {record[key]}")
    for key, text in record.get("samples", {}).items():
        print(f"samples.{key}: {text}")
    print(f"error_rate: {record['error_rate']} ({failed} of {attempted} requests)")
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


def traced_run(workload, args):
    """Untraced then traced cycles of the same rounds; per-layer values per cycle."""
    import tracing

    untraced = run_cycles(workload, args.seconds / 4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_cycles(workload, args.seconds * 3 / 4, first=len(untraced))
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{args.workload}-spans.csv")

    cycles_u = len(untraced) // workload.cycle
    cycles_t = len(traced) // workload.cycle
    wall_t = sum(rd.wall_s for rd in traced) / cycles_t
    # In reference seconds, so that a change of host speed between the two
    # phases does not pass for tracing overhead.
    ref_u = sum(rd.wall_s * rd.scale for rd in untraced) / cycles_u
    ref_t = sum(rd.wall_s * rd.scale for rd in traced) / cycles_t
    values = tracing.layer_values(tracer, cycles_t)
    values["trace.overhead"] = ref_t - ref_u
    values["trace.wall_s"] = wall_t
    values["trace.harness_s"] = wall_t - tracer.top_ns / 1e9 / cycles_t
    metrics, units = {}, {}
    for name, unit in tracing.per_layer_metrics():
        metrics[name] = values.get(name, 0.0)
        units[name] = unit
    failures = []
    # Self times partition the time covered by top-level spans, which with the
    # harness's own time make up the traced wall time.
    if tracer.self_total_ns() != tracer.top_ns:
        failures.append(f"span self times sum to {tracer.self_total_ns()} ns, "
                        f"top-level spans cover {tracer.top_ns} ns")
    if values["trace.harness_s"] < 0:
        failures.append("top-level spans cover more than the traced wall time")
    unlisted = sorted(name for name in tracer.agg if f"{name}.calls" not in metrics)
    if unlisted:
        failures.append(f"spans missing from the per-layer list: {unlisted}")
    # Per-cycle call counts are exact: every cycle does the same work.
    calls = {name: v for name, v in sorted(values.items())
             if name.endswith(".calls") or name.startswith("quadrature.slope_evals.")}
    return untraced + traced, metrics, units, failures, calls


def entry() -> int:
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"perfbench: this checkout lacks {', '.join(missing)}; run from a clamm checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return main()


if __name__ == "__main__":
    raise SystemExit(entry())
