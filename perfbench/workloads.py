"""The benchmark's workloads: seeded input generation, timed rounds, output checks.

A workload is built once from its seed, then run as a sequence of rounds.
Rounds come in cycles of ``cycle`` rounds; every cycle does exactly the same
work, so the exact counts of round ``r`` must equal those of round
``r - cycle``.  Each round returns a ``Round``; everything that checks an
output runs after the round's clock has stopped.

The harness (``run.py``) imports ``clamm`` from the checkout's ``src/`` before
it imports this module.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import clamm.cli
import clamm.curves
import clamm.params
import clamm.quadrature
import clamm.rosetta
from clamm.errors import BoundsExceeded, InsufficientLiquidity
from clamm.params import REL_TOL, PoolState, ShiftedProductCurve

REJECTS = (BoundsExceeded, InsufficientLiquidity)
BOUNDED_FORMS = ("bancor_v2", "uniswap_v3", "carbon", "natural")
ALL_FORMS = ("reference",) + BOUNDED_FORMS
WORKED_SPECS = ("worked_bancor", "worked_uniswap", "worked_carbon", "worked_natural")
REQUOTE_REL_TOL = 1e-9


@dataclass
class Round:
    """What one round did: its work, its request latencies and its exact counts.

    ``ops`` counts units of work (trades and writes, rows, cases) for the
    throughput; ``attempted`` counts requests, against which ``errors`` count.
    ``wall_s`` is the round's wall time; ``busy_s``, when set, is the part of
    it that the program's work took (the timed library calls in pool_sim; the
    call minus the speed monitor's samples in a monitored workload), and the
    throughput is taken over that.
    """

    ops: int
    wall_s: float
    latencies_ns: list[int]
    attempted: int
    errors: list[str] = field(default_factory=list)
    exact: dict = field(default_factory=dict)
    busy_s: float | None = None
    # perf_counter() at the start of the timed part; set by monitored workloads.
    start_s: float = 0.0
    # Machine-speed factor the harness measured for the round.
    scale: float = 1.0

    @property
    def timed_s(self) -> float:
        return self.wall_s if self.busy_s is None else self.busy_s


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_id(text: str) -> tuple[int, str]:
    """(bytes, sha256) of an output as UTF-8, encoded a chunk at a time."""
    h = hashlib.sha256()
    size = 0
    for i in range(0, len(text), 1 << 20):
        data = text[i:i + (1 << 20)].encode("utf-8")
        size += len(data)
        h.update(data)
    return size, h.hexdigest()


class CliRun(NamedTuple):
    code: int
    start_ns: int
    ns: int
    text: str


def call_cli(argv: list[str]) -> CliRun:
    """Run ``clamm.cli.main(argv)`` in process, with its stdout captured.

    Stdout goes to an ``io.StringIO``, whose writes run in C, so the clock
    takes in almost nothing but the CLI's own work.
    """
    saved = sys.stdout
    sys.stdout = sink = io.StringIO()
    try:
        start = time.perf_counter_ns()
        try:
            code = clamm.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        ns = time.perf_counter_ns() - start
    finally:
        sys.stdout = saved
    return CliRun(code, start, ns, sink.getvalue())


def load_worked(root: Path):
    """The four bounded worked specs under tests/data, as (name, path, curve)."""
    data = root / "tests" / "data"
    out = []
    for name in WORKED_SPECS:
        path = data / f"{name}.json"
        out.append((name, path, clamm.curves.curve_for(clamm.params.load_spec(str(path)))))
    return out


class Workload:
    name = ""
    cycle = 1
    # True when each round has enough requests for its own percentiles.
    per_round_latency = False
    # True when a round is one long request, timed under a SpeedMonitor.
    monitored = False
    # Exact counts found by check(), recorded beside those of the rounds.
    extra_exact: dict = {}

    def build(self) -> None:
        """Set-up: build the curve objects from the generated specs."""

    def run_round(self, r: int) -> Round:
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> list[str]:
        """Output checks after the timed rounds; returns failure messages."""
        return []


# ---------------------------------------------------------------------------
# pool_sim: a closed-loop simulator over many pools
# ---------------------------------------------------------------------------

IN_X, OUT_Y, IN_X_OVER, OUT_Y_OVER, WRITE = range(5)


def trade_amount(curve, state: PoolState, kind: int, sign: int, frac: float) -> float:
    """Signed trade size: a fraction of the balance, or past an intercept for overshoots.

    A positive normal trade takes a fraction of the room left before the
    intercept (or of the balance on the unbounded reference curve); a negative
    one a fraction of the balance.  An overshoot lands ``frac`` of the
    intercept (or of the balance) beyond the admissible range.
    """
    if kind in (IN_X, IN_X_OVER):
        bal, cap = state.x, curve.geom.x_int
    else:
        bal, cap = state.y, curve.geom.y_int
    bounded = math.isfinite(cap)
    if kind in (IN_X, OUT_Y):
        if sign > 0:
            return frac * ((cap - bal) if bounded else bal)
        return -frac * bal
    if sign > 0:
        return (cap - bal) + frac * cap
    return -(bal + frac * (cap if bounded else bal))


def requote(curve, state: PoolState, kind: int, amount: float) -> float:
    """The trade's coupled output computed through a second closed form.

    Bounded curves are translated to the next bounded form; the reference
    curve, which no other form can encode, goes through the generic
    shifted-product formulas instead of its own override.
    """
    method = "swap_exact_in_x" if kind == IN_X else "swap_exact_out_y"
    form = curve.params.form
    if form == "reference":
        delta = getattr(ShiftedProductCurve, method)(curve, state, amount)
    else:
        other = BOUNDED_FORMS[(BOUNDED_FORMS.index(form) + 1) % len(BOUNDED_FORMS)]
        twin = clamm.curves.curve_for(clamm.rosetta.translate(curve.params, other))
        delta = getattr(twin, method)(state, amount)
    return delta.dy if kind == IN_X else delta.dx


def check_requotes(records: list[tuple]) -> list[str]:
    """Each (index, curve, state, kind, amount, delta) agrees with its re-quote within 1e-9."""
    failures = []
    for idx, curve, state, kind, amount, delta in records:
        got = delta.dy if kind == IN_X else delta.dx
        want = requote(curve, state, kind, amount)
        if not math.isclose(got, want, rel_tol=REQUOTE_REL_TOL, abs_tol=0.0):
            failures.append(f"trade {idx}: {curve.params.form} gave {got!r}, re-quote {want!r}")
    return failures


def reanchor(curve, state: PoolState, kind: int) -> PoolState:
    """The point of the curve at the trade's own coordinate.

    The trader fixes x in an exact-in-x trade and y in an exact-out-y trade;
    the other coordinate is read off the curve instead of being carried over
    from ``apply_delta``.  Carried over, the rounding error of mixed trades
    grows geometrically on wide-range pools (see the README's "Known
    defect"), so every swap here starts from an on-curve state.
    """
    if kind == IN_X:
        return PoolState(state.x, curve.y_from_x(state.x))
    return PoolState(curve.x_from_y(state.y), state.y)


def check_final_states(curves, states) -> list[str]:
    failures = []
    for pool, (curve, state) in enumerate(zip(curves, states)):
        residual = curve.invariant_residual(state)
        if not abs(residual) <= REL_TOL:
            failures.append(f"pool {pool} ({curve.params.form}): invariant residual {residual!r}")
    return failures


def state_digest(curves, states, price_sum: float) -> str:
    text = repr([(c.params.form, s.x, s.y) for c, s in zip(curves, states)] + [price_sum])
    return digest(text.encode())


class PoolSim(Workload):
    """Pre-generated trades against pools of all five forms, one trade at a time."""

    name = "pool_sim"
    per_round_latency = True
    N_POOLS = 100
    N_TRADES = 20_000
    WRITE_SHARE = 0.005  # pairs of writes: 1 % of operations
    OVERSHOOT_SHARE = 0.01
    N_SAMPLE = 200
    NORMAL_FRAC_EXP = (-6.0, math.log10(0.5))
    OVERSHOOT_FRAC_EXP = (-3.0, math.log10(0.5))

    def __init__(self, seed: int, root: Path):
        rng = random.Random(seed)
        self.specs, self.positions = self._pools(rng)
        self.trades = self._trades(rng)
        normal = [i for i, t in enumerate(self.trades) if t[1] in (IN_X, OUT_Y)]
        self.sample = frozenset(rng.sample(normal, self.N_SAMPLE))
        self.n_overshoots = sum(1 for t in self.trades if t[1] in (IN_X_OVER, OUT_Y_OVER))
        self.final = None

    def _pools(self, rng: random.Random):
        """Spec dicts split evenly over the forms; parameters from the battery's ranges."""
        specs, positions = [], []
        anchors = 0
        for i in range(self.N_POOLS):
            form = ALL_FORMS[i % len(ALL_FORMS)]
            bancor = clamm.quadrature.random_bancor_params(rng)
            if form == "reference":
                spec = {"form": "reference", "x0": bancor.x0, "y0": bancor.y0}
                positions.append(bancor.x0 * 10.0 ** rng.uniform(-1.0, 1.0))
                specs.append(spec)
                continue
            geom = clamm.curves.curve_for(bancor).geom
            if form == "natural":
                anchor = ("center", "intercepts", "asymptotes")[anchors % 3]
                anchors += 1
                point = {"center": (bancor.x0, bancor.y0),
                         "intercepts": (geom.x_int, geom.y_int),
                         "asymptotes": (geom.x_asym, geom.y_asym)}[anchor]
                params = clamm.params.NaturalParams(geom.c, anchor, *point)
            else:
                params = clamm.rosetta.translate(bancor, form)
            specs.append(clamm.params.spec_to_dict(params))
            positions.append(rng.uniform(0.05, 0.95) * geom.x_int)
        return specs, positions

    def _trades(self, rng: random.Random):
        """(pool, kind, sign or target form, size fraction) tuples.

        Writes come in pairs that swap the forms of two bounded pools, so
        every form keeps its share of the pools, and of the trades, whatever
        the seed.
        """
        forms = [spec["form"] for spec in self.specs]
        bounded = [i for i, f in enumerate(forms) if f != "reference"]
        trades = []
        while len(trades) < self.N_TRADES:
            roll = rng.random()
            if roll < self.WRITE_SHARE:
                a = rng.choice(bounded)
                b = rng.choice([i for i in bounded if forms[i] != forms[a]])
                forms[a], forms[b] = forms[b], forms[a]
                trades += [(a, WRITE, forms[a], 0.0), (b, WRITE, forms[b], 0.0)]
                continue
            pool = rng.randrange(self.N_POOLS)
            if roll < self.WRITE_SHARE + self.OVERSHOOT_SHARE:
                kind = rng.choice((IN_X_OVER, OUT_Y_OVER))
                sign = rng.choice((1, -1)) if forms[pool] != "reference" else -1
                frac = 10.0 ** rng.uniform(*self.OVERSHOOT_FRAC_EXP)
            else:
                kind = rng.choice((IN_X, OUT_Y))
                sign = rng.choice((1, -1))
                frac = 10.0 ** rng.uniform(*self.NORMAL_FRAC_EXP)
            trades.append((pool, kind, sign, frac))
        return trades

    def build(self) -> None:
        spec_from_dict = clamm.params.spec_from_dict
        curve_for = clamm.curves.curve_for
        self.curves0 = [curve_for(spec_from_dict(spec)) for spec in self.specs]
        self.states0 = [c.state_from_x(x) for c, x in zip(self.curves0, self.positions)]

    def run_round(self, r: int, record: list | None = None) -> Round:
        """Replay the trade list; only the library calls of each operation are timed.

        Sizing a trade (``trade_amount``), re-anchoring its new state and the
        bookkeeping around it stay outside the clock, so ``busy_s`` holds the
        library's work alone.  With ``record`` (the replay that ``check``
        runs), every trade's new state is checked against its curve and the
        sampled trades are recorded for re-quoting.
        """
        # Bound per round, so that the traced phase picks up the wrappers.
        apply_delta = clamm.params.apply_delta
        curve_for = clamm.curves.curve_for
        translate = clamm.rosetta.translate
        clock = time.perf_counter_ns
        curves = list(self.curves0)
        states = list(self.states0)
        sample = self.sample if record is not None else ()
        latencies = []
        errors = []
        rejected = writes = busy = 0
        price_sum = 0.0
        start = clock()
        for idx, (pool, kind, sign, frac) in enumerate(self.trades):
            curve = curves[pool]
            if kind == WRITE:
                t0 = clock()
                try:
                    curves[pool] = curve_for(translate(curve.params, sign))
                    failure = None
                except Exception as exc:
                    failure = exc
                busy += clock() - t0
                if failure is None:
                    writes += 1
                else:
                    errors.append(f"write {idx}: {type(failure).__name__}: {failure}")
                continue
            state = states[pool]
            amount = trade_amount(curve, state, kind, sign, frac)
            over = kind >= IN_X_OVER
            t0 = clock()
            try:
                if kind == IN_X or kind == IN_X_OVER:
                    delta = curve.swap_exact_in_x(state, amount)
                else:
                    delta = curve.swap_exact_out_y(state, amount)
                if not over:
                    new_state = apply_delta(state, delta)
                    price = curve.marginal_price(new_state)
                failure = None
            except Exception as exc:
                failure = exc
            ns = clock() - t0
            busy += ns
            if over:
                if failure is None:
                    errors.append(f"trade {idx}: out-of-range trade was not rejected")
                elif isinstance(failure, REJECTS):
                    rejected += 1
                else:
                    errors.append(f"trade {idx}: {type(failure).__name__}: {failure}")
                continue
            if failure is not None:
                errors.append(f"trade {idx}: unexpected {type(failure).__name__}: {failure}")
                continue
            latencies.append(ns)
            states[pool] = reanchor(curve, new_state, kind)
            price_sum += price
            if record is not None:
                residual = curve.invariant_residual(new_state)
                if not abs(residual) <= REL_TOL:
                    errors.append(f"trade {idx}: {curve.params.form} state off its curve "
                                  f"by {residual!r}")
                if idx in sample:
                    record.append((idx, curve, state, kind, amount, delta))
        wall = (clock() - start) / 1e9
        self.final = (curves, states)
        exact = {
            "quotes": len(latencies),
            "writes": writes,
            "expected_rejections": rejected,
            "state_sha256": state_digest(curves, states, price_sum),
        }
        return Round(len(self.trades), wall, latencies, len(self.trades), errors, exact,
                     busy_s=busy / 1e9)

    def check(self, rounds: list[Round]) -> list[str]:
        curves, states = self.final
        failures = check_final_states(curves, states)
        records: list = []
        replay = self.run_round(-1, record=records)
        if replay.exact != rounds[0].exact:
            failures.append("replay of the trade list did not reproduce the timed rounds")
        failures += replay.errors
        failures += check_requotes(records)
        if rounds[0].exact["expected_rejections"] != self.n_overshoots:
            failures.append(f"{rounds[0].exact['expected_rejections']} of {self.n_overshoots} "
                            "out-of-range trades were rejected")
        return failures


# ---------------------------------------------------------------------------
# sweep_json / sweep_csv: in-process `clamm sweep`
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("x", "y", "marginal_price", "t_hat", "u_hat")
_SPACE = re.compile(r"\s*")


def _json_rows(text: str):
    """Rows of a JSON array of row objects, decoded one object at a time."""
    decoder = json.JSONDecoder()
    i = _SPACE.match(text).end()
    if text[i:i + 1] != "[":
        raise ValueError("output is not a JSON array")
    i = _SPACE.match(text, i + 1).end()
    if text[i:i + 1] != "]":
        while True:
            row, i = decoder.raw_decode(text, i)
            yield tuple(row[k] for k in SWEEP_COLUMNS)
            i = _SPACE.match(text, i).end()
            if text[i:i + 1] == "]":
                break
            if text[i:i + 1] != ",":
                raise ValueError(f"expected ',' or ']' at offset {i}")
            i = _SPACE.match(text, i + 1).end()
    if _SPACE.match(text, i + 1).end() != len(text):
        raise ValueError("data after the JSON array")


def _lines(text: str):
    """Lines of text without their newlines, sliced one at a time (no copy of the whole)."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start)
        if stop < 0:
            stop = end
        yield text[start:stop]
        start = stop + 1


def _csv_rows(text: str):
    lines = _lines(text)
    if next(lines, None) != ",".join(SWEEP_COLUMNS):
        raise ValueError("missing or wrong CSV header")
    for line in lines:
        row = tuple(float(v) for v in line.split(","))
        if len(row) != len(SWEEP_COLUMNS):
            raise ValueError(f"CSV row with {len(row)} fields")
        yield row


def parse_sweep(text: str, output: str):
    """Rows of a sweep output as tuples in SWEEP_COLUMNS order, parsed lazily.

    The rows are never all held at once, so checking a large sweep adds
    little to the process's peak memory.
    """
    return _json_rows(text) if output == "json" else _csv_rows(text)


def check_sweep_rows(curve, rows, points: int) -> list[str]:
    """Row count, every row on-curve, marginal prices strictly monotone along the axis.

    Reports the first bad row only, but counts every row.
    """
    failures = []
    n = 0
    previous = None
    for x, y, marginal, _, _ in rows:
        if not failures:
            residual = curve.invariant_residual(PoolState(x, y))
            if not abs(residual) <= REL_TOL:
                failures.append(f"row {n} off-curve: residual {residual!r}")
            elif n and not marginal > previous:
                failures.append(f"row {n}: marginal price {marginal!r} not above {previous!r}")
        previous = marginal
        n += 1
    if n != points:
        failures.append(f"{n} rows, expected {points}")
    return failures


def check_sweep_output(curve, text: str, output: str, points: int) -> list[str]:
    try:
        return check_sweep_rows(curve, parse_sweep(text, output), points)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"output does not parse: {exc}"]


class Sweep(Workload):
    """Every worked spec on both axes, in one output format; a round is one sweep call.

    A cycle walks through the combinations in a fixed order: the sweeps are
    the same for every seed, and so is the point in each cycle where the
    garbage collector runs.  The outputs of the first cycle are checked row
    by row after each call's clock has stopped; later cycles must reproduce
    their bytes exactly.
    """

    monitored = True
    # The ROADMAP's `clamm sweep --points 100000` row.
    POINTS = 100_000

    def __init__(self, seed: int, root: Path, output: str):
        self.name = f"sweep_{output}"
        self.output = output
        self.root = root
        self.combos = [(name, axis) for name in WORKED_SPECS for axis in ("x", "price")]
        self.cycle = len(self.combos)

    def build(self) -> None:
        self.worked = {name: (path, curve) for name, path, curve in load_worked(self.root)}

    def argv(self, name: str, axis: str, points: int) -> list[str]:
        return ["sweep", "--spec", str(self.worked[name][0]), "--points", str(points),
                "--axis", axis, "--output", self.output]

    def run_round(self, r: int) -> Round:
        name, axis = self.combos[r % self.cycle]
        key = f"{name}/{axis}"
        code, start, ns, text = call_cli(self.argv(name, axis, self.POINTS))
        errors = [] if code == 0 else [f"sweep {key} exited {code}"]
        if 0 <= r < self.cycle:
            curve = self.worked[name][1]
            errors += [f"{key}: {f}" for f in check_sweep_output(curve, text, self.output, self.POINTS)]
        exact = {key: [code, *output_id(text)]}
        return Round(self.POINTS if code == 0 else 0, ns / 1e9, [ns], 1, errors, exact,
                     start_s=start / 1e9)

    def check(self, rounds: list[Round]) -> list[str]:
        return self.check_golden()

    def check_golden(self) -> list[str]:
        golden = self.root / "tests" / "golden" / f"sweep_points3.{self.output}"
        text = call_cli(self.argv("worked_bancor", "x", 3)).text
        if text.encode("utf-8") != golden.read_bytes():
            return [f"sweep --points 3 differs from {golden.name}"]
        return []


# ---------------------------------------------------------------------------
# verify: in-process `clamm verify`
# ---------------------------------------------------------------------------


def check_verify_output(text: str, code: int, requested: int) -> list[str]:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"output does not parse: {exc}"]
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    if payload.get("failed") != 0:
        failures.append(f"{payload.get('failed')} failed cases")
    if payload.get("cases") != requested:
        failures.append(f"{payload.get('cases')} cases, expected {requested}")
    return failures


class Verify(Workload):
    """One request is a battery run plus one --spec run per worked spec.

    The battery runs the ROADMAP's `clamm verify --cases 20000`.  At that
    size its cost hardly depends on the curves a seed draws, so a cycle is
    one round.  The battery never draws the natural form, which the --spec
    runs cover.
    """

    name = "verify"
    cycle = 1
    monitored = True
    CASES = 20_000
    SPEC_CASES = 1_000

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.subseeds = [seed * self.cycle + k for k in range(self.cycle)]

    def build(self) -> None:
        self.worked = load_worked(self.root)

    def calls(self, subseed: int):
        yield ["verify", "--cases", str(self.CASES), "--seed", str(subseed)], self.CASES
        for _, path, _ in self.worked:
            yield (["verify", "--spec", str(path), "--cases", str(self.SPEC_CASES),
                    "--seed", str(subseed)], self.SPEC_CASES)

    def run_round(self, r: int) -> Round:
        subseed = self.subseeds[r % self.cycle]
        results = []
        start = time.perf_counter_ns()
        for argv, requested in self.calls(subseed):
            code, _, _, text = call_cli(argv)
            results.append((argv, requested, code, text))
        ns = time.perf_counter_ns() - start
        errors, exact = [], {"subseed": subseed}
        cases = 0
        for argv, requested, code, text in results:
            cases += requested
            key = " ".join(argv[:2] + [Path(argv[2]).name])
            errors += [f"{key}: {f}" for f in check_verify_output(text, code, requested)]
            exact[key] = [code, *output_id(text)]
        return Round(cases, ns / 1e9, [ns], len(results), errors, exact, start_s=start / 1e9)

    def check(self, rounds: list[Round]) -> list[str]:
        # Cases per form, counted from the case generator the battery uses.
        per_form = Counter()
        for subseed in self.subseeds:
            per_form.update(p.form for p, _, _ in clamm.quadrature.random_cases(subseed, self.CASES))
        for _, _, curve in self.worked:
            per_form[curve.params.form] += self.SPEC_CASES
        self.extra_exact = {"cases_per_form_per_cycle": dict(sorted(per_form.items()))}
        return []


def make(name: str, seed: int, root: Path) -> Workload:
    if name == "pool_sim":
        return PoolSim(seed, root)
    if name in ("sweep_json", "sweep_csv"):
        return Sweep(seed, root, name.split("_")[1])
    if name == "verify":
        return Verify(seed, root)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pool_sim", "sweep_json", "sweep_csv", "verify")
