"""Opt-in span tracing of clamm's layers, installed from outside the library.

``Tracer.install`` replaces the public functions and curve methods listed in
``_FUNCTIONS`` and ``CURVE_METHODS`` with timing wrappers: module functions in
every ``clamm`` module that binds them (``from .x import f`` copies the
reference), curve methods on each concrete curve class.  ``uninstall`` puts
the originals back.  Nothing under ``src/`` is edited.

Each call records one span (name, start, end, parent).  Aggregates are kept
for every call: calls, busy time, self time (busy time minus the time its
child spans cover), unexpected exceptions (``fails``) and expected trade
rejections (``rejects``).  Raw spans are kept in memory up to a budget and
written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array

# (span label, defining module, class, form tag); NaturalCurve lives in curves.
CURVE_CLASSES = (
    ("reference", "reference", "ReferenceCurve", "reference"),
    ("bancor", "bancor", "BancorCurve", "bancor_v2"),
    ("uniswap", "uniswap", "UniswapCurve", "uniswap_v3"),
    ("carbon", "carbon", "CarbonCurve", "carbon"),
    ("curves.natural", "curves", "NaturalCurve", "natural"),
)
TRADE_METHODS = ("swap_exact_in_x", "swap_exact_out_y")
CURVE_METHODS = TRADE_METHODS + ("marginal_price", "state_from_x", "state_at_price")

FORM_TAGS = tuple(c[3] for c in CURVE_CLASSES)
TRANSLATE_TARGETS = FORM_TAGS[1:]


def _form_of(obj) -> str:
    """Form tag of a parameter set or curve object."""
    params = getattr(obj, "params", obj)
    return getattr(params, "form", "invalid")


def _curve_for_name(args, kwargs):
    return "curves.curve_for." + _form_of(args[0] if args else kwargs.get("params"))


def _translate_name(args, kwargs):
    target = args[1] if len(args) > 1 else kwargs.get("target_form")
    return "rosetta.translate." + (target if target in TRANSLATE_TARGETS else "invalid")


def _integrate_name(args, kwargs):
    return "quadrature.integrate_price_curve." + _form_of(args[0] if args else kwargs.get("curve"))


# (module, function, span name or a function of the call's arguments)
_FUNCTIONS = (
    ("params", "apply_delta", "params.apply_delta"),
    ("params", "spec_from_dict", "params.spec_from_dict"),
    ("curves", "curve_for", _curve_for_name),
    ("rosetta", "translate", _translate_name),
    ("hypertrig", "t_hat_from_price", "hypertrig.t_hat_from_price"),
    ("hypertrig", "u_hat_from_price", "hypertrig.u_hat_from_price"),
    ("cli", "main", "cli.main"),
    ("quadrature", "random_cases", "quadrature.random_cases"),
    ("quadrature", "oracle_compare", "quadrature.oracle_compare"),
    ("quadrature", "integrate_price_curve", _integrate_name),
)

# Raw span columns, one int64 each.
SPAN_COLUMNS = ("seq", "parent", "name", "start_ns", "end_ns", "status")
STATUS_OK, STATUS_FAIL, STATUS_REJECT = 0, 1, 2


class Tracer:
    """Span recorder; one per process, installed around the traced phase only."""

    def __init__(self, raw_budget: int = 100_000):
        self.raw_budget = raw_budget
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # name -> [calls, busy_ns, self_ns, fails, rejects]
        self.agg: dict[str, list[int]] = {}
        # exact counters that are not spans (integrand evaluations)
        self.counts: dict[str, int] = {}
        self.top_ns = 0
        self.raw = array("q")
        self.dropped = 0
        self._stack: list[list[int]] = []
        self._seq = 0
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name, fn, expected: tuple = ()):
        """Timing wrapper around fn; name is a string or a function of (args, kwargs)."""
        stack = self._stack
        clock = time.perf_counter_ns
        agg = self.agg
        raw = self.raw
        static = isinstance(name, str)

        def traced(*args, **kwargs):
            span = name if static else name(args, kwargs)
            seq = self._seq
            self._seq = seq + 1
            parent = stack[-1][0] if stack else -1
            frame = [seq, 0]
            stack.append(frame)
            status = STATUS_OK
            start = clock()
            try:
                return fn(*args, **kwargs)
            except expected:
                status = STATUS_REJECT
                raise
            except BaseException:
                status = STATUS_FAIL
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats = agg.get(span)
                if stats is None:
                    stats = agg[span] = [0, 0, 0, 0, 0]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if status == STATUS_FAIL:
                    stats[3] += 1
                elif status == STATUS_REJECT:
                    stats[4] += 1
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_ns += dur
                if len(raw) < self.raw_budget * len(SPAN_COLUMNS):
                    raw.extend((seq, parent, self._name_id(span), start, end, status))
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        """Wrapper that only counts calls; for integrands evaluated hundreds of times per case."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        import importlib

        from clamm.errors import BoundsExceeded, InsufficientLiquidity

        for mod_name, _, _ in _FUNCTIONS:
            importlib.import_module(f"clamm.{mod_name}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "clamm" or key.startswith("clamm."))]
        for mod_name, fn_name, span in _FUNCTIONS:
            original = getattr(sys.modules[f"clamm.{mod_name}"], fn_name)
            wrapper = self.wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value, True))
                        setattr(mod, attr, wrapper)
        rejects = (BoundsExceeded, InsufficientLiquidity)
        for label, mod_name, cls_name, tag in CURVE_CLASSES:
            cls = getattr(sys.modules[f"clamm.{mod_name}"], cls_name)
            for method in CURVE_METHODS:
                self._set_attr(cls, method, self.wrap(
                    f"{label}.{method}", getattr(cls, method),
                    rejects if method in TRADE_METHODS else ()))
            self._set_attr(cls, "price_slope_at_x", self.counter(
                f"quadrature.slope_evals.{tag}", getattr(cls, "price_slope_at_x")))

    def _set_attr(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr), attr in owner.__dict__))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value, existed in reversed(self._restore):
            if existed:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._restore.clear()

    # -- results -------------------------------------------------------------------

    def self_total_ns(self) -> int:
        return sum(stats[2] for stats in self.agg.values())

    def write_spans(self, path) -> None:
        """Write the kept raw spans as CSV, one header line then one line per span."""
        width = len(SPAN_COLUMNS)
        raw = self.raw
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(SPAN_COLUMNS) + "\n")
            for i in range(0, len(raw), width):
                seq, parent, name, start, end, status = raw[i:i + width]
                handle.write(f"{seq},{parent},{self.names[name]},{start},{end},{status}\n")


_SPAN_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "fails": "count", "rejects": "count"}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in BENCHMARK.json order."""
    out = []

    def span(name, *fields):
        out.extend((f"{name}.{f}", _SPAN_UNITS[f]) for f in fields)

    for label, _, _, tag in CURVE_CLASSES:
        for method in TRADE_METHODS:
            span(f"{label}.{method}", "calls", "busy_s", "rejects")
        span(f"{label}.marginal_price", "calls", "busy_s")
        span(f"{label}.state_from_x", "calls", "busy_s")
        if tag != "reference":
            span(f"{label}.state_at_price", "calls", "busy_s")
    span("params.apply_delta", "calls", "busy_s")
    span("params.spec_from_dict", "calls", "busy_s")
    for tag in FORM_TAGS:
        span(f"curves.curve_for.{tag}", "calls", "busy_s")
    for tag in TRANSLATE_TARGETS:
        span(f"rosetta.translate.{tag}", "calls", "busy_s", "self_s")
    span("hypertrig.t_hat_from_price", "calls", "busy_s")
    span("hypertrig.u_hat_from_price", "calls", "busy_s")
    span("cli.main", "calls", "busy_s", "self_s")
    out.append(("cli.import_s", "s"))
    span("quadrature.random_cases", "calls", "busy_s", "self_s")
    span("quadrature.oracle_compare", "calls", "busy_s", "self_s", "fails")
    for tag in FORM_TAGS:
        span(f"quadrature.integrate_price_curve.{tag}", "calls", "busy_s")
    out.extend((f"quadrature.slope_evals.{tag}", "count") for tag in FORM_TAGS)
    out.extend((f"quadrature.slope_evals_per_case.{tag}", "evals/case") for tag in FORM_TAGS)
    out += [("trace.overhead", "s"), ("trace.wall_s", "s"), ("trace.harness_s", "s"),
            ("trace.fails", "count")]
    return out


def layer_values(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Span aggregates and counters per cycle, keyed by per_layer_metrics names."""
    values = {}
    fields = ("calls", "busy_s", "self_s", "fails", "rejects")
    for name, stats in tracer.agg.items():
        for f, value in zip(fields, stats):
            values[f"{name}.{f}"] = value / cycles / (1e9 if f.endswith("_s") else 1)
    for name, value in tracer.counts.items():
        values[name] = value / cycles
        tag = name.rsplit(".", 1)[1]
        calls = tracer.agg.get(f"quadrature.integrate_price_curve.{tag}", [0])[0]
        values[f"quadrature.slope_evals_per_case.{tag}"] = value / calls if calls else 0.0
    values["trace.fails"] = sum(stats[3] for stats in tracer.agg.values()) / cycles
    return values
