"""Command-line front end: quote, translate, sweep, angle, verify, geometry.

All commands read curve specs as JSON ({"form": ..., ...fields}) and write
JSON (CSV is available for sweeps).  Numbers are serialized as shortest
round-trip decimals, so identical inputs produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 input or domain error.

The translation, angle and oracle layers (rosetta, hypertrig, quadrature) are
imported inside the commands that use them, so quote and geometry never load
them.  json and dataclasses, too, load on first use: json when a command
reads a spec or writes JSON, dataclasses in translate and geometry, which
write a value with ``asdict``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys

from .curves import curve_for, geometry
from .errors import CurveError, DomainError
from .params import _MAX, REL_TOL, VERIFY_REL_TOL, PoolState, apply_delta, load_spec, spec_to_dict

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def _emit(payload) -> None:
    import json

    print(json.dumps(payload, indent=2))


def _load(args):
    if not args.spec:
        raise DomainError("spec", "a --spec file is required for this command")
    return load_spec(args.spec)


def _read_state(curve, args) -> PoolState:
    state = PoolState(args.x, args.y)
    if not curve.on_curve(state, rel_tol=args.tolerance):
        raise DomainError("state", "balances do not satisfy the curve invariant")
    return state


def cmd_quote(args) -> int:
    # An infinite tolerance would accept any state as on the curve.
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise DomainError("tolerance", "must be positive and finite")
    curve = curve_for(_load(args))
    state = _read_state(curve, args)
    if args.dx is not None:
        delta = curve.swap_exact_in_x(state, args.dx)
    else:
        delta = curve.swap_exact_out_y(state, args.dy)
    after = apply_delta(state, delta)
    quote = {"dx": delta.dx, "dy": delta.dy}
    if delta.dx != 0:
        quote["effective_price"] = delta.dy / delta.dx
    quote["marginal_before"] = curve.marginal_price(state)
    quote["marginal_after"] = curve.marginal_price(after)
    _emit(quote)
    return EXIT_OK


def cmd_translate(args) -> int:
    import dataclasses

    from .rosetta import translate_with_report

    params = _load(args)
    target, report = translate_with_report(params, args.to)
    _emit({"spec": spec_to_dict(target), "report": dataclasses.asdict(report)})
    return EXIT_OK


def cmd_geometry(args) -> int:
    import dataclasses

    geom = geometry(_load(args))
    payload = dataclasses.asdict(geom)
    if not all(math.isfinite(v) for v in payload.values()):
        raise DomainError("spec", "curve has no finite geometry")
    _emit(payload)
    return EXIT_OK


def cmd_angle(args) -> int:
    from .hypertrig import hyperbolic_angle, trig_identities

    if args.p_high is not None or args.p_low is not None:
        if args.p_high is None or args.p_low is None:
            raise DomainError("p_high", "--p-high and --p-low must be given together")
        p_high, p_low = args.p_high, args.p_low
    else:
        geom = geometry(_load(args))
        p_high, p_low = geom.p_high, geom.p_low
        if not (math.isfinite(p_high) and math.isfinite(p_low)):
            raise DomainError("spec", "curve has no finite price bounds")
    phi = hyperbolic_angle(p_high, p_low)
    # sinh and cosh are at most about sqrt(p_high/p_low), so a finite ratio
    # keeps them finite; an infinite one is blamed on the bound further from 1
    # on a log scale
    ratio = p_high / p_low
    if math.isinf(ratio):
        raise DomainError("p_high" if p_high * p_low >= 1.0 else "p_low",
                          "p_high/p_low must be finite")
    trig = trig_identities(phi)
    _emit({
        "phi": phi,
        "sinh": trig.sinh,
        "cosh": trig.cosh,
        "tanh": trig.tanh,
        "c": math.sqrt(ratio),
    })
    return EXIT_OK


def _sweep_rows(curve, axis: str, points: int):
    """Rows of a sweep as (x, y, marginal_price, t_hat, u_hat) tuples, one at a time.

    One row kernel: each row is bit for bit the row of the public functions,
    ``state_from_x`` (or ``state_at_price``), ``marginal_price``, and
    ``t_hat_from_price`` and ``u_hat_from_price`` of its negation, and
    raises the error they raise, with the same field and reason.  The x axis
    samples ``y_from_x``, whose range rule and snap ``state_from_x`` runs,
    and builds no ``PoolState``: only a y that ``PoolState`` rejects is
    passed to it, to raise its error.  The price is ``marginal_price``'s
    expression without its sign, which negation keeps exact, and one square
    root serves both unit coordinates; a price the hypertrig functions
    reject goes to ``t_hat_from_price``, to raise its error.
    """
    from .hypertrig import t_hat_from_price

    geom = curve.geom
    if not math.isfinite(geom.x_int):
        raise DomainError("spec", "sweeps need a curve with finite intercepts")
    x_int, p_high, p_low = geom.x_int, geom.p_high, geom.p_low
    shift_x, shift_y = curve.shift_x, curve.shift_y
    y_from_x, state_at_price = curve.y_from_x, curve.state_at_price
    sqrt = math.sqrt
    last = points - 1
    for i in range(points):
        frac = i / last
        if axis == "x":
            x = x_int * frac
            y = y_from_x(x)
            if not 0.0 <= y:
                PoolState(x, y)
        elif i == last:
            # the x intercept itself: the interpolation can round past p_low,
            # and state_at_price(p_low) cancels past x_int on a narrow range
            x, y = x_int, 0.0
        else:
            state = state_at_price(p_high + (p_low - p_high) * frac)
            x, y = state.x, state.y
        price = (y + shift_y) / (x + shift_x)
        if not 0.0 < price <= _MAX:
            t_hat_from_price(price)
        root = 2.0 * sqrt(price)
        yield x, y, -price, (price + 1.0) / root, (price - 1.0) / root


# Rows per stdout write: large enough to amortise the write, small enough to
# keep memory flat in --points.  512 JSON rows are at most about 90 KB, under
# glibc malloc's 128 KiB mmap threshold, so each chunk's strings are carved
# from the heap and reused; larger chunks were mapped and unmapped, and where
# the threshold stood moved a sweep's peak RSS by megabytes from run to run.
SWEEP_CHUNK = 512


# Every value in a sweep row is finite: x and y pass y_from_x's or PoolState's
# checks, the row kernel rejects a price the hypertrig functions reject, and
# t_hat and u_hat are finite for any finite positive price.  json spells a
# finite float as float.__repr__, so a row's f-string, with !r on every value,
# gives the bytes of json.dumps(rows, indent=2) and of the repr-joined CSV.
def cmd_sweep(args) -> int:
    if args.points < 2:
        raise DomainError("points", "must be at least 2")
    curve = curve_for(_load(args))
    rows = _sweep_rows(curve, args.axis, args.points)
    if args.output == "json":
        head, sep, tail = "[\n", ",\n", "\n]\n"
    else:
        head, sep, tail = "x,y,marginal_price,t_hat,u_hat\n", "", ""
    # The head goes out with the first chunk, so an error there leaves stdout
    # empty; an error in a later chunk leaves a truncated table.  The lead and
    # the chunk are two writes, so that no chunk is copied to join them.
    lead = head
    for _ in range(0, args.points, SWEEP_CHUNK):
        chunk = itertools.islice(rows, SWEEP_CHUNK)
        if args.output == "json":
            text = sep.join([f'  {{\n    "x": {x!r},\n    "y": {y!r},\n    "marginal_price": {p!r},\n'
                             f'    "t_hat": {t!r},\n    "u_hat": {u!r}\n  }}' for x, y, p, t, u in chunk])
        else:
            text = "".join([f"{x!r},{y!r},{p!r},{t!r},{u!r}\n" for x, y, p, t, u in chunk])
        sys.stdout.write(lead)
        sys.stdout.write(text)
        lead = sep
    sys.stdout.write(tail)
    return EXIT_OK


def cmd_verify(args) -> int:
    import random

    from .quadrature import battery_cases, random_admissible_swap, verify_cases

    if args.cases < 1:
        raise DomainError("cases", "must be at least 1")
    # An infinite tolerance would pass every case vacuously.
    if not (math.isfinite(args.rel_tol) and args.rel_tol > 0):
        raise DomainError("rel_tol", "must be positive and finite")
    # The checks draw nothing from the rng.
    if args.spec:
        curve = curve_for(load_spec(args.spec))
        rng = random.Random(args.seed)
        cases = ((curve, *random_admissible_swap(rng, curve)) for _ in range(args.cases))
    else:
        cases = battery_cases(args.seed, args.cases)
    summary = verify_cases(cases, rel_tol=args.rel_tol)
    _emit(summary)
    return EXIT_OK if summary["failed"] == 0 else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """Raises ArgumentError for every usage error instead of printing usage and exiting."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, exit_on_error=False, **kwargs)

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--spec", help="path to a curve spec JSON file")

    parser = _Parser(prog="clamm", description="Concentrated-liquidity curve math")
    sub = parser.add_subparsers(dest="command", required=True)

    quote = sub.add_parser("quote", parents=[common], help="price a trade against a curve")
    quote.add_argument("--tolerance", type=float, default=REL_TOL,
                       help="relative tolerance for the on-curve check (default %(default)g)")
    quote.add_argument("--x", type=float, required=True, help="current x balance")
    quote.add_argument("--y", type=float, required=True, help="current y balance")
    group = quote.add_mutually_exclusive_group(required=True)
    group.add_argument("--dx", type=float, help="signed x amount traded in")
    group.add_argument("--dy", type=float, help="signed y amount traded out")
    quote.set_defaults(handler=cmd_quote)

    trans = sub.add_parser("translate", parents=[common], help="re-express a spec in another form")
    trans.add_argument("--to", required=True, help="target form tag")
    trans.set_defaults(handler=cmd_translate)

    sweep = sub.add_parser("sweep", parents=[common], help="tabulate the curve for plotting")
    sweep.add_argument("--axis", choices=("x", "price"), default="x")
    sweep.add_argument("--points", type=int, default=101)
    sweep.add_argument("--output", choices=("json", "csv"), default="json")
    sweep.set_defaults(handler=cmd_sweep)

    angle = sub.add_parser("angle", parents=[common], help="hyperbolic angle of the price range")
    angle.add_argument("--p-high", type=float, dest="p_high")
    angle.add_argument("--p-low", type=float, dest="p_low")
    angle.set_defaults(handler=cmd_angle)

    verify = sub.add_parser("verify", parents=[common], help="run the quadrature oracle battery")
    verify.add_argument("--cases", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--rel-tol", type=float, default=VERIFY_REL_TOL, dest="rel_tol")
    verify.set_defaults(handler=cmd_verify)

    geom = sub.add_parser("geometry", parents=[common], help="derived constants of a curve")
    geom.set_defaults(handler=cmd_geometry)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: a parser is a web
    of cyclic references, and one per call would leave it to the garbage
    collector.  Parsing fills a fresh namespace and leaves the parser as it was."""
    return build_parser()


def _parse(argv) -> argparse.Namespace:
    try:
        return _parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        # "--rel-tol" -> "rel_tol"; an error tied to no single option names the command
        field = (exc.argument_name or "command").lstrip("-").replace("-", "_")
        raise DomainError(field, exc.message) from None


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return args.handler(args)
    except CurveError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, DomainError):
            error["field"], error["reason"] = exc.field, exc.reason
    except OSError as exc:
        error = {"type": "OSError", "message": str(exc)}
    import json

    print(json.dumps({"error": error}), file=sys.stderr)
    return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
