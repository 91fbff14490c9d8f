"""Every curve constant, price, slope, sample and two swaps per battery case
keep their bits.

The digest covers each case of the live verify battery,
``quadrature.battery_cases`` at seed 3 with 32000 cases: 8000 drawn Bancor
curves, each checked as the unshifted curve, itself and its uniswap and
carbon translations.  Each bounded case is also rebuilt as a natural curve
from each of its three anchors (asymptotes, intercepts, center).  A case's
record is the repr of ``(form, shift_x, shift_y, scale, geom)`` and of the
outcome of ``swap_exact_in_x`` (its dy), ``swap_exact_out_y`` of half the y
balance (its dx), ``marginal_price``, ``price_slope_at_x``,
``price_slope_at_y``, ``y_from_x`` and ``x_from_y`` at the case's state,
where an outcome is the value or the error raised.  A change to curve
construction, to a native closed form, to sampling or to the battery's draw
that moves any of these bits moves the digest in
``tests/golden/curve_bits.sha256``.

Regenerate the golden, on purpose only, with
``PYTHONPATH=src python3 -m tests.test_curve_bits --write``; without
``--write`` the module prints the digest and exits 1 if it differs from the
golden.
"""

import hashlib
import sys
from pathlib import Path

from clamm import CurveError, NaturalParams, curve_for
from clamm.quadrature import battery_cases

GOLDEN = Path(__file__).parent / "golden" / "curve_bits.sha256"
SEED, CASES = 3, 32000


def _outcome(method, *args):
    """What one call returns, or the error it raises."""
    try:
        return method(*args)
    except CurveError as exc:
        return type(exc).__name__, str(exc)


def _record(curve, state, dx) -> str:
    delta_in = _outcome(curve.swap_exact_in_x, state, dx)
    delta_out = _outcome(curve.swap_exact_out_y, state, -0.5 * state.y)
    return repr((curve.params.form, curve.shift_x, curve.shift_y, curve.scale, curve.geom,
                 getattr(delta_in, "dy", delta_in), getattr(delta_out, "dx", delta_out),
                 _outcome(curve.marginal_price, state), _outcome(curve.price_slope_at_x, state.x),
                 _outcome(curve.price_slope_at_y, state.y), _outcome(curve.y_from_x, state.x),
                 _outcome(curve.x_from_y, state.y)))


def _natural_anchors(curve):
    geom = curve.geom
    yield NaturalParams(geom.c, "asymptotes", geom.x_asym, geom.y_asym)
    yield NaturalParams(geom.c, "intercepts", geom.x_int, geom.y_int)
    yield NaturalParams(geom.c, "center", *curve.center())


def curve_bits_digest(seed: int = SEED, cases: int = CASES) -> str:
    h = hashlib.sha256()
    for curve, state, dx in battery_cases(seed, cases):
        h.update(_record(curve, state, dx).encode())
        if curve.bounded:
            for params in _natural_anchors(curve):
                try:
                    record = _record(curve_for(params), state, dx)
                except CurveError as exc:
                    record = repr((params, type(exc).__name__, str(exc)))
                h.update(record.encode())
    return h.hexdigest()


def test_curve_bits_match_the_golden():
    assert curve_bits_digest() == GOLDEN.read_text().strip()


if __name__ == "__main__":
    digest = curve_bits_digest()
    print(digest)
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(digest + "\n")
    elif digest != GOLDEN.read_text().strip():
        print(f"differs from {GOLDEN.name}", file=sys.stderr)
        sys.exit(1)
