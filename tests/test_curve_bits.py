"""Every curve constant and two swaps per battery case keep their bits.

The digest covers, for each case of the frozen battery draw at seed 3 with
8000 cases (``tests/frozen_battery.py``), the repr of
``(form, shift_x, shift_y, scale, geom)``, one ``swap_exact_in_x`` dy and one
``swap_exact_out_y`` dx.  Each bounded case is also rebuilt as a natural curve
from each of its three anchors (asymptotes, intercepts, center).  A change to
curve construction or to a swap formula that moves any of these bits moves the
digest in ``tests/golden/curve_bits.sha256``.

Regenerate the golden, on purpose only, with
``PYTHONPATH=src python3 -m tests.test_curve_bits --write``.
"""

import hashlib
import sys
from pathlib import Path

from clamm import CurveError, NaturalParams, curve_for

from .frozen_battery import frozen_battery_cases

GOLDEN = Path(__file__).parent / "golden" / "curve_bits.sha256"
SEED, CASES = 3, 8000


def _outcome(swap, state, amount):
    """The coupled amount of one swap, or the error it raises."""
    try:
        return swap(state, amount)
    except CurveError as exc:
        return type(exc).__name__, str(exc)


def _record(curve, state, dx) -> str:
    delta_in = _outcome(curve.swap_exact_in_x, state, dx)
    delta_out = _outcome(curve.swap_exact_out_y, state, -0.5 * state.y)
    return repr((curve.params.form, curve.shift_x, curve.shift_y, curve.scale, curve.geom,
                 getattr(delta_in, "dy", delta_in), getattr(delta_out, "dx", delta_out)))


def _natural_anchors(curve):
    geom = curve.geom
    yield NaturalParams(geom.c, "asymptotes", geom.x_asym, geom.y_asym)
    yield NaturalParams(geom.c, "intercepts", geom.x_int, geom.y_int)
    yield NaturalParams(geom.c, "center", *curve.center())


def curve_bits_digest(seed: int = SEED, cases: int = CASES) -> str:
    h = hashlib.sha256()
    for curve, state, dx in frozen_battery_cases(seed, cases):
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
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(digest + "\n")
    print(digest)
