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
where an outcome is the value or the error raised.  Every form quotes
through the core's closed forms, so the digest pins those on every form's
constants.  A change to curve construction, to a closed form, to sampling or
to the battery's draw that moves any of these bits moves the digest in
``tests/golden/curve_bits.sha256``.

Run as a module, ``PYTHONPATH=src python3 -m tests.test_curve_bits``, it
prints the digest, which is the golden's bytes; ``scripts/regen_cli_golden.py``
writes and checks it with every other golden.
"""

import hashlib

from clamm import CurveError, curve_for
from clamm.quadrature import battery_cases

from .conftest import natural_anchors

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


def curve_bits_digest(seed: int = SEED, cases: int = CASES) -> str:
    h = hashlib.sha256()
    for curve, state, dx in battery_cases(seed, cases):
        h.update(_record(curve, state, dx).encode())
        if curve.bounded:
            for params in natural_anchors(curve):
                try:
                    record = _record(curve_for(params), state, dx)
                except CurveError as exc:
                    record = repr((params, type(exc).__name__, str(exc)))
                h.update(record.encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(curve_bits_digest())
