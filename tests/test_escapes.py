"""A total library API, table-driven: over a grid of edge inputs, each public
function returns a value or raises a ``CurveError``.

Each row of ``ROWS`` is a function and the grid of each of its arguments; every
combination is called.  A non-number may raise ``TypeError``, but the grid
holds numbers only (``True`` is an int here), so any other exception is an
escape.  The curve rows run on all five forms and on four tiny carbon curves;
a state argument ranges over the grid's pairs that ``PoolState`` accepts.
"""

import itertools
import math

import pytest

from clamm import (
    CurveError,
    DomainError,
    PoolState,
    ReferenceParams,
    RotatedPoint,
    concentration_from_asymptotes,
    concentration_from_center,
    concentration_from_intercepts,
    curve_for,
    hyperbolic_angle,
    hyperbolic_angle_from_unit,
    integrate_price_curve,
    normalize,
    oracle_compare,
    rotate,
    trig_identities,
    unit_from_state,
)
from clamm.params import _MAX

from .conftest import (
    RESOLVED_TINY_CARBON,
    UNRESOLVED_TINY_CARBON,
    WORKED_BANCOR,
    WORKED_CARBON,
    WORKED_NATURAL,
    WORKED_UNISWAP,
)

EDGES = [0.0, -0.0, 1.0, -1.0, 5e-324, _MAX, -_MAX, math.inf, -math.inf, math.nan, 2**1100, True]


def _states():
    states = []
    for x, y in itertools.product(EDGES, repeat=2):
        try:
            states.append(PoolState(x, y))
        except CurveError:
            pass
    return states


STATES = _states()
# (name, curve): the worked curve in every form, and carbon curves whose b*z
# or z is far below 2**-511
CURVES = [
    *((params.form, curve_for(params)) for params in
      (ReferenceParams(100.0, 100.0), WORKED_BANCOR, WORKED_UNISWAP, WORKED_CARBON, WORKED_NATURAL)),
    *((f"carbon_tiny_b*z{i}", curve_for(params)) for i, params in enumerate(RESOLVED_TINY_CARBON)),
    *((f"carbon_tiny_z{i}", curve_for(params)) for i, params in enumerate(UNRESOLVED_TINY_CARBON)),
]


def curve_rows(name, curve):
    return [
        (f"{name}-y_from_x", curve.y_from_x, [EDGES]),
        (f"{name}-x_from_y", curve.x_from_y, [EDGES]),
        (f"{name}-state_at_price", curve.state_at_price, [EDGES]),
        (f"{name}-price_slope_at_x", curve.price_slope_at_x, [EDGES + [-curve.shift_x]]),
        (f"{name}-price_slope_at_y", curve.price_slope_at_y, [EDGES + [-curve.shift_y]]),
        (f"{name}-marginal_price", curve.marginal_price, [STATES]),
        (f"{name}-swap_exact_in_x", curve.swap_exact_in_x, [STATES, EDGES]),
        (f"{name}-swap_exact_out_y", curve.swap_exact_out_y, [STATES, EDGES]),
        (f"{name}-integrate_price_curve", lambda x, dx: integrate_price_curve(curve, x, dx), [EDGES, EDGES]),
        (f"{name}-oracle_compare", lambda state, dx: oracle_compare(curve, state, dx), [STATES, EDGES]),
    ]


ROWS = [
    *(row for name, curve in CURVES for row in curve_rows(name, curve)),
    ("concentration_from_center", concentration_from_center, [STATES, EDGES, EDGES]),
    ("concentration_from_intercepts", concentration_from_intercepts, [STATES, EDGES, EDGES]),
    ("concentration_from_asymptotes", concentration_from_asymptotes, [STATES, EDGES, EDGES]),
    ("rotate", rotate, [EDGES, EDGES]),
    ("normalize", lambda t, u, k: normalize(RotatedPoint(t, u), k), [EDGES, EDGES, EDGES]),
    ("unit_from_state", unit_from_state, [EDGES, EDGES]),
    ("hyperbolic_angle", hyperbolic_angle, [EDGES, EDGES]),
    ("hyperbolic_angle_from_unit", hyperbolic_angle_from_unit, [EDGES, EDGES]),
    ("trig_identities", trig_identities, [EDGES]),
]


@pytest.mark.parametrize("function, grids", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_only_curve_errors_escape(function, grids):
    escapes = []
    for args in itertools.product(*grids):
        try:
            function(*args)
        except CurveError:
            pass
        except Exception as exc:
            escapes.append((args, repr(exc)))
    assert not escapes, escapes[:5]


@pytest.mark.parametrize("curve", [curve for _, curve in CURVES], ids=[name for name, _ in CURVES])
def test_slopes_name_their_argument(curve):
    # at the hyperbola's pole, -shift, and for an int past binary64
    for slope, axis, pole in ((curve.price_slope_at_x, "x", -curve.shift_x),
                              (curve.price_slope_at_y, "y", -curve.shift_y)):
        for value, reason in ((pole, "the slope is unbounded where the virtual balance is 0"),
                              (2**1100, "must be finite")):
            with pytest.raises(DomainError) as info:
                slope(value)
            assert (info.value.field, info.value.reason) == (axis, reason), (slope.__name__, value)

