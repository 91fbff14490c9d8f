"""The value types and the swap guards: one comparison accepts, the old checks name a failure.

``PoolState``, ``SwapDelta`` and ``IntegralSpec`` accept a value on one chained
range comparison and run their field checks only when it fails; the swap
guards and ``apply_delta`` do the same.  The ``old_*`` functions below are the
checks as they stood when every value ran all of them.  Over a grid of edge
inputs, the library must store the same value or raise the same error.
"""

import copy
import itertools
import math
import pickle
from dataclasses import FrozenInstanceError, asdict, fields, replace
from fractions import Fraction

import pytest

from clamm import (
    BoundsExceeded,
    DomainError,
    IntegralSpec,
    InsufficientLiquidity,
    PoolState,
    ReferenceParams,
    SwapDelta,
    apply_delta,
    curve_for,
)
from clamm.params import BOUNDS_SLACK
from clamm.quadrature import DEFAULT_ABS_TOL, DEFAULT_MAX_DEPTH

from .conftest import WORKED_BANCOR, WORKED_CARBON, WORKED_NATURAL, WORKED_UNISWAP

GRID = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308, math.inf, -math.inf,
        math.nan, 0, 1, -1, 7, 10**400, -10**400, True, False, Fraction(1, 3),
        Fraction(-7, 2), "1.0"]


# ---------------------------------------------------------------------------
# The checks as they stood, verbatim
# ---------------------------------------------------------------------------


def _require(cond, name, reason):
    if not cond:
        raise DomainError(name, reason)


def old_pool_state(x, y):
    _require(math.isfinite(x), "x", "must be finite")
    _require(math.isfinite(y), "y", "must be finite")
    _require(x >= 0, "x", "must be nonnegative")
    _require(y >= 0, "y", "must be nonnegative")
    return x, y


def old_swap_delta(dx, dy):
    _require(math.isfinite(dx), "dx", "must be finite")
    _require(math.isfinite(dy), "dy", "must be finite")
    if (dx == 0) != (dy == 0):
        raise DomainError("dx", "dx and dy must both be zero or both nonzero")
    if dx != 0 and (dx > 0) == (dy > 0):
        raise DomainError("dx", "dx and dy must have opposite signs")
    return dx, dy


def old_integral_spec(lower, upper, abs_tol=DEFAULT_ABS_TOL, max_depth=DEFAULT_MAX_DEPTH):
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise DomainError("lower", "bounds must be finite")
    if not lower < upper:
        raise DomainError("lower", "must be below upper")
    if not abs_tol > 0:
        raise DomainError("abs_tol", "must be positive")
    return lower, upper, abs_tol, max_depth


def old_check_bounds(axis, new, intercept):
    if math.isinf(intercept):
        if new <= 0:
            raise InsufficientLiquidity(f"trade would fully deplete the {axis} reserve")
        return
    if new < 0 or new > intercept * (1.0 + BOUNDS_SLACK):
        raise BoundsExceeded(f"{axis} would leave [0, {intercept}]")


def old_make_delta(dx, dy):
    if (dx == 0) != (dy == 0):
        raise DomainError("dx", "trade too small to resolve at this scale")
    return old_swap_delta(dx, dy)


def old_swap_exact_in_x(curve, state, dx):
    _require(math.isfinite(dx), "dx", "must be finite")
    if dx == 0:
        return old_swap_delta(0.0, 0.0)
    x_new = state.x + dx
    old_check_bounds("x", x_new, curve.geom.x_int)
    return old_make_delta(dx, curve._dy(state, dx, x_new))


def old_swap_exact_out_y(curve, state, dy):
    _require(math.isfinite(dy), "dy", "must be finite")
    if dy == 0:
        return old_swap_delta(0.0, 0.0)
    y_new = state.y + dy
    old_check_bounds("y", y_new, curve.geom.y_int)
    return old_make_delta(curve._dx(state, dy, y_new), dy)


def old_snap_nonnegative(value, reference):
    if value < 0 and abs(value) <= max(abs(reference), 1.0) * 1e-12:
        return 0.0
    return value


def old_apply_delta(state, delta):
    x = state.x + delta.dx
    y = state.y + delta.dy
    return old_pool_state(old_snap_nonnegative(x, state.x), old_snap_nonnegative(y, state.y))


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------


def outcome(make, *args):
    """What a constructor or guard does with args: the stored values, with their
    types and signs, or the error.  A DomainError is told apart by field and
    reason, any other error by type and message; a TypeError (a non-number)
    by type only, since the range comparison words it differently."""
    try:
        value = make(*args)
    except DomainError as exc:
        return ("DomainError", exc.field, exc.reason)
    except TypeError:
        return ("TypeError",)
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    if not isinstance(value, tuple):
        value = tuple(getattr(value, f.name) for f in fields(value))
    return tuple((type(v), repr(v)) for v in value)


def test_pool_state_matches_the_old_checks():
    for x, y in itertools.product(GRID, repeat=2):
        assert outcome(PoolState, x, y) == outcome(old_pool_state, x, y), (x, y)


def test_swap_delta_matches_the_old_checks():
    for dx, dy in itertools.product(GRID, repeat=2):
        assert outcome(SwapDelta, dx, dy) == outcome(old_swap_delta, dx, dy), (dx, dy)


def test_integral_spec_matches_the_old_checks():
    for args in itertools.product(GRID, repeat=3):
        assert outcome(IntegralSpec, *args) == outcome(old_integral_spec, *args), args
    assert outcome(IntegralSpec, 0.0, 1.0) == outcome(old_integral_spec, 0.0, 1.0)


SWAP_CURVES = [ReferenceParams(100.0, 100.0), WORKED_BANCOR, WORKED_UNISWAP, WORKED_CARBON,
               WORKED_NATURAL]


def swap_states(curve):
    """Interior, drained and full states; every worked curve passes through (100, 100)."""
    states = [PoolState(100.0, 100.0), PoolState(3e-310, 1e-300)]
    if curve.bounded:
        states += [curve.state_from_x(0.0), curve.state_from_x(curve.geom.x_int)]
    return states


def swap_amounts(state, intercept):
    """The grid plus amounts that end on 0, on the intercept, just inside and
    just past its slack, and below the curve's resolution."""
    amounts = GRID + [1e-320, -1e-320]
    for held in (state.x, state.y):
        amounts += [-held, -held * (1 + 1e-15), -math.nextafter(held, 0.0)]
    if math.isfinite(intercept):
        for held in (state.x, state.y):
            room = intercept - held
            amounts += [room, room + intercept * 1e-13, room + intercept * 2e-12]
    return amounts


@pytest.mark.parametrize("params", SWAP_CURVES, ids=[p.form for p in SWAP_CURVES])
def test_swap_guards_match_the_old_checks(params):
    curve = curve_for(params)
    checked = 0
    for state in swap_states(curve):
        for new, old, intercept in (
                (curve.swap_exact_in_x, old_swap_exact_in_x, curve.geom.x_int),
                (curve.swap_exact_out_y, old_swap_exact_out_y, curve.geom.y_int)):
            for amount in swap_amounts(state, intercept):
                assert outcome(new, state, amount) == outcome(old, curve, state, amount), (
                    state, amount, new.__name__)
                checked += 1
    assert checked > 100


def test_apply_delta_matches_the_old_snap():
    states = [PoolState(100.0, 100.0), PoolState(0.0, 0.0), PoolState(1e-300, 5.0)]
    deltas = [SwapDelta(0.0, 0.0), SwapDelta(1.0, -100.0), SwapDelta(1.0, -100.0 - 1e-12),
              SwapDelta(1.0, -100.0 - 1e-9), SwapDelta(-100.0 - 1e-13, 1.0),
              SwapDelta(-1e-300, 5e-324), SwapDelta(-2e-300, 1.0), SwapDelta(-5e-324, 1.0),
              SwapDelta(-1e308, 1e308), SwapDelta(1e308, -1.0)]
    for state, delta in itertools.product(states, deltas):
        assert outcome(apply_delta, state, delta) == outcome(old_apply_delta, state, delta), (
            state, delta)


# ---------------------------------------------------------------------------
# The value-type contract
# ---------------------------------------------------------------------------

VALUES = [
    (PoolState, (1.5, 2.5), "PoolState(x=1.5, y=2.5)", {"x": 0.5}),
    (SwapDelta, (1.0, -2.0), "SwapDelta(dx=1.0, dy=-2.0)", {"dy": -0.25}),
    (IntegralSpec, (0.0, 1.0, 1e-9, 30),
     "IntegralSpec(lower=0.0, upper=1.0, abs_tol=1e-09, max_depth=30)", {"upper": 3.0}),
]
VALUE_IDS = [cls.__name__ for cls, *_ in VALUES]


@pytest.mark.parametrize("cls, args, text, change", VALUES, ids=VALUE_IDS)
class TestValueContract:
    def test_equality_hash_and_repr(self, cls, args, text, change):
        value = cls(*args)
        assert value == cls(*args)
        assert hash(value) == hash(cls(*args))
        assert value != replace(value, **change)
        assert repr(value) == text

    def test_frozen(self, cls, args, text, change):
        value = cls(*args)
        name = next(iter(change))
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, change[name])
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
        assert value == cls(*args)
        assert not hasattr(value, "__dict__")  # slots: no instance dict to write around

    def test_fields_replace_and_asdict(self, cls, args, text, change):
        value = cls(*args)
        names = [f.name for f in fields(value)]
        assert asdict(value) == dict(zip(names, args))
        changed = replace(value, **change)
        assert type(changed) is cls
        assert asdict(changed) == {**asdict(value), **change}

    def test_replace_runs_the_checks(self, cls, args, text, change):
        with pytest.raises(DomainError):
            replace(cls(*args), **{next(iter(change)): math.nan})

    def test_pickle_and_copy(self, cls, args, text, change):
        value = cls(*args)
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert clone == value
            assert type(clone) is cls


def test_integral_spec_defaults():
    spec = IntegralSpec(0.0, 1.0)
    assert (spec.abs_tol, spec.max_depth) == (DEFAULT_ABS_TOL, DEFAULT_MAX_DEPTH)
    assert [f.default for f in fields(spec)][2:] == [DEFAULT_ABS_TOL, DEFAULT_MAX_DEPTH]
