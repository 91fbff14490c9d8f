"""The value types, the swap guards and curve construction, stated as rules.

Each value type, guard and form hook but the natural one accepts on one range
comparison and runs its named checks only to name a failure.  Over a grid of
edge inputs, each must do what a stated rule says: a rule table's first
failing row (``ruled``), the hook's own named-check path (a ``Named`` float
fails its type guard), an exact value on the curve's stored constants, or
``_check_bounds`` and the ``_dy``/``_dx`` formulas.  A sample is checked
against a bound, not its bits; ``tests/test_curve_bits.py`` pins the bits of
the curve constants, the swaps and the samples over the verify battery.  The
value-type contract is one table, ``CONTRACT``, one row per value type, read by
one test per property.  Each value type's ``__new__`` is its one construction
body, and every library path that builds a value must give what the public
constructor gives.
"""

import copy
import inspect
import itertools
import math
import pickle
import random
import sys
from dataclasses import FrozenInstanceError, asdict, astuple, fields, is_dataclass, replace
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter
from types import SimpleNamespace

import pytest

from clamm import (
    BancorCurve,
    BancorV2Params,
    CarbonCurve,
    CarbonParams,
    ComparisonReport,
    CurveGeometry,
    DomainError,
    NaturalCurve,
    NaturalParams,
    PoolState,
    ReferenceCurve,
    ReferenceParams,
    SwapDelta,
    UniswapCurve,
    UniswapV3Params,
    adaptive_gauss_kronrod,
    apply_delta,
    curve_for,
)
from clamm.hypertrig import RotatedPoint, TrigValues, UnitPoint
from clamm.params import (
    _MAX,
    ANCHOR_KINDS,
    BOUNDS_SLACK,
    MIN_NORMAL,
    ShiftedProductCurve,
    VirtualBounds,
    _check_derived,
    _check_exceeds_one,
    _check_finite_positive,
    _check_scale,
    _curve,
    curve_class,
    spec_from_dict,
    validate,
)
from clamm.quadrature import _BATTERY_FORMS, DEFAULT_ABS_TOL, battery_cases, oracle_compare, random_bancor_params
from clamm.rosetta import TranslationReport, translate

from . import exact
from .conftest import (
    RESOLVED_TINY_CARBON,
    SQRT_OVERFLOW,
    UNRESOLVED_TINY_CARBON,
    WORKED_BANCOR,
    WORKED_CARBON,
    WORKED_NATURAL,
    WORKED_UNISWAP,
)
from .test_exact import ULP_BOUNDS

GRID = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308, math.inf, -math.inf,
        math.nan, 0, 1, -1, 7, 10**400, -10**400, True, False, Fraction(1, 3),
        Fraction(-7, 2), "1.0"]


# ---------------------------------------------------------------------------
# The rules, and the grids against them
# ---------------------------------------------------------------------------


def ruled(rules, accept=lambda *args: args):
    """A stand-in that raises the DomainError of the first of ``rules``, rows
    of (field, predicate, reason) in check order, that its arguments fail,
    and else returns ``accept(*args)``.  A reason may be a function of the
    arguments; a predicate raises on a non-number as the library does."""
    def make(*args):
        for field, holds, reason in rules:
            if not holds(*args):
                raise DomainError(field, reason(*args) if callable(reason) else reason)
        return accept(*args)
    return make


def finite(v):
    """Within the binary64 range: NaN, the infinities and an int past it are not."""
    return -_MAX <= v <= _MAX


def number(name, get=None):
    """A parameter field's first rules, a JSON field's, a balance's and a
    trade's too: a non-bool int or a float, subclasses included, then finite.
    ``get`` reads the value off a rule's arguments; by default it is the
    attribute ``name`` of a parameter set."""
    get = get or attrgetter(name)
    return [(name, lambda *args: isinstance(get(*args), (int, float)) and not isinstance(get(*args), bool),
             lambda *args: f"must be a number, not {type(get(*args)).__name__}"),
            (name, lambda *args: finite(get(*args)), "must be finite")]


def positive(name):
    return [*number(name), (name, lambda p: getattr(p, name) > 0, "must be positive")]


def above_one(name):
    return [*number(name), (name, lambda p: getattr(p, name) > 1, "must exceed 1")]


POOL_STATE_RULES = [
    *number("x", lambda x, y: x),
    *number("y", lambda x, y: y),
    ("x", lambda x, y: x >= 0, "must be nonnegative"),
    ("y", lambda x, y: y >= 0, "must be nonnegative"),
]

SWAP_DELTA_RULES = [
    *number("dx", lambda dx, dy: dx),
    *number("dy", lambda dx, dy: dy),
    ("dx", lambda dx, dy: (dx == 0) == (dy == 0), "dx and dy must both be zero or both nonzero"),
    ("dx", lambda dx, dy: dx == 0 or (dx > 0) != (dy > 0), "dx and dy must have opposite signs"),
]

INTEGRAL_RULES = [
    ("lower", lambda lower, upper, tol: finite(lower) and finite(upper), "bounds must be finite"),
    ("lower", lambda lower, upper, tol: lower < upper, "must be below upper"),
    ("abs_tol", lambda lower, upper, tol: tol > 0, "must be positive"),
]

SCALE_RULES = [
    ("s", lambda v: finite(v), "expr must be finite"),
    ("s", lambda v: v >= MIN_NORMAL, lambda v: f"expr must be a positive normal float, not {v!r}"),
]

# Each form's field rules.  The natural form names an anchor's sign failure
# by the anchor kind's JSON fields.
FORM_RULES = {
    ReferenceCurve: [*positive("x0"), *positive("y0")],
    BancorCurve: [*positive("x0"), *positive("y0"), *above_one("A")],
    UniswapCurve: [*positive("L"), *positive("p_high"), *positive("p_low"),
                   ("p_low", lambda p: p.p_low < p.p_high, "must be < p_high")],
    CarbonCurve: [*positive("a"), *positive("b"), *positive("z")],
    NaturalCurve: [
        *above_one("c"),
        ("anchor", lambda p: p.anchor in ANCHOR_KINDS, f"must be one of {ANCHOR_KINDS}"),
        *number("anchor_x"),
        *number("anchor_y"),
        ("x0", lambda p: p.anchor != "center" or p.anchor_x > 0, "must be positive"),
        ("y0", lambda p: p.anchor != "center" or p.anchor_y > 0, "must be positive"),
        ("x_int", lambda p: p.anchor != "intercepts" or p.anchor_x > 0, "must be positive"),
        ("y_int", lambda p: p.anchor != "intercepts" or p.anchor_y > 0, "must be positive"),
        ("x_asym", lambda p: p.anchor != "asymptotes" or p.anchor_x < 0, "must be negative"),
        ("y_asym", lambda p: p.anchor != "asymptotes" or p.anchor_y < 0, "must be negative"),
    ],
}


def derived_rules(bounded):
    """The rules on the constants a hook derives, over a dict of the shifts
    and the geometry's fields.  A bounded curve's shifts are at least
    2**-511, so that a shift's square is a normal float."""
    names = ["shift_x", "shift_y", "x_int", "y_int", "p_high", "p_low", "p0"] if bounded else ["p0"]
    rows = [(name, lambda v: 0.0 < v < math.inf, "must be finite and positive") for name in names]
    if bounded:
        rows.append(("c", lambda v: 1.0 < v < math.inf, "must be finite and above 1"))
        rows += [(name, lambda v: v >= 2.0 ** -511, "must be at least 2**-511") for name in ("shift_x", "shift_y")]
    return [("spec", lambda v, n=name, holds=holds: holds(v[n]),
             lambda v, n=name, r=reason: f"derived {n} {r}, not {v[n]!r}") for name, holds, reason in rows]


def stated_swap(curve, state, amount, axis):
    """A swap on ``axis`` with the curve's own bounds check and formula: a
    finite number, not a bool; the zero delta for a zero trade; else the new
    balance passes ``_check_bounds`` and the coupled amount, ``_dy`` or
    ``_dx``, is nonzero, since no delta represents a trade below the curve's
    resolution."""
    ruled(number("dx" if axis == "x" else "dy", lambda amount: amount))(amount)
    if amount == 0:
        return SwapDelta(0.0, 0.0)
    if axis == "x":
        curve._check_bounds("x", state.x + amount, curve.geom.x_int)
        coupled = curve._dy(state, amount, state.x + amount)
    else:
        curve._check_bounds("y", state.y + amount, curve.geom.y_int)
        coupled = curve._dx(state, amount, state.y + amount)
    if coupled == 0:
        raise DomainError("dx", "trade too small to resolve at this scale")
    return SwapDelta(amount, coupled) if axis == "x" else SwapDelta(coupled, amount)


def outcome(make, *args, exact=False):
    """What a constructor or guard does with args: the stored values, with their
    types and signs, or the error: a DomainError by field and reason, a TypeError
    (a non-number) by type only, any other error by type and message.  An
    ``exact`` outcome tells a TypeError by its message too, and records the
    class of a returned value."""
    try:
        value = make(*args)
    except DomainError as exc:
        return ("DomainError", exc.field, exc.reason)
    except TypeError as exc:
        return ("TypeError", str(exc)) if exact else ("TypeError",)
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    stored = value if isinstance(value, tuple) else tuple(getattr(value, f.name) for f in fields(value))
    stored = tuple((type(v), repr(v)) for v in stored)
    return (type(value), stored) if exact else stored


def test_pool_state_matches_the_old_checks():
    # more non-numbers, which stop the checks at the first field that fails
    for x, y in itertools.product(GRID + [1j, None, [1.0]], repeat=2):
        assert outcome(PoolState, x, y) == outcome(ruled(POOL_STATE_RULES), x, y), (x, y)


def test_swap_delta_matches_the_old_checks():
    for dx, dy in itertools.product(GRID, repeat=2):
        assert outcome(SwapDelta, dx, dy) == outcome(ruled(SWAP_DELTA_RULES), dx, dy), (dx, dy)


def test_integral_spec_matches_the_old_checks():
    def kernel(*args):
        return (adaptive_gauss_kronrod(lambda x: 0.0, *args),)

    stated = ruled(INTEGRAL_RULES, lambda *args: (0.0,))
    for args in itertools.product(GRID, repeat=3):
        assert outcome(kernel, *args) == outcome(stated, *args), args
    assert outcome(kernel, 0.0, 1.0) == ((float, "0.0"),)


SWAP_CURVES = [ReferenceParams(100.0, 100.0), WORKED_BANCOR, WORKED_UNISWAP, WORKED_CARBON, WORKED_NATURAL]


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
            room = intercept - held
            amounts += [room, room + intercept * 1e-13, room + intercept * 2e-12]
    return amounts


@pytest.mark.parametrize("params", SWAP_CURVES, ids=[p.form for p in SWAP_CURVES])
def test_swap_guards_match_the_old_checks(params):
    curve = curve_for(params)
    checked = 0
    for state in swap_states(curve):
        for swap, axis, intercept in ((curve.swap_exact_in_x, "x", curve.geom.x_int),
                                      (curve.swap_exact_out_y, "y", curve.geom.y_int)):
            for amount in swap_amounts(state, intercept):
                assert outcome(swap, state, amount) == outcome(stated_swap, curve, state, amount, axis), (
                    state, amount, swap.__name__)
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("params", SWAP_CURVES, ids=[p.form for p in SWAP_CURVES])
def test_a_bool_is_not_a_trade_amount(params):
    # True == 1 passed the range test, and the swap returned SwapDelta(dx=True, ...)
    curve = curve_for(params)
    state = PoolState(100.0, 100.0)
    for swap, field in ((curve.swap_exact_in_x, "dx"), (curve.swap_exact_out_y, "dy")):
        with pytest.raises(DomainError) as info:
            swap(state, True)
        assert (info.value.field, info.value.reason) == (field, "must be a number, not bool")
    # an int that is not a bool stays a number
    assert curve.swap_exact_in_x(PoolState(100, 100), 1) == curve.swap_exact_in_x(state, 1.0)


# the swap curves, unshifted curves whose samples overflow, and one below unit scale
SAMPLE_CURVES = SWAP_CURVES + [ReferenceParams(1.0, 1.0), ReferenceParams(1e300, 1e5),
                               BancorV2Params(1e-13, 1e-13, 2.0)]


def sample_values(intercept):
    """The grid, subnormals, interior balances, and balances around the intercept's slack."""
    values = GRID + [2.5e-320, 1e-310, MIN_NORMAL, 1e-10, 37.0, 1e300]
    if math.isfinite(intercept):
        top = intercept * (1.0 + BOUNDS_SLACK)
        values += [intercept, intercept * 0.5, intercept * (1.0 - BOUNDS_SLACK), top,
                   math.nextafter(top, 0.0), math.nextafter(top, math.inf),
                   math.nextafter(intercept, 0.0), math.nextafter(intercept, math.inf)]
    return values


def exact_sample(curve, axis, value):
    """The exact other balance, on the curve's stored constants, of a finite
    balance that passes the curve's bounds check, with the shift it is read
    from; one whose exact value overflows raises the error ``PoolState``
    raises for it."""
    shift_x, shift_y, _ = constants = exact.of_curve(curve)
    sample, other_shift = (exact.y_from_x, shift_y) if axis == "x" else (exact.x_from_y, shift_x)
    curve._check_bounds(axis, value, curve.geom.x_int if axis == "x" else curve.geom.y_int)
    if not value <= _MAX:
        raise DomainError(axis, "must be finite")
    other = sample(constants, value)
    if other > _MAX:
        raise DomainError("y" if axis == "x" else "x", "must be finite")
    return other, other_shift


@pytest.mark.parametrize("params", SAMPLE_CURVES, ids=[p.form for p in SAMPLE_CURVES])
def test_sampling_matches_the_old_checks(params):
    """A balance is checked as ``exact_sample`` states; it then samples to
    within 4*2**-53 of the exact value, relative to the shifted balance
    (measured worst 1.1), never below +0.0, and to +0.0 where the exact value
    is not positive: past the intercept, within its slack."""
    curve = curve_for(params)
    overflowed = 0
    for sample, axis, intercept in ((curve.y_from_x, "x", curve.geom.x_int),
                                    (curve.x_from_y, "y", curve.geom.y_int)):
        for value in sample_values(intercept):
            got = outcome(lambda v: (sample(v),), value)
            stated = outcome(lambda v: (exact_sample(curve, axis, v),), value)
            if not isinstance(stated[0], tuple):  # an error
                assert got == stated, (value, sample.__name__)
                overflowed += stated[1:] == ("y" if axis == "x" else "x", "must be finite")
                continue
            want, shift = exact_sample(curve, axis, value)
            shifted = abs(want) + shift
            sampled = sample(value)
            assert exact.rel(sampled, max(want, 0), shifted) <= 4 * 2.0 ** -53 + 2.0 ** -1074 / shifted, (
                value, sample.__name__)
            assert sampled == 0.0 if want <= 0 else sampled >= 0.0, (value, sample.__name__)
            assert math.copysign(1.0, sampled) == 1.0, (value, sample.__name__)  # not -0.0
    # only the unshifted curves overflow, at the grid's subnormals
    assert (overflowed > 0) == (not curve.bounded), overflowed


# the sample curves, and an unshifted one whose scale/price underflows at a
# high price and scale*price at a low one
PRICE_CURVES = SAMPLE_CURVES + [ReferenceParams(1e-150, 1e-150)]


def price_values(geom):
    """The grid, a price far past binary64, extreme prices, and each bound
    and the center price with their float neighbours."""
    values = GRID + [10**400, 1e300, 1e-300]
    for price in (geom.p_high, geom.p_low, geom.p0):
        values += [price, math.nextafter(price, 0.0), math.nextafter(price, math.inf)]
    return values


def snapped(value, reference):
    """A balance below zero by at most BOUNDS_SLACK of the balance or shift it
    came from reads as 0.0."""
    return 0.0 if -abs(reference) * BOUNDS_SLACK <= value < 0.0 else value


def root(quotient, fallback):
    """The square root of a quotient or product that is a normal float, or
    else ``fallback``, the same root formed from two roots."""
    return math.sqrt(quotient) if MIN_NORMAL <= quotient <= _MAX else fallback


def stated_state_at_price(curve, price):
    """A positive finite price; x and y from the curve's stored constants,
    the roots of scale/price and scale*price taken without leaving the float
    range, snapped; then x, not y, passes ``_check_bounds``."""
    if not (price > 0 and finite(price)):
        raise DomainError("price", "must be a positive finite magnitude")
    scale = curve.scale
    x = root(scale / price, math.sqrt(scale) / math.sqrt(price)) - curve.shift_x
    y = root(scale * price, math.sqrt(scale) * math.sqrt(price)) - curve.shift_y
    x, y = snapped(x, curve.shift_x), snapped(y, curve.shift_y)
    curve._check_bounds("x", x, curve.geom.x_int)
    return PoolState(x, y)


@pytest.mark.parametrize("params", PRICE_CURVES + list(SQRT_OVERFLOW.values()),
                         ids=[p.form for p in PRICE_CURVES] + list(SQRT_OVERFLOW))
def test_state_at_price_matches_its_rule(params):
    """On ``ReferenceParams(1e-150, 1e-150)`` the rule gives the on-curve
    ``PoolState(1e-300, 1.0)`` at price 1e300 and ``PoolState(1.0, 1e-300)``
    at 1e-300, where scale/price and scale*price underflow; on the curves of
    ``SQRT_OVERFLOW`` they overflow instead.  y is still not range-checked
    (ROADMAP item 3)."""
    curve = curve_for(params)
    for price in price_values(curve.geom):
        assert outcome(curve.state_at_price, price) == outcome(stated_state_at_price, curve, price), price


def test_apply_delta_matches_the_old_snap():
    states = [PoolState(100.0, 100.0), PoolState(0.0, 0.0), PoolState(1e-300, 5.0)]
    deltas = [SwapDelta(0.0, 0.0), SwapDelta(1.0, -100.0), SwapDelta(1.0, -100.0 - 1e-12),
              SwapDelta(1.0, -100.0 - 1e-9), SwapDelta(-100.0 - 1e-13, 1.0),
              SwapDelta(-1e-300, 5e-324), SwapDelta(-2e-300, 1.0), SwapDelta(-5e-324, 1.0),
              SwapDelta(-1e308, 1e308), SwapDelta(1e308, -1.0)]

    def stated(state, delta):
        return PoolState(snapped(state.x + delta.dx, state.x), snapped(state.y + delta.dy, state.y))

    snaps = rejects = 0
    for state, delta in itertools.product(states, deltas):
        got = outcome(apply_delta, state, delta)
        assert got == outcome(stated, state, delta), (state, delta)
        lowest = min(state.x + delta.dx, state.y + delta.dy)
        snaps += lowest < 0 and got[0] != "DomainError"
        rejects += -1e-12 <= lowest < 0 and got[0] == "DomainError"
    # both sides of the slack, which is relative to the balance at every scale
    assert snaps and rejects, (snaps, rejects)


def test_field_checks_match_the_old_checks():
    for value in GRID + [MIN_NORMAL, math.nextafter(MIN_NORMAL, 0.0), 1.7976931348623157e308]:
        for check, rules in ((_check_finite_positive, positive("v")), (_check_exceeds_one, above_one("v"))):
            stated = ruled(rules, lambda field: (field.v,))
            assert outcome(lambda: (check(value, "v"),)) == outcome(stated, SimpleNamespace(v=value)), value
        assert outcome(lambda: (_check_scale(value, "s", "expr"),)) == outcome(ruled(SCALE_RULES), value), value


class Named(float):
    """A float that fails each form hook's ``type(v) is float`` guard."""


# (curve class, makers of its parameter sets from `arity` grid values, arity)
HOOKS = [
    (ReferenceCurve, [ReferenceParams], 2),
    (BancorCurve, [BancorV2Params], 3),
    (UniswapCurve, [UniswapV3Params], 3),
    (CarbonCurve, [CarbonParams], 3),
    # from (c, anchor_x, anchor_y), for the three anchor kinds and one that is not
    (NaturalCurve, [lambda c, ax, ay, kind=kind: NaturalParams(c, kind, ax, ay)
                    for kind in ANCHOR_KINDS + ("corner",)], 3),
]


@pytest.mark.parametrize("cls, makers, arity", HOOKS, ids=[cls.__name__ for cls, *_ in HOOKS])
def test_form_hooks_match_the_old_checks(cls, makers, arity):
    """A parameter set that fails a field rule raises that rule's error; any
    other builds what the hook's named-check path builds, bit for bit, or
    raises the error a derived constant gives there."""
    # the grid, values that make valid curves of every form (-100.0 a valid
    # asymptote anchor), and Decimals, which are not numbers to a field
    values = GRID + [0.25, 4.0, 100.0, -100.0, 2.0, Decimal("NaN"), Decimal("sNaN"), Decimal("2")]
    field_reasons = {reason for _, _, reason in FORM_RULES[cls] if isinstance(reason, str)}
    built = []
    for make in makers:
        count = 0
        for args in itertools.product(values, repeat=arity):
            params = make(*args)
            got = outcome(cls, params)
            stated = outcome(ruled(FORM_RULES[cls], lambda params: ()), params)
            if stated:  # a field rule fails
                assert got == stated, params
                continue
            named = replace(params, **{f.name: Named(v) for f in fields(params)
                                       if type(v := getattr(params, f.name)) is float})
            # a Named field's repr, which the outcome records, is its float's
            assert got == outcome(cls, named), params
            # the rules are the whole of the field checks
            assert got[0] != "DomainError" or got[2] not in field_reasons, (params, got)
            count += isinstance(got[0], tuple)  # stored values, not an error
        built.append(count)
    # every form, and every anchor kind, builds curves from the grid
    assert all(built[:len(ANCHOR_KINDS)]), built


NATURAL_BASE = curve_for(NaturalParams(4.0, "asymptotes", -100.0, -100.0))
GEOMETRY_NAMES = [f.name for f in fields(CurveGeometry) if f.init]


def moved(changed):
    """The base curve's shifts and geometry fields, some changed, and their geometry."""
    values = {"shift_x": NATURAL_BASE.shift_x, "shift_y": NATURAL_BASE.shift_y,
              **{name: getattr(NATURAL_BASE.geom, name) for name in GEOMETRY_NAMES}, **changed}
    return values, CurveGeometry(*(values[name] for name in GEOMETRY_NAMES))


def changes(names, values, seed):
    """Each name moved to each value, then 3000 random pairs of moves."""
    rng = random.Random(seed)
    single = [{name: value} for name in names for value in values]
    return single + [dict(zip(rng.sample(names, 2), rng.sample(values, 2))) for _ in range(3000)]


def test_derived_check_matches_the_old_checks():
    """Each derived constant of a valid curve, and each shift, moved over the grid
    and the edges of the shift rule, one at a time and in random pairs."""
    values = [v for v in GRID if not isinstance(v, str)] + [
        2.0 ** -511, math.nextafter(2.0 ** -511, 0.0), 1e-160, 1e-300, 0.5, 1.0,
        math.nextafter(1.0, 2.0)]

    def checked(bounded, changed):
        derived, geom = moved(changed)
        return (_check_derived(derived["shift_x"], derived["shift_y"], geom, bounded),)

    def stated(bounded, changed):
        return ruled(derived_rules(bounded), lambda derived: (None,))(moved(changed)[0])

    for changed in changes(["shift_x", "shift_y"] + GEOMETRY_NAMES, values, 10):
        for bounded in (True, False):
            assert outcome(checked, bounded, changed) == outcome(stated, bounded, changed), (changed, bounded)


def test_curve_build_accepts_derived_constants_as_the_checks_do(monkeypatch):
    """``_curve`` runs the derived checks only when its own comparison fails:
    each derived constant a form hook could return, asymptotes included, moved
    over the same values, must build a curve exactly where the rules pass,
    with the negated asymptotes as its shifts, +0.0 on the unshifted curve."""
    values = [v for v in GRID if not isinstance(v, str)] + [
        -(2.0 ** -511), -math.nextafter(2.0 ** -511, 0.0), 2.0 ** -511, 1e-160, 1e-300, 0.5, 1.0,
        math.nextafter(1.0, 2.0), -100.0]

    def built(cls, changed):
        constants = (NATURAL_BASE.scale, moved(changed)[1])
        monkeypatch.setattr(cls, "_constants", staticmethod(lambda params: constants))
        curve = _curve(cls, NATURAL_BASE.params)
        return curve.shift_x, curve.shift_y

    def stated(cls, changed):
        derived, geom = moved(changed)
        derived.update(shift_x=0.0 - geom.x_asym, shift_y=0.0 - geom.y_asym)
        return ruled(derived_rules(cls.bounded), lambda v: (v["shift_x"], v["shift_y"]))(derived)

    for changed in changes(GEOMETRY_NAMES, values, 11):
        for cls in (NaturalCurve, ReferenceCurve):
            assert outcome(built, cls, changed) == outcome(stated, cls, changed), (changed, cls)


# ---------------------------------------------------------------------------
# The value-type contract
# ---------------------------------------------------------------------------


# What dataclasses.replace raises for a change of an init=False field
DERIVED_FIELD_ERROR = ValueError if sys.version_info < (3, 13) else TypeError


def assert_frozen(value, names):
    """Neither a store nor a delete gets past a frozen, slotted value."""
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, 1.0)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")  # slots: no instance dict to write around


def assert_clones(value):
    """A pickle round trip on every protocol and both copies give the value, of
    its type and repr; each rebuilds it through the constructor."""
    pickled = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in (*pickled, copy.copy(value), copy.deepcopy(value)):
        assert clone == value
        assert type(clone) is type(value)
        assert repr(clone) == repr(value)


# (a parameter set, another valid set of its form)
CURVE_PARAMS = [
    (ReferenceParams(100.0, 100.0), ReferenceParams(100.0, 400.0)),
    (WORKED_BANCOR, BancorV2Params(100.0, 100.0, 3.0)),
    (WORKED_UNISWAP, UniswapV3Params(200.0, 9.0, 0.25)),
    (WORKED_CARBON, CarbonParams(1.5, 0.5, 600.0)),
    (WORKED_NATURAL, NaturalParams(4.0, "center", 100.0, 100.0)),
]

# (class, init args, a change of its init fields, its repr or None): every
# public value type, each built from its args.  PoolState, SwapDelta and the
# curves check what they are given, the others store it.  A repr of None is
# the fields' repr, which the nine literal reprs pin.
CONTRACT = [
    (PoolState, (1.5, 2.5), {"x": 0.5}, "PoolState(x=1.5, y=2.5)"),
    (SwapDelta, (1.0, -2.0), {"dy": -0.25}, "SwapDelta(dx=1.0, dy=-2.0)"),
    (VirtualBounds, (100.0, 400.0, 100.0, 400.0), {"max_yv": 800.0},
     "VirtualBounds(min_xv=100.0, max_xv=400.0, min_yv=100.0, max_yv=400.0)"),
    (RotatedPoint, (1.5, -0.5), {"u": 0.5}, "RotatedPoint(t=1.5, u=-0.5)"),
    (UnitPoint, (1.25, 0.75), {"u_hat": -0.75}, "UnitPoint(t_hat=1.25, u_hat=0.75)"),
    (TrigValues, (1.875, 2.125, 0.8823529411764706, 4.0), {"tanh": 0.5},
     "TrigValues(sinh=1.875, cosh=2.125, tanh=0.8823529411764706, e_phi=4.0)"),
    (TranslationReport, ("bancor_v2", "carbon", 2.220446049250313e-16), {"max_rel_deviation": 0.0},
     "TranslationReport(source_form='bancor_v2', target_form='carbon', max_rel_deviation=2.220446049250313e-16)"),
    # phi is derived from c, and follows it
    (CurveGeometry, (300.0, 300.0, -100.0, -100.0, 4.0, 0.25, 1.0, 4.0), {"c": 16.0},
     "CurveGeometry(x_int=300.0, y_int=300.0, x_asym=-100.0, y_asym=-100.0, "
     "p_high=4.0, p_low=0.25, p0=1.0, c=4.0, phi=1.3862943611198906)"),
    (ComparisonReport, (-2.0, -2.0000000000000004, 4.440892098500626e-16, 2.220446049250313e-16, True),
     {"passed": False},
     "ComparisonReport(closed_form_dy=-2.0, quadrature_dy=-2.0000000000000004, "
     "abs_deviation=4.440892098500626e-16, rel_deviation=2.220446049250313e-16, passed=True)"),
    *((type(params), astuple(params), asdict(other), None) for params, other in CURVE_PARAMS),
    # a curve derives every field but its parameter set
    *((curve_class(params), (params,), {"params": other}, None) for params, other in CURVE_PARAMS),
]

contract = pytest.mark.parametrize("cls, args, change, text", CONTRACT, ids=[row[0].__name__ for row in CONTRACT])


def init_names(cls):
    return [f.name for f in fields(cls) if f.init]


@contract
class TestValueContract:
    """Each value type is a frozen, slotted value with the dataclass API,
    built through its constructor alone."""

    def test_equality_hash_and_repr(self, cls, args, change, text):
        value = cls(*args)
        assert value == cls(*args)
        assert hash(value) == hash(cls(*args))
        assert value != replace(value, **change)
        shown = ", ".join(f"{f.name}={getattr(value, f.name)!r}" for f in fields(value))
        assert repr(value) == (text or f"{cls.__name__}({shown})")

    def test_frozen(self, cls, args, change, text):
        value = cls(*args)
        names = [f.name for f in fields(value)]
        assert_frozen(value, names)
        # the slots, a curve form's inherited, are the fields: a form tag stays a class attribute
        assert [name for c in cls.__mro__ for name in c.__dict__.get("__slots__", ())] == names
        assert value == cls(*args)

    def test_fields_replace_and_asdict(self, cls, args, change, text):
        value = cls(*args)
        assert fields(value) == fields(cls)
        values = {f.name: getattr(value, f.name) for f in fields(value)}
        assert [values[name] for name in init_names(cls)] == list(args)
        assert asdict(value) == {name: asdict(v) if is_dataclass(v) else v for name, v in values.items()}
        assert astuple(value) == tuple(astuple(v) if is_dataclass(v) else v for v in values.values())
        # replace builds anew from the init fields, the changed and the kept
        changed = replace(value, **change)
        assert type(changed) is cls
        assert changed == cls(**{**dict(zip(init_names(cls), args)), **change})

    def test_replace_runs_the_checks(self, cls, args, change, text):
        # replace runs the constructor: a NaN fails the checks of PoolState,
        # SwapDelta and the curves, and the other types store it; a derived
        # field is not an argument
        value = cls(*args)
        kept = dict(zip(init_names(cls), args))
        name = next(iter(change))
        assert outcome(lambda: replace(value, **{name: math.nan})) == outcome(lambda: cls(**{**kept, name: math.nan}))
        for f in fields(cls):
            if not f.init:
                with pytest.raises(DERIVED_FIELD_ERROR):
                    replace(value, **{f.name: getattr(value, f.name)})

    def test_pickle_and_copy(self, cls, args, change, text):
        assert_clones(cls(*args))


@contract
def test_copy_replace_is_dataclasses_replace(cls, args, change, text):
    # copy.replace, from Python 3.13 on, calls __replace__, which every value
    # type defines on every version
    value = cls(*args)
    changed = replace(value, **change)
    assert value.__replace__(**change) == changed
    assert type(value.__replace__(**change)) is cls
    if sys.version_info >= (3, 13):
        assert copy.replace(value, **change) == changed
        assert copy.replace(value) == value


@contract
def test_constructor_contract(cls, args, change, text):
    # __new__ is the constructor: its parameters are the match args and the
    # init fields, taken by position or by keyword alike
    names = tuple(inspect.signature(cls).parameters)
    assert names == cls.__match_args__ == tuple(init_names(cls))
    value = cls(*args)
    built = cls(**dict(zip(names, args)))
    assert type(built) is cls
    assert built == value
    assert repr(built) == repr(value)


@contract
def test_a_filled_twin_becomes_its_class(cls, args, change, text):
    # the __class__ store needs the two slot layouts to match, which CPython
    # checks on every version the package supports; a curve form adds no
    # slots, so the core's twin fits it
    names = [f.name for f in fields(cls)]
    values = [float(i) for i in range(len(names))]
    twin = cls._twin()
    for name, value in zip(names, values):
        setattr(twin, name, value)
    twin.__class__ = cls
    assert type(twin) is cls
    assert [getattr(twin, name) for name in names] == values
    with pytest.raises(FrozenInstanceError):
        setattr(twin, names[0], -1.0)


@pytest.mark.parametrize("params, other", CURVE_PARAMS, ids=[p.form for p, _ in CURVE_PARAMS])
class TestCurveContract:
    def test_builds_only_its_own_form(self, params, other):
        # another form's valid set has the fields of its own form, not these
        curve = curve_for(params)
        builds = [lambda: ShiftedProductCurve(params)]
        for foreign, _ in CURVE_PARAMS:
            if type(foreign) is not type(params):
                builds += [lambda f=foreign: type(curve)(f), lambda f=foreign: replace(curve, params=f)]
        for build in builds:
            with pytest.raises(DomainError) as err:
                build()
            assert err.value.field == "spec"


def test_integral_spec_defaults():
    # the kernel's arguments and default tolerance; the depth is fixed
    params = inspect.signature(adaptive_gauss_kronrod).parameters
    assert list(params) == ["f", "lower", "upper", "abs_tol"]
    assert params["abs_tol"].default == DEFAULT_ABS_TOL
    f = lambda x: 1.0 / (x * x)  # noqa: E731
    assert adaptive_gauss_kronrod(f, 1.0, 50.0) == adaptive_gauss_kronrod(f, 1.0, 50.0, DEFAULT_ABS_TOL)
    assert adaptive_gauss_kronrod(f, 1.0, 50.0) != adaptive_gauss_kronrod(f, 1.0, 50.0, 1e-3)


# ---------------------------------------------------------------------------
# The library's paths that build values, on the one construction body
# ---------------------------------------------------------------------------


WORKED_OF_FORM = {"reference": ReferenceParams(100.0, 100.0), "bancor_v2": WORKED_BANCOR,
                  "uniswap_v3": WORKED_UNISWAP, "carbon": WORKED_CARBON}

# (value built by a library path: a call of a type's __new__ that skips
# type.__call__, one of the three inline twin fills, or a keyword or positional
# constructor call; a field change)
BUILT = [
    (curve_for(WORKED_UNISWAP).state_at_price(1.0), {"x": 0.5}),
    (curve_for(WORKED_NATURAL).state_from_x(0.0), {"y": 0.5}),
    (curve_for(WORKED_BANCOR).state_from_x(37.0), {"x": 0.5}),
    (apply_delta(PoolState(100.0, 100.0), SwapDelta(100.0, -50.0)), {"x": 0.5}),
    (curve_for(WORKED_UNISWAP).swap_exact_in_x(PoolState(100.0, 100.0), 10.0), {"dy": -0.25}),
    (curve_for(WORKED_CARBON).swap_exact_out_y(PoolState(100.0, 100.0), -10.0), {"dy": -0.25}),
    (curve_for(WORKED_CARBON).geom, {"c": 16.0}),
    (curve_for(WORKED_NATURAL).geom, {"c": 16.0}),
    (curve_for(ReferenceParams(2.0, 3.0)).geom, {"p0": 2.0}),
    (oracle_compare(curve_for(WORKED_UNISWAP), PoolState(100.0, 100.0), 10.0), {"passed": False}),
    (spec_from_dict({"form": "reference", "x0": 2.0, "y0": 3.0}), {"y0": 4.0}),
    (random_bancor_params(random.Random(1)), {"A": 2.0}),
    (translate(curve_for(WORKED_BANCOR), "uniswap_v3"), {"L": 1.0}),
    (translate(curve_for(WORKED_BANCOR), "carbon"), {"z": 1.0}),
    (translate(curve_for(WORKED_BANCOR), "natural"), {"c": 9.0}),
    (next(battery_cases(1, 1))[0].params, {"x0": 1.0}),
    (_curve(type(curve_for(WORKED_CARBON)), WORKED_CARBON), {"params": CarbonParams(1.5, 0.5, 600.0)}),
    (curve_for(WORKED_NATURAL), {"params": NaturalParams(4.0, "center", 100.0, 100.0)}),
    # one battery group: the unshifted curve, the Bancor curve and its two translations
    *((curve, {"params": WORKED_OF_FORM[curve.params.form]}) for curve, _, _ in battery_cases(1, 4)),
]

# _curve, the body of a curve's constructor past its form check, on both sets of each form
CURVE_BUILT = {f"_curve_{params.form}_{i}": (_curve(curve_class(params), params), {"params": moved})
               for pair in CURVE_PARAMS for i, (params, moved) in enumerate((pair, pair[::-1]))}


@pytest.mark.parametrize("built, change", BUILT + list(CURVE_BUILT.values()),
                         ids=[type(v).__name__ for v, _ in BUILT] + list(CURVE_BUILT))
def test_builders_keep_the_value_contract(built, change):
    # what the public constructor makes from the built value's init fields
    public = type(built)(*(getattr(built, f.name) for f in fields(built) if f.init))
    assert fields(built) == fields(public)
    assert asdict(built) == asdict(public)
    assert repr(built) == repr(public)
    assert built == public and public == built
    assert hash(built) == hash(public)
    assert replace(built, **change) == replace(public, **change)
    assert type(replace(built, **change)) is type(built)
    assert_clones(built)
    assert_frozen(built, [f.name for f in fields(built)])


# The grid, the float range's ends, and non-numbers of several kinds
EDGES = GRID + [_MAX, -_MAX, MIN_NORMAL, -MIN_NORMAL, 2.0, -2.0, 1j, None, [1.0]]


class QuotedCurve:
    """A stand-in curve whose swap formulas quote a fixed amount, so that a swap
    builds its delta from any traded and quoted pair.  It has the unshifted
    curve's bounds, which a trade from a full state leaves only at -_MAX."""

    geom = curve_for(ReferenceParams(1.0, 1.0)).geom
    _check_bounds = ShiftedProductCurve._check_bounds

    def __init__(self, quote):
        self.quote = quote

    def _dy(self, state, amount, new):
        return self.quote

    _dx = _dy


def built_delta(swap, *args):
    """The delta a swap returns, with its type."""
    delta = swap(*args)
    return type(delta), delta.dx, delta.dy


def test_builders_accept_and_reject_as_the_constructors_do():
    full = PoolState(_MAX, _MAX)
    for a, b in itertools.product(EDGES, repeat=2):
        # each swap stores (a, b) as its delta on SwapDelta's own guard
        for swap, axis, traded, quoted in ((ShiftedProductCurve.swap_exact_in_x, "x", a, b),
                                           (ShiftedProductCurve.swap_exact_out_y, "y", b, a)):
            curve = QuotedCurve(quoted)
            assert (outcome(built_delta, swap, curve, full, traded)
                    == outcome(built_delta, stated_swap, curve, full, traded, axis)), (a, b, swap.__name__)


# Carbon parameter sets that the core's shift rule, the scale rule on z and the
# p0 rule on b reject, each with the field and reason every construction path
# reports.
CARBON_REJECTS = [
    (CarbonParams(1, 1e-100, 1e-100), "spec", "derived shift_y must be at least 2**-511, not 1e-200"),
    (CarbonParams(2.0 ** -40, 1.0, 2.0 ** 1000), "z", "(z/a)^2 must be finite"),
    (CarbonParams(2.0 ** -40, 2.0 ** -1000, 1.0), "b",
     "b*(a+b) must be a positive normal float, not 8.487983164e-314"),
]
CARBON_PATHS = {
    "CarbonCurve": CarbonCurve,
    "curve_for": curve_for,
    "validate": validate,
    "spec_from_dict": lambda p: spec_from_dict({"form": "carbon", "a": p.a, "b": p.b, "z": p.z}),
    "translate": lambda p: translate(p, "carbon"),
}


@pytest.mark.parametrize("params, field, reason", CARBON_REJECTS, ids=["shift_y", "z", "b"])
@pytest.mark.parametrize("path", CARBON_PATHS.values(), ids=CARBON_PATHS.keys())
def test_carbon_rules_hold_on_every_construction_path(path, params, field, reason):
    with pytest.raises(DomainError) as info:
        path(params)
    assert (info.value.field, info.value.reason) == (field, reason)


def test_carbon_rule_rejects_a_translation_of_a_valid_curve():
    # a valid bancor curve whose carbon translation overflows shift_y = b*z/a
    carbon = translate(curve_for(BancorV2Params(9.687981966452493e-27, 3.869908481896332e+222,
                                                70027609285.68109)), "carbon")
    assert type(carbon) is CarbonParams
    with pytest.raises(DomainError) as info:
        curve_for(carbon)
    assert (info.value.field, info.value.reason) == ("spec", "derived shift_y must be finite and positive, not inf")


def _three_trades(curve, state):
    """A buy of a quarter of x, a sale of a quarter of y and a full drain of y
    from ``state``: each a ``SwapDelta``, or the (field, reason) it raised."""
    outcomes = []
    for swap, amount in ((curve.swap_exact_in_x, -state.x / 4), (curve.swap_exact_out_y, state.y / 4),
                         (curve.swap_exact_out_y, -state.y)):
        try:
            outcomes.append(swap(state, amount))
        except DomainError as err:
            outcomes.append((err.field, err.reason))
    return outcomes


@pytest.mark.parametrize("params", RESOLVED_TINY_CARBON, ids=["b*z_1e-160", "b*z_2**-550"])
def test_one_curve_has_one_domain(params):
    # b*z is far below 2**-511, yet the curve builds on every construction
    # path and quotes as its other encodings do: carbon's domain is its field
    # rules and the core's derived checks, as every form's is
    for path in (CarbonCurve, curve_for, validate, CARBON_PATHS["spec_from_dict"]):
        path(params)
    curve = CarbonCurve(params)
    state = curve.state_from_x(curve.geom.x_int / 2)
    constants = exact.of_curve(curve)
    buy, sale, drain = outcomes = _three_trades(curve, state)
    carbon = _BATTERY_FORMS.index("carbon")
    assert exact.ulps(buy.dy, exact.dy(constants, state.x, buy.dx)) <= ULP_BOUNDS["dy"][carbon]
    for delta in (sale, drain):
        assert exact.ulps(delta.dx, exact.dx(constants, state.y, delta.dy)) <= ULP_BOUNDS["dx"][carbon]
    # the translations' quotes are within 1.5e-16 of carbon's, relative
    for form in ("uniswap_v3", "natural"):
        for delta, other in zip(outcomes, _three_trades(curve_for(translate(curve, form)), state)):
            assert math.isclose(other.dx, delta.dx, rel_tol=1e-15), form
            assert math.isclose(other.dy, delta.dy, rel_tol=1e-15), form


@pytest.mark.parametrize("params", UNRESOLVED_TINY_CARBON, ids=["z_2e-167", "uniswap_translation"])
def test_a_curve_too_small_to_trade_builds_in_every_form(params):
    # z is far below 2**-511.  Each curve builds in every form, and every trade
    # on it raises alike, since the swap forms dx*scale, which underflows;
    # quoting from the state (ROADMAP item 2) will turn these into values.
    curve = CarbonCurve(params)
    state = curve.state_from_x(curve.geom.x_int / 2)
    unresolved = ("dx", "trade too small to resolve at this scale")
    for form in ("carbon", "uniswap_v3", "natural"):
        assert _three_trades(curve_for(translate(curve, form)), state) == [unresolved] * 3, form
