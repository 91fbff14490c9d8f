"""The value types and the swap guards: one comparison accepts, the old checks name a failure.

``PoolState`` and ``SwapDelta`` accept a value on one chained range
comparison and run their field checks only when it fails; the swap guards,
``apply_delta``, the form hooks and the core's check of the derived constants
do the same.  ``adaptive_gauss_kronrod`` runs the checks of the
``IntegralSpec`` value its arguments once were, in full.  The ``old_*``
functions below are the checks as they stood when every value ran all of
them.  Over a grid of edge inputs, the library must store the same value or
raise the same error; the two new rules, a bounded curve's shifts of at least
2**-511 and a snap relative to the balance at every scale, are stated beside
them.  The builders the library makes its hot values with must give what the
public constructors give, value for value and error for error.
"""

import copy
import inspect
import itertools
import math
import pickle
import random
from dataclasses import FrozenInstanceError, asdict, fields, replace
from decimal import Decimal
from fractions import Fraction

import pytest

from clamm import (
    BancorCurve,
    BancorV2Params,
    BoundsExceeded,
    CarbonCurve,
    CarbonParams,
    ComparisonReport,
    CurveGeometry,
    DomainError,
    InsufficientLiquidity,
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
from clamm.params import (
    _ANCHOR_FIELDS,
    _MAX,
    ANCHOR_KINDS,
    BOUNDS_SLACK,
    MIN_NORMAL,
    ShiftedProductCurve,
    _bancor_params,
    _carbon_params,
    _check_derived,
    _check_finite_positive,
    _check_scale,
    _curve,
    _geometry,
    _natural_params,
    _reference_params,
    _slots_twin,
    _state,
    _uniswap_params,
    spec_from_dict,
    validate,
)
from clamm.quadrature import (
    _MAX_DEPTH,
    DEFAULT_ABS_TOL,
    _adaptive,
    _panel,
    battery_cases,
    oracle_compare,
    random_bancor_params,
)
from clamm.rosetta import translate

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


def old_integral_spec(lower, upper, abs_tol=DEFAULT_ABS_TOL, max_depth=_MAX_DEPTH):
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


def relative_snap(value, reference):
    """The old snap, then the one new rule: a negative snaps to 0 only within
    1e-12 of the balance it came from, with no unit floor below 1."""
    if value < 0 and abs(value) > abs(reference) * 1e-12:
        return value
    return old_snap_nonnegative(value, reference)


def old_apply_delta(state, delta, snap=old_snap_nonnegative):
    x = state.x + delta.dx
    y = state.y + delta.dy
    return old_pool_state(snap(x, state.x), snap(y, state.y))


def old_check_finite_positive(value, name):
    _require(isinstance(value, (int, float)) and math.isfinite(value), name, "must be finite")
    _require(value > 0, name, "must be positive")
    return value


def old_check_scale(scale, name, expr):
    if not math.isfinite(scale):
        raise DomainError(name, f"{expr} must be finite")
    if scale < MIN_NORMAL:
        raise DomainError(name, f"{expr} must be a positive normal float, not {scale!r}")
    return scale


def old_reference_constants(params):
    x0 = old_check_finite_positive(params.x0, "x0")
    y0 = old_check_finite_positive(params.y0, "y0")
    scale = old_check_scale(x0 * y0, "x0", "x0*y0")
    return scale, CurveGeometry(
        x_int=math.inf, y_int=math.inf, x_asym=0.0, y_asym=0.0,
        p_high=math.inf, p_low=0.0, p0=y0 / x0, c=math.inf,
    )


def old_bancor_constants(params):
    x0 = old_check_finite_positive(params.x0, "x0")
    y0 = old_check_finite_positive(params.y0, "y0")
    amp = params.A
    _require(math.isfinite(amp), "A", "must be finite")
    _require(amp > 1, "A", "must exceed 1")
    scale = old_check_scale(amp * amp * x0 * y0, "A", "A^2*x0*y0")
    c = amp * amp / ((amp - 1.0) * (amp - 1.0))
    p0 = y0 / x0
    return scale, CurveGeometry(
        x_int=x0 * (2.0 * amp - 1.0) / (amp - 1.0),
        y_int=y0 * (2.0 * amp - 1.0) / (amp - 1.0),
        x_asym=-x0 * (amp - 1.0),
        y_asym=-y0 * (amp - 1.0),
        p_high=c * p0,
        p_low=p0 / c,
        p0=p0,
        c=c,
    )


def old_uniswap_constants(params):
    liq = old_check_finite_positive(params.L, "L")
    p_high = old_check_finite_positive(params.p_high, "p_high")
    p_low = old_check_finite_positive(params.p_low, "p_low")
    _require(p_low < p_high, "p_low", "must be < p_high")
    scale = old_check_scale(liq * liq, "L", "L^2")
    sqrt_high = math.sqrt(p_high)
    sqrt_low = math.sqrt(p_low)
    root_gap = (p_high - p_low) / (sqrt_high + sqrt_low)
    return scale, CurveGeometry(
        x_int=liq * root_gap / (sqrt_high * sqrt_low),
        y_int=liq * root_gap,
        x_asym=-liq / sqrt_high,
        y_asym=-liq * sqrt_low,
        p_high=p_high,
        p_low=p_low,
        p0=sqrt_high * sqrt_low,
        c=sqrt_high / sqrt_low,
    )


def old_carbon_constants(params):
    a = old_check_finite_positive(params.a, "a")
    b = old_check_finite_positive(params.b, "b")
    z = old_check_finite_positive(params.z, "z")
    scale = old_check_scale((z / a) * (z / a), "z", "(z/a)^2")
    gap = old_check_scale(a * (a + b), "a", "a*(a+b)")
    p0 = old_check_scale(b * (a + b), "b", "b*(a+b)")
    return scale, CurveGeometry(
        x_int=z / p0,
        y_int=z,
        x_asym=-z / gap,
        y_asym=-b * z / a,
        p_high=(a + b) * (a + b),
        p_low=b * b,
        p0=p0,
        c=(a + b) / b,
    )


def old_check_exceeds_one(value, name):
    _require(math.isfinite(value), name, "must be finite")
    _require(value > 1, name, "must exceed 1")
    return value


def old_natural_constants(params):
    c = old_check_exceeds_one(params.c, "c")
    anchor, ax, ay = params.anchor, params.anchor_x, params.anchor_y
    _require(anchor in ANCHOR_KINDS, "anchor", f"must be one of {ANCHOR_KINDS}")
    _require(math.isfinite(ax), "anchor_x", "must be finite")
    _require(math.isfinite(ay), "anchor_y", "must be finite")
    nx, ny = _ANCHOR_FIELDS[anchor]
    if anchor == "asymptotes":
        _require(ax < 0, nx, "must be negative")
        _require(ay < 0, ny, "must be negative")
        x_asym, y_asym = ax, ay
    else:
        _require(ax > 0, nx, "must be positive")
        _require(ay > 0, ny, "must be positive")
        if anchor == "intercepts":
            gap = c - 1.0
        else:
            # center anchor: the shift is x0/(sqrt(c) - 1), with sqrt(c) - 1
            # written as (c - 1)/(sqrt(c) + 1) so that it does not cancel as c -> 1
            gap = (c - 1.0) / (math.sqrt(c) + 1.0)
        x_asym, y_asym = -ax / gap, -ay / gap
    scale = old_check_scale(c * x_asym * y_asym, "c", "c*x_asym*y_asym")
    p0 = y_asym / x_asym
    return scale, CurveGeometry(
        x_int=-x_asym * (c - 1.0),
        y_int=-y_asym * (c - 1.0),
        x_asym=x_asym,
        y_asym=y_asym,
        p_high=p0 * c,
        p_low=p0 / c,
        p0=p0,
        c=c,
    )


def old_y_from_x(curve, x):
    x_int = curve.geom.x_int
    if not 0.0 < x < x_int * (1.0 + BOUNDS_SLACK):
        curve._check_bounds("x", x, x_int)
        _require(x <= _MAX, "x", "must be finite")
    y = curve.scale / (x + curve.shift_x) - curve.shift_y
    return relative_snap(y, curve.shift_y)


def old_x_from_y(curve, y):
    y_int = curve.geom.y_int
    if not 0.0 < y < y_int * (1.0 + BOUNDS_SLACK):
        curve._check_bounds("y", y, y_int)
        _require(y <= _MAX, "y", "must be finite")
    x = curve.scale / (y + curve.shift_y) - curve.shift_x
    return relative_snap(x, curve.shift_x)


def finite_sample(old_sample, axis):
    """The old sampling body, then the one new rule: a sample that overflowed
    raises the error ``PoolState`` raises for it, where it was returned."""
    def sample(curve, value):
        out = old_sample(curve, value)
        _require(math.isfinite(out), axis, "must be finite")
        return (out,)
    return sample


def old_check_derived(shift_x, shift_y, geom, bounded):
    if bounded:
        named = (("shift_x", shift_x), ("shift_y", shift_y), ("x_int", geom.x_int),
                 ("y_int", geom.y_int), ("p_high", geom.p_high), ("p_low", geom.p_low),
                 ("p0", geom.p0))
    else:
        named = (("p0", geom.p0),)
    for name, value in named:
        if not 0.0 < value < math.inf:
            raise DomainError("spec", f"derived {name} must be finite and positive, not {value!r}")
    if bounded and not 1.0 < geom.c < math.inf:
        raise DomainError("spec", f"derived c must be finite and above 1, not {geom.c!r}")


def shift_rule(shift_x, shift_y, geom, bounded):
    """The old derived checks, then the one new rule: a bounded curve's shifts
    are at least 2**-511, so that a shift's square is a normal float."""
    old_check_derived(shift_x, shift_y, geom, bounded)
    if bounded:
        for name, value in (("shift_x", shift_x), ("shift_y", shift_y)):
            if value < 2.0 ** -511:
                raise DomainError("spec", f"derived {name} must be at least 2**-511, not {value!r}")


def old_curve(hook, bounded, params):
    scale, geom = hook(params)
    shift_x = 0.0 - geom.x_asym
    shift_y = 0.0 - geom.y_asym
    shift_rule(shift_x, shift_y, geom, bounded)
    return shift_x, shift_y, scale, *(getattr(geom, f.name) for f in fields(geom))


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
    # more non-numbers: the range test raises TypeError on them where
    # math.isfinite would, and stops at the first field that fails
    for x, y in itertools.product(GRID + [1j, None, [1.0]], repeat=2):
        assert outcome(PoolState, x, y) == outcome(old_pool_state, x, y), (x, y)


def test_swap_delta_matches_the_old_checks():
    for dx, dy in itertools.product(GRID, repeat=2):
        assert outcome(SwapDelta, dx, dy) == outcome(old_swap_delta, dx, dy), (dx, dy)


def test_integral_spec_matches_the_old_checks():
    # the kernel is IntegralSpec's checks, then the kernel's body as it stood
    # behind them; the integral of 0 is 0 on every interval but one, too wide
    # for a float, whose bisection halves an int tolerance past the float range
    def zero(x):
        return 0.0

    def new(*args):
        return (adaptive_gauss_kronrod(zero, *args),)

    def old(*args):
        lower, upper, abs_tol, max_depth = old_integral_spec(*args)
        whole, err = _panel(zero, lower, upper)
        return (_adaptive(zero, lower, upper, abs_tol, whole, err, max_depth),)

    for args in itertools.product(GRID, repeat=3):
        assert outcome(new, *args) == outcome(old, *args), args
    assert outcome(new, 0.0, 1.0) == outcome(old, 0.0, 1.0)


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


# the swap curves, the unshifted curves whose samples overflow near an axis,
# and a bounded curve below unit scale
SAMPLE_CURVES = SWAP_CURVES + [ReferenceParams(1.0, 1.0), ReferenceParams(1e300, 1e5),
                               BancorV2Params(1e-13, 1e-13, 2.0)]


def sample_values(intercept):
    """The grid, subnormals, interior balances, and balances on, around and
    past the intercept's slack."""
    values = GRID + [2.5e-320, 1e-310, MIN_NORMAL, 1e-10, 37.0, 1e300]
    if math.isfinite(intercept):
        top = intercept * (1.0 + BOUNDS_SLACK)
        values += [intercept, intercept * 0.5, intercept * (1.0 - BOUNDS_SLACK), top,
                   math.nextafter(top, 0.0), math.nextafter(top, math.inf),
                   math.nextafter(intercept, 0.0), math.nextafter(intercept, math.inf)]
    return values


@pytest.mark.parametrize("params", SAMPLE_CURVES, ids=[p.form for p in SAMPLE_CURVES])
def test_sampling_matches_the_old_checks(params):
    curve = curve_for(params)
    changed = 0
    for new, old, axis, intercept in ((curve.y_from_x, old_y_from_x, "y", curve.geom.x_int),
                                      (curve.x_from_y, old_x_from_y, "x", curve.geom.y_int)):
        for value in sample_values(intercept):
            sampled = outcome(lambda v: (new(v),), value)
            assert sampled == outcome(finite_sample(old, axis), curve, value), (value, new.__name__)
            changed += sampled != outcome(lambda v: (old(curve, v),), value)
    # only the unshifted curves overflow, at the grid's subnormals
    assert (changed > 0) == (not curve.bounded), changed


def test_apply_delta_matches_the_old_snap():
    states = [PoolState(100.0, 100.0), PoolState(0.0, 0.0), PoolState(1e-300, 5.0)]
    deltas = [SwapDelta(0.0, 0.0), SwapDelta(1.0, -100.0), SwapDelta(1.0, -100.0 - 1e-12),
              SwapDelta(1.0, -100.0 - 1e-9), SwapDelta(-100.0 - 1e-13, 1.0),
              SwapDelta(-1e-300, 5e-324), SwapDelta(-2e-300, 1.0), SwapDelta(-5e-324, 1.0),
              SwapDelta(-1e308, 1e308), SwapDelta(1e308, -1.0)]
    changed = 0
    for state, delta in itertools.product(states, deltas):
        new = outcome(apply_delta, state, delta)
        assert new == outcome(old_apply_delta, state, delta, relative_snap), (state, delta)
        # the relative rule moves only snaps that the old unit floor absorbed
        if new != outcome(old_apply_delta, state, delta):
            changed += 1
            assert min(state.x + delta.dx, state.y + delta.dy) >= -1e-12, (state, delta)
    assert changed > 0


def test_field_checks_match_the_old_checks():
    def stored(check, *args):
        return (check(*args),)

    for value in GRID + [MIN_NORMAL, math.nextafter(MIN_NORMAL, 0.0), 1.7976931348623157e308]:
        assert (outcome(stored, _check_finite_positive, value, "v")
                == outcome(stored, old_check_finite_positive, value, "v")), value
        assert (outcome(stored, _check_scale, value, "s", "expr")
                == outcome(stored, old_check_scale, value, "s", "expr")), value


def new_curve(cls, params):
    curve = cls(params)
    return (curve.shift_x, curve.shift_y, curve.scale,
            *(getattr(curve.geom, f.name) for f in fields(curve.geom)))


def natural_params(anchor):
    """NaturalParams of one anchor kind from (c, anchor_x, anchor_y)."""
    return lambda c, ax, ay: NaturalParams(c, anchor, ax, ay)


# (curve class, makers of its parameter sets from `arity` grid values, old hook, arity)
HOOKS = [
    (ReferenceCurve, [ReferenceParams], old_reference_constants, 2),
    (BancorCurve, [BancorV2Params], old_bancor_constants, 3),
    (UniswapCurve, [UniswapV3Params], old_uniswap_constants, 3),
    (CarbonCurve, [CarbonParams], old_carbon_constants, 3),
    # the three anchor kinds and one that is not
    (NaturalCurve, [natural_params(kind) for kind in ANCHOR_KINDS + ("corner",)],
     old_natural_constants, 3),
]


@pytest.mark.parametrize("cls, makers, old_hook, arity", HOOKS,
                         ids=[cls.__name__ for cls, *_ in HOOKS])
def test_form_hooks_match_the_old_checks(cls, makers, old_hook, arity):
    # the grid, plus values that make valid curves of every form, and Decimals,
    # whose NaN raises from a comparison where math.isfinite returns False;
    # -100.0 makes a valid asymptote anchor
    values = GRID + [0.25, 4.0, 100.0, -100.0, 2.0, Decimal("NaN"), Decimal("sNaN"), Decimal("2")]
    built = []
    for make in makers:
        count = 0
        for args in itertools.product(values, repeat=arity):
            params = make(*args)
            new = outcome(new_curve, cls, params)
            assert new == outcome(old_curve, old_hook, cls.bounded, params), params
            count += isinstance(new[0], tuple)  # stored values, not an error
        built.append(count)
    # every form, and every anchor kind, builds curves from the grid
    assert all(built[:len(ANCHOR_KINDS)]), built


def test_derived_check_matches_the_old_checks():
    """Each derived constant of a valid curve, and each shift, moved over the grid
    and the edges of the shift rule, one at a time and in random pairs."""
    base = curve_for(NaturalParams(4.0, "asymptotes", -100.0, -100.0))
    names = ["shift_x", "shift_y"] + [f.name for f in fields(base.geom) if f.init]
    values = [v for v in GRID if not isinstance(v, str)] + [
        2.0 ** -511, math.nextafter(2.0 ** -511, 0.0), 1e-160, 1e-300, 0.5, 1.0,
        math.nextafter(1.0, 2.0)]

    def check(check_derived, bounded, changed):
        valid = {"shift_x": base.shift_x, "shift_y": base.shift_y,
                 **{f.name: getattr(base.geom, f.name) for f in fields(base.geom) if f.init}}
        valid.update(changed)
        shift_x, shift_y = valid.pop("shift_x"), valid.pop("shift_y")
        return (check_derived(shift_x, shift_y, CurveGeometry(**valid), bounded),)

    rng = random.Random(10)
    changes = [{name: value} for name in names for value in values]
    changes += [dict(zip(rng.sample(names, 2), rng.sample(values, 2))) for _ in range(3000)]
    for changed in changes:
        for bounded in (True, False):
            assert (outcome(check, _check_derived, bounded, changed)
                    == outcome(check, shift_rule, bounded, changed)), (changed, bounded)


def test_curve_build_accepts_derived_constants_as_the_checks_do(monkeypatch):
    """``_curve`` runs the derived checks only when its own comparison fails:
    each derived constant a form hook could return, asymptotes included, moved
    over the same values, must build a curve exactly where the checks pass."""
    base = curve_for(NaturalParams(4.0, "asymptotes", -100.0, -100.0))
    names = [f.name for f in fields(base.geom) if f.init]
    values = [v for v in GRID if not isinstance(v, str)] + [
        -(2.0 ** -511), -math.nextafter(2.0 ** -511, 0.0), 2.0 ** -511, 1e-160, 1e-300, 0.5, 1.0,
        math.nextafter(1.0, 2.0), -100.0]
    hooked = {}
    for cls in (NaturalCurve, ReferenceCurve):
        monkeypatch.setattr(cls, "_constants", staticmethod(lambda params: hooked["constants"]))

    def geometry(changed):
        valid = {f.name: getattr(base.geom, f.name) for f in fields(base.geom) if f.init}
        valid.update(changed)
        return CurveGeometry(**valid)

    def built(cls, changed):
        hooked["constants"] = (base.scale, geometry(changed))
        curve = _curve(cls, base.params)
        return curve.shift_x, curve.shift_y

    def checked(cls, changed):
        geom = geometry(changed)
        shift_x, shift_y = 0.0 - geom.x_asym, 0.0 - geom.y_asym
        shift_rule(shift_x, shift_y, geom, cls.bounded)
        return shift_x, shift_y

    rng = random.Random(11)
    changes = [{name: value} for name in names for value in values]
    changes += [dict(zip(rng.sample(names, 2), rng.sample(values, 2))) for _ in range(3000)]
    for changed in changes:
        for cls in (NaturalCurve, ReferenceCurve):
            assert outcome(built, cls, changed) == outcome(checked, cls, changed), (changed, cls)


# ---------------------------------------------------------------------------
# The value-type contract
# ---------------------------------------------------------------------------

VALUES = [
    (PoolState, (1.5, 2.5), "PoolState(x=1.5, y=2.5)", {"x": 0.5}),
    (SwapDelta, (1.0, -2.0), "SwapDelta(dx=1.0, dy=-2.0)", {"dy": -0.25}),
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
    # the kernel takes IntegralSpec's fields as its arguments, with its
    # default tolerance; the depth is fixed
    params = inspect.signature(adaptive_gauss_kronrod).parameters
    assert list(params) == ["f", "lower", "upper", "abs_tol"]
    assert params["abs_tol"].default == DEFAULT_ABS_TOL
    f = lambda x: 1.0 / (x * x)  # noqa: E731
    assert adaptive_gauss_kronrod(f, 1.0, 50.0) == adaptive_gauss_kronrod(f, 1.0, 50.0, DEFAULT_ABS_TOL)
    assert adaptive_gauss_kronrod(f, 1.0, 50.0) != adaptive_gauss_kronrod(f, 1.0, 50.0, 1e-3)


# ---------------------------------------------------------------------------
# The contract of the derived values and the curves
# ---------------------------------------------------------------------------

GEOMETRY_ARGS = (300.0, 300.0, -100.0, -100.0, 4.0, 0.25, 1.0, 4.0)
GEOMETRY_TEXT = ("CurveGeometry(x_int=300.0, y_int=300.0, x_asym=-100.0, y_asym=-100.0, "
                 "p_high=4.0, p_low=0.25, p0=1.0, c=4.0, phi=1.3862943611198906)")
REPORT_ARGS = (-2.0, -2.0000000000000004, 4.440892098500626e-16, 2.220446049250313e-16, True)
REPORT_TEXT = ("ComparisonReport(closed_form_dy=-2.0, quadrature_dy=-2.0000000000000004, "
               "abs_deviation=4.440892098500626e-16, rel_deviation=2.220446049250313e-16, "
               "passed=True)")


class TestDerivedValueContract:
    """``CurveGeometry`` and ``ComparisonReport``: slotted frozen values whose
    hand-written __init__ stores the fields the generated one did."""

    def test_equality_hash_and_repr(self):
        for cls, args, text, last in ((CurveGeometry, GEOMETRY_ARGS, GEOMETRY_TEXT, 2.0),
                                      (ComparisonReport, REPORT_ARGS, REPORT_TEXT, False)):
            value = cls(*args)
            assert value == cls(*args)
            assert hash(value) == hash(cls(*args))
            assert repr(value) == text
            assert value != cls(*args[:-1], last)

    def test_frozen_and_slotted(self):
        for value in (CurveGeometry(*GEOMETRY_ARGS), ComparisonReport(*REPORT_ARGS)):
            name = fields(value)[0].name
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, 1.0)
            with pytest.raises(FrozenInstanceError):
                delattr(value, name)
            assert not hasattr(value, "__dict__")

    def test_geometry_fields_replace_and_asdict(self):
        geom = CurveGeometry(*GEOMETRY_ARGS)
        names = ["x_int", "y_int", "x_asym", "y_asym", "p_high", "p_low", "p0", "c", "phi"]
        assert [f.name for f in fields(geom)] == names
        assert [f.name for f in fields(geom) if not f.init] == ["phi"]
        assert asdict(geom) == dict(zip(names, GEOMETRY_ARGS + (math.log(4.0),)))
        wider = replace(geom, c=16.0)
        assert type(wider) is CurveGeometry
        assert wider.phi == math.log(16.0)  # phi follows c, never set on its own
        with pytest.raises(ValueError):
            replace(geom, phi=0.0)

    def test_report_fields_replace_and_asdict(self):
        report = ComparisonReport(*REPORT_ARGS)
        names = ["closed_form_dy", "quadrature_dy", "abs_deviation", "rel_deviation", "passed"]
        assert asdict(report) == dict(zip(names, REPORT_ARGS))
        failed = replace(report, passed=False)
        assert type(failed) is ComparisonReport
        assert asdict(failed) == {**asdict(report), "passed": False}

    def test_pickle_and_copy(self):
        for value in (CurveGeometry(*GEOMETRY_ARGS), ComparisonReport(*REPORT_ARGS)):
            for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
                assert clone == value
                assert type(clone) is type(value)
                assert asdict(clone) == asdict(value)


# ---------------------------------------------------------------------------
# The builders: the public constructors' values from plain slot stores
# ---------------------------------------------------------------------------


def public_copy(value):
    """The value the public constructor makes from value's init fields."""
    return type(value)(*(getattr(value, f.name) for f in fields(value) if f.init))


WORKED_OF_FORM = {"reference": ReferenceParams(100.0, 100.0), "bancor_v2": WORKED_BANCOR,
                  "uniswap_v3": WORKED_UNISWAP, "carbon": WORKED_CARBON}

# (value built by its builder or by a library call that uses one, a field change)
BUILT = [
    (_state(1.5, 2.5), {"x": 0.5}),
    (_state(-0.0, 5e-324), {"y": 0.5}),
    (curve_for(WORKED_BANCOR).state_from_x(37.0), {"x": 0.5}),
    (apply_delta(PoolState(100.0, 100.0), SwapDelta(100.0, -50.0)), {"x": 0.5}),
    (curve_for(WORKED_UNISWAP).swap_exact_in_x(PoolState(100.0, 100.0), 10.0), {"dy": -0.25}),
    (curve_for(WORKED_CARBON).swap_exact_out_y(PoolState(100.0, 100.0), -10.0), {"dy": -0.25}),
    (_geometry(*GEOMETRY_ARGS), {"c": 16.0}),
    (curve_for(WORKED_NATURAL).geom, {"c": 16.0}),
    (curve_for(ReferenceParams(2.0, 3.0)).geom, {"p0": 2.0}),
    (oracle_compare(curve_for(WORKED_UNISWAP), PoolState(100.0, 100.0), 10.0), {"passed": False}),
    (_reference_params(2.0, 3.0), {"y0": 4.0}),
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


@pytest.mark.parametrize("built, change", BUILT, ids=[type(v).__name__ for v, _ in BUILT])
def test_builders_keep_the_value_contract(built, change):
    public = public_copy(built)
    cls = type(public)
    assert type(built) is cls
    assert fields(built) == fields(public)
    assert asdict(built) == asdict(public)
    assert repr(built) == repr(public)
    assert built == public and public == built
    assert hash(built) == hash(public)
    assert replace(built, **change) == replace(public, **change)
    assert type(replace(built, **change)) is cls
    for clone in (pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)):
        assert type(clone) is cls
        assert repr(clone) == repr(public)
    for f in fields(built):
        with pytest.raises(FrozenInstanceError):
            setattr(built, f.name, 1.0)
        with pytest.raises(FrozenInstanceError):
            delattr(built, f.name)
    assert repr(built) == repr(public)
    assert not hasattr(built, "__dict__")


def exact_outcome(make, *args):
    """The stored values with their types and signs, or the error: a DomainError
    by field and reason, any other by type and message."""
    try:
        value = make(*args)
    except DomainError as exc:
        return DomainError, exc.field, exc.reason
    except Exception as exc:
        return type(exc), str(exc)
    stored = (getattr(value, f.name) for f in fields(value))
    return type(value), tuple((type(v), repr(v)) for v in stored)


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

    def _dy(self, state, dx, x_new):
        return self.quote

    def _dx(self, state, dy, y_new):
        return self.quote


def built_delta(swap, *args):
    """The delta a swap returns, with its type."""
    delta = swap(*args)
    return type(delta), delta.dx, delta.dy


def test_builders_accept_and_reject_as_the_constructors_do():
    full = PoolState(_MAX, _MAX)
    old_in = lambda *args: SwapDelta(*old_swap_exact_in_x(*args))  # noqa: E731
    old_out = lambda *args: SwapDelta(*old_swap_exact_out_y(*args))  # noqa: E731
    for a, b in itertools.product(EDGES, repeat=2):
        assert exact_outcome(_state, a, b) == exact_outcome(PoolState, a, b), (a, b)
        # each swap stores (a, b) as its delta on SwapDelta's own guard; a
        # non-number fails a different comparison there, so a TypeError is
        # told apart by type only
        for swap, old, traded, quoted in ((ShiftedProductCurve.swap_exact_in_x, old_in, a, b),
                                          (ShiftedProductCurve.swap_exact_out_y, old_out, b, a)):
            curve = QuotedCurve(quoted)
            assert (outcome(built_delta, swap, curve, full, traded)
                    == outcome(built_delta, old, curve, full, traded)), (a, b, swap.__name__)


@pytest.mark.parametrize("cls", [PoolState, SwapDelta, CurveGeometry, ComparisonReport, ReferenceParams,
                                 BancorV2Params, UniswapV3Params, CarbonParams, NaturalParams],
                         ids=lambda cls: cls.__name__)
def test_a_filled_twin_becomes_its_class(cls):
    # the __class__ store needs the two slot layouts to match, which CPython
    # checks on every version the package supports
    values = [float(i) for i in range(len(cls.__slots__))]
    twin = _slots_twin(cls)()
    for name, value in zip(cls.__slots__, values):
        setattr(twin, name, value)
    twin.__class__ = cls
    assert type(twin) is cls
    assert [getattr(twin, name) for name in cls.__slots__] == values
    with pytest.raises(FrozenInstanceError):
        setattr(twin, cls.__slots__[0], -1.0)


CURVE_PARAMS = [
    (ReferenceParams(100.0, 100.0), ReferenceParams(100.0, 400.0)),
    (WORKED_BANCOR, BancorV2Params(100.0, 100.0, 3.0)),
    (WORKED_UNISWAP, UniswapV3Params(200.0, 9.0, 0.25)),
    (WORKED_CARBON, CarbonParams(1.5, 0.5, 600.0)),
    (WORKED_NATURAL, NaturalParams(4.0, "center", 100.0, 100.0)),
]


@pytest.mark.parametrize("params, other", CURVE_PARAMS, ids=[p.form for p, _ in CURVE_PARAMS])
class TestCurveContract:
    """Each curve class is a frozen value built from its parameter set alone."""

    def test_equality_hash_and_repr(self, params, other):
        curve = curve_for(params)
        assert curve == curve_for(params)
        assert hash(curve) == hash(curve_for(params))
        assert curve != curve_for(other)
        assert repr(curve) == (f"{type(curve).__name__}(params={params!r}, "
                               f"shift_x={curve.shift_x!r}, shift_y={curve.shift_y!r}, "
                               f"scale={curve.scale!r}, geom={curve.geom!r})")

    def test_frozen(self, params, other):
        curve = curve_for(params)
        for name in ("params", "shift_x", "geom"):
            with pytest.raises(FrozenInstanceError):
                setattr(curve, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(curve, name)
        assert curve == curve_for(params)
        assert not hasattr(curve, "__dict__")
        assert not hasattr(type(curve)(params), "__dict__")

    def test_fields_replace_and_asdict(self, params, other):
        curve = curve_for(params)
        assert [f.name for f in fields(curve)] == ["params", "shift_x", "shift_y", "scale", "geom"]
        assert [f.name for f in fields(curve) if f.init] == ["params"]
        assert asdict(curve) == {"params": asdict(params), "shift_x": curve.shift_x,
                                 "shift_y": curve.shift_y, "scale": curve.scale,
                                 "geom": asdict(curve.geom)}
        moved = replace(curve, params=other)
        assert type(moved) is type(curve)
        assert moved == curve_for(other)
        with pytest.raises(ValueError):
            replace(curve, scale=1.0)

    def test_replace_runs_the_checks(self, params, other):
        bad = replace(params, **{fields(params)[-1].name: math.nan})
        with pytest.raises(DomainError):
            replace(curve_for(params), params=bad)

    def test_pickle_and_copy(self, params, other):
        curve = curve_for(params)
        for clone in (pickle.loads(pickle.dumps(curve)), copy.copy(curve), copy.deepcopy(curve)):
            assert clone == curve
            assert type(clone) is type(curve)
            assert repr(clone) == repr(curve)


@pytest.mark.parametrize("params, other", CURVE_PARAMS, ids=[p.form for p, _ in CURVE_PARAMS])
class TestParamsContract:
    """Each parameter set is a slotted frozen value with the generated dataclass API."""

    def test_equality_hash_and_repr(self, params, other):
        cls = type(params)
        values = [getattr(params, f.name) for f in fields(params)]
        assert params == cls(*values)
        assert hash(params) == hash(cls(*values))
        assert params != other
        assert repr(params) == (f"{cls.__name__}("
                                + ", ".join(f"{f.name}={getattr(params, f.name)!r}" for f in fields(params))
                                + ")")

    def test_frozen_and_slotted(self, params, other):
        for f in fields(params):
            with pytest.raises(FrozenInstanceError):
                setattr(params, f.name, 1.0)
            with pytest.raises(FrozenInstanceError):
                delattr(params, f.name)
        assert not hasattr(params, "__dict__")
        assert type(params).__slots__ == tuple(f.name for f in fields(params))
        assert params.form == type(params).form  # the form tag stays a class attribute

    def test_fields_replace_and_asdict(self, params, other):
        changes = {f.name: getattr(other, f.name) for f in fields(other)
                   if getattr(other, f.name) != getattr(params, f.name)}
        moved = replace(params, **changes)
        assert type(moved) is type(params)
        assert moved == other
        assert asdict(moved) == {**asdict(params), **changes}

    def test_pickle_and_copy(self, params, other):
        for clone in (pickle.loads(pickle.dumps(params)), copy.copy(params), copy.deepcopy(params)):
            assert clone == params
            assert type(clone) is type(params)
            assert repr(clone) == repr(params)


# (builder, public class); a generated __init__ stores whatever it is given
PARAMS_BUILDERS = [
    (_reference_params, ReferenceParams),
    (_bancor_params, BancorV2Params),
    (_uniswap_params, UniswapV3Params),
    (_carbon_params, CarbonParams),
    (_natural_params, NaturalParams),
]


@pytest.mark.parametrize("builder, cls", PARAMS_BUILDERS, ids=[cls.__name__ for _, cls in PARAMS_BUILDERS])
def test_params_builders_store_what_the_constructors_store(builder, cls):
    values = [1.5, -0.0, 5e-324, math.nan, math.inf, None, "asymptotes"]
    for args in itertools.product(values, repeat=len(fields(cls))):
        # the same type and the same stored values, with their types and signs
        assert exact_outcome(builder, *args) == exact_outcome(cls, *args), args


@pytest.mark.parametrize("params", [p for pair in CURVE_PARAMS for p in pair], ids=lambda p: p.form)
def test_curve_builder_matches_the_constructor(params):
    cls = type(curve_for(params))
    built, public = _curve(cls, params), cls(params)
    assert type(built) is type(public) is cls
    for f in fields(public):
        assert type(getattr(built, f.name)) is type(getattr(public, f.name))
        assert repr(getattr(built, f.name)) == repr(getattr(public, f.name))
    assert built == public
    assert curve_for(params) == public


@pytest.mark.parametrize("form_cls", sorted(set(ShiftedProductCurve._classes.values()), key=lambda c: c.__name__),
                         ids=lambda cls: cls.__name__)
def test_a_filled_curve_twin_becomes_every_form(form_cls):
    # every form adds no slots, so the base class's twin fits each of them
    assert form_cls.__slots__ == ()
    twin = _slots_twin(ShiftedProductCurve)()
    for name in ShiftedProductCurve.__slots__:
        setattr(twin, name, 1.0)
    twin.__class__ = form_cls
    assert type(twin) is form_cls
    with pytest.raises(FrozenInstanceError):
        twin.scale = 2.0


# Carbon parameter sets that the core's shift rule, the z rule and the b*z rule
# reject, each with the field and reason every construction path reports.
CARBON_REJECTS = [
    (CarbonParams(1, 1e-100, 1e-100), "spec", "derived shift_y must be at least 2**-511, not 1e-200"),
    (CarbonParams(2.0 ** -40, 1.0, 2.0 ** -520), "z", "must be at least 2**-511, not 2.913414348125081e-157"),
    (CarbonParams(2.0 ** -40, 2.0 ** -300, 2.0 ** -250), "b",
     "b*z must be at least 2**-511, not 2.7133285516175262e-166"),
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
    # a narrow uniswap range at a tiny scale is a valid curve whose y intercept,
    # the carbon z, lies below 2**-511
    carbon = translate(curve_for(UniswapV3Params(2.0 ** -500, 1.0 + 1e-10, 1.0)), "carbon")
    assert type(carbon) is CarbonParams
    with pytest.raises(DomainError) as info:
        curve_for(carbon)
    assert info.value.field == "z"
    assert info.value.reason.startswith("must be at least 2**-511")
