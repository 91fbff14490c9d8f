"""Curve parameter sets, pool state, and the shared real-curve interface.

Every real concentrated-liquidity curve handled here is a shifted rectangular
hyperbola ``(x + shift_x) * (y + shift_y) = scale`` restricted to the first
quadrant.  Each parameterization encodes the three constants differently; the
frozen parameter sets below are the configuration surface and
``ShiftedProductCurve`` is the interface the per-form modules implement.

Sign convention is the pool's frame of reference: a trade that adds x tokens
(dx > 0) removes y tokens (dy < 0), and marginal prices are negative slopes.
All values are binary64 floats; equality is always a relative-tolerance check.
"""

from __future__ import annotations

import math
import sys

from .errors import BoundsExceeded, DomainError, InsufficientLiquidity

# Default relative tolerance for on-curve checks.
REL_TOL = 1e-9

# Default relative deviation at which ``clamm verify`` fails a case.
VERIFY_REL_TOL = 1e-8

# Relative slack for a final ulp past an intercept or below zero: a trade aimed
# exactly at an intercept may overshoot it, and intercept arithmetic may land a
# balance just below zero; neither is rejected for it.
BOUNDS_SLACK = 1e-12

# The factor an intercept is scaled by to give the range rule's upper bound.
_SLACK_BOUND = 1.0 + BOUNDS_SLACK

_UNRESOLVED = "trade too small to resolve at this scale"

# The slopes' reason where the virtual balance is 0, the hyperbola's pole.
_POLE = "the slope is unbounded where the virtual balance is 0"

# Smallest positive normal binary64; a curve scale below it is rejected.
MIN_NORMAL = sys.float_info.min

# Smallest positive subnormal binary64: the floor of a relative deviation's
# denominator, so that two subnormal values that disagree read as far apart.
_SMALLEST = math.ulp(0.0)

# Largest finite binary64.  ``0.0 <= v <= _MAX`` holds only for a finite,
# nonnegative number v: NaN, infinities, negatives and ints beyond binary64
# fail it, and a non-number raises TypeError.  The value types below accept on
# one such comparison; their field checks run, in their fixed order, only to
# name a failure.
_MAX = sys.float_info.max

# Smallest shift of a bounded curve.  Below 2**-511 a shift's square is no
# longer a normal float, so the swap denominators, each a product of two
# shifted balances, underflow to zero on a curve's drained end.
_MIN_SHIFT = 2.0 ** -511


# ---------------------------------------------------------------------------
# Frozen value types
# ---------------------------------------------------------------------------


def _value_type(cls: type) -> type:
    """The frozen, slotted value class of a class body, as ``dataclass(frozen=True,
    slots=True)`` would make it, with no code generated.

    The fields are the body's annotations other than ``ClassVar`` ones, which
    are strings here, in order; they become ``__slots__``.  The body's
    ``__new__(cls, <init fields>)`` is the one construction body: it runs the
    type's own checks, fills an instance of ``cls._twin`` with plain slot
    stores, deriving any field it does not take, and assigns ``__class__ =
    cls``.  The twin is a plain class with the same slot layout, so CPython
    allows that one store, and its result is a real ``cls`` instance; a plain
    store costs a fraction of the call that storing past a frozen value's own
    ``__setattr__`` would need.  Subclasses that add no slots
    (``__slots__ = ()``), as the curve forms do, share the twin; one with
    other slots or an instance dict has another layout, and the ``__class__``
    store raises TypeError.  The parameters of ``__new__`` are the init fields
    and ``__match_args__``.

    The class gets the shared methods below: ``repr``, ``==`` and ``hash``
    over the fields, a store or delete that raises
    ``dataclasses.FrozenInstanceError``, a ``__reduce__`` that rebuilds a
    pickle or copy through the constructor, and ``__replace__`` (which
    ``copy.replace`` calls from Python 3.13).  Its dataclass metadata is made
    on first read (``_DataclassMetadata``), so that ``dataclasses``, with
    ``inspect``, loads only when something uses it.  Like the dataclass
    decorator, this returns a new class: a zero-argument ``super()`` in the
    body would name the class it replaces.
    """
    names = tuple(name for name, kind in cls.__dict__.get("__annotations__", {}).items()
                  if not kind.startswith("ClassVar"))
    code = cls.__new__.__code__
    body = {key: value for key, value in cls.__dict__.items() if key not in ("__dict__", "__weakref__")}
    body.update(_VALUE_METHODS, __qualname__=cls.__qualname__, __slots__=names, _field_names=names,
                __match_args__=code.co_varnames[1:code.co_argcount],
                _twin=type(f"_{cls.__name__}Twin", (), {"__slots__": names}),
                __dataclass_fields__=_DataclassMetadata(), __dataclass_params__=_DataclassMetadata())
    return type(cls)(cls.__name__, cls.__bases__, body)


def _values(value) -> tuple:
    return tuple([getattr(value, name) for name in value._field_names])


def _repr(self) -> str:
    shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._field_names])
    return f"{type(self).__qualname__}({shown})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _reduce(self) -> tuple:
    return type(self), tuple([getattr(self, name) for name in self.__match_args__])


def _replace(self, /, **changes):
    import dataclasses

    return dataclasses.replace(self, **changes)


_VALUE_METHODS = {"__repr__": _repr, "__eq__": _eq, "__hash__": _hash, "__setattr__": _frozen_setattr,
                  "__delattr__": _frozen_delattr, "__reduce__": _reduce, "__replace__": _replace}


class _DataclassMetadata:
    """A value type's ``__dataclass_fields__`` or ``__dataclass_params__``, made
    on first read: the dataclass decorator runs on a shadow class with the same
    fields, each derived one ``field(init=False)``, and both of its results
    replace the descriptors on the declaring class, whose subclasses share
    them.  ``fields``, ``asdict``, ``astuple``, ``replace`` and
    ``is_dataclass`` then run on dataclasses' own metadata."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.owner, self.name = owner, name

    def __get__(self, instance, cls=None):
        import dataclasses

        owner = self.owner
        body = {"__annotations__": {name: owner.__annotations__[name] for name in owner._field_names},
                "__module__": owner.__module__, "__qualname__": owner.__qualname__}
        for name in owner._field_names:
            if name not in owner.__match_args__:
                body[name] = dataclasses.field(init=False)
        shadow = dataclasses.dataclass(frozen=True, slots=True)(type(owner.__name__, (), body))
        owner.__dataclass_fields__ = shadow.__dataclass_fields__
        owner.__dataclass_params__ = shadow.__dataclass_params__
        return getattr(owner, self.name)


def rel_close(a: float, b: float) -> bool:
    _check_in_range(a=a, b=b)
    return math.isclose(a, b, rel_tol=REL_TOL)


def _require(cond: bool, name: str, reason: str) -> None:
    if not cond:
        raise DomainError(name, reason)


def _finite(value) -> bool:
    """``math.isfinite``, but False, not OverflowError, for an int or Fraction
    beyond the binary64 range; a non-number still raises TypeError."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_in_range(**values) -> None:
    """``_number``'s range rule for plain arguments: DomainError(name, "must be finite")
    for the first int or Fraction past the binary64 range; any float passes."""
    for name, value in values.items():
        _require(isinstance(value, float) or _finite(value), name, "must be finite")


def _number(value, name: str):
    """A parameter field, unchanged, if it is a number: a non-bool int within
    the binary64 range, or a float, subclasses included.  A JSON field and a
    field of a parameter set take this one rule; bool (JSON true/false) is
    not a number.  A float's NaN or infinity is left to the form's rules,
    which name the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(name, f"must be a number, not {type(value).__name__}")
    _require(isinstance(value, float) or _finite(value), name, "must be finite")
    return value


def _check_finite(value: float, name: str) -> float:
    """A parameter field that is a number, and finite."""
    _require(math.isfinite(_number(value, name)), name, "must be finite")
    return value


def _check_finite_positive(value: float, name: str) -> float:
    _require(_check_finite(value, name) > 0, name, "must be positive")
    return value


def _check_exceeds_one(value: float, name: str) -> float:
    _require(_check_finite(value, name) > 1, name, "must exceed 1")
    return value


def _check_scale(scale: float, name: str, expr: str) -> float:
    # The scale, or a divisor, is computed with the form's own expression, so
    # finite positive fields can still overflow it or underflow it to a
    # subnormal or zero; an underflowed scale flattens the curve to y = 0 and
    # divides by zero in swaps.
    if not _finite(scale):
        raise DomainError(name, f"{expr} must be finite")
    if scale < MIN_NORMAL:
        raise DomainError(name, f"{expr} must be a positive normal float, not {scale!r}")
    return scale


# ---------------------------------------------------------------------------
# Parameter sets (one per curve form)
# ---------------------------------------------------------------------------


# A parameter set's __new__ checks nothing: the curve built from the set does.


@_value_type
class ReferenceParams:
    """Unshifted hyperbola x*y = x0*y0 through the starting balances."""

    x0: float
    y0: float

    form: ClassVar[str] = "reference"

    def __new__(cls, x0: float, y0: float):
        params = cls._twin()
        params.x0 = x0
        params.y0 = y0
        params.__class__ = cls
        return params


@_value_type
class BancorV2Params:
    """Starting balances plus the amplification constant A > 1."""

    x0: float
    y0: float
    A: float

    form: ClassVar[str] = "bancor_v2"

    def __new__(cls, x0: float, y0: float, A: float):
        params = cls._twin()
        params.x0 = x0
        params.y0 = y0
        params.A = A
        params.__class__ = cls
        return params


@_value_type
class UniswapV3Params:
    """Liquidity L and the marginal-price bounds of the tradeable range."""

    L: float
    p_high: float
    p_low: float

    form: ClassVar[str] = "uniswap_v3"

    def __new__(cls, L: float, p_high: float, p_low: float):
        params = cls._twin()
        params.L = L
        params.p_high = p_high
        params.p_low = p_low
        params.__class__ = cls
        return params


@_value_type
class CarbonParams:
    """One-balance form: a = sqrt(p_high) - sqrt(p_low), b = sqrt(p_low), z = y intercept."""

    a: float
    b: float
    z: float

    form: ClassVar[str] = "carbon"

    def __new__(cls, a: float, b: float, z: float):
        params = cls._twin()
        params.a = a
        params.b = b
        params.z = z
        params.__class__ = cls
        return params


ANCHOR_KINDS = ("center", "intercepts", "asymptotes")
_ANCHOR_REASON = f"must be one of {ANCHOR_KINDS}"

# JSON field names for the anchor coordinates, per anchor kind.
_ANCHOR_FIELDS = {
    "center": ("x0", "y0"),
    "intercepts": ("x_int", "y_int"),
    "asymptotes": ("x_asym", "y_asym"),
}


@_value_type
class NaturalParams:
    """Concentration constant c plus one anchor point of the real curve.

    The asymptote anchor is preferred: the invariant written against it is
    singularity-free on the whole curve.
    """

    c: float
    anchor: str
    anchor_x: float
    anchor_y: float

    form: ClassVar[str] = "natural"

    def __new__(cls, c: float, anchor: str, anchor_x: float, anchor_y: float):
        params = cls._twin()
        params.c = c
        params.anchor = anchor
        params.anchor_x = anchor_x
        params.anchor_y = anchor_y
        params.__class__ = cls
        return params


CurveParams = ReferenceParams | BancorV2Params | UniswapV3Params | CarbonParams | NaturalParams

FORM_REGISTRY = {
    cls.form: cls
    for cls in (ReferenceParams, BancorV2Params, UniswapV3Params, CarbonParams, NaturalParams)
}

# The parameter sets' __new__, which the timed paths call without
# ``type.__call__``, where no natural set is made.
_new_ReferenceParams = ReferenceParams.__new__
_new_BancorV2Params = BancorV2Params.__new__
_new_UniswapV3Params = UniswapV3Params.__new__
_new_CarbonParams = CarbonParams.__new__


# ---------------------------------------------------------------------------
# State, trade, geometry containers
# ---------------------------------------------------------------------------


@_value_type
class PoolState:
    """Current real token balances on a curve."""

    x: float
    y: float

    def __new__(cls, x: float, y: float):
        # An int takes the full checks, which accept it; a bool or any other
        # non-number fails their number rule, as a parameter field does.
        if not (type(x) is float and type(y) is float and 0.0 <= x <= _MAX and 0.0 <= y <= _MAX):
            _check_finite(x, "x")
            _check_finite(y, "y")
            _require(x >= 0, "x", "must be nonnegative")
            _require(y >= 0, "y", "must be nonnegative")
        state = cls._twin()
        state.x = x
        state.y = y
        state.__class__ = cls
        return state


@_value_type
class SwapDelta:
    """Signed trade amounts in the pool frame: dx and dy have opposite signs."""

    dx: float
    dy: float

    def __new__(cls, dx: float, dy: float):
        # The swaps store a delta that passes these checks themselves, and
        # call here only for a zero trade or one their own test rejected.
        # dx is checked first, so a NaN dx fails before dy is compared and
        # the checks name dx.
        _check_finite(dx, "dx")
        _check_finite(dy, "dy")
        if (dx == 0) != (dy == 0):
            raise DomainError("dx", "dx and dy must both be zero or both nonzero")
        if dx != 0 and (dx > 0) == (dy > 0):
            raise DomainError("dx", "dx and dy must have opposite signs")
        delta = cls._twin()
        delta.dx = dx
        delta.dy = dy
        delta.__class__ = cls
        return delta


@_value_type
class CurveGeometry:
    """Derived constants of a real curve.

    Intercepts are the maximum holdings of each token, asymptotes the negated
    shift constants (zero for an unshifted curve), p_high/p_low the marginal
    prices at full depletion of x and y, p0 their geometric mean, c the
    concentration constant sqrt(p_high/p_low) and phi = ln(c), which
    ``__new__`` derives: it takes every field but phi.  Each form hook builds
    its curve's geometry through ``_new_CurveGeometry``, this ``__new__``
    without ``type.__call__``.
    """

    x_int: float
    y_int: float
    x_asym: float
    y_asym: float
    p_high: float
    p_low: float
    p0: float
    c: float
    phi: float

    def __new__(cls, x_int: float, y_int: float, x_asym: float, y_asym: float,
                p_high: float, p_low: float, p0: float, c: float):
        geom = cls._twin()
        geom.x_int = x_int
        geom.y_int = y_int
        geom.x_asym = x_asym
        geom.y_asym = y_asym
        geom.p_high = p_high
        geom.p_low = p_low
        geom.p0 = p0
        geom.c = c
        geom.phi = math.log(c)
        geom.__class__ = cls
        return geom


# The __new__ of the values the timed paths build, called without ``type.__call__``.
_new_PoolState = PoolState.__new__
_new_CurveGeometry = CurveGeometry.__new__

# The swaps fill a ``SwapDelta`` twin, and ``apply_delta`` a ``PoolState``
# twin, inline, on the guard of the constructor they stand in for: calling
# ``__new__`` there instead cost 13.6 % of perfbench's pool_sim throughput
# (2-vCPU Xeon, Python 3.11.7).
_PoolStateTwin = PoolState._twin
_SwapDeltaTwin = SwapDelta._twin


@_value_type
class VirtualBounds:
    """Virtual-balance extremes over the tradeable range of the emulated curve."""

    min_xv: float
    max_xv: float
    min_yv: float
    max_yv: float

    def __new__(cls, min_xv: float, max_xv: float, min_yv: float, max_yv: float):
        bounds = cls._twin()
        bounds.min_xv = min_xv
        bounds.max_xv = max_xv
        bounds.min_yv = min_yv
        bounds.max_yv = max_yv
        bounds.__class__ = cls
        return bounds


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate(params: CurveParams) -> CurveParams:
    """Check all type invariants of a parameter set; returns it unchanged.

    Raises DomainError naming the offending field.  The rules are exactly
    those of curve construction, which this runs: the form's field rules and
    the core's check of the derived constants.  Degenerate limits are
    rejected rather than treated as limits: A = 1 and p_high = p_low both
    zero out a shift divisor.
    """
    _curve(curve_class(params), params)
    return params


def curve_class(params: CurveParams) -> type[ShiftedProductCurve]:
    """The curve class that constructs a parameter set's form."""
    try:
        return ShiftedProductCurve._classes[type(params)]
    except KeyError:
        raise DomainError("spec", f"unknown parameter type {type(params).__name__}") from None


# ---------------------------------------------------------------------------
# JSON spec schema: {"form": <tag>, ...fields}
# ---------------------------------------------------------------------------


def spec_from_dict(data: dict) -> CurveParams:
    if not isinstance(data, dict):
        raise DomainError("spec", "must be a JSON object")
    form = data.get("form")
    # a JSON array or object is unhashable, so it is not looked up
    if not isinstance(form, str) or form not in FORM_REGISTRY:
        raise DomainError("form", f"unknown form {form!r}; expected one of {sorted(FORM_REGISTRY)}")
    body = {k: v for k, v in data.items() if k != "form"}
    cls = FORM_REGISTRY[form]
    extra = {}
    if cls is NaturalParams:
        anchor = body.pop("anchor", None)
        _require(anchor in ANCHOR_KINDS, "anchor", _ANCHOR_REASON)
        nx, ny = _ANCHOR_FIELDS[anchor]
        keys = {"c": "c", "anchor_x": nx, "anchor_y": ny}
        extra["anchor"] = anchor
    else:
        keys = {name: name for name in cls.__slots__}
    missing = [key for key in keys.values() if key not in body]
    if missing:
        raise DomainError(missing[0], "missing field")
    values = {name: _number(body.pop(key), key) for name, key in keys.items()}
    if body:
        raise DomainError(next(iter(body)), f"unexpected field for form {form!r}")
    return validate(cls(**values, **extra))


def spec_to_dict(params: CurveParams) -> dict:
    if isinstance(params, NaturalParams):
        _require(params.anchor in ANCHOR_KINDS, "anchor", _ANCHOR_REASON)
        nx, ny = _ANCHOR_FIELDS[params.anchor]
        return {"form": params.form, "c": params.c, "anchor": params.anchor,
                nx: params.anchor_x, ny: params.anchor_y}
    out = {"form": params.form}
    out.update({name: getattr(params, name) for name in params.__slots__})
    return out


def load_spec(path: str) -> CurveParams:
    import json

    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, a UnicodeDecodeError of bytes that are not
            # UTF-8, or a RecursionError of arrays or objects nested too deeply
            raise DomainError("spec", f"invalid JSON: {exc}") from None
    return spec_from_dict(data)


# ---------------------------------------------------------------------------
# Shared real-curve interface
# ---------------------------------------------------------------------------


@_value_type
class ShiftedProductCurve:
    """Common operations on (x + shift_x)(y + shift_y) = scale, x, y >= 0.

    A form subclass names its parameter type, ``class C(ShiftedProductCurve,
    params_type=P)``, sets ``__slots__ = ()``, and supplies one hook,
    ``_constants``, that checks a parameter set of that type and maps it to
    ``(scale, geom)``; the shifts are the negated asymptotes, and everything
    else, every quote, price, slope and sample included, is derived here
    (the unshifted curve keeps its own swap formulas).  A form's native
    closed forms, where the paper states them, are test-side cross-checks,
    not overrides.  A form's domain is its field rules and the core's derived
    checks, which are the same for every form: ``_constants`` is the only hook
    a form supplies.  ``_curve`` runs it and those checks and builds every
    curve.
    Instances are immutable values, safe to share across threads.
    """

    params: CurveParams
    shift_x: float
    shift_y: float
    scale: float
    geom: CurveGeometry

    # Parameter type -> the curve class that constructs it, one per form.
    _classes: ClassVar[dict[type, type[ShiftedProductCurve]]] = {}

    # False only for the unshifted curve, which has no intercepts or price bounds.
    bounded: ClassVar[bool] = True

    def __init_subclass__(cls, params_type: type, **kwargs):
        # Not the zero-argument super(): its class cell names the class that
        # _value_type replaced with a slotted copy.
        super(ShiftedProductCurve, cls).__init_subclass__(**kwargs)
        ShiftedProductCurve._classes[params_type] = cls

    def __new__(cls, params: CurveParams):
        # A form builds its own parameter type only; _curve runs every other check
        if ShiftedProductCurve._classes.get(type(params)) is not cls:
            raise DomainError("spec", f"{cls.__name__} cannot build {type(params).__name__}")
        return _curve(cls, params)

    @staticmethod
    def _constants(params: CurveParams) -> tuple[float, CurveGeometry]:
        """(scale, geom) of a parameter set, or DomainError.

        The hook holds the form's field rules.  It accepts float fields on one
        chained comparison, and the scale and divisors it computes from them
        on one more; the field checks (``_check_finite_positive``,
        ``_check_exceeds_one``) and ``_check_scale`` run only when a comparison
        fails, in their fixed order, to name the failure.  It builds the
        geometry with ``_new_CurveGeometry``, passing its arguments by
        position.  It gives neither the shifts, which the core reads off the
        asymptotes, nor phi, which ``CurveGeometry`` derives from c.  The core
        then checks the other constants the hook derived, the same way for
        every form; a form adds no rule past them.  Curve construction,
        ``_curve``, which ``validate`` runs, is the one place all of these
        happen, so every curve is checked once, when it is built.
        """
        raise NotImplementedError

    # -- curve sampling ----------------------------------------------------
    # A balance is checked as a swap checks the balance it ends on, and as
    # ``PoolState`` checks it: the unshifted curve's bound is inf, which the
    # range rule alone would admit, so the guard also bounds the balance by
    # the largest float, which an int past binary64 fails.  The guard's
    # strict upper test sends a balance on the bound itself to the full
    # checks, which accept it.  The result is returned on one range test; a
    # negative one takes the snap, and one that overflowed raises the error
    # ``PoolState`` would raise.

    def y_from_x(self, x: float) -> float:
        x_int = self.geom.x_int
        if not (0.0 < x < x_int * _SLACK_BOUND and x <= _MAX):
            self._check_bounds("x", x, x_int)
            _require(x <= _MAX, "x", "must be finite")
        y = self.scale / (x + self.shift_x) - self.shift_y
        if 0.0 <= y <= _MAX:
            return y
        _require(y <= _MAX, "y", "must be finite")
        return _snap_nonnegative(y, self.shift_y)

    def x_from_y(self, y: float) -> float:
        y_int = self.geom.y_int
        if not (0.0 < y < y_int * _SLACK_BOUND and y <= _MAX):
            self._check_bounds("y", y, y_int)
            _require(y <= _MAX, "y", "must be finite")
        x = self.scale / (y + self.shift_y) - self.shift_x
        if 0.0 <= x <= _MAX:
            return x
        _require(x <= _MAX, "x", "must be finite")
        return _snap_nonnegative(x, self.shift_x)

    def state_from_x(self, x: float) -> PoolState:
        return _new_PoolState(PoolState, x, self.y_from_x(x))

    def state_at_price(self, price: float) -> PoolState:
        """On-curve state whose marginal price magnitude equals ``price``.

        Each value is accepted on one comparison; the snap and
        ``_check_bounds`` run only when it fails.  The test of x is strict
        below, as in the swaps, so that x == 0 takes ``_check_bounds``, which
        rejects it on the unshifted curve.  y is not range-checked.
        """
        if not 0.0 < price <= _MAX:
            raise DomainError("price", "must be a positive finite magnitude")
        x = math.sqrt(self.scale / price) - self.shift_x
        if not x >= 0.0:
            x = _snap_nonnegative(x, self.shift_x)
        y = math.sqrt(self.scale * price) - self.shift_y
        if not y >= 0.0:
            y = _snap_nonnegative(y, self.shift_y)
        x_int = self.geom.x_int
        if not 0.0 < x <= x_int * _SLACK_BOUND:
            self._check_bounds("x", x, x_int)
        return _new_PoolState(PoolState, x, y)

    # -- invariants ---------------------------------------------------------

    def invariant_residual(self, state: PoolState) -> float:
        return (state.x + self.shift_x) * (state.y + self.shift_y) / self.scale - 1.0

    def on_curve(self, state: PoolState, rel_tol: float = REL_TOL) -> bool:
        return abs(self.invariant_residual(state)) <= rel_tol

    # -- trades -------------------------------------------------------------

    # Each guard is a range test that accepts; the full check behind it runs
    # only when the test fails, to accept an int or name the failure (a bool
    # is not a number, as in ``PoolState``).  A balance that lands
    # exactly on 0 takes ``_check_bounds`` too, which accepts it on a bounded
    # curve and rejects it on the unshifted one.  A delta whose coupled amount
    # passes ``SwapDelta``'s rules on one test is stored inline; anything else
    # goes to the public constructor, after the one rule it does not know: a
    # nonzero amount whose coupled amount rounds to zero is below the
    # resolution of the curve, and no delta can represent it honestly.

    def swap_exact_in_x(self, state: PoolState, dx: float) -> SwapDelta:
        """Trade a signed amount of x; returns the coupled dy."""
        if not (type(dx) is float and -_MAX <= dx <= _MAX):
            _check_finite(dx, "dx")
        if dx == 0:
            return SwapDelta(0.0, 0.0)
        x_new = state.x + dx
        x_int = self.geom.x_int
        if not 0.0 < x_new <= x_int * _SLACK_BOUND:
            self._check_bounds("x", x_new, x_int)
        dy = self._dy(state, dx, x_new)
        if type(dy) is float and (dx < 0.0 < dy <= _MAX or -_MAX <= dy < 0.0 < dx):
            # filled inline: SwapDelta.__new__ here cost 13.6 % of pool_sim
            delta = _SwapDeltaTwin()
            delta.dx = dx
            delta.dy = dy
            delta.__class__ = SwapDelta
            return delta
        if dy == 0:
            raise DomainError("dx", _UNRESOLVED)
        return SwapDelta(dx, dy)

    def swap_exact_out_y(self, state: PoolState, dy: float) -> SwapDelta:
        """Trade a signed amount of y; returns the coupled dx."""
        if not (type(dy) is float and -_MAX <= dy <= _MAX):
            _check_finite(dy, "dy")
        if dy == 0:
            return SwapDelta(0.0, 0.0)
        y_new = state.y + dy
        y_int = self.geom.y_int
        if not 0.0 < y_new <= y_int * _SLACK_BOUND:
            self._check_bounds("y", y_new, y_int)
        dx = self._dx(state, dy, y_new)
        if type(dx) is float and (-_MAX <= dx < 0.0 < dy or dy < 0.0 < dx <= _MAX):
            # filled inline: SwapDelta.__new__ here cost 13.6 % of pool_sim
            delta = _SwapDeltaTwin()
            delta.dx = dx
            delta.dy = dy
            delta.__class__ = SwapDelta
            return delta
        if dx == 0:
            raise DomainError("dx", _UNRESOLVED)
        return SwapDelta(dx, dy)

    def _dy(self, state: PoolState, dx: float, x_new: float) -> float:
        """dy of a nonzero, in-bounds trade of dx that takes x to x_new."""
        return -dx * self.scale / ((state.x + self.shift_x) * (x_new + self.shift_x))

    def _dx(self, state: PoolState, dy: float, y_new: float) -> float:
        """dx of a nonzero, in-bounds trade of dy that takes y to y_new."""
        return -dy * self.scale / ((state.y + self.shift_y) * (y_new + self.shift_y))

    def effective_price(self, state: PoolState, delta: SwapDelta) -> float:
        """Realized dy/dx of a finite trade of delta.dx from this state."""
        if delta.dx == 0:
            raise DomainError("dx", "effective price is undefined for a zero-size trade")
        swapped = self.swap_exact_in_x(state, delta.dx)
        return swapped.dy / swapped.dx

    # -- prices -------------------------------------------------------------

    # The price and the slopes catch their errors rather than guard against
    # them: the slope is quadrature's integrand, and a try costs nothing on
    # Python 3.11+ until it raises.

    def marginal_price(self, state: PoolState) -> float:
        """Instantaneous dy/dx at the state (negative in the pool frame)."""
        try:
            return -(state.y + self.shift_y) / (state.x + self.shift_x)
        except ZeroDivisionError:
            # only the unshifted curve, at x = 0: a bounded one's shift_x is positive
            raise DomainError("x", "marginal price is undefined at x = 0") from None

    def price_slope_at_x(self, x: float) -> float:
        """dy/dx as a function of x alone; the integrand behind dy."""
        # Divided twice: the square under- or overflows long before the slope.
        try:
            s = x + self.shift_x
            return -(self.scale / s) / s
        except ZeroDivisionError:
            raise DomainError("x", _POLE) from None
        except OverflowError:
            raise DomainError("x", "must be finite") from None

    def price_slope_at_y(self, y: float) -> float:
        """dx/dy as a function of y alone; the integrand behind dx."""
        try:
            s = y + self.shift_y
            return -(self.scale / s) / s
        except ZeroDivisionError:
            raise DomainError("y", _POLE) from None
        except OverflowError:
            raise DomainError("y", "must be finite") from None

    # -- derived characterizations -------------------------------------------
    # Computed on demand, never at construction.  An unshifted curve has no
    # price bounds and so none of these; each raises DomainError for it.

    def concentration(self) -> float:
        """c = sqrt(p_high/p_low) = p_high/p0 = p0/p_low."""
        return _bounded(self.geom).c

    def amplification(self) -> float:
        """A = sqrt(c)/(sqrt(c) - 1): the factor the emulated virtual curve is scaled by."""
        root, gap = root_concentration(self.geom)
        return root / gap

    def center(self) -> tuple[float, float]:
        """(x0, y0): the one point shared with the unamplified curve, of slope -p0."""
        _, gap = root_concentration(self.geom)
        return self.shift_x * gap, self.shift_y * gap

    def liquidity(self) -> float:
        """L = sqrt(scale)."""
        _bounded(self.geom)
        return math.sqrt(self.scale)

    def reference_scale(self) -> float:
        """x0*y0 of the unamplified curve; always below scale."""
        x0, y0 = self.center()
        return x0 * y0

    def virtual_bounds(self) -> VirtualBounds:
        """Virtual-balance extremes over the tradeable range of the emulated curve."""
        _bounded(self.geom)
        return VirtualBounds(
            min_xv=self.shift_x,
            max_xv=self.scale / self.shift_y,
            min_yv=self.shift_y,
            max_yv=self.scale / self.shift_x,
        )

    def reference_bound_points(self) -> tuple[float, float, float, float]:
        """(min_x, max_x, min_y, max_y): where the unamplified curve quotes the bounds."""
        vb = self.virtual_bounds()
        amp = self.amplification()
        return vb.min_xv / amp, vb.max_xv / amp, vb.min_yv / amp, vb.max_yv / amp

    # -- bounds -------------------------------------------------------------

    def _check_bounds(self, axis: str, new: float, intercept: float) -> None:
        """Reject a new balance on ``axis`` outside [0, intercept], or NaN."""
        if math.isinf(intercept) and new <= 0:
            raise InsufficientLiquidity(f"trade would fully deplete the {axis} reserve")
        if not 0.0 <= new <= intercept * _SLACK_BOUND:
            raise BoundsExceeded(f"{axis} would leave [0, {intercept}]")


def _check_derived(shift_x: float, shift_y: float, geom: CurveGeometry, bounded: bool) -> None:
    """Reject derived constants that left the binary64 range.

    Fields that pass their form's rules can still overflow or underflow the
    constants the form computes from them, and a trade or translation that
    reads such a constant would divide by zero or by infinity.  A bounded
    curve's shifts must also be at least ``_MIN_SHIFT``.  ``_curve`` accepts
    valid constants on one chained comparison and runs these checks only to
    name the failure, in their fixed order, the shift rule last.
    """
    if bounded:
        named = (("shift_x", shift_x), ("shift_y", shift_y), ("x_int", geom.x_int),
                 ("y_int", geom.y_int), ("p_high", geom.p_high), ("p_low", geom.p_low),
                 ("p0", geom.p0))
    else:
        named = (("p0", geom.p0),)
    for name, value in named:
        if not 0.0 < value < math.inf:
            raise DomainError("spec", f"derived {name} must be finite and positive, not {value!r}")
    if bounded:
        if not 1.0 < geom.c < math.inf:
            raise DomainError("spec", f"derived c must be finite and above 1, not {geom.c!r}")
        for name, value in (("shift_x", shift_x), ("shift_y", shift_y)):
            if value < _MIN_SHIFT:
                raise DomainError("spec", f"derived {name} must be at least 2**-511, not {value!r}")


def _curve(cls: type[ShiftedProductCurve], params: CurveParams) -> ShiftedProductCurve:
    """The body of ``cls(params)`` past its form check, which ``curve_for`` and
    ``validate`` call directly: every check of curve construction, then plain
    slot stores into the twin that every form shares."""
    scale, geom = cls._constants(params)
    # 0.0 - asym keeps the unshifted curve's shifts +0.0, where -asym gives -0.0
    shift_x = 0.0 - geom.x_asym
    shift_y = 0.0 - geom.y_asym
    if cls.bounded:
        if not (_MIN_SHIFT <= shift_x <= _MAX and _MIN_SHIFT <= shift_y <= _MAX
                and 0.0 < geom.x_int <= _MAX and 0.0 < geom.y_int <= _MAX
                and 0.0 < geom.p_high <= _MAX and 0.0 < geom.p_low <= _MAX
                and 0.0 < geom.p0 <= _MAX and 1.0 < geom.c <= _MAX):
            _check_derived(shift_x, shift_y, geom, True)
    elif not 0.0 < geom.p0 <= _MAX:
        _check_derived(shift_x, shift_y, geom, False)
    curve = cls._twin()
    curve.params = params
    curve.shift_x = shift_x
    curve.shift_y = shift_y
    curve.scale = scale
    curve.geom = geom
    curve.__class__ = cls
    return curve


def _bounded(geom: CurveGeometry) -> CurveGeometry:
    if math.isinf(geom.x_int):
        raise DomainError("spec", "an unshifted curve has no price bounds")
    return geom


def root_concentration(geom: CurveGeometry) -> tuple[float, float]:
    """(sqrt(c), sqrt(c) - 1) of a bounded curve, the second without cancellation.

    Subtracting 1 from c or sqrt(c) loses digits as c -> 1.  Every form's
    geometry gives c - 1 = x_int/(-x_asym) as a quotient instead, and
    sqrt(c) - 1 = (c - 1)/(sqrt(c) + 1).
    """
    root = math.sqrt(_bounded(geom).c)
    return root, geom.x_int / -geom.x_asym / (root + 1.0)


def _snap_nonnegative(value: float, reference: float) -> float:
    # Values a final ulp below zero come from intercept arithmetic, not from
    # a genuinely negative balance: the slack is relative to the balance, or
    # shift, the value came from, at every scale.
    if value < 0 and abs(value) <= abs(reference) * BOUNDS_SLACK:
        return 0.0
    return value


def apply_delta(state: PoolState, delta: SwapDelta) -> PoolState:
    """New pool state after a trade, snapping a final-ulp negative to zero."""
    x = state.x + delta.dx
    y = state.y + delta.dy
    # PoolState's own guard stores the state, filled inline (PoolState.__new__
    # here cost 13.6 % of pool_sim); anything else is snapped, then checked by
    # the public constructor
    if 0.0 <= x <= _MAX and 0.0 <= y <= _MAX:
        new = _PoolStateTwin()
        new.x = x
        new.y = y
        new.__class__ = PoolState
        return new
    return PoolState(_snap_nonnegative(x, state.x), _snap_nonnegative(y, state.y))
