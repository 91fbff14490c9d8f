"""Curve construction for every parameter form, plus the natural-form curve."""

from __future__ import annotations

import math

# Importing the form modules registers their curve classes with curve_class.
from . import bancor, carbon, reference, uniswap  # noqa: F401
from .params import (
    ANCHOR_KINDS,
    _ANCHOR_FIELDS,
    _ANCHOR_REASON,
    CurveGeometry,
    CurveParams,
    NaturalParams,
    ShiftedProductCurve,
    _check_exceeds_one,
    _check_finite,
    _check_scale,
    _curve,
    _new_CurveGeometry,
    _require,
    curve_class,
)


class NaturalCurve(ShiftedProductCurve, params_type=NaturalParams):
    """Real curve stored as concentration constant plus one anchor point.

    Whatever the anchor kind, construction goes through the asymptote pair:
    the invariant (x - x_asym)(y - y_asym) = c * x_asym * y_asym is defined at
    every point of the curve, including center and intercepts.
    """

    __slots__ = ()

    params: NaturalParams

    @staticmethod
    def _constants(params: NaturalParams):
        c, anchor, ax, ay = params.c, params.anchor, params.anchor_x, params.anchor_y
        _check_exceeds_one(c, "c")
        _require(anchor in ANCHOR_KINDS, "anchor", _ANCHOR_REASON)
        _check_finite(ax, "anchor_x")
        _check_finite(ay, "anchor_y")
        nx, ny = _ANCHOR_FIELDS[anchor]
        if anchor == "asymptotes":
            _require(ax < 0, nx, "must be negative")
            _require(ay < 0, ny, "must be negative")
            x_asym, y_asym = ax, ay
        else:
            _require(ax > 0, nx, "must be positive")
            _require(ay > 0, ny, "must be positive")
            # the shift is the anchor over c - 1, or at the center over sqrt(c) - 1,
            # written (c - 1)/(sqrt(c) + 1) so that it does not cancel as c -> 1
            gap = c - 1.0 if anchor == "intercepts" else (c - 1.0) / (math.sqrt(c) + 1.0)
            x_asym, y_asym = -ax / gap, -ay / gap
        # x_asym*y_asym first, so that the pool with its tokens swapped has the same bits
        scale = _check_scale(x_asym * y_asym * c, "c", "c*x_asym*y_asym")
        p0 = y_asym / x_asym
        # (x_int, y_int, x_asym, y_asym, p_high, p_low, p0, c)
        return scale, _new_CurveGeometry(
            CurveGeometry,
            -x_asym * (c - 1.0),
            -y_asym * (c - 1.0),
            x_asym,
            y_asym,
            p0 * c,
            p0 / c,
            p0,
            c,
        )


def curve_for(params: CurveParams) -> ShiftedProductCurve:
    """Validated curve object for any parameter form."""
    cls = ShiftedProductCurve._classes.get(type(params))
    # curve_class raises the unknown-type error
    return _curve(curve_class(params) if cls is None else cls, params)


def geometry(params: CurveParams) -> CurveGeometry:
    """Derived constants of the curve; identical for equivalent parameter sets.

    A reference curve has no finite bounds: its intercept and price-bound
    fields come back infinite and its asymptotes zero.
    """
    return curve_for(params).geom
