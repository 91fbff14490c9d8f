"""Curve construction for every parameter form, plus the natural-form curve."""

from __future__ import annotations

import math

# Importing the form modules registers their curve classes with curve_class.
from . import bancor, carbon, reference, uniswap  # noqa: F401
from .params import (
    ANCHOR_KINDS,
    _ANCHOR_FIELDS,
    CurveGeometry,
    CurveParams,
    NaturalParams,
    ShiftedProductCurve,
    _check_exceeds_one,
    _check_scale,
    _curve,
    _geometry,
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
        c = _check_exceeds_one(params.c, "c")
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
        scale = _check_scale(c * x_asym * y_asym, "c", "c*x_asym*y_asym")
        p0 = y_asym / x_asym
        return scale, _geometry(
            x_int=-x_asym * (c - 1.0),
            y_int=-y_asym * (c - 1.0),
            x_asym=x_asym,
            y_asym=y_asym,
            p_high=p0 * c,
            p_low=p0 / c,
            p0=p0,
            c=c,
        )


def curve_for(params: CurveParams) -> ShiftedProductCurve:
    """Validated curve object for any parameter form."""
    return _curve(curve_class(params), params)


def geometry(params: CurveParams) -> CurveGeometry:
    """Derived constants of the curve; identical for equivalent parameter sets.

    A reference curve has no finite bounds: its intercept and price-bound
    fields come back infinite and its asymptotes zero.
    """
    return curve_for(params).geom
