"""Curve construction for every parameter form, plus the natural-form curve."""

from __future__ import annotations

import math

from .bancor import BancorCurve
from .carbon import CarbonCurve
from .params import (
    BancorV2Params,
    CarbonParams,
    CurveGeometry,
    CurveParams,
    NaturalParams,
    ReferenceParams,
    ShiftedProductCurve,
    UniswapV3Params,
    natural_asymptotes,
    validate,
)
from .reference import ReferenceCurve
from .uniswap import UniswapCurve


class NaturalCurve(ShiftedProductCurve):
    """Real curve stored as concentration constant plus one anchor point.

    Whatever the anchor kind, construction goes through the asymptote pair:
    the invariant (x - x_asym)(y - y_asym) = c * x_asym * y_asym is defined at
    every point of the curve, including center and intercepts.
    """

    params: NaturalParams

    @staticmethod
    def _constants(params: NaturalParams):
        c = params.c
        x_asym, y_asym = natural_asymptotes(params)
        p0 = y_asym / x_asym
        return -x_asym, -y_asym, c * x_asym * y_asym, CurveGeometry(
            x_int=-x_asym * (c - 1.0),
            y_int=-y_asym * (c - 1.0),
            x_asym=x_asym,
            y_asym=y_asym,
            p_high=p0 * c,
            p_low=p0 / c,
            p0=p0,
            c=c,
            phi=math.log(c),
        )


_CURVE_CLASSES = {
    ReferenceParams: ReferenceCurve,
    BancorV2Params: BancorCurve,
    UniswapV3Params: UniswapCurve,
    CarbonParams: CarbonCurve,
    NaturalParams: NaturalCurve,
}


def curve_for(params: CurveParams) -> ShiftedProductCurve:
    """Validated curve object for any parameter form."""
    cls = _CURVE_CLASSES.get(type(params))
    if cls is None:
        validate(params)  # raises DomainError with the right message
        raise AssertionError("unreachable")
    return cls(params)


def geometry(params: CurveParams) -> CurveGeometry:
    """Derived constants of the curve; identical for equivalent parameter sets.

    A reference curve has no finite bounds: its intercept and price-bound
    fields come back infinite and its asymptotes zero.
    """
    return curve_for(params).geom
