"""Curve construction for every parameter form, plus the natural-form curve."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class NaturalCurve(ShiftedProductCurve):
    """Real curve stored as concentration constant plus one anchor point.

    Whatever the anchor kind, construction goes through the asymptote pair:
    the invariant (x - x_asym)(y - y_asym) = c * x_asym * y_asym is defined at
    every point of the curve, including center and intercepts.
    """

    params: NaturalParams
    shift_x: float = field(init=False)
    shift_y: float = field(init=False)
    scale: float = field(init=False)
    geom: CurveGeometry = field(init=False)

    def __post_init__(self):
        validate(self.params)
        c = self.params.c
        x_asym, y_asym = natural_asymptotes(self.params)
        object.__setattr__(self, "shift_x", -x_asym)
        object.__setattr__(self, "shift_y", -y_asym)
        object.__setattr__(self, "scale", c * x_asym * y_asym)
        p0 = y_asym / x_asym
        object.__setattr__(self, "geom", CurveGeometry(
            x_int=-x_asym * (c - 1.0),
            y_int=-y_asym * (c - 1.0),
            x_asym=x_asym,
            y_asym=y_asym,
            p_high=p0 * c,
            p_low=p0 / c,
            p0=p0,
            c=c,
            phi=math.log(c),
        ))

    def concentration(self) -> float:
        return self.params.c

    def amplification(self) -> float:
        root = math.sqrt(self.params.c)
        return root / (root - 1.0)

    def center(self) -> tuple[float, float]:
        x_asym, y_asym = natural_asymptotes(self.params)
        factor = math.sqrt(self.params.c) - 1.0
        return -x_asym * factor, -y_asym * factor

    def liquidity(self) -> float:
        g = self.geom
        return g.y_int / (math.sqrt(g.p_high) - math.sqrt(g.p_low))

    def reference_scale(self) -> float:
        x0, y0 = self.center()
        return x0 * y0


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
