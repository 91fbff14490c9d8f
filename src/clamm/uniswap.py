"""The (L, p_high, p_low) curve family: price bounds are native parameters.

The real curve is (x + L/sqrt(p_high)) * (y + L*sqrt(p_low)) = L^2.  There is
no tick grid here; the bounds are arbitrary positive reals.
"""

from __future__ import annotations

import math

from .params import CurveGeometry, ShiftedProductCurve, UniswapV3Params


class UniswapCurve(ShiftedProductCurve):
    """Real curve with shifts L/sqrt(p_high), L*sqrt(p_low) and scale L^2."""

    params: UniswapV3Params

    @staticmethod
    def _constants(params: UniswapV3Params):
        liq, p_high, p_low = params.L, params.p_high, params.p_low
        sqrt_high = math.sqrt(p_high)
        sqrt_low = math.sqrt(p_low)
        c = sqrt_high / sqrt_low
        # sqrt_high - sqrt_low without cancellation: p_high - p_low is exact
        # (Sterbenz) when the range is narrow, where the roots' difference is not
        root_gap = (p_high - p_low) / (sqrt_high + sqrt_low)
        return liq / sqrt_high, liq * sqrt_low, liq * liq, CurveGeometry(
            x_int=liq * root_gap / (sqrt_high * sqrt_low),
            y_int=liq * root_gap,
            x_asym=-liq / sqrt_high,
            y_asym=-liq * sqrt_low,
            p_high=p_high,
            p_low=p_low,
            p0=sqrt_high * sqrt_low,
            c=c,
            phi=math.log(c),
        )
