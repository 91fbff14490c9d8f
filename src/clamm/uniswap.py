"""The (L, p_high, p_low) curve family: price bounds are native parameters.

The real curve is (x + L/sqrt(p_high)) * (y + L*sqrt(p_low)) = L^2.  There is
no tick grid here; the bounds are arbitrary positive reals.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .params import (
    ShiftedProductCurve,
    UniswapV3Params,
    _check_finite_positive,
    _check_scale,
    _geometry,
)


class UniswapCurve(ShiftedProductCurve, params_type=UniswapV3Params):
    """Real curve with shifts L/sqrt(p_high), L*sqrt(p_low) and scale L^2."""

    __slots__ = ()

    params: UniswapV3Params

    @staticmethod
    def _constants(params: UniswapV3Params):
        liq = _check_finite_positive(params.L, "L")
        p_high = _check_finite_positive(params.p_high, "p_high")
        p_low = _check_finite_positive(params.p_low, "p_low")
        if not p_low < p_high:
            raise DomainError("p_low", "must be < p_high")
        scale = _check_scale(liq * liq, "L", "L^2")
        sqrt_high = math.sqrt(p_high)
        sqrt_low = math.sqrt(p_low)
        # sqrt_high - sqrt_low without cancellation: p_high - p_low is exact
        # (Sterbenz) when the range is narrow, where the roots' difference is not
        root_gap = (p_high - p_low) / (sqrt_high + sqrt_low)
        return scale, _geometry(
            x_int=liq * root_gap / (sqrt_high * sqrt_low),
            y_int=liq * root_gap,
            x_asym=-liq / sqrt_high,
            y_asym=-liq * sqrt_low,
            p_high=p_high,
            p_low=p_low,
            p0=sqrt_high * sqrt_low,
            c=sqrt_high / sqrt_low,
        )
