"""The (L, p_high, p_low) curve family: price bounds are native parameters.

The real curve is (x + L/sqrt(p_high)) * (y + L*sqrt(p_low)) = L^2.  There is
no tick grid here; the bounds are arbitrary positive reals.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .params import (
    _MAX,
    MIN_NORMAL,
    ShiftedProductCurve,
    UniswapV3Params,
    _check_finite_positive,
    _check_scale,
)


class UniswapCurve(ShiftedProductCurve, params_type=UniswapV3Params):
    """Real curve with shifts L/sqrt(p_high), L*sqrt(p_low) and scale L^2."""

    __slots__ = ()

    params: UniswapV3Params

    @staticmethod
    def _constants(params: UniswapV3Params):
        liq, p_high, p_low = params.L, params.p_high, params.p_low
        if not (type(liq) is float and type(p_high) is float and type(p_low) is float
                and 0.0 < liq <= _MAX and 0.0 < p_low < p_high <= _MAX):
            _check_finite_positive(liq, "L")
            _check_finite_positive(p_high, "p_high")
            _check_finite_positive(p_low, "p_low")
            if not p_low < p_high:
                raise DomainError("p_low", "must be < p_high")
        scale = liq * liq
        if not MIN_NORMAL <= scale <= _MAX:
            _check_scale(scale, "L", "L^2")
        sqrt_high = math.sqrt(p_high)
        sqrt_low = math.sqrt(p_low)
        # sqrt_high - sqrt_low without cancellation: p_high - p_low is exact
        # (Sterbenz) when the range is narrow, where the roots' difference is not
        root_gap = (p_high - p_low) / (sqrt_high + sqrt_low)
        # (scale, x_int, y_int, x_asym, y_asym, p_high, p_low, p0, c)
        return (scale, liq * root_gap / (sqrt_high * sqrt_low), liq * root_gap, -liq / sqrt_high,
                -liq * sqrt_low, p_high, p_low, sqrt_high * sqrt_low, sqrt_high / sqrt_low)
