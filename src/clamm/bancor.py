"""The amplified (x0, y0, A) curve family: virtual emulation and the real curve.

A pool holding (x0, y0) pretends to hold (A*x0, A*y0) on a larger hyperbola
(the virtual curve); shifting that curve back onto the axes gives the real
curve (x + x0*(A-1)) * (y + y0*(A-1)) = A^2*x0*y0, which reports true balances
and trades identically.
"""

from __future__ import annotations

from .params import (
    _MAX,
    MIN_NORMAL,
    BancorV2Params,
    ShiftedProductCurve,
    _check_exceeds_one,
    _check_finite_positive,
    _check_scale,
)


class BancorCurve(ShiftedProductCurve, params_type=BancorV2Params):
    """Real curve with shifts H = x0*(A-1), V = y0*(A-1) and scale S = A^2*x0*y0."""

    __slots__ = ()

    params: BancorV2Params

    @staticmethod
    def _constants(params: BancorV2Params):
        x0, y0, amp = params.x0, params.y0, params.A
        if not (type(x0) is float and type(y0) is float and type(amp) is float
                and 0.0 < x0 <= _MAX and 0.0 < y0 <= _MAX and 1.0 < amp <= _MAX):
            _check_finite_positive(x0, "x0")
            _check_finite_positive(y0, "y0")
            _check_exceeds_one(amp, "A")
        # x0*y0 first, so that the pool with its tokens swapped has the same bits
        scale = x0 * y0 * (amp * amp)
        if not MIN_NORMAL <= scale <= _MAX:
            _check_scale(scale, "A", "A^2*x0*y0")
        # c = A^2/(A-1)^2 = p_high/p0 = p0/p_low
        c = amp * amp / ((amp - 1.0) * (amp - 1.0))
        p0 = y0 / x0
        # (scale, x_int, y_int, x_asym, y_asym, p_high, p_low, p0, c)
        return (scale, x0 * (2.0 * amp - 1.0) / (amp - 1.0), y0 * (2.0 * amp - 1.0) / (amp - 1.0),
                -x0 * (amp - 1.0), -y0 * (amp - 1.0), c * p0, p0 / c, p0, c)
