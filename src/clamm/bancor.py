"""The amplified (x0, y0, A) curve family: virtual emulation and the real curve.

A pool holding (x0, y0) pretends to hold (A*x0, A*y0) on a larger hyperbola
(the virtual curve); shifting that curve back onto the axes gives the real
curve (x + x0*(A-1)) * (y + y0*(A-1)) = A^2*x0*y0, which reports true balances
and trades identically.
"""

from __future__ import annotations

import math

from .params import (
    BancorV2Params,
    CurveGeometry,
    ShiftedProductCurve,
    _check_finite_positive,
    _check_scale,
    _require,
)


class BancorCurve(ShiftedProductCurve, params_type=BancorV2Params):
    """Real curve with shifts H = x0*(A-1), V = y0*(A-1) and scale S = A^2*x0*y0."""

    params: BancorV2Params

    @staticmethod
    def _constants(params: BancorV2Params):
        x0 = _check_finite_positive(params.x0, "x0")
        y0 = _check_finite_positive(params.y0, "y0")
        amp = params.A
        _require(math.isfinite(amp), "A", "must be finite")
        _require(amp > 1, "A", "must exceed 1")
        scale = _check_scale(amp * amp * x0 * y0, "A", "A^2*x0*y0")
        # c = A^2/(A-1)^2 = p_high/p0 = p0/p_low
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
