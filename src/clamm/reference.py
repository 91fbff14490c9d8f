"""The unshifted x*y = x0*y0 curve: swaps and the log-form identity."""

from __future__ import annotations

import math

from .params import (
    _MAX,
    MIN_NORMAL,
    PoolState,
    ReferenceParams,
    ShiftedProductCurve,
    SwapDelta,
    _check_finite_positive,
    _check_scale,
    rel_close,
)


class ReferenceCurve(ShiftedProductCurve, params_type=ReferenceParams):
    """Rectangular hyperbola through (x0, y0); quotes every price in (0, inf)."""

    __slots__ = ()

    params: ReferenceParams
    bounded = False

    @staticmethod
    def _constants(params: ReferenceParams):
        x0, y0 = params.x0, params.y0
        if not (type(x0) is float and type(y0) is float and 0.0 < x0 <= _MAX and 0.0 < y0 <= _MAX):
            _check_finite_positive(x0, "x0")
            _check_finite_positive(y0, "y0")
        scale = x0 * y0
        if not MIN_NORMAL <= scale <= _MAX:
            _check_scale(scale, "x0", "x0*y0")
        # No finite intercepts: the axes are the asymptotes.
        # (scale, x_int, y_int, x_asym, y_asym, p_high, p_low, p0, c)
        return scale, math.inf, math.inf, 0.0, 0.0, math.inf, 0.0, y0 / x0, math.inf

    def _dy(self, state: PoolState, dx: float, x_new: float) -> float:
        """dy = -dx*y/(x + dx); any dx > -x is admissible."""
        return -dx * state.y / x_new

    def _dx(self, state: PoolState, dy: float, y_new: float) -> float:
        """dx = -dy*x/(y + dy); exact depletion (dy <= -y) is unreachable."""
        return -dy * state.x / y_new

    def log_swap_identity_check(self, state: PoolState, delta: SwapDelta) -> bool:
        """True iff (y+dy)/y equals x/(x+dx), the separated-variable form."""
        if delta.dx == 0 and delta.dy == 0:
            return True
        if state.x + delta.dx <= 0 or state.y <= 0:
            return False
        ratio_y = (state.y + delta.dy) / state.y
        ratio_x = state.x / (state.x + delta.dx)
        return rel_close(ratio_y, ratio_x)
