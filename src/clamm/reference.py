"""The unshifted x*y = x0*y0 curve: swaps, prices, and the log-form identity."""

from __future__ import annotations

import math

from .errors import DomainError
from .params import (
    PoolState,
    ReferenceParams,
    ShiftedProductCurve,
    SwapDelta,
    _check_finite_positive,
    _check_scale,
    _geometry,
    rel_close,
)


class ReferenceCurve(ShiftedProductCurve, params_type=ReferenceParams):
    """Rectangular hyperbola through (x0, y0); quotes every price in (0, inf)."""

    __slots__ = ()

    params: ReferenceParams
    bounded = False

    @staticmethod
    def _constants(params: ReferenceParams):
        x0 = _check_finite_positive(params.x0, "x0")
        y0 = _check_finite_positive(params.y0, "y0")
        scale = _check_scale(x0 * y0, "x0", "x0*y0")
        # No finite intercepts: the axes are the asymptotes.
        return scale, _geometry(
            x_int=math.inf,
            y_int=math.inf,
            x_asym=0.0,
            y_asym=0.0,
            p_high=math.inf,
            p_low=0.0,
            p0=y0 / x0,
            c=math.inf,
        )

    def _dy(self, state: PoolState, dx: float, x_new: float) -> float:
        """dy = -dx*y/(x + dx); any dx > -x is admissible."""
        return -dx * state.y / x_new

    def _dx(self, state: PoolState, dy: float, y_new: float) -> float:
        """dx = -dy*x/(y + dy); exact depletion (dy <= -y) is unreachable."""
        return -dy * state.x / y_new

    def price_slope_at_x(self, x: float) -> float:
        """-x0*y0/x**2, divided twice: x*x under- or overflows long before the slope."""
        return -(self.scale / x) / x

    def price_slope_at_y(self, y: float) -> float:
        """-x0*y0/y**2, divided twice like ``price_slope_at_x``."""
        return -(self.scale / y) / y

    def marginal_price(self, state: PoolState) -> float:
        if state.x == 0:
            raise DomainError("x", "marginal price is undefined at x = 0")
        return -state.y / state.x

    def log_swap_identity_check(self, state: PoolState, delta: SwapDelta) -> bool:
        """True iff (y+dy)/y equals x/(x+dx), the separated-variable form."""
        if delta.dx == 0 and delta.dy == 0:
            return True
        if state.x + delta.dx <= 0 or state.y <= 0:
            return False
        ratio_y = (state.y + delta.dy) / state.y
        ratio_x = state.x / (state.x + delta.dx)
        return rel_close(ratio_y, ratio_x)
