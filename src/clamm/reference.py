"""The unshifted x*y = x0*y0 curve: swaps, prices, and the log-form identity."""

from __future__ import annotations

import math

from .errors import DomainError, InsufficientLiquidity
from .params import (
    CurveGeometry,
    PoolState,
    ReferenceParams,
    ShiftedProductCurve,
    SwapDelta,
    make_delta,
    rel_close,
)


class ReferenceCurve(ShiftedProductCurve):
    """Rectangular hyperbola through (x0, y0); quotes every price in (0, inf)."""

    params: ReferenceParams

    @staticmethod
    def _constants(params: ReferenceParams):
        # No finite intercepts: the axes are the asymptotes.
        return 0.0, 0.0, params.x0 * params.y0, CurveGeometry(
            x_int=math.inf,
            y_int=math.inf,
            x_asym=0.0,
            y_asym=0.0,
            p_high=math.inf,
            p_low=0.0,
            p0=params.y0 / params.x0,
            c=math.inf,
            phi=math.inf,
        )

    def swap_exact_in_x(self, state: PoolState, dx: float) -> SwapDelta:
        """dy = -dx*y/(x + dx); any dx > -x is admissible."""
        if not math.isfinite(dx):
            raise DomainError("dx", "must be finite")
        if dx == 0:
            return SwapDelta(0.0, 0.0)
        if state.x + dx <= 0:
            raise InsufficientLiquidity("trade would fully deplete the x reserve")
        dy = -dx * state.y / (state.x + dx)
        return make_delta(dx, dy)

    def swap_exact_out_y(self, state: PoolState, dy: float) -> SwapDelta:
        """dx = -dy*x/(y + dy); exact depletion (dy <= -y) is unreachable."""
        if not math.isfinite(dy):
            raise DomainError("dy", "must be finite")
        if dy == 0:
            return SwapDelta(0.0, 0.0)
        if state.y + dy <= 0:
            raise InsufficientLiquidity("trade would fully deplete the y reserve")
        dx = -dy * state.x / (state.y + dy)
        return make_delta(dx, dy)

    def marginal_price(self, state: PoolState) -> float:
        if state.x == 0:
            raise DomainError("x", "marginal price is undefined at x = 0")
        return -state.y / state.x

    def log_swap_identity_check(self, state: PoolState, delta: SwapDelta,
                                rel_tol: float = 1e-9) -> bool:
        """True iff (y+dy)/y equals x/(x+dx), the separated-variable form."""
        if delta.dx == 0 and delta.dy == 0:
            return True
        if state.x + delta.dx <= 0 or state.y <= 0:
            return False
        ratio_y = (state.y + delta.dy) / state.y
        ratio_x = state.x / (state.x + delta.dx)
        return rel_close(ratio_y, ratio_x, rel_tol=rel_tol)
