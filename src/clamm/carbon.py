"""The (a, b, z) curve family: the whole curve is pinned to one token balance.

With a = sqrt(p_high) - sqrt(p_low), b = sqrt(p_low) and z the y intercept,
the real curve is (x + z/(a*(a+b))) * (y + b*z/a) = z^2/a^2.  The closed forms
below are kept in their native (a, b, z) phenotype rather than reduced to the
cached shifts, so cross-parameterization agreement is a real check.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .params import (
    CarbonParams,
    CurveGeometry,
    PoolState,
    ShiftedProductCurve,
    SwapDelta,
    make_delta,
)


class CarbonCurve(ShiftedProductCurve):
    """Real curve in the one-balance parameterization."""

    params: CarbonParams

    @staticmethod
    def _constants(params: CarbonParams):
        a, b, z = params.a, params.b, params.z
        c = (a + b) / b
        return z / (a * (a + b)), b * z / a, (z / a) * (z / a), CurveGeometry(
            x_int=z / (b * (a + b)),
            y_int=z,
            x_asym=-z / (a * (a + b)),
            y_asym=-b * z / a,
            p_high=(a + b) * (a + b),
            p_low=b * b,
            p0=b * (a + b),
            c=c,
            phi=math.log(c),
        )

    # -- native closed forms ---------------------------------------------------

    def swap_exact_in_x(self, state: PoolState, dx: float) -> SwapDelta:
        if not math.isfinite(dx):
            raise DomainError("dx", "must be finite")
        if dx == 0:
            return SwapDelta(0.0, 0.0)
        x_new = state.x + dx
        self._check_bounds("x", x_new, self.geom.x_int)
        a, b, z = self.params.a, self.params.b, self.params.z
        gain = a * (a + b)
        dy = -dx * z * z * (a + b) * (a + b) / ((state.x * gain + z) * (x_new * gain + z))
        return make_delta(dx, dy)

    def swap_exact_out_y(self, state: PoolState, dy: float) -> SwapDelta:
        if not math.isfinite(dy):
            raise DomainError("dy", "must be finite")
        if dy == 0:
            return SwapDelta(0.0, 0.0)
        y_new = state.y + dy
        self._check_bounds("y", y_new, self.geom.y_int)
        a, b, z = self.params.a, self.params.b, self.params.z
        dx = -dy * z * z / ((a * state.y + b * z) * (a * y_new + b * z))
        return make_delta(dx, dy)

    def marginal_price(self, state: PoolState) -> float:
        a, b, z = self.params.a, self.params.b, self.params.z
        return -(a + b) * (a * state.y + b * z) / (state.x * a * (a + b) + z)

    def price_slope_at_x(self, x: float) -> float:
        a, b, z = self.params.a, self.params.b, self.params.z
        den = x * a * (a + b) + z
        return -z * z * (a + b) * (a + b) / (den * den)

    def price_slope_at_y(self, y: float) -> float:
        a, b, z = self.params.a, self.params.b, self.params.z
        den = a * y + b * z
        return -z * z / (den * den)

    def price_gap_above_center(self) -> float:
        """a*(a+b) = p_high - p0."""
        a, b = self.params.a, self.params.b
        return a * (a + b)
