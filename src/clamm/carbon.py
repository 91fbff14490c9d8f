"""The (a, b, z) curve family: the whole curve is pinned to one token balance.

With a = sqrt(p_high) - sqrt(p_low), b = sqrt(p_low) and z the y intercept,
the real curve is (x + z/(a*(a+b))) * (y + b*z/a) = z^2/a^2.  The closed forms
below are kept in their native (a, b, z) phenotype rather than reduced to the
cached shifts, so cross-parameterization agreement is a real check.
"""

from __future__ import annotations

from .errors import DomainError
from .params import (
    CarbonParams,
    CurveGeometry,
    PoolState,
    ShiftedProductCurve,
    _MIN_SHIFT,
    _check_finite_positive,
    _check_scale,
)


class CarbonCurve(ShiftedProductCurve, params_type=CarbonParams):
    """Real curve in the one-balance parameterization."""

    params: CarbonParams

    def __init__(self, params: CarbonParams):
        super().__init__(params)
        # The native swap and slope denominators are at least z^2 and (b*z)^2,
        # normal floats once z and b*z are at least 2**-511.  Checked after the
        # core's rules, so that a spec they reject keeps its error.
        if not (_MIN_SHIFT <= params.z and _MIN_SHIFT <= params.b * params.z):
            if not _MIN_SHIFT <= params.z:
                raise DomainError("z", f"must be at least 2**-511, not {params.z!r}")
            raise DomainError("b", f"b*z must be at least 2**-511, not {params.b * params.z!r}")

    @staticmethod
    def _constants(params: CarbonParams):
        a = _check_finite_positive(params.a, "a")
        b = _check_finite_positive(params.b, "b")
        z = _check_finite_positive(params.z, "z")
        scale = _check_scale((z / a) * (z / a), "z", "(z/a)^2")
        # a*(a+b) = p_high - p0 divides the x shift, b*(a+b) = p0 the x intercept
        gap = _check_scale(a * (a + b), "a", "a*(a+b)")
        p0 = _check_scale(b * (a + b), "b", "b*(a+b)")
        return scale, CurveGeometry(
            x_int=z / p0,
            y_int=z,
            x_asym=-z / gap,
            y_asym=-b * z / a,
            p_high=(a + b) * (a + b),
            p_low=b * b,
            p0=p0,
            c=(a + b) / b,
        )

    # -- native closed forms ---------------------------------------------------

    def _dy(self, state: PoolState, dx: float, x_new: float) -> float:
        a, b, z = self.params.a, self.params.b, self.params.z
        gain = a * (a + b)
        return -dx * z * z * (a + b) * (a + b) / ((state.x * gain + z) * (x_new * gain + z))

    def _dx(self, state: PoolState, dy: float, y_new: float) -> float:
        a, b, z = self.params.a, self.params.b, self.params.z
        return -dy * z * z / ((a * state.y + b * z) * (a * y_new + b * z))

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
