"""The (a, b, z) curve family: the whole curve is pinned to one token balance.

With a = sqrt(p_high) - sqrt(p_low), b = sqrt(p_low) and z the y intercept,
the real curve is (x + z/(a*(a+b))) * (y + b*z/a) = z^2/a^2.  The closed forms
below are kept in their native (a, b, z) phenotype rather than reduced to the
cached shifts, so cross-parameterization agreement is a real check.
"""

from __future__ import annotations

from .errors import DomainError
from .params import (
    _MAX,
    _MIN_SHIFT,
    _POLE,
    MIN_NORMAL,
    CarbonParams,
    CurveGeometry,
    PoolState,
    ShiftedProductCurve,
    _check_finite_positive,
    _check_scale,
    _new_CurveGeometry,
)


class CarbonCurve(ShiftedProductCurve, params_type=CarbonParams):
    """Real curve in the one-balance parameterization."""

    __slots__ = ()

    params: CarbonParams

    @staticmethod
    def _constants(params: CarbonParams):
        a, b, z = params.a, params.b, params.z
        if not (type(a) is float and type(b) is float and type(z) is float
                and 0.0 < a <= _MAX and 0.0 < b <= _MAX and 0.0 < z <= _MAX):
            _check_finite_positive(a, "a")
            _check_finite_positive(b, "b")
            _check_finite_positive(z, "z")
        scale = (z / a) * (z / a)
        # a*(a+b) = p_high - p0 divides the x shift, b*(a+b) = p0 the x intercept
        ab = a + b
        gap = a * ab
        p0 = b * ab
        if not (MIN_NORMAL <= scale <= _MAX and MIN_NORMAL <= gap <= _MAX and MIN_NORMAL <= p0 <= _MAX):
            _check_scale(scale, "z", "(z/a)^2")
            _check_scale(gap, "a", "a*(a+b)")
            _check_scale(p0, "b", "b*(a+b)")
        # (x_int, y_int, x_asym, y_asym, p_high, p_low, p0, c)
        return scale, _new_CurveGeometry(CurveGeometry, z / p0, z, -z / gap, -b * z / a,
                                         ab * ab, b * b, p0, ab / b)

    @staticmethod
    def _check_native(params: CarbonParams) -> None:
        # The native swap denominators are at least z^2 and (b*z)^2, normal
        # floats once z and b*z are at least 2**-511.  Checked after the
        # core's rules, so that a spec they reject keeps its error.
        if not _MIN_SHIFT <= params.z:
            raise DomainError("z", f"must be at least 2**-511, not {params.z!r}")
        if not _MIN_SHIFT <= params.b * params.z:
            raise DomainError("b", f"b*z must be at least 2**-511, not {params.b * params.z!r}")

    # -- native closed forms ---------------------------------------------------
    # Each reads the parameter set once and forms a + b once; the operations
    # run in the order of the formulas as written, except that the slopes
    # divide before they square, like the core's.

    def _dy(self, state: PoolState, dx: float, x_new: float) -> float:
        params = self.params
        a, b, z = params.a, params.b, params.z
        ab = a + b
        gain = a * ab
        return -dx * z * z * ab * ab / ((state.x * gain + z) * (x_new * gain + z))

    def _dx(self, state: PoolState, dy: float, y_new: float) -> float:
        params = self.params
        a, z = params.a, params.z
        bz = params.b * z
        return -dy * z * z / ((a * state.y + bz) * (a * y_new + bz))

    def marginal_price(self, state: PoolState) -> float:
        params = self.params
        a, b, z = params.a, params.b, params.z
        ab = a + b
        return -ab * (a * state.y + b * z) / (state.x * a * ab + z)

    def price_slope_at_x(self, x: float) -> float:
        params = self.params
        a, z = params.a, params.z
        ab = a + params.b
        try:
            q = z * ab / (x * a * ab + z)
        except ZeroDivisionError:
            raise DomainError("x", _POLE) from None
        except OverflowError:
            raise DomainError("x", "must be finite") from None
        return -q * q

    def price_slope_at_y(self, y: float) -> float:
        params = self.params
        a, z = params.a, params.z
        try:
            q = z / (a * y + params.b * z)
        except ZeroDivisionError:
            raise DomainError("y", _POLE) from None
        except OverflowError:
            raise DomainError("y", "must be finite") from None
        return -q * q

    def price_gap_above_center(self) -> float:
        """a*(a+b) = p_high - p0."""
        a, b = self.params.a, self.params.b
        return a * (a + b)
