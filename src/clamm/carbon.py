"""The (a, b, z) curve family: the whole curve is pinned to one token balance.

With a = sqrt(p_high) - sqrt(p_low), b = sqrt(p_low) and z the y intercept,
the real curve is (x + z/(a*(a+b))) * (y + b*z/a) = z^2/a^2.  The form gives
only its constructor: it quotes and prices through the core's closed forms on
those shifts and scale.  Its native (a, b, z) closed forms are kept beside the
test suite's exact oracle, in tests/native.py, as an independent cross-check.
"""

from __future__ import annotations

from .params import (
    _MAX,
    MIN_NORMAL,
    CarbonParams,
    ShiftedProductCurve,
    _check_finite_positive,
    _check_scale,
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
        # (scale, x_int, y_int, x_asym, y_asym, p_high, p_low, p0, c)
        return scale, z / p0, z, -z / gap, -b * z / a, ab * ab, b * b, p0, ab / b

    def price_gap_above_center(self) -> float:
        """a*(a+b) = p_high - p0."""
        a, b = self.params.a, self.params.b
        return a * (a + b)
