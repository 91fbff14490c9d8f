"""Rotation onto the t/u axes, unit-hyperbola normalization, hyperbolic angles.

A clockwise eighth turn maps x*y = k onto t^2 - u^2 = 2k; dividing by
sqrt(2k) lands every curve of the family on the unit hyperbola
t^2 - u^2 = 1.  On that curve the tradeable price range spans a hyperbolic
angle phi (an area, not a rotation), and e^phi is the concentration constant.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .params import _MAX, REL_TOL, _value_type

_SQRT2 = math.sqrt(2.0)

# Bound on the rounding error of t_hat^2 - u_hat^2 - 1, per unit of t_hat^2 + u_hat^2:
# twice the worst measured over 200000 on-curve balance pairs.
_SQUARES_ROUNDING = 16 * 2.0 ** -53

# The matrix of the clockwise eighth turn (theta = -pi/4) that aligns x*y
# hyperbolas with the t axis.
AXIS_ALIGNMENT = ((1.0 / _SQRT2, 1.0 / _SQRT2), (-1.0 / _SQRT2, 1.0 / _SQRT2))


@_value_type
class RotatedPoint:
    """A point in the rotated (t, u) frame."""

    t: float
    u: float

    def __new__(cls, t: float, u: float):
        point = cls._twin()
        point.t = t
        point.u = u
        point.__class__ = cls
        return point


@_value_type
class UnitPoint:
    """A point on the unit hyperbola t_hat^2 - u_hat^2 = 1."""

    t_hat: float
    u_hat: float

    def __new__(cls, t_hat: float, u_hat: float):
        point = cls._twin()
        point.t_hat = t_hat
        point.u_hat = u_hat
        point.__class__ = cls
        return point


@_value_type
class TrigValues:
    """sinh, cosh, tanh and e^phi of one hyperbolic angle phi."""

    sinh: float
    cosh: float
    tanh: float
    e_phi: float

    def __new__(cls, sinh: float, cosh: float, tanh: float, e_phi: float):
        values = cls._twin()
        values.sinh = sinh
        values.cosh = cosh
        values.tanh = tanh
        values.e_phi = e_phi
        values.__class__ = cls
        return values


def rotate(x: float, y: float) -> RotatedPoint:
    """Map (x, y) to (t, u) = ((x+y)/sqrt2, (y-x)/sqrt2)."""
    if not -_MAX <= x <= _MAX:
        raise DomainError("x", "must be finite")
    if not -_MAX <= y <= _MAX:
        raise DomainError("y", "must be finite")
    (m00, m01), (m10, m11) = AXIS_ALIGNMENT
    t, u = m00 * x + m01 * y, m10 * x + m11 * y
    if not (-_MAX <= t <= _MAX and -_MAX <= u <= _MAX):
        raise DomainError("t" if -_MAX <= u <= _MAX else "u", "overflows the float range")
    return RotatedPoint(t=t, u=u)


def normalize(point: RotatedPoint, k: float) -> UnitPoint:
    """Rescale a rotated point of the curve x*y = k onto the unit hyperbola.

    Rejects points that do not actually sit on that curve: the normalized
    coordinates must satisfy t_hat^2 - u_hat^2 = 1 within REL_TOL plus the
    difference's rounding error, which grows with the balance ratio, and
    their squares must be finite.  A coordinate that is an int past binary64
    is rejected as not finite.
    """
    if not 0.0 < k <= _MAX:
        raise DomainError("k", "must be a positive finite scale")
    denom = math.sqrt(2.0 * k)
    try:
        t_hat = point.t / denom
        u_hat = point.u / denom
    except OverflowError:
        raise DomainError("point", "coordinates must be finite") from None
    tt, uu = t_hat * t_hat, u_hat * u_hat
    if not abs(tt - uu - 1.0) <= REL_TOL + _SQUARES_ROUNDING * (tt + uu) < math.inf:
        raise DomainError("point", "not on the curve with the given scale")
    return UnitPoint(t_hat, u_hat)


def unit_from_state(x: float, y: float) -> UnitPoint:
    """Scale-free unit-hyperbola image of a balance pair with x, y > 0.

    (x, y) and (lam*x, lam*y) map to the same point, which is why the
    reference and virtual views of a pool coincide here.  Axis points have no
    finite image under this form; use the price-based forms there.
    """
    if not 0.0 < x <= _MAX:
        raise DomainError("x", "must be positive and finite")
    if not 0.0 < y <= _MAX:
        raise DomainError("y", "must be positive and finite")
    # Two small balances are scaled up by an even power of two, which moves no
    # bit of the point and keeps their halves and sqrt(x)*sqrt(y) normal; the
    # halves keep x + y, y - x and 2*sqrt(x*y) from overflowing.
    if x < 2.0 ** -500 and y < 2.0 ** -500:
        x, y = x * 2.0 ** 600, y * 2.0 ** 600
    denom = math.sqrt(x) * math.sqrt(y)
    return UnitPoint(t_hat=(0.5 * x + 0.5 * y) / denom, u_hat=(0.5 * y - 0.5 * x) / denom)


def u_hat_from_price(price: float) -> float:
    """Vertical unit-hyperbola coordinate of the state quoting this price.

    Strictly increasing in price, odd under price -> 1/price.
    """
    if not 0.0 < price <= _MAX:
        raise DomainError("price", "must be positive and finite")
    return (price - 1.0) / (2.0 * math.sqrt(price))


def t_hat_from_price(price: float) -> float:
    """Horizontal companion of u_hat_from_price."""
    if not 0.0 < price <= _MAX:
        raise DomainError("price", "must be positive and finite")
    return (price + 1.0) / (2.0 * math.sqrt(price))


# Inverse hyperbolic sine; the C library's is stable near zero (a narrow price
# range), where the naive ln(u + sqrt(u^2 + 1)) collapses, and cannot overflow.
arsinh = math.asinh


def _check_range(p_high: float, p_low: float) -> None:
    if not 0.0 < p_low <= _MAX:
        raise DomainError("p_low", "must be positive and finite")
    if not p_low < p_high <= _MAX:
        raise DomainError("p_high", "must be finite and exceed p_low")


def hyperbolic_angle(p_high: float, p_low: float) -> float:
    """Angle phi spanned by the price range on the unit hyperbola.

    Two redundant routes: the closed log form, and the difference of arsinh
    values at the two bounds.  They agree to double precision; the log form is
    returned.  Up to p_high = 2*p_low, p_high - p_low is exact (Sterbenz), and
    phi = log1p((p_high - p_low)/p_low)/2 keeps every digit of a narrow range,
    where the difference of the logs cancels.  Wider ranges take the log of
    the rounded ratio, which is within a few ulps; only a ratio that
    overflows takes the difference of the logs.
    """
    _check_range(p_high, p_low)
    if p_high <= 2.0 * p_low:
        return 0.5 * math.log1p((p_high - p_low) / p_low)
    ratio = p_high / p_low
    if math.isinf(ratio):
        return 0.5 * (math.log(p_high) - math.log(p_low))
    return 0.5 * math.log(ratio)


def hyperbolic_angle_from_unit(p_high: float, p_low: float) -> float:
    """The arsinh-difference route to the same angle; used as a cross-check."""
    _check_range(p_high, p_low)
    return arsinh(u_hat_from_price(p_high)) - arsinh(u_hat_from_price(p_low))


def trig_identities(phi: float) -> TrigValues:
    """sinh, cosh, tanh and e^phi of an angle.

    For the angle of a price range these equal, respectively:
    (p_high - p_low) and (p_high + p_low) over twice the geometric mean of the
    bounds, their quotient, and the concentration constant.
    """
    if not -_MAX <= phi <= _MAX:
        raise DomainError("phi", "must be finite")
    try:
        return TrigValues(
            sinh=math.sinh(phi),
            cosh=math.cosh(phi),
            tanh=math.tanh(phi),
            e_phi=math.exp(phi),
        )
    except OverflowError:
        raise DomainError("phi", "too large: sinh, cosh or e^phi overflows") from None
