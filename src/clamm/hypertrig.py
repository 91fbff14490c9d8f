"""Rotation onto the t/u axes, unit-hyperbola normalization, hyperbolic angles.

A clockwise eighth turn maps x*y = k onto t^2 - u^2 = 2k; dividing by
sqrt(2k) lands every curve of the family on the unit hyperbola
t^2 - u^2 = 1.  On that curve the tradeable price range spans a hyperbolic
angle phi (an area, not a rotation), and e^phi is the concentration constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .params import REL_TOL

_SQRT2 = math.sqrt(2.0)

# The matrix of the clockwise eighth turn (theta = -pi/4) that aligns x*y
# hyperbolas with the t axis.
AXIS_ALIGNMENT = ((1.0 / _SQRT2, 1.0 / _SQRT2), (-1.0 / _SQRT2, 1.0 / _SQRT2))


@dataclass(frozen=True)
class RotatedPoint:
    t: float
    u: float


@dataclass(frozen=True)
class UnitPoint:
    t_hat: float
    u_hat: float


@dataclass(frozen=True)
class TrigValues:
    sinh: float
    cosh: float
    tanh: float
    e_phi: float


def rotate(x: float, y: float) -> RotatedPoint:
    """Map (x, y) to (t, u) = ((x+y)/sqrt2, (y-x)/sqrt2)."""
    (m00, m01), (m10, m11) = AXIS_ALIGNMENT
    return RotatedPoint(t=m00 * x + m01 * y, u=m10 * x + m11 * y)


def normalize(point: RotatedPoint, k: float) -> UnitPoint:
    """Rescale a rotated point of the curve x*y = k onto the unit hyperbola.

    Rejects points that do not actually sit on that curve: the normalized
    coordinates must satisfy t_hat^2 - u_hat^2 = 1 within REL_TOL, which a
    non-finite coordinate never does.
    """
    if not (k > 0 and math.isfinite(k)):
        raise DomainError("k", "must be a positive finite scale")
    denom = math.sqrt(2.0 * k)
    t_hat = point.t / denom
    u_hat = point.u / denom
    if not abs(t_hat * t_hat - u_hat * u_hat - 1.0) <= REL_TOL:
        raise DomainError("point", "not on the curve with the given scale")
    return UnitPoint(t_hat, u_hat)


def unit_from_state(x: float, y: float) -> UnitPoint:
    """Scale-free unit-hyperbola image of a balance pair with x, y > 0.

    (x, y) and (lam*x, lam*y) map to the same point, which is why the
    reference and virtual views of a pool coincide here.  Axis points have no
    finite image under this form; use the price-based forms there.
    """
    if not (x > 0 and math.isfinite(x)):
        raise DomainError("x", "must be positive and finite")
    if not (y > 0 and math.isfinite(y)):
        raise DomainError("y", "must be positive and finite")
    denom = 2.0 * math.sqrt(x) * math.sqrt(y)
    return UnitPoint(t_hat=(x + y) / denom, u_hat=(y - x) / denom)


def u_hat_from_price(price: float) -> float:
    """Vertical unit-hyperbola coordinate of the state quoting this price.

    Strictly increasing in price, odd under price -> 1/price.
    """
    if not (price > 0 and math.isfinite(price)):
        raise DomainError("price", "must be positive and finite")
    return (price - 1.0) / (2.0 * math.sqrt(price))


def t_hat_from_price(price: float) -> float:
    """Horizontal companion of u_hat_from_price."""
    if not (price > 0 and math.isfinite(price)):
        raise DomainError("price", "must be positive and finite")
    return (price + 1.0) / (2.0 * math.sqrt(price))


# Inverse hyperbolic sine; the C library's is stable near zero (a narrow price
# range), where the naive ln(u + sqrt(u^2 + 1)) collapses, and cannot overflow.
arsinh = math.asinh


def _check_range(p_high: float, p_low: float) -> None:
    if not (p_low > 0 and math.isfinite(p_low)):
        raise DomainError("p_low", "must be positive and finite")
    if not (p_high > p_low and math.isfinite(p_high)):
        raise DomainError("p_high", "must be finite and exceed p_low")


def hyperbolic_angle(p_high: float, p_low: float) -> float:
    """Angle phi spanned by the price range on the unit hyperbola.

    Two redundant routes: the closed log form, and the difference of arsinh
    values at the two bounds.  They agree to double precision; the log form is
    returned.
    """
    _check_range(p_high, p_low)
    return 0.5 * (math.log(p_high) - math.log(p_low))


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
    if not math.isfinite(phi):
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
