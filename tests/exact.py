"""The test suite's exact oracle: each closed form of the real curve
(x + shift_x)(y + shift_y) = scale is rational in its three constants and its
inputs, and every float is a ``Fraction`` exactly, so each value here is exact.
The constants are those a parameter set describes (``of_params``, whose roots
``sqrt`` gives to 2**-200) or those a built curve stores (``of_curve``).

Run as a module, ``PYTHONPATH=src python3 -m tests.exact``, it prints the
worst error in ulps of each closed form over the verify battery: the table
that ``tests/test_exact.py`` bounds.
"""

import math
from fractions import Fraction

from clamm import BancorV2Params, CarbonParams, ReferenceParams, UniswapV3Params
from clamm.quadrature import battery_cases

ROOT_BITS = 200


def sqrt(value) -> Fraction:
    """The square root of a nonnegative rational within 2**-ROOT_BITS of itself,
    relative: math.isqrt on the value scaled by an even power of two."""
    value = Fraction(value)
    num, den = value.numerator, value.denominator
    shift = max(0, ROOT_BITS + 2 + (den.bit_length() - num.bit_length() + 2) // 2)
    return Fraction(math.isqrt((num << 2 * shift) // den), 1 << shift)


def of_params(params) -> tuple:
    """(shift_x, shift_y, scale) of the real curve a parameter set describes."""
    if isinstance(params, ReferenceParams):
        return Fraction(0), Fraction(0), Fraction(params.x0) * Fraction(params.y0)
    if isinstance(params, BancorV2Params):
        x0, y0, amp = Fraction(params.x0), Fraction(params.y0), Fraction(params.A)
        return x0 * (amp - 1), y0 * (amp - 1), amp * amp * x0 * y0
    if isinstance(params, UniswapV3Params):
        liq = Fraction(params.L)
        return liq / sqrt(params.p_high), liq * sqrt(params.p_low), liq * liq
    if isinstance(params, CarbonParams):
        a, b, z = Fraction(params.a), Fraction(params.b), Fraction(params.z)
        return z / (a * (a + b)), b * z / a, (z / a) ** 2
    c, ax, ay = Fraction(params.c), Fraction(params.anchor_x), Fraction(params.anchor_y)
    if params.anchor == "intercepts":
        ax, ay = -ax / (c - 1), -ay / (c - 1)
    elif params.anchor == "center":
        ax, ay = -ax / (sqrt(c) - 1), -ay / (sqrt(c) - 1)
    return -ax, -ay, c * ax * ay


def of_curve(curve) -> tuple:
    """(shift_x, shift_y, scale) as a built curve stores them."""
    return Fraction(curve.shift_x), Fraction(curve.shift_y), Fraction(curve.scale)


# The closed forms, on a (shift_x, shift_y, scale) triple.  A swap's end
# balance is x + dx unrounded unless it is given.

def dy(constants, x, dx, x_new=None) -> Fraction:
    shift_x, _, scale = constants
    x_new = Fraction(x) + Fraction(dx) if x_new is None else Fraction(x_new)
    return -Fraction(dx) * scale / ((Fraction(x) + shift_x) * (x_new + shift_x))


def dx(constants, y, dy, y_new=None) -> Fraction:
    _, shift_y, scale = constants
    y_new = Fraction(y) + Fraction(dy) if y_new is None else Fraction(y_new)
    return -Fraction(dy) * scale / ((Fraction(y) + shift_y) * (y_new + shift_y))


def marginal_price(constants, x, y) -> Fraction:
    shift_x, shift_y, _ = constants
    return -(Fraction(y) + shift_y) / (Fraction(x) + shift_x)


def slope_at_x(constants, x) -> Fraction:
    shift_x, _, scale = constants
    return -scale / (Fraction(x) + shift_x) ** 2


def slope_at_y(constants, y) -> Fraction:
    _, shift_y, scale = constants
    return -scale / (Fraction(y) + shift_y) ** 2


def y_from_x(constants, x) -> Fraction:
    shift_x, shift_y, scale = constants
    return scale / (Fraction(x) + shift_x) - shift_y


def x_from_y(constants, y) -> Fraction:
    shift_x, shift_y, scale = constants
    return scale / (Fraction(y) + shift_y) - shift_x


def concentration_from_center(state, x0, y0) -> Fraction:
    x, y, x0, y0 = (Fraction(v) for v in (state.x, state.y, x0, y0))
    return ((x - x0) * (y - y0) / (x * y - x0 * y0)) ** 2


def concentration_from_intercepts(state, x_int, y_int) -> Fraction:
    x, y, x_int, y_int = (Fraction(v) for v in (state.x, state.y, x_int, y_int))
    return (x_int - x) * (y_int - y) / (x * y)


def unit_point(x, y) -> tuple:
    """(t_hat, u_hat) of a balance pair: (x + y, y - x) over 2*sqrt(x*y)."""
    ratio = sqrt(Fraction(y) / Fraction(x))
    return (ratio + 1 / ratio) / 2, (ratio - 1 / ratio) / 2


def _error(value, exact) -> tuple:
    """|value - exact| as an integer ratio (numerator, denominator)."""
    (num, den), (exact_num, exact_den) = value.as_integer_ratio(), exact.as_integer_ratio()
    return abs(num * exact_den - exact_num * den), den * exact_den


def ulps(value, exact, ref=None) -> float:
    """|value - exact| in units in the last place of ref (exact by default):
    2**(e - 52) for |ref| in [2**e, 2**(e + 1)), and 2**-1074 below 2**-1022."""
    num, den = abs(exact if ref is None else ref).as_integer_ratio()
    exp = num.bit_length() - den.bit_length() if num else -1022
    exp -= num << max(0, -exp) < den << max(0, exp)
    unit = max(exp - 52, -1074)
    err, err_den = _error(value, exact)
    return (err << max(0, -unit)) / (err_den << max(0, unit))


def rel(value, exact, ref=None) -> float:
    """|value - exact| / |ref|, ref being exact by default; 0 where value is exact."""
    err, err_den = _error(value, exact)
    num, den = abs(exact if ref is None else ref).as_integer_ratio()
    return err * den / (err_den * num) if err else 0.0


CLOSED_FORMS = ("dy", "dx", "marginal_price", "slope_at_x", "slope_at_y", "y_from_x", "x_from_y")


def worst_ulps(seed: int = 7, cases: int = 8000) -> dict:
    """{(curve form, closed form): worst ulps} of each closed form against the
    stored constants (``of_curve``), over ``battery_cases(seed, cases)``.
    ``dx`` is the exact-out trade of the exact-in trade's dy, and each swap
    ends on the unrounded balance.  A sample is measured in ulps of its
    shifted balance, ``y + shift_y`` or ``x + shift_x``."""
    worst = {}
    for curve, state, trade in battery_cases(seed, cases):
        constants = shift_x, shift_y, _ = of_curve(curve)
        coupled = curve.swap_exact_in_x(state, trade).dy
        on_y, on_x = y_from_x(constants, state.x), x_from_y(constants, state.y)
        errors = (
            ulps(coupled, dy(constants, state.x, trade)),
            ulps(curve.swap_exact_out_y(state, coupled).dx, dx(constants, state.y, coupled)),
            ulps(curve.marginal_price(state), marginal_price(constants, state.x, state.y)),
            ulps(curve.price_slope_at_x(state.x), slope_at_x(constants, state.x)),
            ulps(curve.price_slope_at_y(state.y), slope_at_y(constants, state.y)),
            ulps(curve.y_from_x(state.x), max(on_y, 0), abs(on_y) + shift_y),
            ulps(curve.x_from_y(state.y), max(on_x, 0), abs(on_x) + shift_x),
        )
        for name, error in zip(CLOSED_FORMS, errors):
            key = curve.params.form, name
            worst[key] = max(worst.get(key, 0.0), error)
    return worst


if __name__ == "__main__":
    table = worst_ulps()
    curve_forms = list(dict.fromkeys(form for form, _ in table))
    print(f"{'':16}" + "".join(f"{form:>12}" for form in curve_forms))
    for name in CLOSED_FORMS:
        print(f"{name:16}" + "".join(f"{table[form, name]:12.2f}" for form in curve_forms))
