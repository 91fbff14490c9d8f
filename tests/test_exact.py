"""The exact oracle of ``tests/exact.py``, checked against the library's
rounding, and the stated accuracy bound of each closed form, checked against
the oracle."""

import math
import random
import sys

from clamm import curve_for
from clamm.quadrature import _BATTERY_FORMS

from . import exact
from .test_encodings import WORKED, random_curves

# closed form -> the most ulps its value may be from exact on each form of
# _BATTERY_FORMS, over battery_cases(7, 8000): the measured worst plus one ulp,
# rounded up.
ULP_BOUNDS = {
    "dy": (4, 4, 4, 4),
    "dx": (3, 4, 4, 4),
    "marginal_price": (2, 3, 3, 3),
    "slope_at_x": (3, 4, 4, 4),
    "slope_at_y": (3, 3, 3, 3),
    "y_from_x": (2, 3, 3, 3),
    "x_from_y": (2, 2, 2, 2),
}


def test_closed_forms_keep_their_ulp_bounds():
    """Each closed form of each battery form stays within ``ULP_BOUNDS`` of its
    exact value on the stored constants, over ``battery_cases(7, 8000)``.
    Measured worst, in ulps (``python -m tests.exact`` prints this table)::

                        reference   bancor_v2  uniswap_v3      carbon
        dy                   2.47        2.31        2.76        2.75
        dx                   1.97        2.64        2.18        2.14
        marginal_price       0.50        1.21        1.37        1.24
        slope_at_x           1.27        2.60        2.68        2.63
        slope_at_y           1.29        1.18        1.46        1.37
        y_from_x             0.50        1.27        1.33        1.41
        x_from_y             0.50        0.68        0.72        0.89

    A sample is measured in
    ulps of its shifted balance: in ulps of the sample itself, uniswap's
    y_from_x reaches 1766, where the sample cancels near the intercept.  The
    domain is the battery's: balances over the decades 1e-3 to 1e9 and A in
    [1.01, 100].  It leaves out the scales where a swap's dx*scale over- or
    underflows (past balances of about 1e102, or below 1e-107)."""
    bounds = {(form, name): bound for name, row in ULP_BOUNDS.items()
              for form, bound in zip(_BATTERY_FORMS, row)}
    worst = exact.worst_ulps()
    assert worst.keys() == bounds.keys()
    assert {key: value for key, value in worst.items() if not value <= bounds[key]} == {}


def float_grid(count=20000):
    """Subnormals, the normal range's ends, and floats log-uniform over the
    whole finite range."""
    rng = random.Random(16)
    grid = [5e-324, 1e-323, 2.5e-320, math.nextafter(sys.float_info.min, 0.0), sys.float_info.min,
            0.5, 1.0, 2.0, 3.0, 1e300, sys.float_info.max]
    return grid + [2.0 ** rng.uniform(-1074.0, 1023.99) for _ in range(count)]


def test_sqrt_rounds_to_the_libraries_sqrt():
    assert exact.sqrt(0.0) == 0
    for value in float_grid():
        assert float(exact.sqrt(value)) == math.sqrt(value), value


def test_a_neighbouring_float_is_one_ulp_away():
    for value in float_grid(2000):
        assert exact.ulps(value, value) == 0.0
        if value < sys.float_info.max:
            assert exact.ulps(math.nextafter(value, math.inf), value) == 1.0, value
        if math.frexp(value)[0] != 0.5:
            assert exact.ulps(math.nextafter(value, 0.0), value) == 1.0, value
    # below a normal power of two the floats are twice as dense
    assert exact.ulps(math.nextafter(1.0, 0.0), 1.0) == 0.5
    assert exact.ulps(0.0, 5e-324) == 1.0


def test_of_params_is_the_hook_built_curve():
    """``of_params`` and the constants the hooks build agree within 6 ulps on
    the worked curve's six encodings and those of 300 random curves (measured
    worst 4.5, on the natural form's center anchor, which takes sqrt(c); 1.8
    on the others; 0 on the worked curve)."""
    by_ids = [WORKED] + [by_id for by_id, *_ in random_curves()]
    for by_id in by_ids:
        for params in by_id.values():
            curve = curve_for(params)
            for got, want in zip((curve.shift_x, curve.shift_y, curve.scale), exact.of_params(params)):
                assert exact.ulps(got, want) <= 6, params
