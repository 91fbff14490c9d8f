"""Carbon's native closed forms, the paper's one-balance (a, b, z) phenotype of
the real curve (x + z/(a*(a+b))) * (y + b*z/a) = z^2/a^2, written in floats on
the parameter set.

The library quotes and prices every form through the core's closed forms on
the stored shifts and scale; these expressions never see those constants, so
agreement with them is an independent cross-check.  Each reads the parameter
set once and forms a + b once; the operations run in the order of the
formulas as written, except that the slopes divide before they square, like
the core's.  ``tests/exact.py`` gives each one's exact value.
"""


def dy(params, x, dx, x_new):
    """dy of a trade of dx that takes x to x_new."""
    a, b, z = params.a, params.b, params.z
    ab = a + b
    gain = a * ab
    return -dx * z * z * ab * ab / ((x * gain + z) * (x_new * gain + z))


def dx(params, y, dy, y_new):
    """dx of a trade of dy that takes y to y_new."""
    a, z = params.a, params.z
    bz = params.b * z
    return -dy * z * z / ((a * y + bz) * (a * y_new + bz))


def marginal_price(params, x, y):
    a, b, z = params.a, params.b, params.z
    ab = a + b
    return -ab * (a * y + b * z) / (x * a * ab + z)


def slope_at_x(params, x):
    a, z = params.a, params.z
    ab = a + params.b
    q = z * ab / (x * a * ab + z)
    return -q * q


def slope_at_y(params, y):
    a, z = params.a, params.z
    q = z / (a * y + params.b * z)
    return -q * q

