"""The worked-curve table: one curve's values and the paper's identities,
stated once and checked on every encoding of the shifted hyperbola.

Bancor's (x0, y0, A), uniswap's (L, p_high, p_low), carbon's (a, b, z) and
the natural form's c with one anchor all encode one curve,
(x + shift_x)(y + shift_y) = scale.  ``WORKED_TABLE`` holds the values of the
worked curve, (x + 100)(y + 100) = 40000, read off each of its six encodings:
the three worked specs, and the natural form at each of its three anchors.
``identities`` and ``cancelling_identities`` state the paper's identities
once; they are checked on the same six encodings of 300 random Bancor
curves.  Criterion 1 of ``tests/test_acceptance.py`` reads the same table, and
the per-form modules check their encoding's rows and identities by name
through ``assert_worked`` and ``assert_identities``.
"""

import math
import random
from dataclasses import astuple

import pytest

from clamm import BoundsExceeded, PoolState, ShiftedProductCurve, apply_delta, curve_for, integrate_price_curve
from clamm.quadrature import random_bancor_params
from clamm.rosetta import translate

from . import native
from .conftest import LN4, WORKED_BANCOR, WORKED_CARBON, WORKED_NATURAL, WORKED_UNISWAP, natural_anchors, rel_dev


def encodings(bancor, uniswap, carbon, natural_curve):
    """The six encodings of one curve, by id: three parameter sets, then the
    natural form at each anchor of natural_curve."""
    return {"bancor_v2": bancor, "uniswap_v3": uniswap, "carbon": carbon,
            **{f"natural-{params.anchor}": params for params in natural_anchors(natural_curve)}}


WORKED = encodings(WORKED_BANCOR, WORKED_UNISWAP, WORKED_CARBON, curve_for(WORKED_NATURAL))

CENTER, TOP, RIGHT = PoolState(100.0, 100.0), PoolState(0.0, 300.0), PoolState(300.0, 0.0)


# Largest |invariant_residual| after a trade of the invariant loop: the
# measured worst, 4*2**-53 on every encoding, plus one.
RESIDUAL_BOUND = 5 * 2.0 ** -53


def rejected(curve, state, dx):
    """True if a trade of dx from state, which leaves [0, x_int] = [0, 300],
    raises BoundsExceeded."""
    try:
        curve.swap_exact_in_x(state, dx)
    except BoundsExceeded:
        return True
    return False


def invariant_loop(curve):
    """True if 200 random trades from points of the curve each end on it."""
    rng = random.Random(20240401)
    for _ in range(200):
        x = rng.uniform(1.0, 299.0)
        state = curve.state_from_x(x)
        after = apply_delta(state, curve.swap_exact_in_x(state, rng.uniform(0.0, 299.0 - x)))
        if not abs(curve.invariant_residual(after)) <= RESIDUAL_BOUND:
            return False
    return True


def geometric_means(lo_x, hi_x, lo_y, hi_y):
    return math.sqrt(lo_x * hi_x), math.sqrt(lo_y * hi_y)


# row: (what it reads off a curve, the worked curve's value).  A float must
# agree within WORKED_TOL, relative, and anything else exactly.
WORKED_TABLE = {
    # (x_int, y_int, x_asym, y_asym, p_high, p_low, p0, c, phi)
    "geometry": (lambda c: astuple(c.geom), (300.0, 300.0, -100.0, -100.0, 4.0, 0.25, 1.0, 4.0, LN4)),
    "scale": (lambda c: c.scale, 4e4),
    "virtual_bounds": (lambda c: astuple(c.virtual_bounds()), (100.0, 400.0, 100.0, 400.0)),
    "virtual_bound_means": (lambda c: geometric_means(*astuple(c.virtual_bounds())), (200.0, 200.0)),
    "reference_bound_points": (lambda c: c.reference_bound_points(), (50.0, 200.0, 50.0, 200.0)),
    "reference_bound_means": (lambda c: geometric_means(*c.reference_bound_points()), (100.0, 100.0)),
    "center": (lambda c: c.center(), (100.0, 100.0)),
    "reference_scale": (lambda c: c.reference_scale(), 1e4),
    "amplification": (lambda c: c.amplification(), 2.0),
    "concentration": (lambda c: c.concentration(), 4.0),
    "marginal_price_y_int": (lambda c: c.marginal_price(TOP), -4.0),
    "marginal_price_x_int": (lambda c: c.marginal_price(RIGHT), -0.25),
    "marginal_price_center": (lambda c: c.marginal_price(CENTER), -1.0),
    "swap": (lambda c: c.swap_exact_in_x(CENTER, 100.0).dy, -200.0 / 3.0),
    "integral": (lambda c: integrate_price_curve(c, 100.0, 100.0), -200.0 / 3.0),
    "zero_trade": (lambda c: astuple(c.swap_exact_in_x(CENTER, 0.0)), (0.0, 0.0)),
    "full_traversal": (lambda c: c.swap_exact_in_x(TOP, 300.0).dy, -300.0),
    "swap_to_intercept": (lambda c: c.swap_exact_in_x(CENTER, 200.0).dy, -100.0),
    "exact_out_round_trip": (lambda c: c.swap_exact_out_y(CENTER, c.swap_exact_in_x(CENTER, 100.0).dy).dx, 100.0),
    "overshoot_past_x_int": (lambda c: rejected(c, CENTER, 200.0 + 1e-6), True),
    "overshoot_below_0": (lambda c: rejected(c, CENTER, -100.0 - 1e-6), True),
    "overshoots_from_y_int": (lambda c: (rejected(c, TOP, 300.5), rejected(c, TOP, 301.0)), (True, True)),
    "invariant_loop": (invariant_loop, True),
}

# Measured worst: 1.4e-16 on the worked table, 5.8e-16 on the identities
# over 300 random curves.  A swap to x_int leaves y = scale/(x + shift_x) -
# shift_y, which cancels as y -> 0, and a translation carries the rounding of
# c - 1 on a narrow range into the target's intercepts: those identities hold
# within CANCELLATION_TOL (measured worst 1.5e-13 and 1.2e-14), as does the
# quadrature of the price curve, whose own tolerance is the verify battery's
# (measured worst 8.1e-16).
WORKED_TOL = 2 * 2.0 ** -53
IDENTITY_TOL = 8 * 2.0 ** -53
CANCELLATION_TOL = 1e-12


def disagreement(got, want):
    """The largest relative deviation of got from want, or inf where a
    value that is not a float differs."""
    if not isinstance(want, tuple):
        got, want = (got,), (want,)
    assert len(got) == len(want)
    return max(rel_dev(g, w) if type(w) is float else 0.0 if g == w else math.inf
               for g, w in zip(got, want))


def identities(curve):
    """(identity, value, the value it equals) on a bounded curve."""
    g = curve.geom
    c, p0 = g.c, g.p0
    vb = curve.virtual_bounds()
    min_x, max_x, min_y, max_y = curve.reference_bound_points()
    x0, y0 = curve.center()
    yield "virtual-bound spans = c", (vb.max_xv / vb.min_xv, vb.max_yv / vb.min_yv), (c, c)
    yield "reference-bound spans = c", (max_x / min_x, max_y / min_y), (c, c)
    yield ("p_high/p0, p0/p_low, sqrt(p_high/p_low), exp(phi) = c",
           (g.p_high / p0, p0 / g.p_low, math.sqrt(g.p_high / g.p_low), math.exp(g.phi)), (c,) * 4)
    yield "(int - asym)/-asym = c", ((g.x_int - g.x_asym) / -g.x_asym, (g.y_int - g.y_asym) / -g.y_asym), (c, c)
    yield "intercept and asymptote quotients = p0", (g.y_int / g.x_int, g.y_asym / g.x_asym), (p0, p0)
    yield "virtual-bound quotients = p0", (vb.min_yv / vb.min_xv, vb.max_yv / vb.max_xv), (p0, p0)
    yield "center quotient = p0", y0 / x0, p0
    yield "p0^2 = p_high*p_low", p0 * p0, g.p_high * g.p_low
    yield "the center is on the curve", (x0 + curve.shift_x) * (y0 + curve.shift_y), curve.scale
    yield "reference_scale < scale", curve.reference_scale() < curve.scale, True


def cancelling_identities(curve, source, x, dx):
    """(identity, value, the value it equals) that cancel or integrate, on a
    curve and the Bancor curve it encodes, at x and a trade dx drawn on the
    source."""
    state = curve.state_from_x(x)
    yield "a swap to x_int drains y", -curve.swap_exact_in_x(state, curve.geom.x_int - x).dy, state.y
    state = source.state_from_x(x)
    dy = curve.swap_exact_in_x(state, dx).dy
    yield "quotes the source's swap", dy, source.swap_exact_in_x(state, dx).dy
    yield "quotes the price integral", dy, integrate_price_curve(curve, state.x, dx)
    yield "quotes the source's marginal price", curve.marginal_price(state), source.marginal_price(state)
    yield ("quotes the source's reference bound points", curve.reference_bound_points(),
           source.reference_bound_points())
    yield "has the source's geometry", astuple(curve.geom), astuple(source.geom)


def random_curves(count=300, seed=20240702):
    """(encodings, Bancor curve, x, dx) of count random Bancor curves."""
    rng = random.Random(seed)
    for _ in range(count):
        src = random_bancor_params(rng)
        source = curve_for(src)
        x = rng.uniform(0.05, 0.95) * source.geom.x_int
        dx = rng.uniform(0.05, 0.9) * (source.geom.x_int - x)
        yield encodings(src, translate(src, "uniswap_v3"), translate(src, "carbon"), source), source, x, dx


def assert_worked(encoding, *rows):
    """The rows of WORKED_TABLE hold on the worked curve's encoding."""
    curve = curve_for(WORKED[encoding])
    for row in rows:
        read, want = WORKED_TABLE[row]
        got = read(curve)
        assert disagreement(got, want) <= WORKED_TOL, (encoding, row, got, want)


def assert_identities(encoding, *names):
    """The named identities, or all of them, hold on the encoding of each of
    the random curves."""
    failed, seen = {}, set()
    for by_id, source, x, dx in random_curves():
        curve = curve_for(by_id[encoding])
        for tol, checks in ((IDENTITY_TOL, identities(curve)),
                            (CANCELLATION_TOL, cancelling_identities(curve, source, x, dx))):
            for name, got, want in checks:
                if names and name not in names:
                    continue
                seen.add(name)
                if not disagreement(got, want) <= tol:
                    failed.setdefault(name, (got, want))
    assert seen >= set(names), set(names) - seen
    assert failed == {}


@pytest.mark.parametrize("row", WORKED_TABLE)
@pytest.mark.parametrize("encoding", WORKED)
def test_worked_row(encoding, row):
    assert_worked(encoding, row)


@pytest.mark.parametrize("encoding", WORKED)
def test_identities_hold_on_random_curves(encoding):
    assert_identities(encoding)


# The core's closed forms, one set for every encoding.
CORE_CLOSED_FORMS = ("_dy", "_dx", "marginal_price", "price_slope_at_x", "price_slope_at_y", "y_from_x", "x_from_y")


def test_every_form_quotes_through_the_core():
    """A form class adds its constructor only: none overrides a closed form of
    ``ShiftedProductCurve``, apart from the reference curve's own swaps.
    Carbon's native (a, b, z) forms stay an independent cross-check, in
    ``tests/native.py``."""
    overrides = {(cls.__name__, name) for cls in ShiftedProductCurve._classes.values()
                 for name in CORE_CLOSED_FORMS if getattr(cls, name) is not getattr(ShiftedProductCurve, name)}
    assert overrides == {("ReferenceCurve", "_dy"), ("ReferenceCurve", "_dx")}
    for name in ("dy", "dx", "marginal_price", "slope_at_x", "slope_at_y"):
        assert callable(getattr(native, name, None)), name
