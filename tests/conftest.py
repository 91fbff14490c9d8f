import importlib.util
import math
import random
from pathlib import Path

import pytest

from clamm import (
    BancorV2Params,
    CarbonParams,
    NaturalParams,
    PoolState,
    ReferenceParams,
    UniswapV3Params,
    curve_for,
    load_spec,
    t_hat_from_price,
    translate,
    u_hat_from_price,
)

DATA_DIR = Path(__file__).parent / "data"

# One real curve expressed in every bounded parameter form, read from the
# spec files that the CLI goldens also use.  Its values are stated once, in
# the worked-curve table of tests/test_encodings.py.
WORKED_BANCOR, WORKED_UNISWAP, WORKED_CARBON, WORKED_NATURAL = (
    load_spec(DATA_DIR / f"worked_{form}.json") for form in ("bancor", "uniswap", "carbon", "natural"))

LN4 = math.log(4.0)

# (params, the error's field, a word of its reason): parameter sets whose
# fields pass their form's rules but whose derived constants leave the
# binary64 range, or whose shifts fall below 2**-511, where a shift's square
# stops being a normal float.  The same derived checks hold for every form.
OUT_OF_RANGE_PARAMS = [
    # a*(a+b) underflows to zero before the shifts divide by it
    (CarbonParams(a=1e-200, b=1e-200, z=1e-200), "a", "a*(a+b)"),
    # p0 = y0/x0 overflows, and p_high and p_low with it
    (BancorV2Params(x0=1e-200, y0=1e200, A=2), "spec", "p_high"),
    # p0 = b*(a+b) is subnormal, and x_int = z/p0 overflows
    (CarbonParams(a=1.0000001, b=1e-310, z=1e10), "b", "b*(a+b)"),
    # c = (a+b)/b rounds to 1, and b*(a+b) overflows
    (CarbonParams(a=3.5, b=1e200, z=1), "b", "b*(a+b)"),
    # c = A^2/(A-1)^2 rounds to 1, so p_high == p_low
    (BancorV2Params(x0=1, y0=1, A=1e17), "spec", "c"),
    # the unshifted curve's p0 = y0/x0 overflows
    (ReferenceParams(x0=1e-300, y0=1e300), "spec", "p0"),
    # the shift equals the intercept over c - 1, about 1e-210; the swap
    # denominators underflowed to zero before the shift rule
    (NaturalParams(c=1e10, anchor="intercepts", anchor_x=1e-200, anchor_y=3.5), "spec", "shift_x"),
    # shift_y = L*sqrt(p_low) is about 3.5e-155
    (UniswapV3Params(L=3.5, p_high=0.25, p_low=1e-310), "spec", "shift_y"),
    # shift_x = x0*(A - 1) = 1e-160
    (BancorV2Params(x0=1e-160, y0=1.0, A=2.0), "spec", "shift_x"),
    # shift_y = b*z/a = 1e-200
    (CarbonParams(a=1.0, b=1e-100, z=1e-100), "spec", "shift_y"),
    # the scale (z/a)^2 is subnormal: the one rule on z beyond its field's
    (CarbonParams(a=1.0, b=1.0, z=1e-160), "z", "(z/a)^2"),
    # shift_x = z/(a*(a+b)) is about 1e-156, while shift_y = b*z/a passes
    (CarbonParams(a=1.0, b=1e6, z=1e-150), "spec", "shift_x"),
]

# Carbon sets whose fields and derived constants all pass, with b*z or z far
# below 2**-511; the uniswap_v3 and natural forms of their curves build too.
# On the first two every trade resolves.  On the last two the scale is so
# small that a swap's dx*scale underflows, and no trade resolves.
RESOLVED_TINY_CARBON = [
    CarbonParams(1e-100, 1e-100, 1e-60),
    CarbonParams(2.0 ** -40, 2.0 ** -300, 2.0 ** -250),
]
UNRESOLVED_TINY_CARBON = [
    CarbonParams(2.4527236170724957e-44, 1.7153003546970856e-30, 2.2445642270581992e-167),
    translate(curve_for(UniswapV3Params(2.0 ** -500, 1.0 + 1e-10, 1.0)), "carbon"),
]


def assert_rel(actual, expected, rel=1e-9, abs_floor=1e-12):
    assert math.isclose(actual, expected, rel_tol=rel, abs_tol=abs_floor), (
        f"{actual!r} != {expected!r} (rel {rel})"
    )


def rel_dev(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def natural_anchors(curve):
    """The natural parameter sets of a bounded curve, one per anchor kind."""
    geom = curve.geom
    yield NaturalParams(geom.c, "asymptotes", geom.x_asym, geom.y_asym)
    yield NaturalParams(geom.c, "intercepts", geom.x_int, geom.y_int)
    yield NaturalParams(geom.c, "center", *curve.center())


def public_sweep_rows(curve, axis, points):
    """The rows of ``clamm sweep`` built from the public functions: the state
    from ``state_from_x`` or ``state_at_price`` (the last price row is the x
    intercept), its ``marginal_price``, and the hypertrig coordinates of its
    negation."""
    geom = curve.geom
    for i in range(points):
        frac = i / (points - 1)
        if axis == "x":
            state = curve.state_from_x(geom.x_int * frac)
        elif i == points - 1:
            state = PoolState(geom.x_int, 0.0)
        else:
            state = curve.state_at_price(geom.p_high + (geom.p_low - geom.p_high) * frac)
        marginal = curve.marginal_price(state)
        yield state.x, state.y, marginal, t_hat_from_price(-marginal), u_hat_from_price(-marginal)


def load_script(name):
    """A module of scripts/ loaded from its file, without running its main."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bancor_curve():
    return curve_for(WORKED_BANCOR)


@pytest.fixture
def uniswap_curve():
    return curve_for(WORKED_UNISWAP)


@pytest.fixture
def carbon_curve():
    return curve_for(WORKED_CARBON)


@pytest.fixture
def rng():
    return random.Random(20240401)
