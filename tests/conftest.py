import importlib.util
import math
import random
from pathlib import Path

import mpmath
import pytest

from clamm import (
    BancorV2Params,
    CarbonParams,
    NaturalParams,
    ReferenceParams,
    UniswapV3Params,
    curve_for,
)

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"

# One real curve expressed in every bounded parameter form.  All worked
# expectations in the suite were derived by hand-substitution on this curve
# and cross-checked by quadrature.
WORKED_BANCOR = BancorV2Params(x0=100.0, y0=100.0, A=2.0)
WORKED_UNISWAP = UniswapV3Params(L=200.0, p_high=4.0, p_low=0.25)
WORKED_CARBON = CarbonParams(a=1.5, b=0.5, z=300.0)
WORKED_NATURAL = NaturalParams(c=4.0, anchor="asymptotes", anchor_x=-100.0, anchor_y=-100.0)

LN4 = math.log(4.0)

# (params, the error's field, a word of its reason): parameter sets whose
# fields pass their form's rules but whose derived constants leave the
# binary64 range, or whose shifts fall below 2**-511, where a shift's square
# stops being a normal float.
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
    # both shifts pass, but the native swap denominators, at least z^2,
    # underflowed to zero
    (CarbonParams(a=2.4527236170724957e-44, b=1.7153003546970856e-30, z=2.2445642270581992e-167),
     "z", "2**-511"),
    # (b*z)^2 bounds the native dx denominator from below and is subnormal:
    # draining y quoted dx 1.1e-4 short of the intercept
    (CarbonParams(a=1e-100, b=1e-100, z=1e-60), "b", "b*z"),
]


def assert_rel(actual, expected, rel=1e-9, abs_floor=1e-12):
    assert math.isclose(actual, expected, rel_tol=rel, abs_tol=abs_floor), (
        f"{actual!r} != {expected!r} (rel {rel})"
    )


def rel_dev(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def exact_curve(params):
    """(shift_x, shift_y, scale) of the stored parameters, as mpmath numbers at
    the caller's working precision."""
    mpf, sqrt = mpmath.mpf, mpmath.sqrt
    if isinstance(params, ReferenceParams):
        return mpf(0), mpf(0), mpf(params.x0) * mpf(params.y0)
    if isinstance(params, BancorV2Params):
        x0, y0, amp = mpf(params.x0), mpf(params.y0), mpf(params.A)
        return x0 * (amp - 1), y0 * (amp - 1), amp * amp * x0 * y0
    if isinstance(params, UniswapV3Params):
        liq, p_high, p_low = mpf(params.L), mpf(params.p_high), mpf(params.p_low)
        return liq / sqrt(p_high), liq * sqrt(p_low), liq * liq
    if isinstance(params, CarbonParams):
        a, b, z = mpf(params.a), mpf(params.b), mpf(params.z)
        return z / (a * (a + b)), b * z / a, (z / a) ** 2
    c, ax, ay = mpf(params.c), mpf(params.anchor_x), mpf(params.anchor_y)
    if params.anchor == "intercepts":
        ax, ay = -ax / (c - 1), -ay / (c - 1)
    elif params.anchor == "center":
        ax, ay = -ax / (sqrt(c) - 1), -ay / (sqrt(c) - 1)
    return -ax, -ay, c * ax * ay


def load_script(name):
    """A module of scripts/ loaded from its file, without running its main."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_bancor(rng: random.Random, exp_range=(-3.0, 9.0), amp_range=(1.01, 100.0)):
    return BancorV2Params(
        x0=10.0 ** rng.uniform(*exp_range),
        y0=10.0 ** rng.uniform(*exp_range),
        A=rng.uniform(*amp_range),
    )


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
