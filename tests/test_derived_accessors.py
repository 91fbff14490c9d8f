"""Accuracy of the core's derived accessors against an exact evaluation.

The exact side starts from each form's stored parameters, computes the shifts
and the scale of its real curve exactly, and then reads every accessor
off the curve by its definition (the slope -p0 point, the virtual balances at
the intercepts, the unamplified curve's bound points).  It shares no
expression with the binary64 side beyond the form's own shift and scale.
"""

import pytest

from clamm import (
    BancorV2Params,
    CarbonParams,
    DomainError,
    NaturalParams,
    ReferenceParams,
    UniswapV3Params,
    curve_for,
)

from . import exact

BOUND = 2e-15

ACCESSORS = (
    "concentration",
    "amplification",
    "center",
    "liquidity",
    "reference_scale",
    "virtual_bounds",
    "reference_bound_points",
)

# (regime, params): typical ranges, narrow ones (A up to 1e9, c -> 1) and wide
# ones (A -> 1 + 1e-6, c up to 1e12).
CASES = (
    ("typical", BancorV2Params(100.0, 100.0, 2.0)),
    ("typical", BancorV2Params(3.7e-3, 5.2e8, 17.3)),
    ("narrow", BancorV2Params(100.0, 400.0, 1e9)),
    ("narrow", BancorV2Params(2.5, 7.0, 123456.789)),
    ("wide", BancorV2Params(100.0, 100.0, 1.0 + 1e-6)),
    ("wide", BancorV2Params(1e6, 3e-2, 1.0001)),
    ("typical", UniswapV3Params(200.0, 4.0, 0.25)),
    ("typical", UniswapV3Params(1234.5, 3.1, 2.9)),
    ("narrow", UniswapV3Params(1e3, 1.0 + 4e-9, 1.0)),
    ("narrow", UniswapV3Params(7.5, 2.0000003, 2.0)),
    ("wide", UniswapV3Params(50.0, 1e12, 1e-12)),
    ("typical", CarbonParams(1.5, 0.5, 300.0)),
    ("typical", CarbonParams(0.37, 2.9, 4.2e5)),
    ("narrow", CarbonParams(1e-9, 1.3, 1e3)),
    ("narrow", CarbonParams(3e-6, 0.02, 8.0)),
    ("wide", CarbonParams(1e6, 1e-6, 10.0)),
    ("typical", NaturalParams(4.0, "asymptotes", -100.0, -100.0)),
    ("typical", NaturalParams(2.7, "center", 31.0, 0.45)),
    ("narrow", NaturalParams(1.0 + 2e-9, "asymptotes", -3e4, -2.5)),
    ("narrow", NaturalParams(1.0 + 1e-6, "intercepts", 0.3, 9e4)),
    ("narrow", NaturalParams(1.0 + 2e-9, "center", 100.0, 400.0)),
    ("wide", NaturalParams(1e12, "intercepts", 5.0, 7.0)),
    ("wide", NaturalParams(4e6, "asymptotes", -2e-3, -6e2)),
)


def exact_accessors(params) -> dict:
    """Every accessor by its definition on the real curve (x + sx)(y + sy) = s."""
    sx, sy, s = exact.of_params(params)
    # slopes at the two intercepts, and the center where the slope is -p0
    p_high, p_low = s / (sx * sx), sy * sy / s
    p0 = exact.sqrt(p_high * p_low)
    x0, y0 = exact.sqrt(s / p0) - sx, exact.sqrt(s * p0) - sy
    k = x0 * y0
    return {
        "concentration": [exact.sqrt(p_high / p_low)],
        "amplification": [(x0 + sx) / x0],
        "center": [x0, y0],
        "liquidity": [exact.sqrt(s)],
        "reference_scale": [k],
        "virtual_bounds": [sx, s / sy, sy, s / sx],
        "reference_bound_points": [exact.sqrt(k / p_high), exact.sqrt(k / p_low),
                                   exact.sqrt(k * p_low), exact.sqrt(k * p_high)],
    }


def computed(curve, name) -> list:
    value = getattr(curve, name)()
    if name == "virtual_bounds":
        return [value.min_xv, value.max_xv, value.min_yv, value.max_yv]
    return list(value) if isinstance(value, tuple) else [value]


def max_rel_error(params, name) -> float:
    got = computed(curve_for(params), name)
    want = exact_accessors(params)[name]
    assert len(got) == len(want)
    return max(exact.rel(g, w) for g, w in zip(got, want))


def _cases():
    for idx, (regime, params) in enumerate(CASES):
        for name in ACCESSORS:
            yield pytest.param(params, name, id=f"{idx}-{params.form}-{regime}-{name}")


@pytest.mark.parametrize("params,name", _cases())
def test_accessor_within_bound(params, name):
    assert max_rel_error(params, name) <= BOUND


@pytest.mark.parametrize("name", ACCESSORS)
def test_reference_curve_has_no_derived_accessors(name):
    curve = curve_for(ReferenceParams(100.0, 400.0))
    with pytest.raises(DomainError, match="^spec: an unshifted curve has no price bounds$"):
        getattr(curve, name)()
