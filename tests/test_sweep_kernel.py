"""``clamm sweep``'s row kernel against the public functions it stands in for.

``cli._sweep_rows`` builds each row without a ``PoolState`` (on the x axis),
a ``marginal_price`` call or the two hypertrig calls.  Every row must still
carry the bits of the row that ``state_from_x`` (or ``state_at_price``),
``marginal_price``, ``t_hat_from_price`` and ``u_hat_from_price`` give, and
where those raise, the kernel must raise the same error.  Values compare
as ``float.hex``, so that the sign of a zero counts.
"""

import dataclasses

import pytest

from clamm import (
    BancorV2Params,
    CurveError,
    PoolState,
    UniswapV3Params,
    curve_for,
    translate,
)
from clamm.cli import _sweep_rows
from clamm.params import _MAX

from .conftest import (
    RESOLVED_TINY_CARBON,
    SQRT_OVERFLOW,
    UNRESOLVED_TINY_CARBON,
    WORKED_BANCOR,
    WORKED_CARBON,
    WORKED_NATURAL,
    WORKED_UNISWAP,
    public_sweep_rows,
)

BOUNDED_FORMS = ("bancor_v2", "uniswap_v3", "carbon", "natural")

# The fields that carry a pool's scale; each becomes its worked value times scale/100.
SCALE_FIELDS = {"bancor_v2": ("x0", "y0"), "uniswap_v3": ("L",), "carbon": ("z",),
                "natural": ("anchor_x", "anchor_y")}


def _scaled(params, scale):
    return dataclasses.replace(params, **{name: getattr(params, name) * scale / 100
                                          for name in SCALE_FIELDS[params.form]})


CURVES = [
    *((f"worked_{p.form}", p) for p in (WORKED_BANCOR, WORKED_UNISWAP, WORKED_CARBON, WORKED_NATURAL)),
    *((f"worked_{p.form}_{scale:g}", _scaled(p, scale))
      for p in (WORKED_BANCOR, WORKED_UNISWAP, WORKED_CARBON, WORKED_NATURAL) for scale in (1e-12, 1e15)),
    *((f"bancor_A{A!r}_{form}", translate(BancorV2Params(100.0, 100.0, A), form))
      for A in (1.0 + 1e-9, 1e6) for form in BOUNDED_FORMS),
    # the narrow range on which state_at_price(p_low) cancels past x_int
    ("narrow_uniswap", UniswapV3Params(382.51433373767827, 0.006400191412249, 0.006400080914317202)),
    *((f"carbon_tiny_b*z{i}", p) for i, p in enumerate(RESOLVED_TINY_CARBON)),
    *((f"carbon_tiny_z{i}", p) for i, p in enumerate(UNRESOLVED_TINY_CARBON)),
    # y_from_x(x_int) lands below zero, past the snap, and PoolState rejects it
    ("y_below_zero", BancorV2Params(7.752772304407771e-161, 1.678672396840289e-160, 1620197185020131.8)),
    *SQRT_OVERFLOW.items(),
]

# (curve, axis) -> the (type, field, reason) the public functions raise
RAISES = {
    ("y_below_zero", "x"): ("DomainError", "y", "must be nonnegative"),
    ("y_below_zero", "price"): ("BoundsExceeded", None, "x would leave [0, 1.550554460881555e-160]"),
}


def outcomes(rows):
    """Every row as float.hex strings, then the error's (type, field, reason) if one is raised."""
    seen = []
    try:
        for row in rows:
            seen.append(tuple(float.hex(v) for v in row))
    except CurveError as exc:
        seen.append((type(exc).__name__, getattr(exc, "field", None), getattr(exc, "reason", str(exc))))
    return seen


@pytest.mark.parametrize("points", [2, 3, 513])
@pytest.mark.parametrize("axis", ["x", "price"])
@pytest.mark.parametrize("name, params", CURVES, ids=[name for name, _ in CURVES])
def test_kernel_rows_are_the_public_rows(name, params, axis, points):
    curve = curve_for(params)
    expected = outcomes(public_sweep_rows(curve, axis, points))
    assert outcomes(_sweep_rows(curve, axis, points)) == expected
    if (name, axis) in RAISES:
        assert expected[-1] == RAISES[name, axis]
    else:
        assert len(expected) == points


@pytest.mark.parametrize("axis", ["x", "price"])
def test_a_price_out_of_range_raises_the_hypertrig_error(monkeypatch, axis):
    # No built curve was seen to sample a price past _MAX, so a y_from_x and
    # state_at_price that return y = _MAX at x = 0 put it past _MAX, where
    # shift_x is 0.5.
    curve = curve_for(UniswapV3Params(1.0, 4.0, 0.25))
    monkeypatch.setattr(type(curve), "y_from_x", lambda self, x: _MAX)
    monkeypatch.setattr(type(curve), "state_at_price", lambda self, price: PoolState(0.0, _MAX))
    expected = outcomes(public_sweep_rows(curve, axis, 3))
    assert expected == [("DomainError", "price", "must be positive and finite")]
    assert outcomes(_sweep_rows(curve, axis, 3)) == expected
