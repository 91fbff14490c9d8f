import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clamm import (
    BancorV2Params,
    BoundsExceeded,
    CarbonParams,
    DomainError,
    InsufficientLiquidity,
    NaturalParams,
    PoolState,
    ReferenceParams,
    SwapDelta,
    UniswapV3Params,
    apply_delta,
    curve_for,
    geometry,
    load_spec,
    spec_from_dict,
    spec_to_dict,
    validate,
)
from clamm.params import ANCHOR_KINDS, rel_close
from clamm.rosetta import translate

from .conftest import (
    DATA_DIR,
    OUT_OF_RANGE_PARAMS,
    WORKED_BANCOR,
    WORKED_CARBON,
    WORKED_NATURAL,
    WORKED_UNISWAP,
    assert_rel,
)
from .test_encodings import WORKED, assert_identities, assert_worked

WORKED_REFERENCE = load_spec(DATA_DIR / "reference.json")
WORKED_FORMS = [WORKED_REFERENCE, WORKED_BANCOR, WORKED_UNISWAP, WORKED_CARBON, WORKED_NATURAL]
FORM_IDS = [params.form for params in WORKED_FORMS]


def json_spelling(params):
    """params as the dict of a JSON spec file, or None where JSON cannot spell it:
    JSON has no inf, nan or fraction, and an unknown anchor kind has no field names."""
    if isinstance(params, NaturalParams) and params.anchor not in ANCHOR_KINDS:
        return None
    try:
        return json.loads(json.dumps(spec_to_dict(params), allow_nan=False))
    except (TypeError, ValueError):
        return None


class TestValidate:
    def test_valid_bancor(self):
        assert validate(BancorV2Params(100, 100, 2)) is not None

    def test_amplification_must_exceed_one(self):
        with pytest.raises(DomainError) as err:
            validate(BancorV2Params(100, 100, 1))
        assert err.value.field == "A"

    def test_equal_price_bounds_rejected(self):
        with pytest.raises(DomainError) as err:
            validate(UniswapV3Params(200, 4, 4))
        assert err.value.field == "p_low"

    @pytest.mark.parametrize("params,field", [
        (ReferenceParams(0, 100), "x0"),
        (ReferenceParams(100, -1), "y0"),
        (BancorV2Params(100, 100, math.inf), "A"),
        (BancorV2Params(100, 100, 0.5), "A"),
        (UniswapV3Params(-1, 4, 0.25), "L"),
        (UniswapV3Params(200, 4, 0), "p_low"),
        (CarbonParams(0, 0.5, 300), "a"),
        (CarbonParams(1.5, 0, 300), "b"),
        (CarbonParams(1.5, 0.5, math.nan), "z"),
        (NaturalParams(1.0, "asymptotes", -100, -100), "c"),
        (NaturalParams(4.0, "asymptotes", 100, -100), "x_asym"),
        (NaturalParams(4.0, "center", -100, 100), "x0"),
        (NaturalParams(4.0, "corner", 100, 100), "anchor"),
        (BancorV2Params(100, 0, 2), "y0"),
        (UniswapV3Params(200, math.inf, 0.25), "p_high"),
        (UniswapV3Params(200, 0.25, 4), "p_low"),
        (NaturalParams(4.0, "asymptotes", math.inf, -100), "anchor_x"),
        (NaturalParams(4.0, "intercepts", 300, 0), "y_int"),
        *[(params, field) for params, field, _ in OUT_OF_RANGE_PARAMS],
        # a field must be a number as JSON's are, a non-bool int or a float,
        # within the binary64 range
        (BancorV2Params(10**400, 2.0, 2.0), "x0"),
        (BancorV2Params(True, 2.0, 2.0), "x0"),
        (UniswapV3Params(200.0, Fraction(4), 0.25), "p_high"),
        (CarbonParams(1.5, 0.5, -10**400), "z"),
    ])
    def test_invalid_fields(self, params, field):
        # validate, curve construction, the translation to the set's own form
        # and the JSON reader apply the same rules
        for build in (validate, curve_for, lambda p: translate(p, p.form)):
            with pytest.raises(DomainError) as err:
                build(params)
            assert err.value.field == field
        data = json_spelling(params)
        if data is not None:
            with pytest.raises(DomainError) as err:
                spec_from_dict(data)
            assert err.value.field == field


class TestBoundsMessages:
    """Each rejected trade names the reserve or axis it would break."""

    def test_unbounded_depletion_names_its_reserve(self):
        curve = curve_for(ReferenceParams(100, 100))
        state = PoolState(100, 100)
        with pytest.raises(InsufficientLiquidity, match="deplete the x reserve"):
            curve.swap_exact_in_x(state, -100)
        with pytest.raises(InsufficientLiquidity, match="deplete the y reserve"):
            curve.swap_exact_out_y(state, -100)

    def test_intercept_overshoot_names_its_axis(self):
        curve = curve_for(WORKED_BANCOR)
        state = PoolState(100, 100)
        with pytest.raises(BoundsExceeded, match=r"^x would leave \[0, 300.0\]$"):
            curve.swap_exact_in_x(state, 201)
        with pytest.raises(BoundsExceeded, match=r"^y would leave \[0, 300.0\]$"):
            curve.swap_exact_out_y(state, 201)

    # The guards below run on every form, the reference curve's own swap
    # formulas included; the worked curves all pass through (100, 100).

    @pytest.mark.parametrize("params", WORKED_FORMS, ids=FORM_IDS)
    @pytest.mark.parametrize("amount", [math.inf, -math.inf, math.nan,
                                        pytest.param(10**400, id="int_past_binary64"),
                                        pytest.param(-10**400, id="-int_past_binary64")])
    def test_non_finite_trade_names_its_amount(self, params, amount):
        curve = curve_for(params)
        state = PoolState(100.0, 100.0)
        with pytest.raises(DomainError) as err:
            curve.swap_exact_in_x(state, amount)
        assert err.value.field == "dx"
        with pytest.raises(DomainError) as err:
            curve.swap_exact_out_y(state, amount)
        assert err.value.field == "dy"

    @pytest.mark.parametrize("price", [0.0, -1.0, math.inf, math.nan,
                                       pytest.param(10**400, id="int_past_binary64")])
    def test_bad_price_names_its_field(self, price):
        with pytest.raises(DomainError) as err:
            curve_for(WORKED_BANCOR).state_at_price(price)
        assert (err.value.field, err.value.reason) == ("price", "must be a positive finite magnitude")

    @pytest.mark.parametrize("params", WORKED_FORMS, ids=FORM_IDS)
    def test_zero_trade_is_exactly_zero(self, params):
        curve = curve_for(params)
        for state in (PoolState(100.0, 100.0), curve.state_from_x(37.0)):
            assert curve.swap_exact_in_x(state, 0.0) == SwapDelta(0.0, 0.0)
            assert curve.swap_exact_out_y(state, 0) == SwapDelta(0.0, 0.0)

    @pytest.mark.parametrize("params", WORKED_FORMS, ids=FORM_IDS)
    def test_overshoot_and_depletion_are_rejected(self, params):
        curve = curve_for(params)
        state = PoolState(100.0, 100.0)
        for axis, swap in (("x", curve.swap_exact_in_x), ("y", curve.swap_exact_out_y)):
            if params.form == "reference":
                error = InsufficientLiquidity, f"trade would fully deplete the {axis} reserve"
                amounts = (-100.0, -101.0)
            else:
                intercept = getattr(curve.geom, f"{axis}_int")
                error = BoundsExceeded, f"{axis} would leave [0, {intercept}]"
                amounts = (201.0, -101.0)
            for amount in amounts:
                with pytest.raises(error[0], match=f"^{re.escape(error[1])}$"):
                    swap(state, amount)


class TestSampling:
    """The sampling methods check a balance with the swaps' range rule, at every scale."""

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e15])
    def test_balance_past_an_intercept_raises(self, scale):
        # at scale 1e-13 the unit floor of the old snap returned y = 0 at
        # 10*x_int and x = 0 at 1.5*y_int; on the worked curve the old check
        # let x = -50 and y = 1000 through as y = 700 and x = -63.6
        curve = curve_for(BancorV2Params(100.0 * scale, 100.0 * scale, 2.0))
        x_int, y_int = curve.geom.x_int, curve.geom.y_int
        for x in (10.0 * x_int, -0.5 * scale, math.inf, math.nan):
            with pytest.raises(BoundsExceeded, match=rf"^x would leave \[0, {re.escape(repr(x_int))}\]$"):
                curve.state_from_x(x)
        for y in (1.5 * y_int, -0.5 * scale, math.nan):
            with pytest.raises(BoundsExceeded, match=r"^y would leave"):
                curve.x_from_y(y)

    def test_unshifted_axes_are_unreachable(self):
        curve = curve_for(WORKED_REFERENCE)
        for method, axis in ((curve.y_from_x, "x"), (curve.x_from_y, "y")):
            for value in (0.0, -1.0):
                with pytest.raises(InsufficientLiquidity, match=f"deplete the {axis} reserve"):
                    method(value)
            with pytest.raises(BoundsExceeded):
                method(math.nan)

    def test_unshifted_infinite_balance_raises_as_pool_state_does(self):
        # the range rule's bound is inf here, and scale/inf returned y = 0.0
        curve = curve_for(ReferenceParams(2.0, 3.0))
        for method, axis, state in ((curve.y_from_x, "x", (math.inf, 1.0)),
                                    (curve.x_from_y, "y", (1.0, math.inf)),
                                    (curve.state_from_x, "x", (math.inf, 1.0))):
            with pytest.raises(DomainError) as err:
                method(math.inf)
            with pytest.raises(DomainError) as expected:
                PoolState(*state)
            raised = (err.value.field, err.value.reason)
            assert raised == (axis, "must be finite")
            assert raised == (expected.value.field, expected.value.reason)

    def test_unshifted_int_past_binary64_raises_as_pool_state_does(self):
        # the range rule's bound is inf here, and it alone would admit the int
        curve = curve_for(ReferenceParams(2.0, 3.0))
        for method, axis in ((curve.y_from_x, "x"), (curve.x_from_y, "y"), (curve.state_from_x, "x")):
            with pytest.raises(DomainError) as err:
                method(10**400)
            assert (err.value.field, err.value.reason) == (axis, "must be finite")

    @pytest.mark.parametrize("params, value", [(ReferenceParams(1.0, 1.0), 1e-310),
                                               (ReferenceParams(1e300, 1e5), 1e-10)])
    def test_unshifted_sample_that_overflows_raises_as_pool_state_does(self, params, value):
        # scale/value overflows near an axis, and both methods returned inf
        curve = curve_for(params)
        for method, axis, state in ((curve.y_from_x, "y", (value, math.inf)),
                                    (curve.x_from_y, "x", (math.inf, value)),
                                    (curve.state_from_x, "y", (value, math.inf))):
            with pytest.raises(DomainError) as err:
                method(value)
            with pytest.raises(DomainError) as expected:
                PoolState(*state)
            raised = (err.value.field, err.value.reason)
            assert raised == (axis, "must be finite")
            assert raised == (expected.value.field, expected.value.reason)

    @pytest.mark.parametrize("params", WORKED_FORMS, ids=FORM_IDS)
    def test_x_from_y_inverts_y_from_x(self, params):
        # x across [0, x_int], or 1/8 to 8 times x0 on the unshifted curve; the
        # round trip stays within 4*2**-53 of the span (measured worst 1.1)
        curve = curve_for(params)
        for i in range(101):
            if curve.bounded:
                span = curve.geom.x_int
                x = span * (i / 100)
            else:
                x = span = params.x0 * 2.0 ** (i / 100 * 6 - 3)
            assert abs(curve.x_from_y(curve.y_from_x(x)) - x) <= 2.0 ** -51 * span, x


class TestStateAndDelta:
    def test_pool_state_nonnegative(self):
        PoolState(0, 0)
        with pytest.raises(DomainError):
            PoolState(-1, 10)
        with pytest.raises(DomainError):
            PoolState(10, math.nan)

    def test_delta_signs_must_oppose(self):
        SwapDelta(1.0, -2.0)
        SwapDelta(-3.0, 0.5)
        SwapDelta(0.0, 0.0)
        with pytest.raises(DomainError):
            SwapDelta(1.0, 2.0)
        with pytest.raises(DomainError):
            SwapDelta(1.0, 0.0)
        with pytest.raises(DomainError):
            SwapDelta(0.0, -1.0)

    def test_apply_delta_snaps_terminal_ulp(self):
        state = PoolState(100.0, 100.0)
        snapped = apply_delta(state, SwapDelta(1.0, -100.0 - 1e-12))
        assert snapped.y == 0.0


@pytest.mark.parametrize("a, b, field", [(10**400, 1.0, "a"), (1.0, -10**400, "b")], ids=["a", "b"])
def test_rel_close_names_an_int_past_binary64(a, b, field):
    with pytest.raises(DomainError) as err:
        rel_close(a, b)
    assert (err.value.field, err.value.reason) == (field, "must be finite")
    # a float takes math.isclose's rule, infinities included
    assert rel_close(math.inf, math.inf) and not rel_close(math.nan, math.nan)


class TestJsonSchema:
    @pytest.mark.parametrize("params", [
        ReferenceParams(100.0, 100.0),
        WORKED_BANCOR,
        WORKED_UNISWAP,
        WORKED_CARBON,
        WORKED_NATURAL,
        NaturalParams(4.0, "center", 100.0, 100.0),
        NaturalParams(4.0, "intercepts", 300.0, 300.0),
    ])
    def test_round_trip(self, params):
        data = spec_to_dict(params)
        assert data["form"] == params.form
        assert spec_from_dict(data) == params

    def test_field_names_match_form(self):
        data = spec_to_dict(WORKED_UNISWAP)
        assert set(data) == {"form", "L", "p_high", "p_low"}
        data = spec_to_dict(WORKED_NATURAL)
        assert set(data) == {"form", "c", "anchor", "x_asym", "y_asym"}

    def test_unknown_form(self):
        with pytest.raises(DomainError):
            spec_from_dict({"form": "balancer", "w": 0.8})

    @pytest.mark.parametrize("anchor", ["bogus", ["center"], None])
    def test_an_unknown_anchor_is_named_when_written(self, anchor):
        # as validate names it, not a KeyError or, for a list, a TypeError
        with pytest.raises(DomainError) as err:
            spec_to_dict(NaturalParams(4.0, anchor, -1.0, -1.0))
        assert (err.value.field, err.value.reason) == ("anchor", f"must be one of {ANCHOR_KINDS}")

    def test_missing_field(self):
        with pytest.raises(DomainError):
            spec_from_dict({"form": "bancor_v2", "x0": 1, "y0": 1})

    def test_unexpected_field(self):
        with pytest.raises(DomainError):
            spec_from_dict({"form": "carbon", "a": 1.5, "b": 0.5, "z": 300, "fee": 0.003})


class TestGeometry:
    def test_worked_geometry(self):
        assert_worked("bancor_v2", "geometry")

    def test_geometry_is_parameterization_invariant(self):
        for encoding in list(WORKED)[1:]:  # all but bancor_v2, the source
            assert_identities(encoding, "has the source's geometry")

    def test_center_price_is_geometric_mean(self):
        assert_identities("bancor_v2", "p0^2 = p_high*p_low")

    def test_concentration_from_axis_offsets(self):
        assert_identities("bancor_v2", "(int - asym)/-asym = c")

    def test_reference_geometry_is_unbounded(self):
        g = geometry(ReferenceParams(100.0, 400.0))
        assert math.isinf(g.x_int) and math.isinf(g.y_int)
        assert g.x_asym == 0.0 and g.y_asym == 0.0
        assert math.isinf(g.p_high) and g.p_low == 0.0
        assert_rel(g.p0, 4.0)

    def test_natural_narrow_range_limit(self):
        g = geometry(NaturalParams(1.0 + 1e-9, "asymptotes", -100.0, -100.0))
        assert_rel(g.p_high / g.p_low, 1.0, rel=1e-8)


@settings(max_examples=200)
@given(
    x0=st.floats(min_value=1e-3, max_value=1e9),
    y0=st.floats(min_value=1e-3, max_value=1e9),
    amp=st.floats(min_value=1.001, max_value=1e4),
)
def test_validated_curves_expose_consistent_geometry(x0, y0, amp):
    g = curve_for(BancorV2Params(x0, y0, amp)).geom
    assert_rel(g.p0 * g.p0, g.p_high * g.p_low, rel=1e-12)
    assert_rel(g.y_int / g.x_int, g.p0, rel=1e-12)
    assert_rel(g.y_asym / g.x_asym, g.p0, rel=1e-12)
    assert_rel(math.exp(g.phi), g.c, rel=1e-12)
