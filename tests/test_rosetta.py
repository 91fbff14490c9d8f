import dataclasses
import math
import statistics

import pytest

from clamm import (
    BancorV2Params,
    DomainError,
    Indeterminate,
    NaturalParams,
    PoolState,
    ReferenceParams,
    UniswapV3Params,
    curve_for,
    geometry,
)
from clamm.quadrature import random_bancor_params
from clamm.rosetta import (
    concentration_forms_agree,
    concentration_from_asymptotes,
    concentration_from_center,
    concentration_from_intercepts,
    translate,
    translate_with_report,
    translation_report,
)

from . import exact
from .conftest import (
    WORKED_BANCOR,
    WORKED_CARBON,
    WORKED_NATURAL,
    WORKED_UNISWAP,
    assert_rel,
)

BOUNDED_FORMS = ("bancor_v2", "uniswap_v3", "carbon", "natural")


def assert_params_close(got, want, rel=1e-9):
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, str):
            assert a == b
        else:
            assert_rel(a, b, rel=rel)


ANCHORED_FORMS = pytest.mark.parametrize("form, anchor, names", [
    (concentration_from_center, (100.0, 100.0), ("x0", "y0")),
    (concentration_from_intercepts, (300.0, 300.0), ("x_int", "y_int")),
    (concentration_from_asymptotes, (-100.0, -100.0), ("x_asym", "y_asym")),
], ids=["center", "intercepts", "asymptotes"])


def assert_each_coordinate_rejected(form, anchor, names, values):
    """Each value in place of each anchor coordinate raises DomainError naming
    that coordinate, at a point of the worked curve."""
    state = PoolState(200.0, 100.0 / 3.0)
    for i, name in enumerate(names):
        for value in values:
            with pytest.raises(DomainError) as err:
                form(state, *(value if j == i else v for j, v in enumerate(anchor)))
            assert (err.value.field, err.value.reason) == (name, "must be finite")


class TestTranslate:
    def test_worked_triangle(self):
        assert_params_close(translate(WORKED_BANCOR, "uniswap_v3"), WORKED_UNISWAP)
        assert_params_close(translate(WORKED_UNISWAP, "carbon"), WORKED_CARBON)
        assert_params_close(translate(WORKED_CARBON, "bancor_v2"), WORKED_BANCOR)
        assert_params_close(translate(WORKED_BANCOR, "natural"), WORKED_NATURAL)

    def test_round_trip_through_three_forms(self):
        via_carbon = translate(WORKED_BANCOR, "carbon")
        via_uniswap = translate(via_carbon, "uniswap_v3")
        back = translate(via_uniswap, "bancor_v2")
        assert_params_close(back, WORKED_BANCOR)

    def test_identity_translation_returns_same_values(self):
        assert translate(WORKED_BANCOR, "bancor_v2") == WORKED_BANCOR
        assert translate(ReferenceParams(2.0, 3.0), "reference") == ReferenceParams(2.0, 3.0)
        assert translate(curve_for(WORKED_BANCOR), "bancor_v2") is WORKED_BANCOR

    def test_reference_source_rejected(self):
        for source in (ReferenceParams(100, 100), curve_for(ReferenceParams(100, 100))):
            with pytest.raises(DomainError) as err:
                translate(source, "uniswap_v3")
            assert err.value.field == "spec"

    def test_reference_target_rejected(self):
        with pytest.raises(DomainError):
            translate(WORKED_BANCOR, "reference")

    def test_unknown_target_rejected(self):
        with pytest.raises(DomainError):
            translate(WORKED_BANCOR, "balancer")

    @pytest.mark.parametrize("target", [[], {"a": 1}, None, 1.0], ids=["list", "dict", "None", "number"])
    def test_a_target_that_is_not_a_string_is_unknown(self, target):
        with pytest.raises(DomainError) as err:
            translate(WORKED_BANCOR, target)
        assert err.value.field == "target"
        assert err.value.reason.startswith(f"unknown form {target!r}")

    @pytest.mark.parametrize("source", ["not a spec", None, {"form": "carbon"}])
    def test_source_that_is_not_a_spec_rejected(self, source):
        with pytest.raises(DomainError) as err:
            translate(source, "carbon")
        assert err.value.field == "spec"

    def test_translation_preserves_geometry(self, rng):
        for _ in range(100):
            src = random_bancor_params(rng)
            for form in BOUNDED_FORMS:
                _, report = translate_with_report(src, form)
                assert report.max_rel_deviation <= 1e-9

    def test_translation_composes(self, rng):
        # going via any intermediate form lands on the same parameters
        for _ in range(50):
            src = random_bancor_params(rng)
            for mid in BOUNDED_FORMS:
                for dst in BOUNDED_FORMS:
                    direct = translate(src, dst)
                    via = translate(translate(src, mid), dst)
                    assert_params_close(via, direct)

    @pytest.mark.parametrize("amp", [1e3, 1e6, 1e9, 1e12])
    def test_carbon_keeps_a_narrow_range(self, amp):
        """carbon's a = sqrt(p_high) - sqrt(p_low) and b = sqrt(p_low) lie
        within 4*2**-53 of their exact values on the stored Bancor curve
        (measured worst 1.8); the difference of the roots cancelled, and was
        off by 7.8e-5 at A = 1e12."""
        params = BancorV2Params(100.0, 400.0, amp)
        carbon = translate(params, "carbon")
        shift_x, shift_y, scale = exact.of_params(params)
        sqrt_low = exact.sqrt(shift_y * shift_y / scale)
        width = exact.sqrt(scale / (shift_x * shift_x)) - sqrt_low
        for got, want in ((carbon.a, width), (carbon.b, sqrt_low)):
            assert exact.rel(got, want) <= 4 * 2.0 ** -53, (got, float(want))

    def test_natural_anchor_kinds_describe_same_curve(self):
        g = geometry(WORKED_BANCOR)
        by_center = NaturalParams(4.0, "center", 100.0, 100.0)
        by_intercepts = NaturalParams(4.0, "intercepts", 300.0, 300.0)
        for params in (by_center, by_intercepts):
            report = translation_report(WORKED_NATURAL, params)
            assert report.max_rel_deviation <= 1e-12
            assert_params_close(translate(params, "bancor_v2"), WORKED_BANCOR)
        assert_rel(geometry(by_center).x_int, g.x_int)

    def test_subnormal_deviation_is_reported_whole(self):
        # both p_high are subnormal and 1.15e-14 apart; a denominator floored
        # at 1e-300 read that as 6.1e-15
        source = UniswapV3Params(L=100, p_high=4.3e-310, p_low=1.1e-310)
        target = translate(source, "natural")
        before, after = geometry(source).p_high, geometry(target).p_high
        report = translation_report(source, target)
        assert report.max_rel_deviation == abs(before - after) / max(before, after)
        assert report.max_rel_deviation > 1e-14


class TestConcentrationForms:
    def test_center_form_at_y_intercept(self):
        assert_rel(concentration_from_center(PoolState(0, 300), 100.0, 100.0), 4.0)

    def test_center_form_at_x_intercept(self):
        assert_rel(concentration_from_center(PoolState(300, 0), 100.0, 100.0), 4.0)

    def test_center_form_indeterminate_at_center(self):
        with pytest.raises(Indeterminate):
            concentration_from_center(PoolState(100, 100), 100.0, 100.0)

    def test_intercept_form_at_center(self):
        assert_rel(concentration_from_intercepts(PoolState(100, 100), 300.0, 300.0), 4.0)

    def test_intercept_form_along_curve(self, bancor_curve):
        state = bancor_curve.state_from_x(200.0)
        assert_rel(state.y, 100.0 / 3.0)
        assert_rel(concentration_from_intercepts(state, 300.0, 300.0), 4.0)

    def test_intercept_form_where_x_times_y_underflows(self):
        # a state off both axes whose x*y underflows to 0
        state, x_int, y_int = PoolState(5.58e-166, 6.32e-166), 1.19e-165, 1.19e-165
        want = exact.concentration_from_intercepts(state, x_int, y_int)
        assert_rel(concentration_from_intercepts(state, x_int, y_int), float(want), rel=1e-15)

    def test_intercept_form_where_one_quotient_overflows_and_the_other_underflows(self):
        # the worked curve's center, its axes scaled by 1e298 and 1e-302:
        # (x_int - x)/y overflows and (y_int - y)/x underflows
        state = PoolState(1e300, 1e-300)
        assert_rel(concentration_from_intercepts(state, 3e300, 3e-300), 4.0, rel=1e-15)

    def test_intercept_form_indeterminate_on_axis(self):
        with pytest.raises(Indeterminate):
            concentration_from_intercepts(PoolState(0, 300), 300.0, 300.0)

    @ANCHORED_FORMS
    def test_int_anchor_past_binary64_names_its_field(self, form, anchor, names):
        assert_each_coordinate_rejected(form, anchor, names, (10**400, -10**400))

    @ANCHORED_FORMS
    def test_non_finite_float_anchor_names_its_field(self, form, anchor, names):
        assert_each_coordinate_rejected(form, anchor, names, (math.nan, math.inf, -math.inf))

    def test_center_form_where_its_products_overflow(self):
        # x*y and (x - x0)*(y - y0) both overflow; their quotient is near 1
        state = PoolState(1e300, 1e300)
        want = exact.concentration_from_center(state, 1.0, 1.0)
        assert_rel(concentration_from_center(state, 1.0, 1.0), float(want), rel=1e-15)

    def test_asymptote_form_where_its_products_underflow(self):
        # x_asym*y_asym and the numerator both underflow to 0
        assert_rel(concentration_from_asymptotes(PoolState(1e-200, 1e-200), -1e-200, -1e-200), 4.0,
                   rel=1e-15)

    @pytest.mark.parametrize("anchor, field", [((0.0, -1.0), "x_asym"), ((-1.0, 0.0), "y_asym")],
                             ids=["x_asym", "y_asym"])
    def test_asymptote_form_rejects_a_zero_anchor(self, anchor, field):
        with pytest.raises(DomainError) as err:
            concentration_from_asymptotes(PoolState(1.0, 1.0), *anchor)
        assert (err.value.field, err.value.reason) == (field, "must be nonzero")

    def test_asymptote_form_past_the_float_range_is_an_error(self):
        # c is about 1e600
        with pytest.raises(DomainError) as err:
            concentration_from_asymptotes(PoolState(1.0, 1.0), -1e-300, -1e-300)
        assert err.value.field == "state"

    @pytest.mark.parametrize("form, state, anchor, name", [
        # off the center, where x*y == x0*y0 makes the form a nonzero number over 0
        (concentration_from_center, PoolState(1e200, 1e-200), (1e-100, 1e100), "center"),
        (concentration_from_intercepts, PoolState(1.0, 1e-300), (1e300, 1.0), "intercept"),
        (concentration_from_asymptotes, PoolState(1.0, 1.0), (-1e-320, -1.0), "asymptote"),
    ], ids=["center", "intercepts", "asymptotes"])
    def test_c_past_the_float_range_is_an_error(self, form, state, anchor, name):
        # one rule for all three forms: each returned inf, or called a state off the center 0/0
        with pytest.raises(DomainError) as err:
            form(state, *anchor)
        assert (err.value.field, err.value.reason) == (
            "state", f"the {name} form overflows the float range here")

    def test_scaling_keeps_every_bit(self, rng):
        # each axis's pair is scaled by a power of two, which the unscaled
        # expressions' rounding does not see
        for _ in range(2000):
            e = rng.uniform(-100.0, 100.0)
            x, y, ax, ay = (10.0 ** (e + rng.uniform(-3.0, 3.0)) for _ in range(4))
            num, den = (x - ax) * (y - ay), x * y - ax * ay
            assert concentration_from_center(PoolState(x, y), ax, ay) == (num / den) * (num / den)
            assert (concentration_from_asymptotes(PoolState(x, y), -ax, -ay)
                    == (x + ax) * (y + ay) / (ax * ay))
            assert (concentration_from_intercepts(PoolState(x, y), ax, ay)
                    == (ax - x) / y * ((ay - y) / x))

    def test_asymptote_form_everywhere(self):
        for state in (PoolState(100, 100), PoolState(0, 300), PoolState(300, 0)):
            assert_rel(concentration_from_asymptotes(state, -100.0, -100.0), 4.0)

    def test_constancy_along_curve(self, rng):
        for _ in range(100):
            curve = curve_for(random_bancor_params(rng))
            g = curve.geom
            values = []
            for _ in range(100):
                state = curve.state_from_x(rng.uniform(0.01, 0.99) * g.x_int)
                values.append(concentration_from_asymptotes(state, g.x_asym, g.y_asym))
            assert statistics.pstdev(values) <= 1e-9 * g.c

    def test_forms_agree_on_curve(self, bancor_curve, rng):
        g = bancor_curve.geom
        for _ in range(100):
            state = bancor_curve.state_from_x(rng.uniform(0.01, 0.99) * g.x_int)
            assert concentration_forms_agree(state, g)

    def test_agreement_at_center_uses_asymptote_form(self, bancor_curve):
        assert concentration_forms_agree(PoolState(100, 100), bancor_curve.geom)

    def test_off_curve_state_detected(self, bancor_curve):
        state = PoolState(100.0, 101.0)  # y scaled off-curve
        assert not concentration_forms_agree(state, bancor_curve.geom)


class TestAmplificationReconstruction:
    def test_from_concentration_alone(self, rng):
        for _ in range(200):
            params = random_bancor_params(rng)
            c = curve_for(params).concentration()
            recovered = math.sqrt(c) / (math.sqrt(c) - 1.0)
            assert_rel(recovered, params.A, rel=1e-12)

    def test_doubled_amplification_and_intercept_quotients(self, rng):
        # (sqrt(c)+1)/(sqrt(c)-1) recovers 2A-1; x_int/x0 equals sqrt(c)+1
        for _ in range(200):
            params = random_bancor_params(rng)
            curve = curve_for(params)
            root = math.sqrt(curve.concentration())
            assert_rel((root + 1.0) / (root - 1.0), 2.0 * params.A - 1.0, rel=1e-12)
            assert_rel(curve.geom.x_int / params.x0, root + 1.0, rel=1e-12)
            assert_rel(curve.geom.y_int / params.y0, root + 1.0, rel=1e-12)
