import dataclasses
import math
import statistics
from fractions import Fraction

import pytest

from clamm import (
    DomainError,
    Indeterminate,
    NaturalParams,
    PoolState,
    ReferenceParams,
    UniswapV3Params,
    curve_for,
    geometry,
)
from clamm.rosetta import (
    concentration_forms_agree,
    concentration_from_asymptotes,
    concentration_from_center,
    concentration_from_intercepts,
    translate,
    translate_with_report,
    translation_report,
)

from .conftest import (
    WORKED_BANCOR,
    WORKED_CARBON,
    WORKED_NATURAL,
    WORKED_UNISWAP,
    assert_rel,
    random_bancor,
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

    def test_reference_source_rejected(self):
        with pytest.raises(DomainError):
            translate(ReferenceParams(100, 100), "uniswap_v3")

    def test_reference_target_rejected(self):
        with pytest.raises(DomainError):
            translate(WORKED_BANCOR, "reference")

    def test_unknown_target_rejected(self):
        with pytest.raises(DomainError):
            translate(WORKED_BANCOR, "balancer")

    def test_translation_preserves_geometry(self, rng):
        for _ in range(100):
            src = random_bancor(rng)
            for form in BOUNDED_FORMS:
                _, report = translate_with_report(src, form)
                assert report.max_rel_deviation <= 1e-9

    def test_translation_composes(self, rng):
        # going via any intermediate form lands on the same parameters
        for _ in range(50):
            src = random_bancor(rng)
            for mid in BOUNDED_FORMS:
                for dst in BOUNDED_FORMS:
                    direct = translate(src, dst)
                    via = translate(translate(src, mid), dst)
                    assert_params_close(via, direct)

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
        exact = ((Fraction(x_int) - Fraction(state.x)) * (Fraction(y_int) - Fraction(state.y))
                 / (Fraction(state.x) * Fraction(state.y)))
        assert_rel(concentration_from_intercepts(state, x_int, y_int), float(exact), rel=1e-15)

    def test_intercept_form_indeterminate_on_axis(self):
        with pytest.raises(Indeterminate):
            concentration_from_intercepts(PoolState(0, 300), 300.0, 300.0)

    def test_asymptote_form_everywhere(self):
        for state in (PoolState(100, 100), PoolState(0, 300), PoolState(300, 0)):
            assert_rel(concentration_from_asymptotes(state, -100.0, -100.0), 4.0)

    def test_constancy_along_curve(self, rng):
        for _ in range(100):
            curve = curve_for(random_bancor(rng))
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
            params = random_bancor(rng)
            c = curve_for(params).concentration()
            recovered = math.sqrt(c) / (math.sqrt(c) - 1.0)
            assert_rel(recovered, params.A, rel=1e-12)

    def test_doubled_amplification_and_intercept_quotients(self, rng):
        # (sqrt(c)+1)/(sqrt(c)-1) recovers 2A-1; x_int/x0 equals sqrt(c)+1
        for _ in range(200):
            params = random_bancor(rng)
            curve = curve_for(params)
            root = math.sqrt(curve.concentration())
            assert_rel((root + 1.0) / (root - 1.0), 2.0 * params.A - 1.0, rel=1e-12)
            assert_rel(curve.geom.x_int / params.x0, root + 1.0, rel=1e-12)
            assert_rel(curve.geom.y_int / params.y0, root + 1.0, rel=1e-12)
