import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clamm import (
    DomainError,
    InsufficientLiquidity,
    PoolState,
    ReferenceCurve,
    ReferenceParams,
    SwapDelta,
    apply_delta,
    integrate_price_curve,
)

from .conftest import assert_rel


@pytest.fixture
def curve():
    return ReferenceCurve(ReferenceParams(100.0, 100.0))


class TestSwapExactInX:
    def test_worked_swap(self, curve):
        # dy = -dx*y/(x+dx): -100*100/200, cross-checked by quadrature below
        delta = curve.swap_exact_in_x(PoolState(100, 100), 100.0)
        assert_rel(delta.dy, -50.0)

    def test_asymmetric_state(self):
        curve = ReferenceCurve(ReferenceParams(200.0, 50.0))
        delta = curve.swap_exact_in_x(PoolState(200, 50), 200.0)
        assert_rel(delta.dy, -25.0)

    def test_zero_trade(self, curve):
        assert curve.swap_exact_in_x(PoolState(100, 100), 0.0) == SwapDelta(0.0, 0.0)

    def test_tiny_trade_vanishes(self, curve):
        delta = curve.swap_exact_in_x(PoolState(100, 100), 1e-12)
        assert abs(delta.dy) < 1e-11

    def test_full_x_withdrawal_rejected(self, curve):
        with pytest.raises(InsufficientLiquidity):
            curve.swap_exact_in_x(PoolState(100, 100), -100.0)

    def test_quadrature_agreement(self, curve):
        quad = integrate_price_curve(curve, 100.0, 100.0, abs_tol=1e-10)
        assert_rel(quad, -50.0, rel=1e-8)


class TestSwapExactOutY:
    def test_inverse_of_worked_swap(self, curve):
        delta = curve.swap_exact_out_y(PoolState(100, 100), -50.0)
        assert_rel(delta.dx, 100.0)

    def test_full_depletion_unreachable(self, curve):
        with pytest.raises(InsufficientLiquidity):
            curve.swap_exact_out_y(PoolState(100, 100), -100.0)

    def test_zero_trade(self, curve):
        assert curve.swap_exact_out_y(PoolState(100, 100), 0.0) == SwapDelta(0.0, 0.0)


class TestMarginalPrice:
    def test_symmetric_state(self, curve):
        assert_rel(curve.marginal_price(PoolState(100, 100)), -1.0)

    def test_agrees_with_x_only_form(self):
        curve = ReferenceCurve(ReferenceParams(200.0, 50.0))
        state = PoolState(200, 50)
        assert_rel(curve.marginal_price(state), -0.25, rel=1e-12)
        assert_rel(curve.price_slope_at_x(200.0), -10000.0 / 40000.0, rel=1e-12)

    @pytest.mark.parametrize("x0, y0", [(1e-200, 1e-7), (1e200, 1e15)])
    def test_slopes_at_extreme_scales(self, x0, y0):
        # x*x underflows, or overflows, where the slope -y0/x0 does not
        curve = ReferenceCurve(ReferenceParams(x0, y0))
        assert_rel(curve.price_slope_at_x(x0), -y0 / x0, rel=1e-15, abs_floor=0.0)
        assert_rel(curve.price_slope_at_y(y0), -x0 / y0, rel=1e-15, abs_floor=0.0)

    def test_reciprocal_point(self):
        curve = ReferenceCurve(ReferenceParams(50.0, 200.0))
        assert_rel(curve.marginal_price(PoolState(50, 200)), -4.0)

    def test_undefined_at_zero_x(self, curve):
        with pytest.raises(DomainError):
            curve.marginal_price(PoolState(0, 100))


class TestEffectivePrice:
    def test_worked_trade(self, curve):
        delta = curve.swap_exact_in_x(PoolState(100, 100), 100.0)
        assert_rel(curve.effective_price(PoolState(100, 100), delta), -0.5)

    def test_larger_trade(self, curve):
        delta = curve.swap_exact_in_x(PoolState(100, 100), 300.0)
        assert_rel(curve.effective_price(PoolState(100, 100), delta), -0.25)

    def test_approaches_marginal_price(self, curve):
        state = PoolState(100, 100)
        delta = curve.swap_exact_in_x(state, 1e-7)
        assert_rel(curve.effective_price(state, delta), curve.marginal_price(state), rel=1e-8)

    def test_zero_trade_rejected(self, curve):
        with pytest.raises(DomainError):
            curve.effective_price(PoolState(100, 100), SwapDelta(0.0, 0.0))

    def test_lies_between_endpoint_marginals(self, curve):
        state = PoolState(100, 100)
        delta = curve.swap_exact_in_x(state, 50.0)
        effective = curve.effective_price(state, delta)
        before = curve.marginal_price(state)
        after = curve.marginal_price(apply_delta(state, delta))
        assert min(before, after) < effective < max(before, after)


class TestLogSwapIdentity:
    def test_holds_for_real_swap(self, curve):
        assert curve.log_swap_identity_check(PoolState(100, 100), SwapDelta(100.0, -50.0))

    def test_zero_delta(self, curve):
        assert curve.log_swap_identity_check(PoolState(100, 100), SwapDelta(0.0, 0.0))

    def test_rejects_inconsistent_delta(self, curve):
        assert not curve.log_swap_identity_check(PoolState(100, 100), SwapDelta(100.0, -40.0))


curve_strategy = st.builds(
    lambda x0, y0: ReferenceCurve(ReferenceParams(x0, y0)),
    st.floats(min_value=1e-3, max_value=1e6),
    st.floats(min_value=1e-3, max_value=1e6),
)


@settings(max_examples=200)
@given(curve=curve_strategy, frac=st.floats(min_value=1e-6, max_value=10.0))
def test_product_conservation(curve, frac):
    state = PoolState(curve.params.x0, curve.params.y0)
    dx = frac * state.x
    after = apply_delta(state, curve.swap_exact_in_x(state, dx))
    assert_rel(after.x * after.y, curve.scale, rel=1e-9)


@settings(max_examples=200)
@given(curve=curve_strategy,
       frac=st.one_of(st.just(0.0),
                      st.floats(min_value=1e-12, max_value=10.0),
                      st.floats(min_value=-0.99, max_value=-1e-12)))
def test_sign_coupling(curve, frac):
    state = PoolState(curve.params.x0, curve.params.y0)
    dx = frac * state.x
    delta = curve.swap_exact_in_x(state, dx)
    if dx > 0:
        assert delta.dy < 0
    elif dx < 0:
        assert delta.dy > 0
    else:
        assert delta.dy == 0


def test_underflowing_trade_rejected(curve):
    # a subnormal dx whose output rounds to zero cannot form an honest delta
    with pytest.raises(DomainError):
        curve.swap_exact_in_x(PoolState(1.0, 0.5), 5e-324)


@settings(max_examples=100)
@given(curve=curve_strategy,
       f1=st.floats(min_value=1e-3, max_value=4.0),
       f2=st.floats(min_value=1e-3, max_value=4.0))
def test_path_independence(curve, f1, f2):
    state = PoolState(curve.params.x0, curve.params.y0)
    dx1, dx2 = f1 * state.x, f2 * state.x
    step1 = curve.swap_exact_in_x(state, dx1)
    mid = apply_delta(state, step1)
    step2 = curve.swap_exact_in_x(mid, dx2)
    combined = curve.swap_exact_in_x(state, dx1 + dx2)
    assert_rel(step1.dy + step2.dy, combined.dy, rel=1e-9)


@settings(max_examples=100)
@given(curve=curve_strategy, frac=st.floats(min_value=1e-3, max_value=10.0))
def test_round_trip_returns_to_start(curve, frac):
    state = PoolState(curve.params.x0, curve.params.y0)
    dx = frac * state.x
    mid = apply_delta(state, curve.swap_exact_in_x(state, dx))
    back = apply_delta(mid, curve.swap_exact_in_x(mid, -dx))
    assert_rel(back.x, state.x, rel=1e-9)
    assert_rel(back.y, state.y, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(curve=curve_strategy, frac=st.floats(min_value=0.01, max_value=5.0))
def test_swap_matches_price_integral(curve, frac):
    state = PoolState(curve.params.x0, curve.params.y0)
    dx = frac * state.x
    closed = curve.swap_exact_in_x(state, dx).dy
    quad = integrate_price_curve(curve, state.x, dx)
    assert_rel(quad, closed, rel=1e-8)


@settings(max_examples=100)
@given(curve=curve_strategy, frac=st.floats(min_value=1e-3, max_value=10.0))
def test_log_identity_on_generated_swaps(curve, frac):
    state = PoolState(curve.params.x0, curve.params.y0)
    delta = curve.swap_exact_in_x(state, frac * state.x)
    assert curve.log_swap_identity_check(state, delta)
