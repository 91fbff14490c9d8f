"""Relations between quotes that need no oracle, exact in binary64.

A power-of-two scale is exact until something over- or underflows, so
scaling a pool's scale fields, its state and a trade by 2**40 must scale
every quote bit for bit, on every form and every natural anchor.  Naming the
tokens the other way round mirrors a pool, and the core's swap and sampling
formulas are mirrored pairs: on the reference, Bancor and natural forms, whose
fields mirror exactly, the mirror's quotes must equal the original's, bit for
bit.  The uniswap mirror needs 1/p_high and 1/p_low, which round, and carbon's
fields are one-sided by design, so those two need a stated bound instead
(ROADMAP item 5) and are left out.  (Chen et al., "Metamorphic Testing: A
Review of Challenges and Opportunities", ACM Computing Surveys 51(1), 2018.)
"""

from collections import Counter

from clamm import (
    BancorV2Params,
    CarbonParams,
    NaturalParams,
    PoolState,
    ReferenceParams,
    UniswapV3Params,
    curve_for,
)
from clamm.quadrature import battery_cases

from .conftest import natural_anchors

SCALE = 2.0 ** 40


def scaled(params):
    """The parameter set of the same pool with every balance times SCALE."""
    if isinstance(params, ReferenceParams):
        return ReferenceParams(params.x0 * SCALE, params.y0 * SCALE)
    if isinstance(params, BancorV2Params):
        return BancorV2Params(params.x0 * SCALE, params.y0 * SCALE, params.A)
    if isinstance(params, UniswapV3Params):
        return UniswapV3Params(params.L * SCALE, params.p_high, params.p_low)
    if isinstance(params, CarbonParams):
        return CarbonParams(params.a, params.b, params.z * SCALE)
    return NaturalParams(params.c, params.anchor, params.anchor_x * SCALE, params.anchor_y * SCALE)


def test_a_power_of_two_scale_scales_every_quote_exactly():
    """The 8000 cases of ``battery_cases(11, 8000)``, and each bounded one's
    curve rebuilt from its three natural anchors: 26000 curves."""
    checked = Counter()
    for source, state, dx in battery_cases(11, 8000):
        anchored = [curve_for(params) for params in natural_anchors(source)] if source.bounded else []
        for curve in [source, *anchored]:
            big = curve_for(scaled(curve.params))
            big_state = PoolState(state.x * SCALE, state.y * SCALE)
            dy = -state.y / 3
            case = (curve.params, state, dx)
            quotes = (curve.swap_exact_in_x(state, dx).dy, curve.swap_exact_out_y(state, dy).dx,
                      curve.y_from_x(state.x))
            assert (big.swap_exact_in_x(big_state, dx * SCALE).dy, big.swap_exact_out_y(big_state, dy * SCALE).dx,
                    big.y_from_x(big_state.x)) == tuple(quote * SCALE for quote in quotes), case
            checked[curve.params.form, getattr(curve.params, "anchor", None)] += 1
    assert len(checked) == 7 and sum(checked.values()) == 26000, checked


def mirrored(params):
    """The parameter set of the same pool with its tokens named the other way
    round: reference, Bancor or natural."""
    if isinstance(params, ReferenceParams):
        return ReferenceParams(params.y0, params.x0)
    if isinstance(params, BancorV2Params):
        return BancorV2Params(params.y0, params.x0, params.A)
    return NaturalParams(params.c, params.anchor, params.anchor_y, params.anchor_x)


def test_a_pool_quotes_alike_with_its_tokens_swapped():
    """On the mirror, which holds (y, x), buying x quotes what selling y quotes
    on the original, and the other way round, and the curve read along y is
    the original read along x, and the other way round.  The reference and
    Bancor cases of ``battery_cases(11, 8000)``, and every bounded case's
    curve rebuilt from its three natural anchors: 22000 curves."""
    checked = Counter()
    for source, state, dx in battery_cases(11, 8000):
        curves = [source] if isinstance(source.params, (ReferenceParams, BancorV2Params)) else []
        if source.bounded:
            curves += [curve_for(params) for params in natural_anchors(source)]
        flipped = PoolState(state.y, state.x)
        dy = -state.y / 3
        for curve in curves:
            mirror = curve_for(mirrored(curve.params))
            case = (curve.params, state, dx)
            assert mirror.swap_exact_in_x(flipped, dy).dy == curve.swap_exact_out_y(state, dy).dx, case
            assert mirror.swap_exact_out_y(flipped, dx).dx == curve.swap_exact_in_x(state, dx).dy, case
            assert mirror.x_from_y(state.x) == curve.y_from_x(state.x), case
            assert mirror.y_from_x(state.y) == curve.x_from_y(state.y), case
            checked[curve.params.form, getattr(curve.params, "anchor", None)] += 1
    assert len(checked) == 5 and sum(checked.values()) == 22000, checked
