"""Relations between quotes that need no oracle, exact in binary64.

A power-of-two scale is exact until something over- or underflows, so
scaling a pool's scale fields, its state and a trade by 2**40 must scale
every quote bit for bit, on every form and every natural anchor.  Naming the
tokens the other way round mirrors a pool: on the reference form, whose swap
formulas are one mirrored pair, the mirror's quotes must equal the
original's, bit for bit.  (Chen et al., "Metamorphic Testing: A Review of
Challenges and Opportunities", ACM Computing Surveys 51(1), 2018.)
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

from .test_curve_bits import _natural_anchors

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
        anchored = [curve_for(params) for params in _natural_anchors(source)] if source.bounded else []
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


def test_the_reference_pool_quotes_alike_with_its_tokens_swapped():
    """On the mirror, which holds (y, x) on x*y = y0*x0, buying x quotes what
    selling y quotes on the original, and the other way round, and the curve
    read along y is the original read along x: 6000 relations over the 2000
    reference cases of ``battery_cases(11, 8000)``."""
    checked = 0
    for curve, state, dx in battery_cases(11, 8000):
        if curve.bounded:
            continue
        mirror = curve_for(ReferenceParams(curve.params.y0, curve.params.x0))
        flipped = PoolState(state.y, state.x)
        dy = -state.y / 3
        assert mirror.swap_exact_in_x(flipped, dy).dy == curve.swap_exact_out_y(state, dy).dx, (curve, state)
        assert mirror.swap_exact_out_y(flipped, dx).dx == curve.swap_exact_in_x(state, dx).dy, (curve, state)
        assert mirror.x_from_y(state.x) == curve.y_from_x(state.x), (curve, state)
        checked += 1
    assert checked == 2000
