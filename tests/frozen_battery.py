"""The verify battery's draw as it was when every case drew its own Bancor
curve, frozen so that goldens computed over it do not move when the battery's
structure does.

Case i checks the form ``FORMS[i % 4]``.  Each case draws a fresh
``BancorV2Params`` (balances log-uniform over 1e-3..1e9, A uniform in
[1.01, 100]), builds it in that form, and then draws its state and trade.
"""

import math
import random

from clamm import BancorV2Params, ReferenceParams, curve_for
from clamm.rosetta import translate

FORMS = ("reference", "bancor_v2", "uniswap_v3", "carbon")


def spelled_bancor(rng):
    """One Bancor curve, its draws spelled with rng.uniform."""
    return BancorV2Params(x0=10.0 ** rng.uniform(-3.0, 9.0), y0=10.0 ** rng.uniform(-3.0, 9.0),
                          A=rng.uniform(1.01, 100.0))


def spelled_swap(rng, curve):
    """A state and a trade on curve, their draws spelled with rng.uniform.

    A bounded curve keeps 2 % of its range clear at each end; the unshifted
    curve starts within a decade of its x0 and trades 0.05 to 3 times x.
    """
    x_int = curve.geom.x_int
    if math.isinf(x_int):
        x = curve.params.x0 * 10.0 ** rng.uniform(-1.0, 1.0)
        dx = rng.uniform(0.05, 3.0) * x
    else:
        x = rng.uniform(0.02, 0.98) * x_int
        dx = rng.uniform(0.02, 0.98) * (x_int - x)
    return curve.state_from_x(x), dx


def frozen_battery_cases(seed, cases):
    """(curve, state, dx) of each case of the frozen draw, one at a time."""
    rng = random.Random(seed)
    for i in range(cases):
        form = FORMS[i % len(FORMS)]
        bancor = spelled_bancor(rng)
        if form == "reference":
            params = ReferenceParams(x0=bancor.x0, y0=bancor.y0)
        elif form == "bancor_v2":
            params = bancor
        else:
            params = translate(bancor, form)
        curve = curve_for(params)
        yield (curve, *spelled_swap(rng, curve))
