#!/usr/bin/env python3
"""End-to-end tour of one curve through every lens the library offers.

Prints the same pool expressed in each parameter form, its geometry, a worked
swap quoted by all forms, and the hyperbolic-angle view of its price range.
"""

import math

from clamm import (
    BancorV2Params,
    PoolState,
    curve_for,
    hyperbolic_angle,
    spec_to_dict,
    trig_identities,
    u_hat_from_price,
    unit_from_state,
)
from clamm.rosetta import translate

POOL = BancorV2Params(x0=100.0, y0=100.0, A=2.0)
FORMS = ("bancor_v2", "uniswap_v3", "carbon", "natural")


def main() -> int:
    print("same curve, four parameter forms")
    for form in FORMS:
        print(f"  {spec_to_dict(translate(POOL, form))}")

    curve = curve_for(POOL)
    g = curve.geom
    print("\ngeometry")
    print(f"  intercepts   ({g.x_int}, {g.y_int})")
    print(f"  asymptotes   ({g.x_asym}, {g.y_asym})")
    print(f"  price range  [{g.p_low}, {g.p_high}], center {g.p0}")
    print(f"  concentration {g.c}, angle {g.phi:.10f}")

    state = PoolState(100.0, 100.0)
    print("\nswap 100 x in, quoted independently by every form")
    for form in FORMS:
        dy = curve_for(translate(POOL, form)).swap_exact_in_x(state, 100.0).dy
        print(f"  {form:<12} dy = {dy!r}")

    print("\nunit-hyperbola view")
    unit = unit_from_state(state.x, state.y)
    print(f"  center state maps to (t={unit.t_hat}, u={unit.u_hat})")
    print(f"  price-bound verticals u = {u_hat_from_price(g.p_high)}, {u_hat_from_price(g.p_low)}")
    phi = hyperbolic_angle(g.p_high, g.p_low)
    trig = trig_identities(phi)
    print(f"  angle {phi:.10f} = ln({math.exp(phi):.10f}); cosh {trig.cosh}, tanh {trig.tanh}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
