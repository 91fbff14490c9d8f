"""Two-token concentrated-liquidity bonding curve math.

Equivalent parameterizations of the same shifted-hyperbola real curve, exact
translation between them, swap and price computation, a normalized
unit-hyperbola view with hyperbolic angles, and an independent quadrature
oracle that reproduces every swap from the marginal-price integrand.
"""

from .bancor import BancorCurve
from .carbon import CarbonCurve
from .curves import NaturalCurve, curve_for, geometry
from .errors import (
    BoundsExceeded,
    ConvergenceFailure,
    CurveError,
    DomainError,
    Indeterminate,
    InsufficientLiquidity,
)
from .hypertrig import (
    AXIS_ALIGNMENT,
    RotatedPoint,
    TrigValues,
    UnitPoint,
    arsinh,
    hyperbolic_angle,
    hyperbolic_angle_from_unit,
    normalize,
    rotate,
    t_hat_from_price,
    trig_identities,
    u_hat_from_price,
    unit_from_state,
)
from .params import (
    BancorV2Params,
    CarbonParams,
    CurveGeometry,
    CurveParams,
    NaturalParams,
    PoolState,
    ReferenceParams,
    ShiftedProductCurve,
    SwapDelta,
    UniswapV3Params,
    VirtualBounds,
    apply_delta,
    load_spec,
    rel_close,
    spec_from_dict,
    spec_to_dict,
    validate,
)
from .quadrature import (
    ComparisonReport,
    adaptive_gauss_kronrod,
    integrate_price_curve,
    oracle_compare,
    verify_cases,
)
from .reference import ReferenceCurve
from .rosetta import (
    TranslationReport,
    concentration_forms_agree,
    concentration_from_asymptotes,
    concentration_from_center,
    concentration_from_intercepts,
    translate,
    translate_with_report,
    translation_report,
)
from .uniswap import UniswapCurve

__version__ = "0.1.0"
