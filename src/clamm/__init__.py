"""Two-token concentrated-liquidity bonding curve math.

Equivalent parameterizations of the same shifted-hyperbola real curve, exact
translation between them, swap and price computation, a normalized
unit-hyperbola view with hyperbolic angles, and an independent quadrature
oracle that reproduces every swap from the marginal-price integrand.

``import clamm`` loads the curve core: the parameter forms, their curves and
the errors.  The layers built on it, ``hypertrig``, ``quadrature`` and
``rosetta``, load on first use of one of their names or of the submodule.
"""

import importlib as _importlib

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
from .reference import ReferenceCurve
from .uniswap import UniswapCurve

__version__ = "0.1.0"

# Name -> defining submodule of every export that loads on first use.
_LAZY = {
    **dict.fromkeys((
        "AXIS_ALIGNMENT",
        "RotatedPoint",
        "TrigValues",
        "UnitPoint",
        "arsinh",
        "hyperbolic_angle",
        "hyperbolic_angle_from_unit",
        "normalize",
        "rotate",
        "t_hat_from_price",
        "trig_identities",
        "u_hat_from_price",
        "unit_from_state",
    ), "hypertrig"),
    **dict.fromkeys((
        "ComparisonReport",
        "adaptive_gauss_kronrod",
        "integrate_price_curve",
        "oracle_compare",
        "verify_cases",
    ), "quadrature"),
    **dict.fromkeys((
        "TranslationReport",
        "concentration_forms_agree",
        "concentration_from_asymptotes",
        "concentration_from_center",
        "concentration_from_intercepts",
        "translate",
        "translate_with_report",
        "translation_report",
    ), "rosetta"),
    **{name: name for name in ("hypertrig", "quadrature", "rosetta")},
}
# What ``from clamm import *`` binds: the submodules and their exports.
__all__ = sorted(name for name in {*globals(), *_LAZY} if not name.startswith("_"))


def __getattr__(name):
    # Not cached in the package: each access reads the submodule's current
    # binding, so clamm.X stays the object clamm.<module>.X is.
    try:
        defining = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = _importlib.import_module(f".{defining}", __name__)
    return module if name == defining else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
