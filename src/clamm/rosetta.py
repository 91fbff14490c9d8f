"""Lossless translation between parameter forms, and the three bare invariants.

Any two parameter sets describing the same real curve expose identical
geometry; ``translate`` converts between them exactly (up to float rounding)
and ``translation_report`` quantifies the geometric deviation.  The three
``concentration_from_*`` forms evaluate the concentration constant directly
from a state and one anchor, with no curve parameters at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .curves import curve_for, geometry
from .errors import DomainError, Indeterminate
from .params import (
    BancorV2Params,
    CarbonParams,
    CurveGeometry,
    CurveParams,
    FORM_REGISTRY,
    NaturalParams,
    PoolState,
    ReferenceParams,
    ShiftedProductCurve,
    UniswapV3Params,
    _SMALLEST,
    rel_close,
    root_concentration,
    validate,
)


@dataclass(frozen=True)
class TranslationReport:
    """Largest relative geometry deviation introduced by a translation."""

    source_form: str
    target_form: str
    max_rel_deviation: float


def translate(source: CurveParams | ShiftedProductCurve, target_form: str) -> CurveParams:
    """Re-express a curve in another parameter form; the curve is unchanged.

    The source is a parameter set or a curve built from one; a built curve
    is read as it is, so its parameters are not validated or built again.
    The reference form carries no price bounds, so it can neither be a source
    nor a target of a non-identity translation.  A translation to the
    source's own form returns its parameter set once it has passed
    validation.
    """
    if target_form not in FORM_REGISTRY:
        raise DomainError("target", f"unknown form {target_form!r}; expected one of {sorted(FORM_REGISTRY)}")
    if isinstance(source, ShiftedProductCurve):
        curve, params = source, source.params
    else:
        curve, params = None, source
    if params.form == target_form:
        return params if curve is not None else validate(params)
    if isinstance(params, ReferenceParams):
        raise DomainError("spec", "a reference curve has no price bounds to translate")
    if target_form == "reference":
        raise DomainError("target", "the reference form cannot encode price bounds")

    if curve is None:
        curve = curve_for(params)
    geom = curve.geom
    if target_form == "bancor_v2":
        x0, y0 = curve.center()
        return BancorV2Params(x0=x0, y0=y0, A=curve.amplification())
    if target_form == "uniswap_v3":
        return UniswapV3Params(L=curve.liquidity(), p_high=geom.p_high, p_low=geom.p_low)
    if target_form == "carbon":
        sqrt_high = math.sqrt(geom.p_high)
        sqrt_low = math.sqrt(geom.p_low)
        return CarbonParams(a=sqrt_high - sqrt_low, b=sqrt_low, z=geom.y_int)
    # natural: keep c plus the singularity-free asymptote anchor
    return NaturalParams(c=geom.c, anchor="asymptotes", anchor_x=geom.x_asym, anchor_y=geom.y_asym)


def translation_report(source: CurveParams, target: CurveParams) -> TranslationReport:
    dev = 0.0
    src_geom = geometry(source)
    dst_geom = geometry(target)
    for f in fields(CurveGeometry):
        a = getattr(src_geom, f.name)
        b = getattr(dst_geom, f.name)
        scale = max(abs(a), abs(b), _SMALLEST)
        dev = max(dev, abs(a - b) / scale)
    return TranslationReport(source.form, target.form, dev)


def translate_with_report(params: CurveParams, target_form: str) -> tuple[CurveParams, TranslationReport]:
    target = translate(params, target_form)
    return target, translation_report(params, target)


# ---------------------------------------------------------------------------
# The three bare invariants: each evaluates to the concentration constant
# at every point of its curve.
# ---------------------------------------------------------------------------


def concentration_from_center(state: PoolState, x0: float, y0: float) -> float:
    """(x-x0)^2 (y-y0)^2 / (xy - x0*y0)^2; 0/0 at the center itself."""
    den = state.x * state.y - x0 * y0
    if den == 0:
        raise Indeterminate("the center form is 0/0 at (x0, y0); use another anchor")
    num = (state.x - x0) * (state.y - y0)
    return (num / den) * (num / den)


def concentration_from_intercepts(state: PoolState, x_int: float, y_int: float) -> float:
    """(x_int - x)(y_int - y) / (x*y); 0/0 at either intercept."""
    x, y = state.x, state.y
    if x == 0 or y == 0:
        raise Indeterminate("the intercept form divides by zero on an axis; use another anchor")
    # x*y can underflow to 0 off the axes.  Along the curve (x_int - x)/y runs
    # from x_int/y_int to c*x_int/y_int, and (y_int - y)/x the other way round,
    # so the cross quotients stay in range wherever c and x_int/y_int do.
    return (x_int - x) / y * ((y_int - y) / x)


def concentration_from_asymptotes(state: PoolState, x_asym: float, y_asym: float) -> float:
    """(x - x_asym)(y - y_asym) / (x_asym * y_asym); defined on the whole curve."""
    return (state.x - x_asym) * (state.y - y_asym) / (x_asym * y_asym)


def concentration_forms_agree(state: PoolState, geom: CurveGeometry) -> bool:
    """True iff every form defined at this state equals geom.c within REL_TOL.

    Forms sitting on their singular point are skipped; the asymptote form is
    always defined, so at least one value is checked.  An unshifted curve's
    geometry has no center and raises DomainError.
    """
    _, gap = root_concentration(geom)
    x0, y0 = -geom.x_asym * gap, -geom.y_asym * gap
    values = [concentration_from_asymptotes(state, geom.x_asym, geom.y_asym)]
    try:
        values.append(concentration_from_center(state, x0, y0))
    except Indeterminate:
        pass
    try:
        values.append(concentration_from_intercepts(state, geom.x_int, geom.y_int))
    except Indeterminate:
        pass
    return all(rel_close(v, geom.c) for v in values)
