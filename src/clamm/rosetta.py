"""Translation between parameter forms, and the three bare invariants.

Any two parameter sets describing the same real curve expose identical
geometry; ``translate`` gives the target form's parameters for a curve (up to
float rounding) without building them, and ``translation_report`` builds both
sides and quantifies the geometric deviation.  The three
``concentration_from_*`` forms evaluate the concentration constant directly
from a state and one anchor, with no curve parameters at all.
"""

from __future__ import annotations

import math

from .curves import curve_for, geometry
from .errors import DomainError, Indeterminate
from .params import (
    CurveGeometry,
    CurveParams,
    FORM_REGISTRY,
    NaturalParams,
    PoolState,
    ShiftedProductCurve,
    _MAX,
    _SMALLEST,
    _bancor_params,
    _carbon_params,
    _finite,
    _require,
    _set,
    _uniswap_params,
    _value_type,
    rel_close,
    root_concentration,
)


@_value_type
class TranslationReport:
    """Largest relative geometry deviation introduced by a translation."""

    source_form: str
    target_form: str
    max_rel_deviation: float

    def __init__(self, source_form: str, target_form: str, max_rel_deviation: float):
        _set(self, "source_form", source_form)
        _set(self, "target_form", target_form)
        _set(self, "max_rel_deviation", max_rel_deviation)


def translate(source: CurveParams | ShiftedProductCurve, target_form: str) -> CurveParams:
    """The target form's parameters for the source's curve, not built.

    The source is a parameter set, which is built into its curve and so
    validated, or a curve built from one, which is read as it is.  The
    reference form carries no price bounds, so it can neither be a source
    nor a target of a non-identity translation.  A translation to the
    source's own form returns its parameter set.

    The result is not validated, and it can be a set that the target form
    rejects: a valid uniswap curve with a narrow range at a tiny scale
    translates to carbon parameters whose ``z`` lies below carbon's
    ``2**-511`` rule.  ``curve_for`` on the result checks it, and
    ``translation_report`` builds both sides.
    """
    if target_form not in FORM_REGISTRY:
        raise DomainError("target", f"unknown form {target_form!r}; expected one of {sorted(FORM_REGISTRY)}")
    curve = source if isinstance(source, ShiftedProductCurve) else curve_for(source)
    if curve.params.form == target_form:
        return curve.params
    if not curve.bounded:
        raise DomainError("spec", "a reference curve has no price bounds to translate")
    if target_form == "reference":
        raise DomainError("target", "the reference form cannot encode price bounds")

    geom = curve.geom
    if target_form == "bancor_v2":
        x0, y0 = curve.center()
        return _bancor_params(x0, y0, curve.amplification())
    if target_form == "uniswap_v3":
        return _uniswap_params(curve.liquidity(), geom.p_high, geom.p_low)
    if target_form == "carbon":
        # a = sqrt(p_high) - sqrt(p_low) = b*(c - 1), where c = sqrt(p_high/p_low)
        # and the geometry holds c - 1 as x_int/(-x_asym): on a narrow range the
        # difference of the roots cancels, and the quotient keeps every digit
        b = math.sqrt(geom.p_low)
        return _carbon_params(b * (geom.x_int / -geom.x_asym), b, geom.y_int)
    # natural: keep c plus the singularity-free asymptote anchor
    return NaturalParams(geom.c, "asymptotes", geom.x_asym, geom.y_asym)


def translation_report(source: CurveParams, target: CurveParams) -> TranslationReport:
    dev = 0.0
    src_geom = geometry(source)
    dst_geom = geometry(target)
    for name in CurveGeometry.__slots__:
        a = getattr(src_geom, name)
        b = getattr(dst_geom, name)
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


def _check_anchor(**anchor: float) -> None:
    """DomainError(<coordinate>, "must be finite") for the first anchor
    coordinate that is NaN, infinite or an int past the binary64 range."""
    for name, value in anchor.items():
        if not _finite(value):
            raise DomainError(name, "must be finite")


def _below_one(state: PoolState, ax: float, ay: float) -> tuple[float, float, float, float]:
    """(x, ax, y, ay), each axis's balance and anchor scaled below 1 by one power of
    two, so that no product of them overflows.  The three forms are unchanged by
    it, and keep every bit where no scaled value underflows."""
    ex, ey = math.frexp(max(abs(state.x), abs(ax)))[1], math.frexp(max(abs(state.y), abs(ay)))[1]
    return math.ldexp(state.x, -ex), math.ldexp(ax, -ex), math.ldexp(state.y, -ey), math.ldexp(ay, -ey)


def _in_range(c: float, form: str) -> float:
    """c, or DomainError("state") for a c past the float range: an infinity,
    which a zero denominator stands for, or the NaN of inf*0."""
    if not -_MAX <= c <= _MAX:
        raise DomainError("state", f"the {form} form overflows the float range here")
    return c


def concentration_from_center(state: PoolState, x0: float, y0: float) -> float:
    """(x-x0)^2 (y-y0)^2 / (xy - x0*y0)^2; 0/0 at the center itself."""
    _check_anchor(x0=x0, y0=y0)
    x, x0, y, y0 = _below_one(state, x0, y0)
    den = x * y - x0 * y0
    num = (x - x0) * (y - y0)
    if num == 0 == den:
        raise Indeterminate("the center form is 0/0 at (x0, y0); use another anchor")
    return _in_range((num / den) * (num / den) if den else math.inf, "center")


def concentration_from_intercepts(state: PoolState, x_int: float, y_int: float) -> float:
    """(x_int - x)(y_int - y) / (x*y); 0/0 at either intercept."""
    _check_anchor(x_int=x_int, y_int=y_int)
    x, x_int, y, y_int = _below_one(state, x_int, y_int)
    if x == 0 or y == 0:
        raise Indeterminate("the intercept form divides by zero on an axis; use another anchor")
    # x*y can underflow to 0 off the axes.  Along the curve (x_int - x)/y runs
    # from x_int/y_int to c*x_int/y_int, and (y_int - y)/x the other way round,
    # so the cross quotients stay in range wherever c does: x_int/y_int is now
    # between 1/2 and 2.
    return _in_range((x_int - x) / y * ((y_int - y) / x), "intercept")


def concentration_from_asymptotes(state: PoolState, x_asym: float, y_asym: float) -> float:
    """(x - x_asym)(y - y_asym) / (x_asym * y_asym); defined on the whole curve."""
    _check_anchor(x_asym=x_asym, y_asym=y_asym)
    _require(x_asym != 0, "x_asym", "must be nonzero")
    _require(y_asym != 0, "y_asym", "must be nonzero")
    x, x_asym, y, y_asym = _below_one(state, x_asym, y_asym)
    den = x_asym * y_asym
    # the anchors' product underflows even scaled only where c overflows
    return _in_range((x - x_asym) * (y - y_asym) / den if den else math.inf, "asymptote")


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
