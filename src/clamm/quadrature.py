"""Brute-force swap verification by integrating the marginal-price curve.

The closed-form swap outputs are never trusted blind: the trade amount dy is
also the integral of the price slope over the traded x interval, and this
module reproduces it by adaptive Gauss-Kronrod 7-15 quadrature from the slope
callback alone.  No swap formula is consulted on the quadrature side.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .curves import curve_for
from .errors import ConvergenceFailure, DomainError
from .params import (
    BOUNDS_SLACK,
    BancorV2Params,
    CurveParams,
    PoolState,
    ReferenceParams,
    ShiftedProductCurve,
    _MAX,
    _set,
)
from .rosetta import translate

DEFAULT_ABS_TOL = 1e-10
DEFAULT_MAX_DEPTH = 60

# Quadrature runs two orders tighter than the comparison threshold, floored at
# what binary64 can resolve relative to the integral's own magnitude.
_ORACLE_REL_MARGIN = 1e-2
_DOUBLE_REL_FLOOR = 1e-13

# Floor of the relative deviation's denominator: the smallest subnormal, so
# that two subnormal results that disagree still read as far apart.
_SMALLEST = math.ulp(0.0)


@dataclass(frozen=True, slots=True, init=False)
class IntegralSpec:
    """One definite integral of a marginal-price form."""

    lower: float
    upper: float
    abs_tol: float = DEFAULT_ABS_TOL
    max_depth: int = DEFAULT_MAX_DEPTH

    def __init__(self, lower: float, upper: float, abs_tol: float = DEFAULT_ABS_TOL,
                 max_depth: int = DEFAULT_MAX_DEPTH):
        try:
            ok = -_MAX <= lower < upper <= _MAX and abs_tol > 0
        except TypeError:
            ok = False
        if not ok:
            if not (math.isfinite(lower) and math.isfinite(upper)):
                raise DomainError("lower", "bounds must be finite")
            if not lower < upper:
                raise DomainError("lower", "must be below upper")
            if not abs_tol > 0:
                raise DomainError("abs_tol", "must be positive")
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set(self, "abs_tol", abs_tol)
        _set(self, "max_depth", max_depth)


@dataclass(frozen=True, slots=True, init=False)
class ComparisonReport:
    """Closed-form vs quadrature output for one swap."""

    closed_form_dy: float
    quadrature_dy: float
    abs_deviation: float
    rel_deviation: float
    passed: bool

    def __init__(self, closed_form_dy: float, quadrature_dy: float, abs_deviation: float,
                 rel_deviation: float, passed: bool):
        _set(self, "closed_form_dy", closed_form_dy)
        _set(self, "quadrature_dy", quadrature_dy)
        _set(self, "abs_deviation", abs_deviation)
        _set(self, "rel_deviation", rel_deviation)
        _set(self, "passed", passed)


# QUADPACK qk15 (Piessens et al., 1983): the Kronrod abscissae in [0, 1),
# largest first, their 15-point weights, and the weights of the embedded
# 7-point Gauss rule, whose nodes are every second Kronrod node (0 included).
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.000000000000000000000000000000000)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)

_X1, _X2, _X3, _X4, _X5, _X6, _X7 = _XGK[:7]
_K1, _K2, _K3, _K4, _K5, _K6, _K7, _K8 = _WGK
_G2, _G4, _G6, _G8 = _WG


def _panel(f, a, b):
    """The Kronrod 15-point estimate of the integral of f over [a, b], and its
    error estimate |K15 - G7|, nonnegative also when b < a.

    The node pairs are written out rather than looped over, because this runs
    for every panel of every integral.  The difference is used raw, without
    QUADPACK's (200 err/resasc)^1.5 rescaling, so the estimate stays
    conservative.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    d = h * _X1
    s1 = f(c - d) + f(c + d)
    d = h * _X2
    s2 = f(c - d) + f(c + d)
    d = h * _X3
    s3 = f(c - d) + f(c + d)
    d = h * _X4
    s4 = f(c - d) + f(c + d)
    d = h * _X5
    s5 = f(c - d) + f(c + d)
    d = h * _X6
    s6 = f(c - d) + f(c + d)
    d = h * _X7
    s7 = f(c - d) + f(c + d)
    kronrod = _K1 * s1 + _K2 * s2 + _K3 * s3 + _K4 * s4 + _K5 * s5 + _K6 * s6 + _K7 * s7 + _K8 * fc
    gauss = _G2 * s2 + _G4 * s4 + _G6 * s6 + _G8 * fc
    return kronrod * h, abs((kronrod - gauss) * h)


def _adaptive(f, a, b, eps, whole, err, depth):
    # whole and err are the panel of [a, b]; a rejected panel is bisected and
    # each half must meet half the tolerance.
    if err <= eps:
        return whole
    if depth <= 0:
        raise ConvergenceFailure(f"interval [{a}, {b}] did not converge to {eps}")
    m = 0.5 * (a + b)
    left, left_err = _panel(f, a, m)
    right, right_err = _panel(f, m, b)
    half = 0.5 * eps
    return (_adaptive(f, a, m, half, left, left_err, depth - 1)
            + _adaptive(f, m, b, half, right, right_err, depth - 1))


def adaptive_gauss_kronrod(f: Callable[[float], float], spec: IntegralSpec) -> float:
    """Adaptive Gauss-Kronrod 7-15 integral of f over the spec's interval."""
    whole, err = _panel(f, spec.lower, spec.upper)
    return _adaptive(f, spec.lower, spec.upper, spec.abs_tol, whole, err, spec.max_depth)


def integrate_price_curve(curve: ShiftedProductCurve,
                          x_from: float, x_to: float,
                          abs_tol: float | None = None,
                          rel_tol: float = 1e-10) -> float:
    """dy produced by moving the pool from x_from to x_to, by quadrature only.

    The curve may be any object with ``geom`` and ``price_slope_at_x``.  With
    abs_tol unset, the tolerance is scaled to the first panel's estimate of
    the integral so that curves of any magnitude converge; the relative target
    is floored at what double precision permits, the absolute one at the
    smallest normal float.
    """
    if x_from == x_to:
        return 0.0
    sign = 1.0
    lo, hi = x_from, x_to
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    x_int = curve.geom.x_int
    if lo < 0 or (math.isfinite(x_int) and hi > x_int * (1.0 + BOUNDS_SLACK)):
        raise DomainError("x_from", "integration interval leaves the admissible x-range")
    if math.isinf(x_int) and lo <= 0:
        raise DomainError("x_from", "the unshifted curve is undefined at x = 0")
    f = curve.price_slope_at_x
    # The first panel both sets the tolerance and starts the refinement.
    whole, err = _panel(f, lo, hi)
    if abs_tol is None:
        abs_tol = max(abs(whole) * max(rel_tol, _DOUBLE_REL_FLOOR), sys.float_info.min)
    spec = IntegralSpec(lo, hi, abs_tol)
    return sign * _adaptive(f, lo, hi, spec.abs_tol, whole, err, spec.max_depth)


def oracle_compare(curve: ShiftedProductCurve, state: PoolState, dx: float,
                   rel_tol: float = 1e-8) -> ComparisonReport:
    """Check one closed-form swap against the quadrature route."""
    closed = curve.swap_exact_in_x(state, dx).dy
    quad = integrate_price_curve(curve, state.x, state.x + dx,
                                 rel_tol=rel_tol * _ORACLE_REL_MARGIN)
    abs_dev = abs(closed - quad)
    rel_dev = abs_dev / max(abs(closed), abs(quad), _SMALLEST)
    return ComparisonReport(
        closed_form_dy=closed,
        quadrature_dy=quad,
        abs_deviation=abs_dev,
        rel_deviation=rel_dev,
        passed=rel_dev <= rel_tol,
    )


# ---------------------------------------------------------------------------
# Randomized batteries
# ---------------------------------------------------------------------------

_BATTERY_FORMS = ("reference", "bancor_v2", "uniswap_v3", "carbon")


def random_bancor_params(rng: random.Random,
                         scale_exp_range: tuple[float, float] = (-3.0, 9.0)) -> BancorV2Params:
    """Balances log-uniform over the decades of scale_exp_range, A in [1.01, 100]."""
    x0 = 10.0 ** rng.uniform(*scale_exp_range)
    y0 = 10.0 ** rng.uniform(*scale_exp_range)
    return BancorV2Params(x0=x0, y0=y0, A=rng.uniform(1.01, 100.0))


def random_admissible_swap(rng: random.Random, curve: ShiftedProductCurve) -> tuple[PoolState, float]:
    """On-curve state plus a dx that stays inside the intercepts.

    A bounded curve keeps 2 % of the range clear at each end, so that float
    noise at the very edge cannot flip an intended in-bounds trade across an
    intercept.
    """
    x_int = curve.geom.x_int
    if math.isinf(x_int):
        x0 = curve.params.x0
        x = x0 * 10.0 ** rng.uniform(-1.0, 1.0)
        dx = rng.uniform(0.05, 3.0) * x
    else:
        x = rng.uniform(0.02, 0.98) * x_int
        dx = rng.uniform(0.02, 0.98) * (x_int - x)
    return curve.state_from_x(x), dx


def battery_cases(seed: int, cases: int) -> Iterator[tuple[ShiftedProductCurve, PoolState, float]]:
    """Deterministic battery across all marginal-price integrand forms, one
    (curve, state, dx) case at a time."""
    rng = random.Random(seed)
    for i in range(cases):
        form = _BATTERY_FORMS[i % len(_BATTERY_FORMS)]
        bancor = random_bancor_params(rng)
        if form == "reference":
            params: CurveParams = ReferenceParams(x0=bancor.x0, y0=bancor.y0)
        elif form == "bancor_v2":
            params = bancor
        else:
            params = translate(bancor, form)
        curve = curve_for(params)
        state, dx = random_admissible_swap(rng, curve)
        yield curve, state, dx


def random_cases(seed: int, cases: int) -> list[tuple[CurveParams, PoolState, float]]:
    """The battery of ``battery_cases`` as a list of (params, state, dx)."""
    return [(curve.params, state, dx) for curve, state, dx in battery_cases(seed, cases)]


def verify_cases(cases: Iterable[tuple[ShiftedProductCurve, PoolState, float]],
                 rel_tol: float = 1e-8) -> dict:
    """Check (curve, state, dx) cases against the quadrature route, one at a time.

    Returns the summary ``clamm verify`` prints: the number of cases, how many
    passed and failed, and the worst relative deviation among those whose
    integral converged.  A case whose integral does not converge fails.
    Cases are drawn, checked and dropped one at a time, so memory stays flat
    in their number.
    """
    count = failed = 0
    worst = 0.0
    for curve, state, dx in cases:
        count += 1
        try:
            report = oracle_compare(curve, state, dx, rel_tol=rel_tol)
        except ConvergenceFailure:
            failed += 1
            continue
        worst = max(worst, report.rel_deviation)
        if not report.passed:
            failed += 1
    return {"cases": count, "passed": count - failed, "failed": failed,
            "max_rel_deviation": worst}
