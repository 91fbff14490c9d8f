"""Brute-force swap verification by integrating the marginal-price curve.

The closed-form swap outputs are never trusted blind: the trade amount dy is
also the integral of the price slope over the traded x interval, and this
module reproduces it by adaptive Gauss-Kronrod 7-15 quadrature from the slope
callback alone, along the hyperbolic angle of the virtual balance and over
exactly the traded width.  No swap formula is consulted on the quadrature side.
"""

from __future__ import annotations

import math
import random
from math import exp, log, log1p
from typing import Callable, Iterable, Iterator

from .curves import curve_for
from .errors import ConvergenceFailure, DomainError
from .params import (
    MIN_NORMAL,
    VERIFY_REL_TOL,
    BancorV2Params,
    CurveParams,
    PoolState,
    ReferenceParams,
    ShiftedProductCurve,
    _MAX,
    _SLACK_BOUND,
    _SMALLEST,
    _finite,
    _new_BancorV2Params,
    _new_ReferenceParams,
    _value_type,
)
from .rosetta import translate

DEFAULT_ABS_TOL = 1e-10
_MAX_DEPTH = 60  # bisections before an interval fails to converge

# The quadrature's one accuracy target, relative to the integral's magnitude:
# near what binary64 resolves, and met by the first panel on almost every trade.
_DOUBLE_REL_FLOOR = 1e-13

# Widest angle integrated: exp(u) is a finite normal float for |u| <= 708.
# A bounded curve spans at most log(c), which passes it only for c > 3e307.
_MAX_ANGLE = 708.0


@_value_type
class ComparisonReport:
    """Closed-form vs quadrature output for one swap."""

    closed_form_dy: float
    quadrature_dy: float
    abs_deviation: float
    rel_deviation: float
    passed: bool

    def __new__(cls, closed_form_dy: float, quadrature_dy: float, abs_deviation: float,
                rel_deviation: float, passed: bool):
        report = cls._twin()
        report.closed_form_dy = closed_form_dy
        report.quadrature_dy = quadrature_dy
        report.abs_deviation = abs_deviation
        report.rel_deviation = rel_deviation
        report.passed = passed
        report.__class__ = cls
        return report


# Called by oracle_compare, once per verify case, without ``type.__call__``
_new_ComparisonReport = ComparisonReport.__new__


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

    Only bisection and direct kernel calls run this, so the node pairs are
    looped over; each sum keeps the written-out order (not ``sum()``, which
    compensates since Python 3.12), so the bits equal ``_angle_panel``'s.  The
    difference is used raw, without QUADPACK's (200 err/resasc)^1.5
    rescaling, so the estimate stays conservative.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    # -0.0 + v is v for every float v, a zero's sign included
    kronrod = gauss = -0.0
    for i in range(7):
        d = h * _XGK[i]
        pair = f(c - d) + f(c + d)
        kronrod += _WGK[i] * pair
        if i % 2:
            gauss += _WG[i // 2] * pair
    kronrod += _K8 * fc
    gauss += _G8 * fc
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


def adaptive_gauss_kronrod(f: Callable[[float], float], lower: float, upper: float,
                           abs_tol: float = DEFAULT_ABS_TOL) -> float:
    """Adaptive Gauss-Kronrod 7-15 integral of f over [lower, upper] to abs_tol.

    Bounds must be finite and increasing and abs_tol positive (DomainError);
    an abs_tol past the float range is taken as inf.  An interval still above
    its share of abs_tol after ``_MAX_DEPTH`` bisections raises
    ConvergenceFailure.
    """
    if not (_finite(lower) and _finite(upper)):
        raise DomainError("lower", "bounds must be finite")
    if not lower < upper:
        raise DomainError("lower", "must be below upper")
    if not abs_tol > 0:
        raise DomainError("abs_tol", "must be positive")
    if not _finite(abs_tol):
        # an int past binary64 would overflow where bisection halves it
        abs_tol = math.inf
    whole, err = _panel(f, lower, upper)
    return _adaptive(f, lower, upper, abs_tol, whole, err, _MAX_DEPTH)


def _angle_panel(f, s, shift, width):
    """``_panel`` of g(u) = f(s*e^u - shift)*s*e^u over [0, width], bit for bit.

    g is the slope f along the hyperbolic angle u = log(v/s) of the virtual
    balance v = x + shift, from its value s where the trade starts.  On every
    form f(x) = -k/(x + shift)^2, so g(u) = -(k/s)*e^(-u), smooth at any
    distance from the pole.  Each node is evaluated as e = s*exp(u), then
    f(e - shift)*e.  This panel is the whole integral of every trade of the
    ``verify`` battery, so its nodes are written out, with no call to g:
    ``verify`` runs about 7 % faster than with ``_panel(g, 0.0, width)``
    (``BENCH_11.json``, ``panel_ab``).
    """
    # [0, width] has its midpoint and its half-width at the same point
    c = h = 0.5 * width
    e = s * exp(c)
    fc = f(e - shift) * e
    d = h * _X1
    e, w = s * exp(c - d), s * exp(c + d)
    s1 = f(e - shift) * e + f(w - shift) * w
    d = h * _X2
    e, w = s * exp(c - d), s * exp(c + d)
    s2 = f(e - shift) * e + f(w - shift) * w
    d = h * _X3
    e, w = s * exp(c - d), s * exp(c + d)
    s3 = f(e - shift) * e + f(w - shift) * w
    d = h * _X4
    e, w = s * exp(c - d), s * exp(c + d)
    s4 = f(e - shift) * e + f(w - shift) * w
    d = h * _X5
    e, w = s * exp(c - d), s * exp(c + d)
    s5 = f(e - shift) * e + f(w - shift) * w
    d = h * _X6
    e, w = s * exp(c - d), s * exp(c + d)
    s6 = f(e - shift) * e + f(w - shift) * w
    d = h * _X7
    e, w = s * exp(c - d), s * exp(c + d)
    s7 = f(e - shift) * e + f(w - shift) * w
    kronrod = _K1 * s1 + _K2 * s2 + _K3 * s3 + _K4 * s4 + _K5 * s5 + _K6 * s6 + _K7 * s7 + _K8 * fc
    gauss = _G2 * s2 + _G4 * s4 + _G6 * s6 + _G8 * fc
    return kronrod * h, abs((kronrod - gauss) * h)


def _check_trade(x: float, dx: float, x_int: float) -> None:
    # The domain checks of integrate_price_curve, run when a range test of
    # its fails: the trade's start x and its end x + dx must lie on the curve.
    if not _finite(x):
        raise DomainError("x", "must be finite")
    if not _finite(dx):
        raise DomainError("dx", "must be finite")
    top = x_int * _SLACK_BOUND if math.isfinite(x_int) else _MAX
    for name, value in (("x", x), ("dx", x + dx)):
        if not 0.0 <= value <= top:
            raise DomainError(name, "integration interval leaves the admissible x-range")
        if value == 0 and math.isinf(x_int):
            raise DomainError(name, "the unshifted curve is undefined at x = 0")


def integrate_price_curve(curve: ShiftedProductCurve, x: float, dx: float) -> float:
    """dy produced by trading dx into a pool at balance x, by quadrature only.

    The curve may be any object with ``geom`` and ``price_slope_at_x``.  The
    slope is integrated along the hyperbolic angle of the virtual balance
    x + shift, shift = -geom.x_asym (see ``_angle_panel``), from 0 to the
    angle U the trade spans.  U is taken from dx, not from the rounded end
    balance, so the width of the integral is exactly the trade.  Every trade
    has one accuracy target, the binary64 floor: ``_DOUBLE_REL_FLOOR`` times
    the first panel's estimate, floored at the smallest normal float.
    """
    if dx == 0:
        return 0.0
    geom = curve.geom
    top = geom.x_int * _SLACK_BOUND
    if not top <= _MAX:  # inf on the unshifted curve
        top = _MAX
    # x and dx are range-tested before they are added, which an int past
    # binary64 would overflow
    if not (0.0 < x <= top and -_MAX <= dx <= _MAX):
        _check_trade(x, dx, geom.x_int)
    x_new = x + dx
    if not 0.0 < x_new <= top:
        _check_trade(x, dx, geom.x_int)
    shift = 0.0 - geom.x_asym
    s = x + shift
    # log1p(dx/s) is well conditioned for dx >= -s/2.  A larger sale has
    # s/2 < -dx <= x, so x + dx is exact by Sterbenz's lemma, and its end's
    # virtual balance is below s/2, where rounding it costs dy at most twice
    # its relative error.
    if dx >= -0.5 * s:
        width = log1p(dx / s)
    else:
        width = log((x_new + shift) / s)
    if not -_MAX_ANGLE <= width <= _MAX_ANGLE:
        raise DomainError("dx", "trade moves the virtual balance by more than a factor of e**708")
    f = curve.price_slope_at_x
    # The first panel both sets the tolerance and, on most trades, is the integral.
    whole, err = _angle_panel(f, s, shift, width)
    tol = abs(whole) * _DOUBLE_REL_FLOOR
    if tol < MIN_NORMAL:  # a NaN tolerance stays, and a NaN slope fails to converge
        tol = MIN_NORMAL
    if err <= tol:
        return whole

    def g(u):
        e = s * exp(u)
        return f(e - shift) * e

    return _adaptive(g, 0.0, width, tol, whole, err, _MAX_DEPTH)


def oracle_compare(curve: ShiftedProductCurve, state: PoolState, dx: float,
                   rel_tol: float = VERIFY_REL_TOL) -> ComparisonReport:
    """Check one closed-form swap against the quadrature route, which does not
    depend on rel_tol: rel_tol is only the pass/fail threshold (NaN: DomainError)."""
    closed = curve.swap_exact_in_x(state, dx).dy
    quad = integrate_price_curve(curve, state.x, dx)
    abs_dev = abs(closed - quad)
    rel_dev = abs_dev / max(abs(closed), abs(quad), _SMALLEST)
    passed = rel_dev <= rel_tol
    if not passed and rel_tol != rel_tol:  # NaN passes nothing
        raise DomainError("rel_tol", "must be a number")
    return _new_ComparisonReport(ComparisonReport, closed, quad, abs_dev, rel_dev, passed)


# ---------------------------------------------------------------------------
# Randomized batteries
# ---------------------------------------------------------------------------

_BATTERY_FORMS = ("reference", "bancor_v2", "uniswap_v3", "carbon")


def random_bancor_params(rng: random.Random,
                         scale_exp_range: tuple[float, float] = (-3.0, 9.0)) -> BancorV2Params:
    """Balances log-uniform over the decades of scale_exp_range, A in [1.01, 100]."""
    lo, hi = scale_exp_range
    try:
        x0 = 10.0 ** (lo + (hi - lo) * rng.random())
        y0 = 10.0 ** (lo + (hi - lo) * rng.random())
    except OverflowError:
        x0 = y0 = math.inf
    # Every A drawn builds on balances in [1e-150, 1e150]: shifts above 2**-511,
    # A^2*x0*y0 below 1e304.  An overflow's inf and a NaN bound's NaN fail.
    if not 1e150 >= x0 >= 1e-150 <= y0 <= 1e150:
        raise DomainError("scale_exp_range", "a balance of 10**exponent must lie in [1e-150, 1e150]")
    return _new_BancorV2Params(BancorV2Params, x0, y0, 1.01 + (100.0 - 1.01) * rng.random())


def random_admissible_swap(rng: random.Random, curve: ShiftedProductCurve) -> tuple[PoolState, float]:
    """On-curve state plus a dx that stays inside the intercepts.

    A bounded curve keeps 2 % of the range clear at each end, so that float
    noise at the very edge cannot flip an intended in-bounds trade across an
    intercept.
    """
    x_int = curve.geom.x_int
    if math.isinf(x_int):
        x0 = curve.params.x0
        x = x0 * 10.0 ** (-1.0 + 2.0 * rng.random())
        dx = (0.05 + (3.0 - 0.05) * rng.random()) * x
    else:
        x = (0.02 + (0.98 - 0.02) * rng.random()) * x_int
        dx = (0.02 + (0.98 - 0.02) * rng.random()) * (x_int - x)
    return curve.state_from_x(x), dx


def battery_cases(seed: int, cases: int) -> Iterator[tuple[ShiftedProductCurve, PoolState, float]]:
    """Deterministic battery across all marginal-price integrand forms, one
    (curve, state, dx) case at a time.

    Each group of four consecutive cases checks one drawn Bancor curve in the
    four forms of ``_BATTERY_FORMS``: the unshifted curve on its balances, the
    Bancor curve itself, and its uniswap and carbon translations, made from
    the built Bancor curve.  Every case draws its own state and trade.
    """
    rng = random.Random(seed)
    for i in range(cases):
        slot = i % len(_BATTERY_FORMS)
        if slot == 0:
            bancor = random_bancor_params(rng)
            curve = curve_for(_new_ReferenceParams(ReferenceParams, bancor.x0, bancor.y0))
        elif slot == 1:
            source = curve = curve_for(bancor)
        else:
            curve = curve_for(translate(source, _BATTERY_FORMS[slot]))
        state, dx = random_admissible_swap(rng, curve)
        yield curve, state, dx


def random_cases(seed: int, cases: int) -> list[tuple[CurveParams, PoolState, float]]:
    """The battery of ``battery_cases`` as a list of (params, state, dx)."""
    return [(curve.params, state, dx) for curve, state, dx in battery_cases(seed, cases)]


def verify_cases(cases: Iterable[tuple[ShiftedProductCurve, PoolState, float]],
                 rel_tol: float = VERIFY_REL_TOL) -> dict:
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
