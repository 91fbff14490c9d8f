"""Brute-force swap verification by integrating the marginal-price curve.

The closed-form swap outputs are never trusted blind: the trade amount dy is
also the integral of the price slope over the traded x interval, and this
module reproduces it by adaptive Simpson quadrature from the slope callback
alone.  No swap formula is consulted on the quadrature side.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .curves import curve_for
from .errors import ConvergenceFailure, DomainError
from .params import (
    FORM_REGISTRY,
    BancorV2Params,
    CurveParams,
    PoolState,
    ReferenceParams,
    ShiftedProductCurve,
)
from .rosetta import translate

DEFAULT_ABS_TOL = 1e-10
DEFAULT_MAX_DEPTH = 60

# Quadrature runs two orders tighter than the comparison threshold, floored at
# what binary64 can resolve relative to the integral's own magnitude.
_ORACLE_REL_MARGIN = 1e-2
_DOUBLE_REL_FLOOR = 1e-13

_PARAM_TYPES = tuple(FORM_REGISTRY.values())


@dataclass(frozen=True)
class IntegralSpec:
    """One definite integral of a marginal-price form."""

    lower: float
    upper: float
    abs_tol: float = DEFAULT_ABS_TOL
    max_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise DomainError("lower", "bounds must be finite")
        if not self.lower < self.upper:
            raise DomainError("lower", "must be below upper")
        if not self.abs_tol > 0:
            raise DomainError("abs_tol", "must be positive")


@dataclass(frozen=True)
class ComparisonReport:
    """Closed-form vs quadrature output for one swap."""

    closed_form_dy: float
    quadrature_dy: float
    abs_deviation: float
    rel_deviation: float
    passed: bool


def _first_panel(f, a, b):
    """f(a), f(b), the midpoint m, f(m) and the one-panel Simpson estimate over [a, b]."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    return fa, fb, m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, eps, whole, m, fm, depth):
    # The two half panels are written out rather than calling a helper, because
    # this frame runs hundreds of times per integral.  Each uses the expression
    # of _first_panel and the f calls keep their order, so every sum is the
    # one a per-panel helper gives.
    lm = 0.5 * (a + m)
    flm = f(lm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    rm = 0.5 * (m + b)
    frm = f(rm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    both = left + right
    delta = both - whole
    if abs(delta) <= 15.0 * eps:
        return both + delta / 15.0
    if depth <= 0:
        raise ConvergenceFailure(f"interval [{a}, {b}] did not converge to {eps}")
    return (_adaptive(f, a, fa, m, fm, 0.5 * eps, left, lm, flm, depth - 1)
            + _adaptive(f, m, fm, b, fb, 0.5 * eps, right, rm, frm, depth - 1))


def adaptive_simpson(f: Callable[[float], float], spec: IntegralSpec) -> float:
    """Adaptive Simpson integral of f over the spec's interval."""
    fa, fb, m, fm, whole = _first_panel(f, spec.lower, spec.upper)
    return _adaptive(f, spec.lower, fa, spec.upper, fb, spec.abs_tol, whole, m, fm, spec.max_depth)


def _as_curve(curve: CurveParams | ShiftedProductCurve) -> ShiftedProductCurve:
    # Anything that is not a parameter set is used as the curve, so tests can
    # hand in slope-only stubs.
    if isinstance(curve, _PARAM_TYPES):
        return curve_for(curve)
    return curve


def integrate_price_curve(curve: CurveParams | ShiftedProductCurve,
                          x_from: float, x_to: float,
                          abs_tol: float | None = None,
                          rel_tol: float = 1e-10,
                          max_depth: int = DEFAULT_MAX_DEPTH) -> float:
    """dy produced by moving the pool from x_from to x_to, by quadrature only.

    With abs_tol unset, the tolerance is scaled to a coarse first estimate of
    the integral so that curves of any magnitude converge; the relative target
    is floored at what double precision permits.
    """
    live = _as_curve(curve)
    if x_from == x_to:
        return 0.0
    sign = 1.0
    lo, hi = x_from, x_to
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    x_int = live.geom.x_int
    if lo < 0 or (math.isfinite(x_int) and hi > x_int * (1.0 + 1e-12)):
        raise DomainError("x_from", "integration interval leaves the admissible x-range")
    if math.isinf(x_int) and lo <= 0:
        raise DomainError("x_from", "the unshifted curve is undefined at x = 0")
    f = live.price_slope_at_x
    # The first panel both sets the tolerance and starts the refinement.
    fa, fb, m, fm, whole = _first_panel(f, lo, hi)
    if abs_tol is None:
        abs_tol = abs(whole) * max(rel_tol, _DOUBLE_REL_FLOOR)
        if abs_tol == 0.0:
            abs_tol = DEFAULT_ABS_TOL
    spec = IntegralSpec(lo, hi, abs_tol, max_depth)
    return sign * _adaptive(f, lo, fa, hi, fb, spec.abs_tol, whole, m, fm, spec.max_depth)


def oracle_compare(curve: CurveParams | ShiftedProductCurve,
                   state: PoolState, dx: float,
                   rel_tol: float = 1e-8) -> ComparisonReport:
    """Check one closed-form swap against the quadrature route."""
    live = _as_curve(curve)
    closed = live.swap_exact_in_x(state, dx).dy
    quad = integrate_price_curve(live, state.x, state.x + dx,
                                 rel_tol=rel_tol * _ORACLE_REL_MARGIN)
    abs_dev = abs(closed - quad)
    rel_dev = abs_dev / max(abs(closed), abs(quad), 1e-300)
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
                         scale_exp_range: tuple[float, float] = (-3.0, 9.0),
                         amp_range: tuple[float, float] = (1.01, 100.0)) -> BancorV2Params:
    x0 = 10.0 ** rng.uniform(*scale_exp_range)
    y0 = 10.0 ** rng.uniform(*scale_exp_range)
    return BancorV2Params(x0=x0, y0=y0, A=rng.uniform(*amp_range))


def random_admissible_swap(rng: random.Random, curve: ShiftedProductCurve,
                           margin: float = 0.02) -> tuple[PoolState, float]:
    """On-curve state plus a dx that stays inside the intercepts.

    The margin keeps float noise at the very edge of the range from flipping
    an intended in-bounds trade across an intercept.
    """
    x_int = curve.geom.x_int
    if math.isinf(x_int):
        x0 = curve.params.x0
        x = x0 * 10.0 ** rng.uniform(-1.0, 1.0)
        dx = rng.uniform(0.05, 3.0) * x
    else:
        x = rng.uniform(margin, 1.0 - margin) * x_int
        dx = rng.uniform(margin, 1.0 - margin) * (x_int - x)
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


def run_battery(seed: int = 0, cases: int = 200,
                rel_tol: float = 1e-8) -> list[ComparisonReport]:
    return [oracle_compare(curve, state, dx, rel_tol=rel_tol)
            for curve, state, dx in battery_cases(seed, cases)]
