#!/usr/bin/env python3
"""Measure closed-form vs quadrature deviation across curve scales.

For each decade of pool size, runs a randomized battery over all
parameter forms and reports the worst relative deviation seen.  Useful as a
quick confidence check that the closed forms hold up far from the worked
examples.  Exits 1 if any case disagrees with the quadrature, 0 otherwise.

Usage: python3 scripts/oracle_deviation_sweep.py [--cases-per-decade N] [--seed S]
"""

import argparse
import random

from clamm import BancorV2Params, curve_for, oracle_compare
from clamm.quadrature import random_admissible_swap
from clamm.rosetta import translate

FORMS = ("bancor_v2", "uniswap_v3", "carbon")


def worst_deviation(rng, scale_exp, cases):
    """(worst relative deviation, number of failed cases) over one decade."""
    worst = 0.0
    failed = 0
    for _ in range(cases):
        base = BancorV2Params(
            x0=10.0 ** rng.uniform(scale_exp - 0.5, scale_exp + 0.5),
            y0=10.0 ** rng.uniform(scale_exp - 0.5, scale_exp + 0.5),
            A=rng.uniform(1.01, 100.0),
        )
        for form in FORMS:
            params = base if form == "bancor_v2" else translate(base, form)
            curve = curve_for(params)
            state, dx = random_admissible_swap(rng, curve)
            report = oracle_compare(curve, state, dx)
            worst = max(worst, report.rel_deviation)
            if not report.passed:
                failed += 1
                print(f"  DISAGREEMENT {form} {params}: {report}")
    return worst, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cases-per-decade", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    failed = 0
    print(f"{'pool scale':>12}  {'worst rel deviation':>20}")
    for scale_exp in range(-3, 10):
        worst, decade_failed = worst_deviation(rng, float(scale_exp), args.cases_per_decade)
        failed += decade_failed
        print(f"{10.0 ** scale_exp:>12.0e}  {worst:>20.3e}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
