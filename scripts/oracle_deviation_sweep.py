#!/usr/bin/env python3
"""Measure closed-form vs quadrature deviation across curve scales.

For each decade of pool size from 1e-12 to 1e15, runs a randomized battery
over the four bounded parameter forms, bancor_v2, uniswap_v3, carbon and
natural, and reports the worst relative deviation seen.  Useful as a quick
confidence check that the closed forms hold up far from the worked examples.
Exits 1 if any case disagrees with the quadrature, 0 otherwise.

Usage: python3 scripts/oracle_deviation_sweep.py [--cases-per-decade N] [--seed S]
"""

import argparse
import random

from clamm import curve_for, verify_cases
from clamm.quadrature import random_admissible_swap, random_bancor_params
from clamm.rosetta import translate

FORMS = ("bancor_v2", "uniswap_v3", "carbon", "natural")
DECADES = range(-12, 16)  # pool scales 1e-12 to 1e15


def decade_cases(rng, scale_exp, cases):
    """(curve, state, dx) cases on pools whose balances lie within half a
    decade of 10**scale_exp, each pool in every form of FORMS, translated from
    the Bancor curve built once per pool."""
    for _ in range(cases):
        base = curve_for(random_bancor_params(rng, (scale_exp - 0.5, scale_exp + 0.5)))
        for form in FORMS:
            curve = base if form == "bancor_v2" else curve_for(translate(base, form))
            yield (curve, *random_admissible_swap(rng, curve))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cases-per-decade", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.cases_per_decade < 1:
        # zero cases would print a deviation of 0 for every decade, having checked nothing
        parser.error("--cases-per-decade must be at least 1")

    rng = random.Random(args.seed)
    failed = 0
    print(f"{'pool scale':>12}  {'worst rel deviation':>20}")
    for scale_exp in DECADES:
        summary = verify_cases(decade_cases(rng, float(scale_exp), args.cases_per_decade))
        if summary["failed"]:
            failed += summary["failed"]
            print(f"  DISAGREEMENT {summary['failed']} of {summary['cases']} cases")
        print(f"{10.0 ** scale_exp:>12.0e}  {summary['max_rel_deviation']:>20.3e}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
