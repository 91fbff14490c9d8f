#!/usr/bin/env python3
"""Regenerate every committed golden file under tests/golden/.

Each golden is the stdout of one command in ``COMMANDS``, run with this
interpreter from the repository root with src/ first on PYTHONPATH, so that
it pins this checkout's code, not whatever clamm is installed.  Run it after
any intentional change of output, then review the diff before committing.
With --check nothing is written: the script compares each command's output
with its golden file and exits 1, naming every file that drifted.

Usage: python3 scripts/regen_cli_golden.py [--check]
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SRC = ROOT / "src"

WORKED = "tests/data/worked_bancor.json"

# golden file name: the argv after the interpreter that writes it
COMMANDS = {
    "quote.json": ["-m", "clamm", "quote", "--spec", WORKED, "--x", "100", "--y", "100", "--dx", "100"],
    # the same quote through carbon's (a, b, z) parameter set, which quotes through the core
    "quote_carbon.json": ["-m", "clamm", "quote", "--spec", "tests/data/worked_carbon.json",
                          "--x", "100", "--y", "100", "--dx", "100"],
    "translate_carbon.json": ["-m", "clamm", "translate", "--spec", WORKED, "--to", "carbon"],
    "geometry.json": ["-m", "clamm", "geometry", "--spec", WORKED],
    "angle.json": ["-m", "clamm", "angle", "--spec", WORKED],
    "sweep_points3.json": ["-m", "clamm", "sweep", "--spec", WORKED, "--points", "3"],
    "sweep_points3.csv": ["-m", "clamm", "sweep", "--spec", WORKED, "--points", "3", "--output", "csv"],
    "sweep_price_points5.csv": ["-m", "clamm", "sweep", "--spec", WORKED, "--axis", "price",
                                "--points", "5", "--output", "csv"],
    "verify_cases2000.json": ["-m", "clamm", "verify", "--cases", "2000", "--seed", "0"],
    # digests: the verify battery's curve bits, and 16 sweeps of the worked specs
    "curve_bits.sha256": ["-m", "tests.test_curve_bits"],
    "sweep_bits.sha256": ["-m", "tests.test_sweep_bits"],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the golden files instead of writing them")
    args = parser.parse_args(argv)
    if not args.check:
        GOLDEN.mkdir(parents=True, exist_ok=True)
    path_var = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path_var}
    drifted = []
    for name, command in COMMANDS.items():
        result = subprocess.run([sys.executable, *command], cwd=ROOT, env=env, capture_output=True)
        if result.returncode:
            sys.exit(f"{name}: {' '.join(command)} exited {result.returncode}\n{result.stderr.decode()}")
        path = GOLDEN / name
        if not args.check:
            path.write_bytes(result.stdout)
            print(f"wrote {path} ({len(result.stdout)} bytes)")
        elif not path.is_file() or path.read_bytes() != result.stdout:
            drifted.append(path)
            print(f"drift: {path}", file=sys.stderr)
    if args.check and not drifted:
        print(f"all {len(COMMANDS)} golden files match")
    return 1 if drifted else 0


if __name__ == "__main__":
    raise SystemExit(main())
