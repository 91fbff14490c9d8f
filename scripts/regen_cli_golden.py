#!/usr/bin/env python3
"""Regenerate the committed golden CLI outputs under tests/golden/.

Run from the repository root after any intentional output-format change, then
review the diff before committing.  With --check nothing is written: the
script compares each command's output with its golden file and exits 1,
naming every file that drifted.

Usage: python3 scripts/regen_cli_golden.py [--check]
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
GOLDEN = ROOT / "tests" / "golden"
SRC = ROOT / "src"

COMMANDS = {
    "quote.json": ["quote", "--spec", str(DATA / "worked_bancor.json"),
                   "--x", "100", "--y", "100", "--dx", "100"],
    "translate_carbon.json": ["translate", "--spec", str(DATA / "worked_bancor.json"),
                              "--to", "carbon"],
    "geometry.json": ["geometry", "--spec", str(DATA / "worked_bancor.json")],
    "angle.json": ["angle", "--spec", str(DATA / "worked_bancor.json")],
    "sweep_points3.json": ["sweep", "--spec", str(DATA / "worked_bancor.json"),
                           "--points", "3"],
    "sweep_points3.csv": ["sweep", "--spec", str(DATA / "worked_bancor.json"),
                          "--points", "3", "--output", "csv"],
    "sweep_price_points5.csv": ["sweep", "--spec", str(DATA / "worked_bancor.json"),
                                "--axis", "price", "--points", "5", "--output", "csv"],
    "verify_cases2000.json": ["verify", "--cases", "2000", "--seed", "0"],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the golden files instead of writing them")
    args = parser.parse_args(argv)
    if not args.check:
        GOLDEN.mkdir(parents=True, exist_ok=True)
    # The goldens pin this checkout's CLI, not whatever clamm is installed.
    path_var = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path_var}
    drifted = []
    for name, cli_args in COMMANDS.items():
        result = subprocess.run([sys.executable, "-m", "clamm", *cli_args],
                                capture_output=True, check=True, env=env)
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
