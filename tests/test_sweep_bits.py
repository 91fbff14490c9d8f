"""Every byte of every worked sweep stays as it is.

The digest covers 16 sweeps, run in process through ``clamm.cli.main``: the
four worked specs under ``tests/data`` (bancor, uniswap, carbon, natural),
each along ``--axis x`` and ``--axis price``, written as ``--output json``
and ``--output csv``, at 4097 points, eight full chunks of 512 rows plus one.
Each sweep adds its arguments, exit code and stdout to the digest in
``tests/golden/sweep_bits.sha256``.  A change to sampling, to the hypertrig
price functions or to the row formatting that moves any byte of a sweep
moves the digest.

Regenerate the golden, on purpose only, with
``PYTHONPATH=src python3 -m tests.test_sweep_bits --write``; without
``--write`` the module prints the digest and exits 1 if it differs from the
golden.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from clamm.cli import main

DATA_DIR = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden" / "sweep_bits.sha256"
SPECS = ("bancor", "uniswap", "carbon", "natural")
POINTS = 4097


def sweep_bits_digest(points: int = POINTS) -> str:
    h = hashlib.sha256()
    for name in SPECS:
        for axis in ("x", "price"):
            for output in ("json", "csv"):
                argv = ["sweep", "--spec", str(DATA_DIR / f"worked_{name}.json"), "--points", str(points),
                        "--axis", axis, "--output", output]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                h.update(f"{name} {axis} {output} {code}\n".encode())
                h.update(out.getvalue().encode())
    return h.hexdigest()


def test_sweep_bits_match_the_golden():
    assert sweep_bits_digest() == GOLDEN.read_text().strip()


if __name__ == "__main__":
    digest = sweep_bits_digest()
    print(digest)
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(digest + "\n")
    elif digest != GOLDEN.read_text().strip():
        print(f"differs from {GOLDEN.name}", file=sys.stderr)
        sys.exit(1)
