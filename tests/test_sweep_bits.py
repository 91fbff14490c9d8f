"""Every byte of every worked sweep stays as it is.

The digest covers 16 sweeps, run in process through ``clamm.cli.main``: the
four worked specs under ``tests/data`` (bancor, uniswap, carbon, natural),
each along ``--axis x`` and ``--axis price``, written as ``--output json``
and ``--output csv``, at 4097 points, eight full chunks of 512 rows plus one.
Each sweep adds its arguments, exit code and stdout to the digest in
``tests/golden/sweep_bits.sha256``.  A change to sampling, to the hypertrig
price functions or to the row formatting that moves any byte of a sweep
moves the digest.

Run as a module, ``PYTHONPATH=src python3 -m tests.test_sweep_bits``, it
prints the digest, which is the golden's bytes; ``scripts/regen_cli_golden.py``
writes and checks it with every other golden.
"""

import contextlib
import hashlib
import io

from clamm.cli import main

from .conftest import DATA_DIR

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


if __name__ == "__main__":
    print(sweep_bits_digest())
