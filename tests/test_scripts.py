"""The helper scripts under scripts/."""

import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

from clamm import ShiftedProductCurve, SwapDelta

from .conftest import GOLDEN_DIR, load_script

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
SRC = ROOT / "src"


def script_env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def run_script(name, *argv):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, env=script_env(), timeout=120)


def test_regen_check_passes_on_the_committed_goldens():
    result = run_script("regen_cli_golden.py", "--check")
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_regen_check_names_drift_and_writes_nothing(tmp_path, monkeypatch, capsys):
    regen = load_script("regen_cli_golden")
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, golden)
    (golden / "angle.json").write_bytes(b"{}\n")
    (golden / "geometry.json").unlink()
    before = {path.name: path.read_bytes() for path in golden.iterdir()}
    monkeypatch.setattr(regen, "GOLDEN", golden)
    assert regen.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert str(golden / "angle.json") in err
    assert str(golden / "geometry.json") in err
    assert "quote.json" not in err
    assert {path.name: path.read_bytes() for path in golden.iterdir()} == before


def test_ci_compares_every_cli_golden_with_the_installed_script():
    regen = load_script("regen_cli_golden")
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    compared = {}
    for line in workflow.splitlines():
        match = re.fullmatch(r"\s*clamm (.+) \| cmp - tests/golden/(\S+)", line)
        if match:
            compared[match.group(2)] = match.group(1).split()
    relative = {name: [str(Path(arg).relative_to(ROOT)) if arg.startswith(str(ROOT)) else arg
                       for arg in argv] for name, argv in regen.COMMANDS.items()}
    assert compared == relative


def test_oracle_deviation_sweep_runs():
    result = run_script("oracle_deviation_sweep.py", "--cases-per-decade", "1")
    assert result.returncode == 0, result.stderr
    assert "DISAGREEMENT" not in result.stdout
    assert len(result.stdout.splitlines()) == 14  # header plus 13 decades


def test_oracle_deviation_sweep_checks_every_bounded_form():
    sweep = load_script("oracle_deviation_sweep")
    assert sweep.FORMS == ("bancor_v2", "uniswap_v3", "carbon", "natural")
    for form in sweep.FORMS:
        assert form in sweep.__doc__
    cases = list(sweep.decade_cases(random.Random(0), 2.0, 3))
    assert [curve.params.form for curve, _, _ in cases] == list(sweep.FORMS) * 3


def test_oracle_deviation_sweep_fails_on_disagreement(monkeypatch, capsys):
    sweep = load_script("oracle_deviation_sweep")
    honest_swap = ShiftedProductCurve.swap_exact_in_x

    def corrupted_swap(self, state, dx):
        """The closed-form swap, off by one part in a million; no form
        overrides it, so every form is corrupted."""
        honest = honest_swap(self, state, dx)
        return SwapDelta(honest.dx, honest.dy * (1.0 + 1e-6))

    monkeypatch.setattr(ShiftedProductCurve, "swap_exact_in_x", corrupted_swap)
    assert sweep.main(["--cases-per-decade", "1"]) == 1
    assert capsys.readouterr().out.count("DISAGREEMENT") == 13


def test_worked_curve_demo_runs():
    result = run_script("worked_curve_demo.py")
    assert result.returncode == 0, result.stderr
    assert "same curve, four parameter forms" in result.stdout
