"""The helper scripts under scripts/."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from clamm import ShiftedProductCurve, SwapDelta

from .conftest import load_script

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
SRC = ROOT / "src"


def script_env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def run_script(name, *argv):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, env=script_env(), timeout=120)


def test_regen_check_names_drift_and_writes_nothing(tmp_path, monkeypatch, capsys):
    regen = load_script("regen_cli_golden")
    golden = tmp_path / "golden"
    golden.mkdir()
    (golden / "drifted.txt").write_bytes(b"old\n")
    # one golden that drifted and one that is missing; each command runs from
    # the repository root with src/ first on the path
    monkeypatch.setattr(regen, "COMMANDS", {
        "drifted.txt": ["-c", "import os; print(os.getcwd())"],
        "missing.txt": ["-c", "import clamm; print(clamm.__file__)"],
    })
    monkeypatch.setattr(regen, "GOLDEN", golden)
    assert regen.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert str(golden / "drifted.txt") in err
    assert str(golden / "missing.txt") in err
    assert [path.name for path in golden.iterdir()] == ["drifted.txt"]
    assert (golden / "drifted.txt").read_bytes() == b"old\n"
    # writing mends both, and the check then passes
    assert regen.main([]) == 0
    assert (golden / "drifted.txt").read_text() == f"{ROOT}\n"
    assert (golden / "missing.txt").read_text() == f"{SRC / 'clamm' / '__init__.py'}\n"
    assert regen.main(["--check"]) == 0


def test_oracle_deviation_sweep_runs():
    result = run_script("oracle_deviation_sweep.py", "--cases-per-decade", "1")
    assert result.returncode == 0, result.stderr
    assert "DISAGREEMENT" not in result.stdout
    assert len(result.stdout.splitlines()) == 29  # header plus 28 decades, 1e-12 to 1e15


@pytest.mark.parametrize("count", ["0", "-5"])
def test_oracle_deviation_sweep_rejects_a_count_below_one(count, capsys):
    # zero cases printed a deviation of 0 for every decade and exited 0
    with pytest.raises(SystemExit) as exit_:
        load_script("oracle_deviation_sweep").main(["--cases-per-decade", count])
    assert exit_.value.code == 2
    assert "--cases-per-decade" in capsys.readouterr().err


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
    assert capsys.readouterr().out.count("DISAGREEMENT") == 28


def test_worked_curve_demo_runs():
    result = run_script("worked_curve_demo.py")
    assert result.returncode == 0, result.stderr
    assert "same curve, four parameter forms" in result.stdout


def test_mutant_table_is_well_formed():
    # each row's text occurs once, its mutant compiles, its id is unique, and
    # every test it names is in a file of the suite
    table = load_script("mutants").MUTANTS
    assert len(table) >= 20
    assert len({name for name, *_ in table}) == len(table)
    for name, file, text, replacement, nodes in table:
        source = (ROOT / file).read_text()
        assert source.count(text) == 1, name
        compile(source.replace(text, replacement), file, "exec")
        assert nodes and all((ROOT / node.split("::")[0]).is_file() for node in nodes), name


TOY = {"src/toy.py": "def double(x):\n    return 2 * x\n",
       "tests/test_toy.py": "from toy import double\n\n\ndef test_double():\n    assert double(2) == 4\n"}
TOY_TEST = "tests/test_toy.py::test_double"


@pytest.mark.parametrize("rows, code, lines", [
    # a mutant the test catches, and one it cannot: x + x is 2 * x
    ([("caught", "src/toy.py", "2 * x", "3 * x", [TOY_TEST]),
      ("equivalent", "src/toy.py", "2 * x", "x + x", [TOY_TEST])],
     1, ["killed   caught", "SURVIVED equivalent"]),
    # a mutant that renames the test it names: pytest finds no such test,
    # which is an error in the table, not a kill
    ([("caught", "src/toy.py", "2 * x", "3 * x", [TOY_TEST]),
      ("renamed", "tests/test_toy.py", "def test_double", "def test_twice", [TOY_TEST])],
     2, ["killed   caught"]),
], ids=["survivor", "unknown_node_id"])
def test_mutants_reports_each_row(tmp_path, monkeypatch, capsys, rows, code, lines):
    mutants = load_script("mutants")
    for name, text in TOY.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")  # the toy needs no plugin
    monkeypatch.setattr(mutants, "MUTANTS", rows)
    assert mutants.main() == code
    out, err = capsys.readouterr()
    assert [line.split(" (")[0] for line in out.splitlines()[:len(lines)]] == lines
    if code == 2:
        assert err.startswith("renamed: pytest exited 4")
    # the checkout itself is never mutated
    assert {name: (tmp_path / name).read_text() for name in TOY} == TOY
