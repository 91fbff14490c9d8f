"""The library and its CLI run on the standard library alone, and the tests
and scripts need only pytest and hypothesis besides."""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Runs in an isolated interpreter (-I: no PYTHONPATH, no user site; -B: no
# bytecode written into the checkout) with src/ first on sys.path; prints the
# modules that importing clamm and clamm.cli loads, the modules loaded once
# quote and sweep have also run on the worked spec, the exit codes of those
# two and of verify, and the top-level names of every module loaded from the
# import of clamm on.  Modules that site's .pth files load at startup are not
# the library's doing and are left out; the probe imports json only once it
# has looked.
PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, {src!r})
import clamm, clamm.cli
imported = sorted(set(sys.modules) - before)
codes = [clamm.cli.main(["quote", "--spec", {spec!r}, "--x", "100", "--y", "100", "--dx", "100"]),
         clamm.cli.main(["sweep", "--spec", {spec!r}, "--points", "3"])]
ran = sorted(set(sys.modules) - before)
codes.append(clamm.cli.main(["verify", "--cases", "20"]))
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
import json
print(json.dumps([imported, ran, codes, sorted(loaded)]))
"""

# Modules that load on first use: the layers built on the curve core; json,
# which only reading a spec and writing JSON need; and dataclasses with
# inspect, which only the value types' dataclass metadata and the translate
# and geometry commands need.
ON_FIRST_USE = ("clamm.hypertrig", "clamm.quadrature", "clamm.rosetta", "json", "dataclasses", "inspect")


def test_core_imports_only_the_standard_library():
    spec = str(ROOT / "tests" / "data" / "worked_bancor.json")
    result = subprocess.run([sys.executable, "-I", "-B", "-c", PROBE.format(src=str(SRC), spec=spec)],
                            capture_output=True, text=True, check=True)
    imported, ran, codes, loaded = json.loads(result.stdout.splitlines()[-1])
    assert "clamm.cli" in imported
    assert not set(imported) & set(ON_FIRST_USE), f"import clamm, clamm.cli loads {imported}"
    # a cold quote or sweep builds values but reads no dataclass metadata
    assert not set(ran) & {"dataclasses", "inspect"}, f"quote and sweep load {ran}"
    assert codes == [0, 0, 0], result.stdout
    foreign = [name for name in loaded
               if name not in sys.stdlib_module_names and name not in ("clamm", "__main__")]
    assert foreign == [], f"modules outside the standard library: {foreign}"


# Top-level modules the tests and scripts may import beside the standard
# library; relative imports name the suite's own helpers.
ALLOWED = {"clamm", "pytest", "hypothesis"}


def imported_modules(path):
    """(line, top-level module) of every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_tests_and_scripts_import_only_the_standard_library_pytest_and_hypothesis():
    files = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert files
    foreign = [f"{path.relative_to(ROOT)}:{line}: {name}"
               for path in files for line, name in imported_modules(path)
               if name not in sys.stdlib_module_names and name not in ALLOWED]
    assert foreign == [], f"imports outside the standard library, pytest and hypothesis: {foreign}"
