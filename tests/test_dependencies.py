"""The library and its CLI run on the standard library alone."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in an isolated interpreter (-I: no PYTHONPATH, no user site) with src/
# first on sys.path; prints the verify exit code and the top-level names of
# every module loaded from the import of clamm on.  Modules that site's .pth
# files load at startup are not the library's doing and are left out.
PROBE = """
import json, sys
before = set(sys.modules)
sys.path.insert(0, {src!r})
import clamm, clamm.cli
code = clamm.cli.main(["verify", "--cases", "20"])
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(json.dumps([code, sorted(loaded)]))
"""


def test_core_imports_only_the_standard_library():
    result = subprocess.run([sys.executable, "-I", "-c", PROBE.format(src=str(SRC))],
                            capture_output=True, text=True, check=True)
    code, loaded = json.loads(result.stdout.splitlines()[-1])
    assert code == 0, result.stdout
    foreign = [name for name in loaded
               if name not in sys.stdlib_module_names and name not in ("clamm", "__main__")]
    assert foreign == [], f"modules outside the standard library: {foreign}"
