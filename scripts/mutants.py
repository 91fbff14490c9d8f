#!/usr/bin/env python3
"""Check that the test suite kills every mutant of a committed table.

Each row of ``MUTANTS`` is (id, file, exact text, replacement, test node ids):
a small fault in the library (or in a test oracle the suite trusts) and the
tests that must catch it.  The exact text occurs once in its file.  The
script copies the checkout, without .git, into a temporary directory, and
first runs the union of the named tests there unmutated: they must pass.
Then, one row at a time, it writes the mutant, runs
``python -m pytest -x -q -p no:cacheprovider <ids>`` with the copy's src/
first on PYTHONPATH, and restores the file.  pytest's exit code 1 (a test
failed) is a kill and 0 a survival; any other code (4 for an unknown node id,
2 for a collection error) is an error in the table.

It prints one line per mutant.  Exit status: 0 if every mutant is killed,
1 if any survived (a finding: a check the suite lacks), 2 on a table error.
A change that deletes or merges tests keeps this at 0.

Usage: python3 scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

VALUES = "tests/test_value_types.py"
ENCODINGS = "tests/test_encodings.py"
KERNEL = "tests/test_sweep_kernel.py::test_kernel_rows_are_the_public_rows"

# (id, file, exact text, its replacement, the test node ids that must kill it)
MUTANTS = [
    # The guards and hooks: each named check against its rule table
    ("pool_state_checks_y_first", "src/clamm/params.py",
     '            _require(x >= 0, "x", "must be nonnegative")\n'
     '            _require(y >= 0, "y", "must be nonnegative")\n',
     '            _require(y >= 0, "y", "must be nonnegative")\n'
     '            _require(x >= 0, "x", "must be nonnegative")\n',
     [f"{VALUES}::test_pool_state_matches_the_old_checks"]),
    ("swap_delta_signs_checked_on_buys_only", "src/clamm/params.py",
     "if dx != 0 and (dx > 0) == (dy > 0):", "if dx > 0 and (dx > 0) == (dy > 0):",
     [f"{VALUES}::test_swap_delta_matches_the_old_checks"]),
    ("kernel_admits_equal_bounds", "src/clamm/quadrature.py",
     "if not lower < upper:", "if not lower <= upper:",
     [f"{VALUES}::test_integral_spec_matches_the_old_checks"]),
    ("unresolved_trade_only_on_buys", "src/clamm/params.py",
     '        if dy == 0:\n            raise DomainError("dx", _UNRESOLVED)',
     '        if dy == 0 and dx > 0:\n            raise DomainError("dx", _UNRESOLVED)',
     [f"{VALUES}::test_swap_guards_match_the_old_checks[bancor_v2]"]),
    ("delta_fill_stores_an_infinite_dy", "src/clamm/params.py",
     "dx < 0.0 < dy <= _MAX or -_MAX <= dy < 0.0 < dx", "dx < 0.0 < dy <= _MAX or dy < 0.0 < dx",
     [f"{VALUES}::test_builders_accept_and_reject_as_the_constructors_do"]),
    ("exceeds_one_admits_one", "src/clamm/params.py",
     '_require(_check_finite(value, name) > 1, name, "must exceed 1")',
     '_require(_check_finite(value, name) >= 1, name, "must exceed 1")',
     [f"{VALUES}::test_field_checks_match_the_old_checks"]),
    ("bancor_guard_admits_A_1", "src/clamm/bancor.py",
     "0.0 < y0 <= _MAX and 1.0 < amp <= _MAX", "0.0 < y0 <= _MAX and 1.0 <= amp <= _MAX",
     [f"{VALUES}::test_form_hooks_match_the_old_checks[BancorCurve]"]),
    ("shift_rule_floor_halved", "src/clamm/params.py",
     "if value < _MIN_SHIFT:", "if value < _MIN_SHIFT / 2:",
     [f"{VALUES}::test_derived_check_matches_the_old_checks"]),
    ("curve_guard_drops_the_shift_floor", "src/clamm/params.py",
     "if not (_MIN_SHIFT <= shift_x <= _MAX and _MIN_SHIFT <= shift_y <= _MAX",
     "if not (0.0 < shift_x <= _MAX and 0.0 < shift_y <= _MAX",
     [f"{VALUES}::test_curve_build_accepts_derived_constants_as_the_checks_do"]),
    # The snap of a final-ulp negative balance
    ("snap_slack_halved", "src/clamm/params.py",
     "abs(value) <= abs(reference) * BOUNDS_SLACK", "abs(value) <= abs(reference) * BOUNDS_SLACK / 2",
     [f"{VALUES}::test_sampling_matches_the_old_checks[bancor_v2_0]"]),
    ("snap_unit_floor_restored", "src/clamm/params.py",
     "abs(value) <= abs(reference) * BOUNDS_SLACK", "abs(value) <= max(abs(reference), 1.0) * BOUNDS_SLACK",
     [f"{VALUES}::test_apply_delta_matches_the_old_snap"]),
    # The encodings: each form's constants, and carbon's native cross-check
    ("carbon_native_price_drops_b", "tests/native.py",
     "-ab * (a * y + b * z)", "-ab * (a * y + a * z)",
     ["tests/test_carbon.py::test_native_forms_are_bit_identical_to_their_expressions"]),
    ("uniswap_x_int", "src/clamm/uniswap.py",
     "root_gap / (sqrt_high * sqrt_low)", "root_gap / (sqrt_high * sqrt_high)",
     [f"{ENCODINGS}::test_worked_row[uniswap_v3-geometry]",
      f"{ENCODINGS}::test_identities_hold_on_random_curves[uniswap_v3]"]),
    ("natural_center_gap", "src/clamm/curves.py",
     "(c - 1.0) / (math.sqrt(c) + 1.0)", "(c - 1.0) / (math.sqrt(c) - 1.0)",
     [f"{ENCODINGS}::test_worked_row[natural-center-center]",
      f"{ENCODINGS}::test_identities_hold_on_random_curves[natural-center]"]),
    ("bancor_concentration", "src/clamm/bancor.py",
     "(amp - 1.0) * (amp - 1.0)", "(amp - 1.0) * (amp + 1.0)",
     [f"{ENCODINGS}::test_worked_row[bancor_v2-geometry]",
      f"{ENCODINGS}::test_identities_hold_on_random_curves[bancor_v2]"]),
    # The swaps: an ulp-level error, and a state-based quote (ROADMAP item 2)
    # that moves the bits the goldens pin
    ("dy_off_by_2**-50", "src/clamm/params.py",
     "return -dx * self.scale / ((state.x + self.shift_x) * (x_new + self.shift_x))",
     "return -dx * self.scale / ((state.x + self.shift_x) * (x_new + self.shift_x)) * (1 + 2**-50)",
     ["tests/test_exact.py::test_closed_forms_keep_their_ulp_bounds"]),
    ("dy_from_the_state_product_first", "src/clamm/params.py",
     "return -dx * self.scale / ((state.x + self.shift_x) * (x_new + self.shift_x))",
     "return -(state.y + self.shift_y) * dx / (x_new + self.shift_x)",
     ["tests/test_acceptance.py::test_criterion_8_cli_golden_files"]),
    # The sweep's row kernel
    ("kernel_skips_the_pool_state_check", "src/clamm/cli.py",
     "            if not 0.0 <= y:\n                PoolState(x, y)\n",
     "            if not 0.0 <= y:\n                pass\n",
     [f"{KERNEL}[y_below_zero-x-2]"]),
    ("kernel_skips_the_price_check", "src/clamm/cli.py",
     "        if not 0.0 < price <= _MAX:\n            t_hat_from_price(price)\n",
     "",
     ["tests/test_sweep_kernel.py::test_a_price_out_of_range_raises_the_hypertrig_error"]),
    ("kernel_t_hat_by_reciprocal", "src/clamm/cli.py",
     "(price + 1.0) / root", "(price + 1.0) * (1.0 / root)",
     [f"{KERNEL}[worked_bancor_v2-x-513]"]),
    # The value-type contract, one mutant per property of its table
    ("eq_ignores_the_first_field", "src/clamm/params.py",
     "return _values(self) == _values(other)", "return _values(self)[1:] == _values(other)[1:]",
     [f"{VALUES}::TestValueContract::test_equality_hash_and_repr"]),
    ("repr_without_spaces", "src/clamm/params.py",
     'shown = ", ".join(', 'shown = ",".join(',
     [f"{VALUES}::TestValueContract::test_equality_hash_and_repr"]),
    ("frozen_setattr_stores", "src/clamm/params.py",
     'raise FrozenInstanceError(f"cannot assign to field {name!r}")', "object.__setattr__(self, name, value)",
     [f"{VALUES}::TestValueContract::test_frozen"]),
    ("reduce_passes_derived_fields", "src/clamm/params.py",
     "for name in self.__match_args__])", "for name in self._field_names])",
     [f"{VALUES}::TestValueContract::test_pickle_and_copy"]),
    ("derived_fields_are_init_fields", "src/clamm/params.py",
     "body[name] = dataclasses.field(init=False)", "body[name] = dataclasses.field()",
     [f"{VALUES}::TestValueContract::test_replace_runs_the_checks",
      f"{VALUES}::test_constructor_contract"]),
    # A form with a slot of its own no longer fits the core's twin, so every
    # build of it raises.  The table's twin row states this, but its module
    # builds reference curves at import, where the mutant is a collection
    # error; a module that builds them in its tests kills it.
    ("reference_form_adds_a_slot", "src/clamm/reference.py",
     "    __slots__ = ()\n", '    __slots__ = ("k",)\n',
     ["tests/test_reference.py"]),
]


def run_tests(copy, ids):
    """pytest's exit code on the node ids, run in the copy with its src/ first."""
    path = os.pathsep.join(filter(None, (str(copy / "src"), os.environ.get("PYTHONPATH"))))
    # no bytecode: a mutant and its restored file can share an mtime and size
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="clamm-mutants-") as tmp:
        copy = Path(tmp) / "clamm"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, copy, ignore=ignore)
        ids = list(dict.fromkeys(node for *_, nodes in MUTANTS for node in nodes))
        code = run_tests(copy, ids)
        if code != 0:
            print(f"unmutated: the named tests exited {code}, not 0", file=sys.stderr)
            return 2
        survived = []
        for name, file, text, replacement, nodes in MUTANTS:
            path = copy / file
            original = path.read_text()
            if original.count(text) != 1:
                print(f"{name}: its text occurs {original.count(text)} times in {file}, not once",
                      file=sys.stderr)
                return 2
            path.write_text(original.replace(text, replacement))
            start = time.perf_counter()
            try:
                code = run_tests(copy, nodes)
            finally:
                path.write_text(original)
            if code not in (0, 1):
                print(f"{name}: pytest exited {code}, neither a kill nor a survival", file=sys.stderr)
                return 2
            print(f"{'killed' if code else 'SURVIVED':8} {name} ({time.perf_counter() - start:.1f} s)")
            if not code:
                survived.append(name)
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
