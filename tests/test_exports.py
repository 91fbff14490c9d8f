"""The package namespace: every name ``clamm`` exports, whether its defining
module loads with ``import clamm`` or on first use.  Each check runs in a fresh
interpreter, so that no other test has loaded a module first."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Defining module -> the names clamm exports from it.
EXPORTS = {
    "bancor": ["BancorCurve"],
    "carbon": ["CarbonCurve"],
    "curves": ["NaturalCurve", "curve_for", "geometry"],
    "errors": ["BoundsExceeded", "ConvergenceFailure", "CurveError", "DomainError",
               "Indeterminate", "InsufficientLiquidity"],
    "params": ["BancorV2Params", "CarbonParams", "CurveGeometry", "CurveParams", "NaturalParams",
               "PoolState", "ReferenceParams", "ShiftedProductCurve", "SwapDelta",
               "UniswapV3Params", "VirtualBounds", "apply_delta", "load_spec", "rel_close",
               "spec_from_dict", "spec_to_dict", "validate"],
    "reference": ["ReferenceCurve"],
    "uniswap": ["UniswapCurve"],
    "hypertrig": ["AXIS_ALIGNMENT", "RotatedPoint", "TrigValues", "UnitPoint", "arsinh",
                  "hyperbolic_angle", "hyperbolic_angle_from_unit", "normalize", "rotate",
                  "t_hat_from_price", "trig_identities", "u_hat_from_price", "unit_from_state"],
    "quadrature": ["ComparisonReport", "adaptive_gauss_kronrod", "integrate_price_curve",
                   "oracle_compare", "verify_cases"],
    "rosetta": ["TranslationReport", "concentration_forms_agree", "concentration_from_asymptotes",
                "concentration_from_center", "concentration_from_intercepts", "translate",
                "translate_with_report", "translation_report"],
}
LAYERS = ("hypertrig", "quadrature", "rosetta")


def fresh(code: str):
    """The JSON value that code prints last, run after ``import clamm`` in a new interpreter."""
    script = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\nimport clamm\n{code}"
    result = subprocess.run([sys.executable, "-I", "-B", "-c", script],
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def test_every_export_is_the_object_in_its_defining_module():
    mismatched = fresh(f"""
import importlib
print(json.dumps([f"{{module}}.{{name}}" for module, names in {EXPORTS!r}.items()
                  for name in names
                  if getattr(clamm, name) is not getattr(importlib.import_module("clamm." + module), name)]))
""")
    assert mismatched == []


def test_dir_lists_every_export_without_loading_the_layers():
    listed, loaded = fresh("""
print(json.dumps([dir(clamm), sorted(name for name in sys.modules if name.startswith("clamm."))]))
""")
    exported = {name for names in EXPORTS.values() for name in names} | set(EXPORTS) | {"__version__"}
    assert exported - set(listed) == set()
    assert not {f"clamm.{layer}" for layer in LAYERS} & set(loaded)


def test_bare_import_reaches_every_submodule():
    before, names = fresh(f"""
before = sorted(name for name in {LAYERS!r} if "clamm." + name in sys.modules)
print(json.dumps([before, [getattr(clamm, module).__name__ for module in {list(EXPORTS)!r}]]))
""")
    assert before == []
    assert names == [f"clamm.{module}" for module in EXPORTS]


def test_unknown_name_raises_attribute_error():
    message, has, loaded = fresh("""
try:
    clamm.no_such_name
except AttributeError as exc:
    message = str(exc)
print(json.dumps([message, hasattr(clamm, "Translate"),
                  sorted(name for name in sys.modules if name.startswith("clamm."))]))
""")
    assert message == "module 'clamm' has no attribute 'no_such_name'"
    assert has is False
    assert not {f"clamm.{layer}" for layer in LAYERS} & set(loaded)
