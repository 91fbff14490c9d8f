import contextlib
import gc
import io
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clamm.cli
from clamm import (
    PoolState,
    curve_for,
    load_spec,
    oracle_compare,
    spec_to_dict,
    t_hat_from_price,
    u_hat_from_price,
)
from clamm.cli import main
from clamm.errors import DomainError
from clamm.quadrature import battery_cases, random_admissible_swap, random_cases

from .conftest import DATA_DIR, OUT_OF_RANGE_PARAMS, assert_rel

BANCOR = str(DATA_DIR / "worked_bancor.json")
UNISWAP = str(DATA_DIR / "worked_uniswap.json")
CARBON = str(DATA_DIR / "worked_carbon.json")
NATURAL = str(DATA_DIR / "worked_natural.json")
REFERENCE = str(DATA_DIR / "reference.json")
BAD_FORM = str(DATA_DIR / "bad_form.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def error_message(err):
    return json.loads(err)["error"]["message"]


SWEEP_COLUMNS = ("x", "y", "marginal_price", "t_hat", "u_hat")


def list_of_dicts_sweep(spec, axis, points, output):
    """Sweep output as built from a list of row dicts, json.dumps(indent=2) and repr-joined CSV."""
    curve = curve_for(load_spec(spec))
    geom = curve.geom
    rows = []
    for i in range(points):
        frac = i / (points - 1)
        if axis == "x":
            state = curve.state_from_x(geom.x_int * frac)
        elif i == points - 1:
            state = PoolState(geom.x_int, 0.0)
        else:
            state = curve.state_at_price(geom.p_high + (geom.p_low - geom.p_high) * frac)
        marginal = curve.marginal_price(state)
        rows.append({"x": state.x, "y": state.y, "marginal_price": marginal,
                     "t_hat": t_hat_from_price(-marginal), "u_hat": u_hat_from_price(-marginal)})
    if output == "csv":
        lines = [",".join(SWEEP_COLUMNS)] + [",".join(repr(row[k]) for k in SWEEP_COLUMNS) for row in rows]
        return "\n".join(lines) + "\n"
    return json.dumps(rows, indent=2) + "\n"


# Commands that build a curve from --spec before printing anything.
SPEC_COMMANDS = (("geometry",), ("sweep", "--points", "3"), ("verify", "--cases", "3"))


def chunk_sizes(chunk):
    # chunk-multiple point counts catch a separator left after the last row
    return (2, chunk - 1, chunk, chunk + 1, 2 * chunk + 1)


class TestQuote:
    def test_worked_quote(self, capsys):
        code, out, _ = run(capsys, "quote", "--spec", BANCOR, "--x", "100", "--y", "100", "--dx", "100")
        assert code == 0
        quote = json.loads(out)
        assert_rel(quote["dx"], 100.0)
        assert_rel(quote["dy"], -200.0 / 3.0)
        assert_rel(quote["effective_price"], -2.0 / 3.0)
        assert_rel(quote["marginal_before"], -1.0)
        assert_rel(quote["marginal_after"], -4.0 / 9.0)

    def test_zero_trade_omits_effective_price(self, capsys):
        code, out, _ = run(capsys, "quote", "--spec", BANCOR, "--x", "100", "--y", "100", "--dx", "0")
        assert code == 0
        quote = json.loads(out)
        assert quote["dx"] == 0.0 and quote["dy"] == 0.0
        assert "effective_price" not in quote
        assert quote["marginal_before"] == quote["marginal_after"]

    def test_exact_out_quote(self, capsys):
        code, out, _ = run(capsys, "quote", "--spec", BANCOR, "--x", "100", "--y", "100",
                           "--dy", str(-200.0 / 3.0))
        assert code == 0
        assert_rel(json.loads(out)["dx"], 100.0)

    def test_overshoot_is_input_error(self, capsys):
        code, out, err = run(capsys, "quote", "--spec", BANCOR, "--x", "100", "--y", "100", "--dx", "201")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "BoundsExceeded"

    def test_off_curve_state_rejected(self, capsys):
        code, _, err = run(capsys, "quote", "--spec", BANCOR, "--x", "100", "--y", "150", "--dx", "1")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_tolerance_flag_loosens_state_check(self, capsys):
        code, _, _ = run(capsys, "quote", "--spec", BANCOR, "--x", "100", "--y", "100.0001",
                         "--dx", "1", "--tolerance", "1e-3")
        assert code == 0

    @pytest.mark.parametrize("tolerance", ["inf", "-1", "0", "nan"])
    def test_bad_tolerance_is_input_error(self, capsys, tolerance):
        # (100, 150) is off the curve, which only a vacuous tolerance would accept
        code, out, err = run(capsys, "quote", "--spec", BANCOR, "--x", "100", "--y", "150",
                             "--dx", "1", "--tolerance", tolerance)
        assert code == 2
        assert out == ""
        assert error_message(err) == "tolerance: must be positive and finite"

    def test_quote_on_natural_form(self, capsys):
        code, out, _ = run(capsys, "quote", "--spec", NATURAL, "--x", "100", "--y", "100", "--dx", "100")
        assert code == 0
        assert_rel(json.loads(out)["dy"], -200.0 / 3.0)

    def test_quote_on_reference_form(self, capsys):
        code, out, _ = run(capsys, "quote", "--spec", REFERENCE, "--x", "100", "--y", "100", "--dx", "100")
        assert code == 0
        assert_rel(json.loads(out)["dy"], -50.0)


class TestTranslate:
    def test_worked_translation(self, capsys):
        code, out, _ = run(capsys, "translate", "--spec", BANCOR, "--to", "carbon")
        assert code == 0
        payload = json.loads(out)
        assert payload["spec"] == {"form": "carbon", "a": 1.5, "b": 0.5, "z": 300.0}
        assert payload["report"]["source_form"] == "bancor_v2"
        assert payload["report"]["max_rel_deviation"] <= 1e-9

    def test_carbon_to_uniswap(self, capsys):
        code, out, _ = run(capsys, "translate", "--spec", CARBON, "--to", "uniswap_v3")
        assert code == 0
        spec = json.loads(out)["spec"]
        assert_rel(spec["L"], 200.0)
        assert_rel(spec["p_high"], 4.0)
        assert_rel(spec["p_low"], 0.25)

    def test_identity_translation_is_byte_stable(self, capsys):
        code, out, _ = run(capsys, "translate", "--spec", BANCOR, "--to", "bancor_v2")
        assert code == 0
        assert json.loads(out)["spec"] == {"form": "bancor_v2", "x0": 100.0, "y0": 100.0, "A": 2.0}

    def test_invalid_target(self, capsys):
        code, _, err = run(capsys, "translate", "--spec", BANCOR, "--to", "balancer")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_reference_source_rejected(self, capsys):
        code, _, _ = run(capsys, "translate", "--spec", REFERENCE, "--to", "carbon")
        assert code == 2


class TestGeometry:
    def test_worked_geometry(self, capsys):
        for spec in (BANCOR, UNISWAP, CARBON, NATURAL):
            code, out, _ = run(capsys, "geometry", "--spec", spec)
            assert code == 0
            geom = json.loads(out)
            assert_rel(geom["x_int"], 300.0)
            assert_rel(geom["p_high"], 4.0)
            assert_rel(geom["c"], 4.0)

    def test_reference_has_no_finite_geometry(self, capsys):
        code, _, err = run(capsys, "geometry", "--spec", REFERENCE)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("text, reason", [
        (b"{not json", "invalid JSON"),
        (b"[1, 2]", "must be a JSON object"),
        pytest.param(b'\xff\xfe{"form":1}', "invalid JSON", id="not UTF-8"),
        pytest.param(b"[" * 100000, "invalid JSON", id="nested too deeply"),
    ])
    def test_spec_that_is_not_a_json_object(self, capsys, tmp_path, text, reason):
        path = tmp_path / "spec.json"
        path.write_bytes(text)
        code, out, err = run(capsys, "geometry", "--spec", str(path))
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["field"] == "spec"
        assert error["reason"].startswith(reason)


class TestAngle:
    def test_from_spec(self, capsys):
        code, out, _ = run(capsys, "angle", "--spec", BANCOR)
        assert code == 0
        angle = json.loads(out)
        assert_rel(angle["phi"], 1.3862943611198906)
        assert_rel(angle["sinh"], 1.875)
        assert_rel(angle["cosh"], 2.125)
        assert_rel(angle["tanh"], 15.0 / 17.0)
        assert_rel(angle["c"], 4.0)

    def test_from_price_bounds(self, capsys):
        code, out, _ = run(capsys, "angle", "--p-high", "16", "--p-low", "1")
        assert code == 0
        assert_rel(json.loads(out)["phi"], 1.3862943611198906)

    def test_reference_spec_rejected(self, capsys):
        code, out, err = run(capsys, "angle", "--spec", REFERENCE)
        assert code == 2
        assert out == ""
        assert error_message(err) == "spec: curve has no finite price bounds"

    def test_partial_bounds_rejected(self, capsys):
        code, _, _ = run(capsys, "angle", "--p-high", "16")
        assert code == 2

    def test_degenerate_bounds_rejected(self, capsys):
        code, _, err = run(capsys, "angle", "--p-high", "2", "--p-low", "2")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("p_high, p_low, field", [
        ("1e300", "1e-300", "p_high"),  # c would print as Infinity
        ("1e308", "5e-324", "p_low"),  # sinh and cosh would overflow
        ("inf", "1", "p_high"),
        ("nan", "1", "p_high"),
        ("4", "nan", "p_low"),
    ])
    def test_out_of_range_bounds_name_their_field(self, capsys, p_high, p_low, field):
        code, out, err = run(capsys, "angle", "--p-high", p_high, "--p-low", p_low)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["field"] == field

    def test_spec_whose_ratio_overflows_names_its_field(self, capsys, tmp_path):
        spec = write_spec(tmp_path, {"form": "uniswap_v3", "L": 3.5, "p_high": 1e10, "p_low": 1e-300})
        code, out, err = run(capsys, "angle", "--spec", spec)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["field"] == "p_low"

    def test_widest_finite_ratio_is_strict_json(self, capsys):
        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        code, out, _ = run(capsys, "angle", "--p-high", "1.7e308", "--p-low", "1.0000000001")
        assert code == 0
        assert math.isfinite(json.loads(out, parse_constant=reject)["c"])


class TestSweep:
    def test_three_point_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--spec", BANCOR, "--points", "3")
        assert code == 0
        rows = json.loads(out)
        assert [r["x"] for r in rows] == [0.0, 150.0, 300.0]
        assert [r["y"] for r in rows] == [300.0, 60.0, 0.0]
        assert_rel(rows[0]["marginal_price"], -4.0)
        assert_rel(rows[0]["t_hat"], 1.25)
        assert_rel(rows[0]["u_hat"], 0.75)
        assert_rel(rows[2]["marginal_price"], -0.25)

    def test_rows_satisfy_the_asymptote_invariant(self, capsys):
        code, out, _ = run(capsys, "sweep", "--spec", BANCOR, "--points", "17")
        assert code == 0
        for row in json.loads(out):
            value = (row["x"] + 100.0) * (row["y"] + 100.0) / (100.0 * 100.0)
            assert_rel(value, 4.0)

    def test_csv_header_and_shape(self, capsys):
        code, out, _ = run(capsys, "sweep", "--spec", BANCOR, "--points", "3", "--output", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,marginal_price,t_hat,u_hat"
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "0.0"

    def test_price_axis(self, capsys):
        code, out, _ = run(capsys, "sweep", "--spec", BANCOR, "--points", "3", "--axis", "price")
        assert code == 0
        rows = json.loads(out)
        assert_rel(rows[0]["marginal_price"], -4.0)
        assert_rel(rows[1]["marginal_price"], -2.125)
        assert_rel(rows[2]["marginal_price"], -0.25)

    @pytest.mark.parametrize("spec", [
        {"form": "bancor_v2", "x0": 3059.28, "y0": 6.88, "A": 1.044},
        {"form": "uniswap_v3", "L": 1, "p_high": 1e10, "p_low": 1e-7},
        # state_at_price(p_low) lands beyond x_int * (1 + BOUNDS_SLACK) here
        {"form": "uniswap_v3", "L": 382.51433373767827,
         "p_high": 0.006400191412249, "p_low": 0.006400080914317202},
    ], ids=["interpolation_below_p_low", "interpolation_at_zero", "narrow_range"])
    def test_price_axis_ends_exactly_at_p_low(self, capsys, tmp_path, spec):
        path = write_spec(tmp_path, spec)
        geom = curve_for(load_spec(path)).geom
        code, out, _ = run(capsys, "sweep", "--spec", path, "--axis", "price")
        assert code == 0
        last = json.loads(out)[-1]
        assert (last["x"], last["y"]) == (geom.x_int, 0.0)
        assert last["marginal_price"] == -geom.p_low

    def test_price_axis_on_narrow_ranges(self, capsys, tmp_path):
        # p_high/p_low in 1 + 1e-9 .. 1 + 1e-4: about half failed on their last row
        rng = random.Random(400)
        for _ in range(40):
            p_low = 10.0 ** rng.uniform(-4.0, 4.0)
            spec = {"form": "uniswap_v3", "L": 10.0 ** rng.uniform(-2.0, 6.0),
                    "p_high": p_low * (1.0 + 10.0 ** rng.uniform(-9.0, -4.0)), "p_low": p_low}
            path = write_spec(tmp_path, spec)
            geom = curve_for(load_spec(path)).geom
            code, out, err = run(capsys, "sweep", "--spec", path, "--axis", "price", "--points", "101")
            assert (code, err) == (0, ""), spec
            last = json.loads(out)[-1]
            assert (last["x"], last["y"]) == (geom.x_int, 0.0), spec

    def test_too_few_points_rejected(self, capsys):
        code, _, _ = run(capsys, "sweep", "--spec", BANCOR, "--points", "1")
        assert code == 2

    def test_reference_curve_rejected(self, capsys):
        code, out, err = run(capsys, "sweep", "--spec", REFERENCE, "--points", "3")
        assert code == 2
        assert out == ""
        assert error_message(err).startswith("spec:")

    @pytest.mark.parametrize("output", ["json", "csv"])
    @pytest.mark.parametrize("axis", ["x", "price"])
    @pytest.mark.parametrize("spec", [BANCOR, UNISWAP, CARBON, NATURAL],
                             ids=["bancor", "uniswap", "carbon", "natural"])
    def test_streamed_output_matches_list_of_dicts(self, capsys, monkeypatch, spec, axis, output):
        monkeypatch.setattr(clamm.cli, "SWEEP_CHUNK", 8)
        for points in chunk_sizes(8):
            code, out, _ = run(capsys, "sweep", "--spec", spec, "--points", str(points),
                               "--axis", axis, "--output", output)
            assert code == 0
            assert out == list_of_dicts_sweep(spec, axis, points, output), points

    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_streamed_output_matches_at_the_default_chunk(self, capsys, output):
        for points in chunk_sizes(clamm.cli.SWEEP_CHUNK)[2:]:
            code, out, _ = run(capsys, "sweep", "--spec", CARBON, "--points", str(points),
                               "--axis", "price", "--output", output)
            assert code == 0
            assert out == list_of_dicts_sweep(CARBON, "price", points, output), points

    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_failure_mid_sweep(self, capsys, monkeypatch, output):
        """A failure in the first chunk leaves stdout empty; a later one truncates the table."""
        monkeypatch.setattr(clamm.cli, "SWEEP_CHUNK", 8)
        full = list_of_dicts_sweep(BANCOR, "x", 20, output)
        for fail_at, rows_out in ((0, 0), (5, 0), (12, 8)):
            calls = []

            def failing(price):
                calls.append(price)
                if len(calls) > fail_at:
                    raise DomainError("price", "injected failure")
                return t_hat_from_price(price)

            monkeypatch.setattr(clamm.hypertrig, "t_hat_from_price", failing)
            code, out, err = run(capsys, "sweep", "--spec", BANCOR, "--points", "20", "--output", output)
            assert code == 2
            assert error_message(err) == "price: injected failure"
            if rows_out == 0:
                assert out == ""
            else:
                assert full.startswith(out) and out != full
                rows_written = out.count("\n  }") if output == "json" else out.count("\n") - 1
                assert rows_written == rows_out


class TestVerify:
    def test_battery_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--cases", "12", "--seed", "5")
        assert code == 0
        summary = json.loads(out)
        assert summary["cases"] == 12
        assert summary["failed"] == 0
        assert summary["max_rel_deviation"] < 1e-9

    def test_single_spec_battery(self, capsys):
        code, out, _ = run(capsys, "verify", "--spec", CARBON, "--cases", "8", "--seed", "2")
        assert code == 0
        assert json.loads(out)["failed"] == 0

    @pytest.mark.parametrize("cases", ["-5", "0"])
    def test_no_cases_is_input_error(self, capsys, cases):
        for extra in ((), ("--spec", CARBON)):
            code, out, err = run(capsys, "verify", "--cases", cases, *extra)
            assert code == 2
            assert out == ""
            assert error_message(err) == "cases: must be at least 1"

    def test_no_cases_error_names_field_and_reason(self, capsys):
        code, _, err = run(capsys, "verify", "--cases", "0")
        assert code == 2
        assert json.loads(err) == {"error": {
            "type": "DomainError", "message": "cases: must be at least 1",
            "field": "cases", "reason": "must be at least 1"}}

    @pytest.mark.parametrize("spec", [None, BANCOR, NATURAL])
    def test_summary_matches_cases_drawn_up_front(self, capsys, spec):
        """Streaming keeps the rng draws and the result of a battery drawn in full first."""
        seed, count = 4, 60
        if spec is None:
            cases = [(curve_for(params), state, dx) for params, state, dx in random_cases(seed, count)]
            argv = ()
        else:
            curve = curve_for(load_spec(spec))
            rng = random.Random(seed)
            cases = [(curve, *random_admissible_swap(rng, curve)) for _ in range(count)]
            argv = ("--spec", spec)
        reports = [oracle_compare(target, state, dx) for target, state, dx in cases]
        code, out, _ = run(capsys, "verify", "--cases", str(count), "--seed", str(seed), *argv)
        assert code == 0
        assert json.loads(out) == {
            "cases": count,
            "passed": sum(r.passed for r in reports),
            "failed": sum(not r.passed for r in reports),
            "max_rel_deviation": max(r.rel_deviation for r in reports),
        }

    def test_cases_are_drawn_lazily(self, capsys, monkeypatch):
        class Halt(Exception):
            pass

        produced = []

        def counting_battery(seed, cases):
            for case in battery_cases(seed, cases):
                produced.append(case)
                yield case

        def counting_swap(rng, curve):
            produced.append(curve)
            return random_admissible_swap(rng, curve)

        def halting_compare(*args, **kwargs):
            raise Halt

        monkeypatch.setattr(clamm.quadrature, "oracle_compare", halting_compare)
        # battery_cases draws through random_admissible_swap, so each run
        # counts only the source its command reads
        for argv, source, counting in (((), "battery_cases", counting_battery),
                                       (("--spec", CARBON), "random_admissible_swap", counting_swap)):
            produced.clear()
            with monkeypatch.context() as patch:
                patch.setattr(clamm.quadrature, source, counting)
                with pytest.raises(Halt):
                    main(["verify", "--cases", "100", *argv])
            assert len(produced) == 1, argv
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("rel_tol", ["inf", "-1", "0", "nan"])
    def test_bad_rel_tol_is_input_error(self, capsys, rel_tol):
        for extra in ((), ("--spec", CARBON)):
            code, out, err = run(capsys, "verify", "--cases", "2", "--rel-tol", rel_tol, *extra)
            assert code == 2
            assert out == ""
            assert error_message(err) == "rel_tol: must be positive and finite"

    @pytest.mark.parametrize("x0, y0, cases, code", [
        (1e10, 1e-310, 2, 1),  # subnormal trades, closed form and quadrature 7.2e-4 apart
        (1e-200, 1e-7, 20, 0),  # the slope's x*x underflowed to 0
        (1e200, 1e15, 20, 0),  # the slope's x*x overflowed to inf
    ])
    def test_extreme_reference_pools(self, capsys, tmp_path, x0, y0, cases, code):
        spec = write_spec(tmp_path, {"form": "reference", "x0": x0, "y0": y0})
        got, out, _ = run(capsys, "verify", "--spec", spec, "--cases", str(cases))
        summary = json.loads(out)
        assert got == code
        if code:
            assert summary["failed"] == cases
            assert summary["max_rel_deviation"] > 5e-4
        else:
            assert summary["passed"] == cases
            assert summary["max_rel_deviation"] < 1e-15

    def test_integrals_that_do_not_converge_fail_their_cases(self, capsys, tmp_path):
        # the slope -(scale/x)/x overflows to -inf below x = 7.5e-301, so five
        # of these integrals raise ConvergenceFailure; verify counts each as
        # failed and leaves it out of the worst deviation
        spec = write_spec(tmp_path, {"form": "reference", "x0": 1e-300, "y0": 1e8})
        code, out, _ = run(capsys, "verify", "--spec", spec, "--cases", "20")
        assert code == 1
        summary = json.loads(out)
        assert (summary["cases"], summary["passed"], summary["failed"]) == (20, 15, 5)
        assert f"{summary['max_rel_deviation']:.1e}" == "4.0e-16"

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_battery_passes_at_the_double_floor(self, capsys, seed):
        # the oracle integrates the trade's exact width, so the worst
        # deviation is the closed forms' own rounding, not ulp(x)/dx
        code, out, _ = run(capsys, "verify", "--cases", "20000", "--seed", str(seed),
                           "--rel-tol", "1e-13")
        assert code == 0
        assert json.loads(out)["max_rel_deviation"] <= 2e-15

    def test_unreachable_tolerance_fails_with_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--cases", "4", "--seed", "5", "--rel-tol", "1e-17")
        assert code == 1
        assert json.loads(out)["failed"] > 0


class TestErrorPaths:
    @pytest.mark.parametrize("params, field, word", OUT_OF_RANGE_PARAMS)
    def test_out_of_range_constants_are_input_errors(self, capsys, tmp_path, params, field, word):
        path = write_spec(tmp_path, spec_to_dict(params))
        for argv in (("geometry",), ("quote", "--x", "1", "--y", "1", "--dx", "1"),
                     ("translate", "--to", "bancor_v2"), ("verify", "--cases", "2")):
            code, out, err = run(capsys, *argv, "--spec", path)
            assert code == 2, argv
            assert out == ""
            error = json.loads(err)["error"]
            assert error["field"] == field
            assert word in error["reason"]

    def test_unknown_form_spec(self, capsys):
        code, _, err = run(capsys, "geometry", "--spec", BAD_FORM)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_missing_spec_file(self, capsys):
        code, _, err = run(capsys, "geometry", "--spec", str(DATA_DIR / "nope.json"))
        assert code == 2

    def test_missing_spec_flag(self, capsys):
        code, _, _ = run(capsys, "geometry")
        assert code == 2

    @pytest.mark.parametrize("argv, field", [
        (("sweep", "--spec", BANCOR, "--points", "abc"), "points"),
        (("verify", "--cases", "1e3"), "cases"),
        (("verify", "--rel-tol", "tight"), "rel_tol"),
        (("sweep", "--spec", BANCOR, "--output", "xml"), "output"),
        (("quote", "--spec", BANCOR, "--x", "100", "--y", "100", "--dx", "1", "--dy", "1"), "dy"),
        (("frobnicate",), "command"),
        ((), "command"),
        (("quote", "--spec", BANCOR, "--dx", "1"), "command"),
        # each option belongs to the one command that reads it
        (("verify", "--cases", "2", "--output", "csv"), "command"),
        (("sweep", "--spec", BANCOR, "--tolerance", "1"), "command"),
        (("geometry", "--spec", BANCOR, "--tolerance", "1"), "command"),
    ])
    def test_usage_error_is_one_json_object(self, capsys, argv, field):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert error["field"] == field
        assert error["message"] == f"{field}: {error['reason']}"

    @pytest.mark.parametrize("argv", [("--help",), ("sweep", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
        assert exit_.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: clamm") and err == ""

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "sweep", "--spec", CARBON, "--points", "7")
        _, second, _ = run(capsys, "sweep", "--spec", CARBON, "--points", "7")
        assert first == second

    @pytest.mark.parametrize("spec, message", [
        ({"form": "bancor_v2", "x0": 100, "y0": 100, "A": "2"}, "A: must be a number, not str"),
        ({"form": "natural", "c": "4", "anchor": "center", "x0": 100, "y0": 100}, "c: must be a number, not str"),
        ({"form": "uniswap_v3", "L": True, "p_high": 4, "p_low": 0.25}, "L: must be a number, not bool"),
        ({"form": "carbon", "a": 1.5, "b": None, "z": 300}, "b: must be a number, not NoneType"),
        ({"form": "reference", "x0": [100], "y0": 100}, "x0: must be a number, not list"),
        ({"form": "reference", "x0": 10 ** 400, "y0": 100}, "x0: must be finite"),
    ])
    def test_wrong_typed_field(self, capsys, tmp_path, spec, message):
        code, out, err = run(capsys, "geometry", "--spec", write_spec(tmp_path, spec))
        assert code == 2
        assert out == ""
        assert error_message(err) == message

    def test_bad_spec_error_names_field_and_reason(self, capsys, tmp_path):
        spec = {"form": "bancor_v2", "x0": 100, "y0": 100, "A": "2"}
        code, _, err = run(capsys, "geometry", "--spec", write_spec(tmp_path, spec))
        assert code == 2
        assert json.loads(err) == {"error": {
            "type": "DomainError", "message": "A: must be a number, not str",
            "field": "A", "reason": "must be a number, not str"}}

    def test_non_domain_error_has_no_field(self, capsys):
        code, _, err = run(capsys, "quote", "--spec", BANCOR, "--x", "100", "--y", "100", "--dx", "1000")
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "BoundsExceeded"
        assert "field" not in error and "reason" not in error

    @pytest.mark.parametrize("spec, field", [
        ({"form": "uniswap_v3", "L": 1e200, "p_high": 4, "p_low": 0.25}, "L"),
        ({"form": "carbon", "a": 1.5, "b": 0.5, "z": 1e200}, "z"),
        ({"form": "natural", "c": 4, "anchor": "asymptotes", "x_asym": -1e200, "y_asym": -1e200}, "c"),
        ({"form": "natural", "c": 1 + 1e-10, "anchor": "intercepts", "x_int": 1e150, "y_int": 1e150}, "c"),
    ])
    def test_overflowing_curve_scale(self, capsys, tmp_path, spec, field):
        path = write_spec(tmp_path, spec)
        for argv in SPEC_COMMANDS:
            code, out, err = run(capsys, *argv, "--spec", path)
            assert code == 2
            assert out == ""
            assert error_message(err).startswith(f"{field}:")
            assert "must be finite" in error_message(err)

    @pytest.mark.parametrize("spec, field", [
        ({"form": "reference", "x0": 1e-200, "y0": 1e-200}, "x0"),
        ({"form": "bancor_v2", "x0": 1e-200, "y0": 1e-200, "A": 2}, "A"),
        ({"form": "uniswap_v3", "L": 1e-200, "p_high": 4, "p_low": 0.25}, "L"),
        ({"form": "uniswap_v3", "L": 1e-160, "p_high": 4, "p_low": 0.25}, "L"),  # subnormal L^2
        ({"form": "carbon", "a": 1.5, "b": 0.5, "z": 1e-200}, "z"),
        ({"form": "natural", "c": 4, "anchor": "asymptotes", "x_asym": -1e-200, "y_asym": -1e-200}, "c"),
    ])
    def test_underflowing_curve_scale(self, capsys, tmp_path, spec, field):
        path = write_spec(tmp_path, spec)
        for argv in SPEC_COMMANDS:
            code, out, err = run(capsys, *argv, "--spec", path)
            assert code == 2
            assert out == ""
            assert "Traceback" not in err
            assert error_message(err).startswith(f"{field}:")
            assert "must be a positive normal float" in error_message(err)


class TestParser:
    """One parser per process, built on first use."""

    def test_warm_call_leaves_no_cyclic_garbage(self, capsys):
        argv = ["sweep", "--spec", BANCOR, "--points", "50"]
        main(argv)
        capsys.readouterr()
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_defaults_do_not_leak_between_calls(self, capsys):
        code, out, _ = run(capsys, "verify", "--cases", "5", "--seed", "3")
        assert code == 0 and json.loads(out)["cases"] == 5
        code, out, _ = run(capsys, "verify")
        assert code == 0 and json.loads(out)["cases"] == 200


# ---------------------------------------------------------------------------
# Fuzz: any spec and any argv of the six commands end in an exit code
# ---------------------------------------------------------------------------

# the worked curves' values among them, so that some draws make valid curves and states
EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 2.0, 4.0, 0.25, 0.5, 1.5, 100.0, 300.0, 1.0 + 1e-12, 5e-324,
               2.2250738585072014e-308, 2.0 ** -511, 1e308, 1.7976931348623157e308, math.inf,
               -math.inf, math.nan]
# JSON-only field values: an int past the float range, and values of the wrong type
SPEC_EDGE_VALUES = EDGE_VALUES + [10 ** 400, 3, True, None, "1.0", [1.0]]

log_uniform = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
numbers = st.one_of(st.sampled_from(EDGE_VALUES), log_uniform, log_uniform.map(lambda v: -v))
spec_values = st.one_of(st.sampled_from(SPEC_EDGE_VALUES), log_uniform, log_uniform.map(lambda v: -v))
worked_specs = st.sampled_from([spec_to_dict(load_spec(path))
                                for path in (BANCOR, UNISWAP, CARBON, NATURAL, REFERENCE)])

SPEC_FIELDS = {"reference": ("x0", "y0"), "bancor_v2": ("x0", "y0", "A"),
               "uniswap_v3": ("L", "p_high", "p_low"), "carbon": ("a", "b", "z")}
ANCHOR_FIELDS = {"center": ("x0", "y0"), "intercepts": ("x_int", "y_int"),
                 "asymptotes": ("x_asym", "y_asym")}


@st.composite
def fuzz_specs(draw):
    form = draw(st.sampled_from([*SPEC_FIELDS, "natural", "bogus"]))
    if form == "natural":
        anchor = draw(st.sampled_from([*ANCHOR_FIELDS, "nowhere"]))
        spec = {"form": form, "anchor": anchor}
        names = ("c", *ANCHOR_FIELDS.get(anchor, ("x0", "y0")))
    else:
        spec = {"form": form}
        names = SPEC_FIELDS.get(form, ("x0",))
    spec.update({name: draw(spec_values) for name in names})
    return spec


# every field tiny: the corner where carbon's native denominators underflow
tiny = st.floats(-320.0, -100.0).map(lambda e: 10.0 ** e)
tiny_carbon_specs = st.builds(lambda a, b, z: {"form": "carbon", "a": a, "b": b, "z": z}, tiny, tiny, tiny)


@st.composite
def fuzz_argvs(draw):
    """argv of one of the six commands, with "SPEC" in place of the spec's path."""
    def number():
        return repr(float(draw(numbers)))

    command = draw(st.sampled_from(["quote", "translate", "geometry", "angle", "sweep", "verify"]))
    argv = [command, "--spec", "SPEC"]
    if command == "quote":
        # every worked curve passes through (100, 100)
        x, y = ("100.0", "100.0") if draw(st.booleans()) else (number(), number())
        argv += ["--x", x, "--y", y, draw(st.sampled_from(["--dx", "--dy"])), number()]
        if draw(st.booleans()):
            argv += ["--tolerance", number()]
    elif command == "translate":
        argv += ["--to", draw(st.sampled_from([*SPEC_FIELDS, "natural", "bogus"]))]
    elif command == "angle" and draw(st.booleans()):
        argv = [command, "--p-high", number(), "--p-low", number()]
    elif command == "sweep":
        argv += ["--points", str(draw(st.integers(-1, 10))), "--axis", draw(st.sampled_from(["x", "price"])),
                 "--output", draw(st.sampled_from(["json", "csv"]))]
    elif command == "verify":
        if draw(st.booleans()):
            argv = [command]
        argv += ["--cases", str(draw(st.integers(-1, 3))), "--seed", str(draw(st.integers(0, 2 ** 32)))]
        if draw(st.booleans()):
            argv += ["--rel-tol", number()]
    return argv


@settings(max_examples=300, deadline=None)
@given(spec=st.one_of(worked_specs, fuzz_specs(), tiny_carbon_specs), argv=fuzz_argvs())
def test_fuzzed_invocations_exit_cleanly(tmp_path_factory, spec, argv):
    path = tmp_path_factory.getbasetemp() / "fuzz_spec.json"
    path.write_text(json.dumps(spec))
    argv = [str(path) if arg == "SPEC" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (spec, argv)
    if err:
        assert err.count("\n") == 1 and "error" in json.loads(err), (spec, argv, err)
    assert (code == 0 and not err) or (code == 2 and err) or code == 1, (spec, argv, code, err)
