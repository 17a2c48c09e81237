import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from curv4 import io
from curv4.cli import build_parser, main
from curv4.core import Invariants
from curv4.errors import ValidationError
from curv4.models import MODELS, ModelSpec, make_operator, parse_model_spec
from curv4.numerics import RngStream, derive_seed
from curv4.models import random_bianchi
from curv4.verify import _MAX_SCAN_TRIALS, ScanReport, run_scan

DATA = Path(__file__).parent / "data"


def save_tensor(path, op, meta=None):
    Path(path).write_text(io.dumps_document(io.tensor_to_dict(op, meta)))


class TestTensorFiles:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_save_load_round_trip_is_bitwise(self, tmp_path, name):
        op = make_operator(ModelSpec(name, seed=4))
        path = tmp_path / f"{name}.json"
        save_tensor(path, op, meta={"model": name})
        back = io.load(path)
        assert np.array_equal(back.matrix, op.matrix)
        assert back.bianchi == op.bianchi

    def test_components_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({
            "format": "curv4-v1",
            "components": [[1, 2, 1, 2, 1.0]],
        }))
        op = io.load(path, project_bianchi=True)
        assert op.matrix[0, 0] == 1.0

    def test_missing_format_key(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"matrix": np.eye(6).tolist()}))
        with pytest.raises(ValidationError, match="format"):
            io.load(path)

    def test_both_matrix_and_components(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({
            "format": "curv4-v1",
            "matrix": np.eye(6).tolist(),
            "components": [[1, 2, 1, 2, 1.0]],
        }))
        with pytest.raises(ValidationError, match="exactly one"):
            io.load(path)

    def test_wrong_convention_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        doc = io.tensor_to_dict(make_operator(ModelSpec("sphere")))
        doc["convention"] = dict(doc["convention"], star="identity")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="convention"):
            io.load(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            io.load(path)

    def test_wrong_shape(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"format": "curv4-v1", "matrix": [[1.0, 0.0], [0.0, 1.0]]}))
        with pytest.raises(ValidationError, match="6x6"):
            io.load(path)

    def test_asymmetric_matrix_names_worst_pair(self, tmp_path):
        m = np.eye(6)
        m[0, 5] = 0.25  # not mirrored
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"format": "curv4-v1", "matrix": m.tolist()}))
        with pytest.raises(ValidationError, match=r"\(0,5\)"):
            io.load(path)

    def test_bianchi_violation_requires_flag(self, tmp_path):
        m = np.eye(6)
        m[0, 5] = m[5, 0] = 0.5
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"format": "curv4-v1", "matrix": m.tolist()}))
        with pytest.raises(ValidationError, match="Bianchi"):
            io.load(path)
        op = io.load(path, project_bianchi=True)
        assert abs(op.bianchi) <= 1e-12


class TestCliEmitAnalyze:
    def test_emit_then_analyze_product(self, tmp_path, capsys):
        tensor = tmp_path / "product.json"
        assert main(["emit", "--model", "product:1,1", "--out", str(tensor)]) == 0
        report = tmp_path / "report.json"
        assert main(["analyze", str(tensor), "--json", "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["biortho_spectrum"] == {"k1": 0.0, "k2": 0.0, "k3": 1.0}
        assert not doc["hypothesis_A"]["holds"]
        assert not doc["hypothesis_B"]["holds"]

    @pytest.mark.parametrize("model, hint", [
        ("space_form:1e-10", "constant positive curvature"),
        ("sphere:1e150", "constant positive curvature"),
        ("cp2:1e-200", "CP2-like borderline"),
        ("flat", "product-of-surfaces"), ("flat", "flat")])
    def test_tiny_models_get_the_hints_of_their_shape(self, capsys, model, hint):
        assert main(["analyze", "--model", model, "--json"]) == 0
        hints = json.loads(capsys.readouterr().out)["classification_hints"]
        assert any(h.startswith(hint) for h in hints)
        assert len(hints) == (2 if model == "flat" else 1)

    def test_emit_to_stdout(self, capsys):
        assert main(["emit", "--model", "sphere:2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "curv4-v1"
        assert doc["matrix"][0][0] == 0.25

    def test_emit_random_is_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["emit", "--model", "random_bianchi:1", "--seed", "5", "--out", str(a)])
        main(["emit", "--model", "random_bianchi:1", "--seed", "5", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_analyze_model_cp2_with_oracle(self, capsys):
        code = main(["analyze", "--model", "cp2", "--run-oracle", "--json",
                     "--samples", "4000", "--refine", "80"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hypothesis_A"]["margin"] == 0.0
        assert doc["nnic"]["margin_plus"] == pytest.approx(0.0, abs=1e-12)
        assert doc["nnic"]["margin_minus"] == pytest.approx(4.0, abs=1e-12)
        assert abs(doc["iso_min"]["value"]) <= 1e-4

    def test_text_and_json_share_values(self, capsys):
        main(["analyze", "--model", "r_times_s3:1", "--json"])
        doc = json.loads(capsys.readouterr().out)
        main(["analyze", "--model", "r_times_s3:1"])
        text = capsys.readouterr().out
        for value in (doc["s"], doc["biortho_spectrum"]["k1"], doc["hypothesis_A"]["margin"]):
            assert repr(value) in text

    def test_analyze_report_roundtrip(self, tmp_path):
        out = tmp_path / "r.json"
        main(["analyze", "--model", "sphere:1", "--json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["format"] == io.REPORT_FORMAT
        assert io.dumps_document(doc) == out.read_text()

    def test_analyze_requires_exactly_one_source(self, capsys):
        assert main(["analyze"]) == 1
        assert main(["analyze", "x.json", "--model", "sphere"]) == 1

    def test_unknown_model_is_input_error(self, capsys):
        assert main(["emit", "--model", "banana", "--out", "/tmp/x.json"]) == 1
        assert "unknown model" in capsys.readouterr().err

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "x.json"
        assert main(["emit", "--model", "sphere", "--out", str(target)]) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 1

    def test_bad_flag_is_input_error(self, capsys):
        for argv in (["analyze", "--model", "sphere", "--definitely-not-a-flag"],
                     ["verify", "--trials", "1", "--workers", "1"],
                     ["scan", "--trials", "1", "--workers", "1"]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: unrecognized arguments: ")

    def test_project_bianchi_flag(self, tmp_path, capsys):
        m = np.eye(6)
        m[0, 5] = m[5, 0] = 0.5
        tensor = tmp_path / "t.json"
        tensor.write_text(json.dumps({"format": "curv4-v1", "matrix": m.tolist()}))
        assert main(["analyze", str(tensor)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: Bianchi residual ")
        assert "--project-bianchi" in err  # the error names the flag that fixes it
        assert main(["analyze", str(tensor), "--project-bianchi"]) == 0

    def test_projection_passes_its_own_check(self, tmp_path, capsys):
        # tolerance * max|M| underflows to 0 at 1e-316 and falls below the
        # projection's rounding at --tol 1e-20.
        assert main(["scan", "--model", "random_bianchi:1e-316", "--trials", "200",
                     "--seed", "1"]) == 0
        g = RngStream(0).generator().standard_normal((6, 6))
        tensor = tmp_path / "t.json"
        tensor.write_text(json.dumps({"format": "curv4-v1", "matrix": ((g + g.T) / 2).tolist()}))
        assert main(["analyze", str(tensor), "--project-bianchi", "--tol", "1e-20"]) == 0
        assert main(["emit", "--model", "random_bianchi:1e-316", "--out", str(tensor)]) == 0
        assert main(["analyze", str(tensor)]) == 0
        assert capsys.readouterr().err == ""


SPHERE_ROWS = np.eye(6).tolist()

MALFORMED_TENSOR_FILES = {
    "non-numeric matrix": json.dumps({"format": "curv4-v1",
                                      "matrix": [["a"] * 6] + SPHERE_ROWS[1:]}),
    "null matrix entry": json.dumps({"format": "curv4-v1",
                                     "matrix": [[None] * 6] + SPHERE_ROWS[1:]}),
    "ragged matrix": json.dumps({"format": "curv4-v1",
                                 "matrix": [[1.0, 0.0]] + SPHERE_ROWS[1:]}),
    "matrix is not a list": json.dumps({"format": "curv4-v1", "matrix": 6}),
    "string component index": json.dumps({"format": "curv4-v1",
                                          "components": [["a", 2, 1, 2, 1.0]]}),
    "fractional component index": json.dumps({"format": "curv4-v1",
                                              "components": [[1.5, 2, 1, 2, 1.0]]}),
    "null component value": json.dumps({"format": "curv4-v1",
                                        "components": [[1, 2, 1, 2, None]]}),
    "boolean component index": json.dumps({"format": "curv4-v1",
                                           "components": [[True, 2, 1, 2, 1.0]]}),
    "component index beyond float range": ('{"format": "curv4-v1", "components": '
                                           '[[1' + "0" * 400 + ', 2, 1, 2, 1.0]]}'),
    "component value beyond float range": ('{"format": "curv4-v1", "components": '
                                           '[[1, 2, 1, 2, 1' + "0" * 400 + ']]}'),
    "non-UTF-8 bytes": b'{"format": "curv4-v1", "matrix": "\xff\xfe"}',
    "asymmetric matrix": json.dumps({"format": "curv4-v1",
                                     "matrix": [[1.0, 2.0, 0.0, 0.0, 0.0, 0.0]]
                                     + SPHERE_ROWS[1:]}),
}


def tensor_doc(place, value):
    """A tensor file's JSON object with ``value`` as entry (0,1) and (1,0) of
    the identity matrix, as a component's value, or as a component's index."""
    if place == "matrix":
        rows = [list(row) for row in SPHERE_ROWS]
        rows[0][1] = rows[1][0] = value
        return {"format": "curv4-v1", "matrix": rows}
    entry = [1, 2, 1, 2, value] if place == "value" else [1, value, 1, 2, 1.0]
    return {"format": "curv4-v1", "components": [entry]}


class TestTensorNumbers:
    """json gives a number's place a float or an int, or a bool, string, null
    or list; each non-number keeps its error, and an int past float64 is out
    of range."""

    @pytest.mark.parametrize("place,value,message", [
        ("matrix", True, "matrix entry must be a number, got True"),
        ("matrix", "1", "matrix entry must be a number, got '1'"),
        ("matrix", None, "matrix entry must be a number, got None"),
        ("matrix", 10**400, r"matrix entry 10{400} is out of range"),
        ("matrix", -10**400, r"matrix entry -10{400} is out of range"),
        ("value", False, "component value must be a number, got False"),
        ("value", "1", "component value must be a number, got '1'"),
        ("value", [1.0], r"component value must be a number, got \[1.0\]"),
        ("value", 10**400, r"component value 10{400} is out of range"),
        ("index", True, "component index must be an integer, got True"),
        ("index", "1", "component index must be an integer, got '1'"),
        ("index", None, "component index must be an integer, got None"),
        ("index", 1.5, "component index must be an integer, got 1.5"),
        ("index", 10**400, r"index out of range 1..4 in component \(1,10{400},..\)"),
        ("index", 0, r"index out of range 1..4 in component \(1,0,..\)"),
    ])
    def test_non_numbers_keep_their_errors(self, place, value, message):
        doc = json.loads(json.dumps(tensor_doc(place, value)))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            io.tensor_from_dict(doc)

    # Where each value lands: entry (0,1), the (e12, e12) component's value,
    # and 1.0 at the (e13, e12) component that index 3 names.
    @pytest.mark.parametrize("place,value,at,entry", [
        ("matrix", 3, (0, 1), 3.0), ("matrix", 0.5, (0, 1), 0.5),
        ("value", 2, (0, 0), 2.0), ("value", -0.25, (0, 0), -0.25),
        ("index", 3, (1, 0), 1.0), ("index", 3.0, (1, 0), 1.0)])
    def test_numbers_are_read(self, place, value, at, entry):
        doc = json.loads(json.dumps(tensor_doc(place, value)))
        m = io.tensor_from_dict(doc, project_bianchi=True).matrix
        assert m[at] == m[at[::-1]] == entry


class TestCliMalformedTensorFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED_TENSOR_FILES))
    def test_takes_the_error_path(self, tmp_path, capsys, case):
        content = MALFORMED_TENSOR_FILES[case]
        path = tmp_path / "t.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    # A NaN bound would pass this matrix, whose (0,1) and (1,0) entries are 5
    # and 0, and print "tolerance": NaN; a negative one would fail every file.
    # verify loads no tensor, so it has no --tol at all.
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "1e-9x"])
    def test_bad_tolerance_takes_the_error_path(self, tmp_path, capsys, command, tol):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"format": "curv4-v1",
                                    "matrix": [[1.0, 5.0, 0.0, 0.0, 0.0, 0.0]]
                                    + SPHERE_ROWS[1:]}))
        argv = [command, f"--tol={tol}", "--json"] + ([str(path)] if command == "analyze" else [])
        assert main(argv) == 1
        out, err = capsys.readouterr()
        expected = ("error: argument --tol: " if command == "analyze"
                    else f"error: unrecognized arguments: --tol={tol}")
        assert out == "" and err.startswith(expected)

    def test_zero_tolerance_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"format": "curv4-v1", "matrix": SPHERE_ROWS}))
        assert main(["analyze", str(path), "--tol", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["tolerance"] == 0.0
        for tol in ("0", "5"):
            assert main(["verify", "--trials", "1", "--tol", tol, "--json"]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: unrecognized arguments: --tol")

    # Far from symmetric, or conflicting, at their own scale, though within
    # 1e-12 in absolute terms.
    @pytest.mark.parametrize("document, message", [
        ({"matrix": [[1e-12, 5e-10] + [0.0] * 4] + (1e-12 * np.eye(6))[1:].tolist()},
         "matrix is not symmetric: entries (0,1)=5e-10 and (1,0)=0.0 differ by 5.000e-10"),
        ({"components": [[1, 2, 1, 2, 1e-12], [2, 1, 2, 1, 1.1e-12]]},
         "component (2, 1, 2, 1, 1.1e-12) conflicts with (1, 2, 1, 2, 1e-12) under the "
         "curvature index symmetries")], ids=["asymmetric matrix", "conflicting component"])
    def test_tiny_tensors_are_checked_at_their_scale(self, tmp_path, capsys, document, message):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"format": "curv4-v1", **document}))
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_asymmetry_message_has_plain_floats(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(MALFORMED_TENSOR_FILES["asymmetric matrix"])
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == ("error: matrix is not symmetric: entries "
                                           "(0,1)=2.0 and (1,0)=0.0 differ by 2.000e+00\n")


class TestCliHugeTensors:
    # Finite entries whose symmetrized matrix (the first, third, fourth and
    # fifth), whose invariants (the second) or whose isotropic minimum, about
    # -1.9e308 (the sixth), overflow float64.
    @pytest.mark.parametrize("command", [
        "emit --model product:1e308,1e308",
        "analyze --model space_form:3e307",
        "analyze --model sphere:1e-154",
        "analyze --model space_form:-1e308 --run-oracle",
        "scan --model product:1e308,1e308",
        "analyze --model random_bianchi:4e307 --run-oracle"])
    def test_takes_the_error_path(self, capsys, command):
        assert main(command.split()) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    # diag(a, -a, a, -a, a, -a) has zero s and Weyl, so its invariants are
    # finite, but Ric_33 = -3a.  At 8e307 that sum overflows, and at 3.5e307
    # the symmetrizing of Ric does; at 2.5e307 Ric fits in float64.
    @pytest.mark.parametrize("a, code", [(8e307, 1), (3.5e307, 1), (2.5e307, 0)])
    def test_ricci_overflow_takes_the_error_path(self, tmp_path, capsys, a, code):
        path = tmp_path / "t.json"
        rows = np.diag([a, -a, a, -a, a, -a]).tolist()
        path.write_text(json.dumps({"format": "curv4-v1", "matrix": rows}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", str(path), "--json"]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and err == ("error: matrix is too large: "
                                         "its Ricci tensor overflows float64\n")
        else:
            assert err == "" and json.loads(out)["s"] == 0.0

    @pytest.mark.parametrize("scale", ["1e307", "2e307", "3e307"])
    def test_oracle_runs_near_the_float64_limit(self, capsys, scale):
        # Each search runs on its operator scaled by a power of two, so no
        # intermediate of the search overflows.
        assert main(["analyze", "--model", f"random_bianchi:{scale}", "--run-oracle",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        values = [doc["sectional_extrema"][mode]["value"] for mode in ("min", "max")]
        values += [doc["iso_min"]["value"], doc["conjecture_check"]["margin"]]
        assert all(np.isfinite(values))


class TestCliVerify:
    ARGS = ["verify", "--trials", "4", "--seed", "11", "--samples", "3000",
            "--refine", "120", "--json"]

    def test_small_verify_passes(self, capsys):
        assert main(self.ARGS) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["summary"]["oracle_pass"] == 4
        assert len(doc["records"]) == 4

    def test_text_mode_summarizes(self, capsys):
        args = [a for a in self.ARGS if a != "--json"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4 trials" in out and "result: PASS" in out

    # Budgets numpy refuses at once: beyond int64, beyond what one coarse pass
    # buffer can address, and a buffer of 2 EiB, larger than any address space.
    @pytest.mark.parametrize("command", [["verify", "--trials", "1"],
                                         ["analyze", "--model", "cp2", "--run-oracle"]])
    @pytest.mark.parametrize("samples, message", [
        ("99999999999999999999", "error: samples, refine_iters and restarts must be at most"),
        (str(2**56), "error: samples must be at most"),
        (str(2**54), "error: out of memory: ")])
    def test_oversized_samples_take_the_error_path(self, capsys, command, samples, message):
        assert main(command + ["--samples", samples, "--json"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message) and "Traceback" not in err

    def test_starved_oracle_fails_with_exit_2(self, capsys):
        code = main(["verify", "--trials", "2", "--seed", "11",
                     "--samples", "8", "--refine", "0"])
        assert code == 2
        assert "result: FAIL" in capsys.readouterr().out


class TestCliScan:
    def test_scan_rows_and_summary(self, capsys):
        assert main(["scan", "--model", "random_bianchi:1", "--trials", "20",
                     "--seed", "3"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        header, rows, summary = lines[0], lines[1:-1], lines[-1]
        assert header["format"] == "curv4-scan-v1"
        assert len(rows) == 20
        assert {"s", "k1", "k2", "k3", "w3_plus", "w3_minus",
                "hypothesis_A", "hypothesis_B", "nnic"} <= set(rows[0])
        assert summary["type"] == "summary"
        assert summary["frac_nnic"] == pytest.approx(
            sum(r["nnic"] for r in rows) / len(rows))

    def test_scan_rows_match_direct_computation(self, capsys):
        assert main(["scan", "--model", "random_bianchi:1", "--trials", "3",
                     "--seed", "9"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()][1:-1]
        from curv4.core import invariants
        from curv4.verify import trial_matrices

        for row in rows:
            k1, _, k3 = invariants(trial_matrices(9, [row["trial"]])).k[0].tolist()
            assert row["k1"] == k1 and row["k3"] == k3

    def test_scan_deterministic_model_repeats_rows(self, capsys):
        assert main(["scan", "--model", "cp2", "--trials", "3", "--seed", "1"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()][1:-1]
        assert all(row["k3"] == 4.0 for row in rows)

    # Row counts numpy refuses at once: beyond int64, beyond what a
    # (trials, 6, 6) stack can address, and 144 PiB of seeds or rows, larger
    # than any address space.
    @pytest.mark.parametrize("model", ["cp2", "random_bianchi:1"])
    @pytest.mark.parametrize("trials, message", [
        ("99999999999999999999", "error: trials must be at most"),
        (str(_MAX_SCAN_TRIALS + 1), "error: trials must be at most"),
        (str(2**54), "error: out of memory: ")])
    def test_oversized_trials_take_the_error_path(self, capsys, model, trials, message):
        assert main(["scan", "--model", model, "--trials", trials]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message) and err.count("\n") == 1


class TestCliNonFiniteModelParameters:
    # An infinite radius once gave a flat tensor (1/R^2 underflows to 0) and
    # an infinite scale a matrix of nan, with a numpy RuntimeWarning; every
    # non-finite parameter now takes the error path before a builder runs.
    @pytest.mark.parametrize("command", [
        "analyze --model sphere:inf", "analyze --model r_times_s3:inf --json",
        "analyze --model cp2:inf", "analyze --model space_form:inf",
        "analyze --model space_form:-inf --run-oracle", "analyze --model product:1,nan",
        "scan --model sphere:inf", "scan --model cp2:nan", "scan --model random_bianchi:inf",
        "emit --model r_times_s3:inf"])
    def test_takes_the_error_path(self, capsys, command):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(command.split()) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite" in err

    def test_spec_rejects_non_finite_parameters(self):
        for text in ("sphere:inf", "cp2:-inf", "product:nan,1", "random_bianchi:inf"):
            with pytest.raises(ValidationError, match="must be finite"):
                parse_model_spec(text)


class TestCliOverflowingModelParameters:
    # Finite parameters whose model matrix overflows float64: 4*scale for
    # cp2, 1/radius^2 for the round factors (radius^2 underflows to 0 at
    # 1e-200).  The builders reject them, naming the model, before numpy
    # warns or Python divides by zero.
    @pytest.mark.parametrize("command, model", [
        ("analyze --model cp2:1e308", "cp2"), ("scan --model cp2:1e308 --trials 2", "cp2"),
        ("analyze --model sphere:1e-160", "sphere"), ("analyze --model sphere:1e-200", "sphere"),
        ("analyze --model r_times_s3:1e-200 --json", "r_times_s3"),
        ("emit --model r_times_s3:1e-160", "r_times_s3")])
    def test_takes_the_error_path(self, capsys, command, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(command.split()) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert f"model {model!r} overflows float64" in err and "RuntimeWarning" not in err


def json_row(index, s, k, w3p, w3m, hyp_a, hyp_b, nnic):
    """A scan row through json, as every row was written before the template."""
    k1, k2, k3 = k
    return io.dumps_record({
        "type": "row", "trial": index, "s": s, "k1": k1, "k2": k2, "k3": k3,
        "w3_plus": w3p, "w3_minus": w3m,
        "hypothesis_A": hyp_a, "hypothesis_B": hyp_b, "nnic": nnic})


def invariants_row(inv, i):
    """Row i of a scan's invariants pass, as the arguments of :func:`json_row`."""
    return (i, float(inv.s[i]), inv.k[i].tolist(),
            float(inv.weyl_plus[i, 2]), float(inv.weyl_minus[i, 2]),
            bool(inv.hypothesis_a[i]), bool(inv.hypothesis_b[i]), bool(inv.nnic[i]))


def hand_built_invariants(rows):
    """An invariants pass whose columns hold ``rows`` (the arguments of
    :func:`json_row`); the columns a scan row does not read are zero."""
    n = len(rows)
    s = np.array([row[1] for row in rows])
    top = [np.column_stack([np.zeros((n, 2)), [row[col] for row in rows]]) for col in (3, 4)]
    flags = [np.array([row[col] for row in rows]) for col in (5, 6, 7)]
    zero = np.zeros(n)
    return Invariants(s=s, wplus=np.zeros((n, 3, 3)), wminus=np.zeros((n, 3, 3)),
                      weyl_plus=top[0], weyl_minus=top[1], k=np.array([row[2] for row in rows]),
                      band=zero, margin_a=zero, margin_b=zero, margin_plus=zero,
                      margin_minus=zero, hypothesis_a=flags[0], hypothesis_b=flags[1],
                      nnic=flags[2], scalar_positive=s > 0.0)


class TestScanRowTemplate:
    @pytest.mark.parametrize("model,trials", [
        ("random_bianchi:1", 100), ("random_bianchi:1", 20000), ("sphere", 3),
        ("flat", 3), ("random_bianchi:1e306", 200)])
    def test_rows_equal_json(self, model, trials):
        # the model seed is the one cmd_scan derives for --seed 1
        spec = parse_model_spec(model, seed=derive_seed(1, 0, 0))
        report = run_scan(spec, trials=trials, seed=1)
        lines = io.scan_to_lines(report)
        assert len(lines) == trials + 2
        assert lines[1:-1] == [json_row(*invariants_row(report.invariants, i))
                               for i in range(trials)]

    def test_special_floats_keep_json_spelling(self):
        nan, inf = float("nan"), float("inf")
        values = [(0.0, -0.0, 5e-324, 1e308, -1e308, 1.0),   # finite, overflowing sum
                  (nan, 1.0, 2.0, 3.0, 0.0, -0.0),
                  (1.0, inf, 2.0, 3.0, 0.0, 0.0),
                  (1.0, 2.0, -inf, 3.0, 0.0, 0.0),
                  (1.0, 2.0, 3.0, 4.0, inf, -inf),
                  (-0.0, -0.0, -0.0, -0.0, -0.0, -0.0),
                  (1e-300, 2.5, 1e16, 0.1, -7.0, 123456789.125)]
        rows = [(i, s, [k1, k2, k3], wp, wm, i % 2 == 0, i % 3 == 0, i % 5 == 0)
                for i, (s, k1, k2, k3, wp, wm) in enumerate(values)]
        report = ScanReport(model="hand-built", trials=len(rows), seed=0,
                            invariants=hand_built_invariants(rows))
        lines = io.scan_to_lines(report)[1:-1]
        assert lines == [json_row(*row) for row in rows]
        assert "NaN" in lines[1] and "Infinity" in lines[2] and "-Infinity" in lines[3]


class TestScanSummary:
    @pytest.mark.parametrize("argv", [
        ["scan", "--seed", "1"],
        ["scan", "--model", "cp2", "--trials", "3"],
        ["scan", "--model", "flat", "--trials", "2"]])
    def test_summary_is_the_mean_of_the_row_booleans(self, capsys, argv):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [json.loads(line) for line in lines[1:-1]]
        n = len(rows)
        assert lines[-1] == io.dumps_record({
            "type": "summary", "trials": n,
            "frac_hypothesis_A": sum([r["hypothesis_A"] for r in rows]) / n,
            "frac_hypothesis_B": sum([r["hypothesis_B"] for r in rows]) / n,
            "frac_nnic": sum([r["nnic"] for r in rows]) / n})


class TestParserReuse:
    SEQUENCE = [
        ["analyze", "--model", "cp2", "--no-such-flag"],
        ["scan", "--trials", "5", "--seed", "2"],
        ["scan", "--trials", "many"],
        ["analyze", "--model", "random_bianchi:1", "--seed", "3", "--json"],
        ["verify", "--trials", "2", "--seed", "3", "--samples", "500", "--refine", "5",
         "--json"],
        ["analyze", "--model", "cp2", "--text"],
        ["frobnicate"],
        ["scan", "--model", "cp2", "--trials", "2"],
    ]

    def run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_one_parser_serves_every_command(self, capsys):
        fresh = []
        for argv in self.SEQUENCE:
            build_parser.cache_clear()
            fresh.append(self.run(argv, capsys))
        parser = build_parser()
        reused = [self.run(argv, capsys) for argv in self.SEQUENCE]
        assert build_parser() is parser
        assert reused == fresh
        assert [code for code, _, _ in reused] == [1, 0, 1, 0, 0, 0, 1, 0]


class TestReportSerialization:
    def test_verification_document_shape(self):
        from curv4.oracle import OracleConfig
        from curv4.verify import run_verification

        rep = run_verification(trials=2, seed=1,
                               oracle=OracleConfig(samples=2000, refine_iters=40))
        doc = io.verification_to_dict(rep)
        assert doc["format"] == "curv4-verify-v1"
        assert doc["config"]["trials"] == 2
        assert "workers" not in doc["config"]

    def test_verify_record_keys_are_trial_result_fields(self):
        from curv4.oracle import OracleConfig
        from curv4.verify import TrialResult, run_verification

        rep = run_verification(trials=2, seed=1,
                               oracle=OracleConfig(samples=2000, refine_iters=40))
        doc = io.verification_to_dict(rep)
        names = [f.name for f in dataclasses.fields(TrialResult)]
        assert [list(rec) for rec in doc["records"]] == [names, names]
        assert [rec["trial"] for rec in doc["records"]] == [0, 1]

    def test_report_keys_are_the_fields(self):
        from curv4.analyzer import AnalyzeConfig, ChainStep, ConjectureCheck, analyze
        from curv4.models import cp2
        from curv4.oracle import OracleConfig

        cfg = AnalyzeConfig(run_oracle=True, source="model:cp2",
                            oracle=OracleConfig(samples=1500, refine_iters=30, seed=2))
        doc = io.report_to_dict(analyze(cp2(1.0), cfg))

        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert doc["chain"]["applicable"] and len(doc["chain"]["steps"]) == 16
        assert all(set(step) == names(ChainStep) for step in doc["chain"]["steps"])
        assert set(doc["conjecture_check"]) == names(ConjectureCheck)
        assert set(doc["config"]) == names(AnalyzeConfig)
        assert doc["config"]["oracle"] == {"samples": 1500, "refine_iters": 30,
                                           "restarts": 3, "seed": 2}

    def test_editing_a_document_leaves_the_reports_unchanged(self):
        from curv4.analyzer import AnalyzeConfig, analyze
        from curv4.models import cp2
        from curv4.oracle import OracleConfig
        from curv4.verify import run_verification

        oracle = OracleConfig(samples=1500, refine_iters=30, seed=2)
        ver = run_verification(trials=2, seed=1, oracle=oracle)
        rep = analyze(cp2(1.0), AnalyzeConfig(run_oracle=True, oracle=oracle))
        before = [io.dumps_document(io.verification_to_dict(ver)),
                  io.dumps_document(io.report_to_dict(rep))]
        doc = io.verification_to_dict(ver)
        for rec in doc["records"]:
            rec.update(trial=-1, s=0.5, failures=["edited"])
        doc["summary"]["failures"] = 99
        doc = io.report_to_dict(rep)
        doc["config"].update(source="edited", run_oracle=False)
        doc["config"]["oracle"]["seed"] = 99
        for step in doc["chain"]["steps"]:
            step.update(label="edited", satisfied=False)
        doc["conjecture_check"]["holds"] = not doc["conjecture_check"]["holds"]
        assert [io.dumps_document(io.verification_to_dict(ver)),
                io.dumps_document(io.report_to_dict(rep))] == before
        assert [r.trial for r in ver.records] == [0, 1]
        assert rep.config.source == "" and rep.config.oracle.seed == 2

    def test_extremum_witness_serialization(self):
        from curv4.analyzer import AnalyzeConfig, analyze
        from curv4.oracle import OracleConfig

        cfg = AnalyzeConfig(run_oracle=True,
                            oracle=OracleConfig(samples=1500, refine_iters=30, seed=2))
        doc = io.report_to_dict(analyze(random_bianchi(8), cfg))
        witness = doc["sectional_extrema"]["min"]["witness"]
        assert witness["type"] == "plane"
        u = np.array(witness["u"])
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-9
        assert doc["iso_min"]["witness"]["type"] == "frame"
