import json
import math
import subprocess
import sys

import pytest

from atsuji.cli import main


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return str(path)


def builtin(name, **params):
    return {"space": {"kind": "builtin", "name": name, "params": params}}


def run_to_file(tmp_path, argv, name="report.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_check_metric_valid_matrix(tmp_path):
    spec = write_spec(
        tmp_path,
        {"space": {"kind": "matrix", "ids": ["a", "b"], "matrix": [[0, 1], [1, 0]]}},
    )
    code, report = run_to_file(tmp_path, ["check-metric", spec])
    assert code == 0
    assert report["command"] == "check-metric"
    assert report["result"]["passed"] is True
    assert report["result"]["violations"] == []


def test_check_metric_reports_violations(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "space": {
                "kind": "matrix",
                "ids": ["a", "b", "c"],
                "matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
            }
        },
    )
    code, report = run_to_file(tmp_path, ["check-metric", spec])
    assert code == 1
    assert report["result"]["passed"] is False
    kinds = {v["kind"] for v in report["result"]["violations"]}
    assert "triangle" in kinds
    first = [v for v in report["result"]["violations"] if v["kind"] == "triangle"][0]
    assert first["ids"] == ["a", "b", "c"]


def test_other_commands_reject_invalid_matrix(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "space": {
                "kind": "matrix",
                "ids": ["a", "b", "c"],
                "matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
            }
        },
    )
    code = main(["net", spec, "--eps", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "triangle" in err


def test_malformed_spec_names_field(tmp_path, capsys):
    spec = write_spec(tmp_path, {"space": {"kind": "builtin"}})
    assert main(["check-metric", spec]) == 2
    assert "space.name" in capsys.readouterr().err

    spec = write_spec(tmp_path, {"space": {"kind": "cloud"}})
    assert main(["check-metric", spec]) == 2
    assert "space.kind" in capsys.readouterr().err

    spec = write_spec(tmp_path, {})
    assert main(["check-metric", spec]) == 2
    assert "spec.space" in capsys.readouterr().err

    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["check-metric", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    assert main(["check-metric", str(tmp_path / "missing.json")]) == 2
    assert "spec_path" in capsys.readouterr().err


def test_points_l2_arm(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "space": {
                "kind": "points_l2",
                "points": [
                    {"id": "p11", "coords": {"1": 1.0}},
                    {"id": "p21", "coords": {"2": 1.0}},
                ],
            }
        },
    )
    code, report = run_to_file(tmp_path, ["check-metric", spec])
    assert code == 0
    assert report["result"]["passed"] is True


def test_bad_flag_values_are_input_errors(tmp_path, capsys):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    assert main(["atsuji", spec, "--eps-grid", "1,abc"]) == 2
    capsys.readouterr()
    assert main(["check-metric", spec, "--tol", "-1"]) == 2
    assert "--tol" in capsys.readouterr().err


def test_matrix_with_non_finite_entry_is_input_error(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"space": {"kind": "matrix", "ids": ["a", "b"], "matrix": [[0, NaN], [1, 0]]}}',
        encoding="utf-8",
    )
    assert main(["check-metric", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not finite" in err

    spec = write_spec(
        tmp_path,
        {"space": {"kind": "matrix", "ids": ["a", "b"], "matrix": [[0, None], [1, 0]]}},
    )
    assert main(["check-metric", spec]) == 2
    assert "numbers" in capsys.readouterr().err


def test_points_l2_duplicate_id_is_input_error(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "space": {
                "kind": "points_l2",
                "points": [
                    {"id": "a", "coords": {"1": 1.0}},
                    {"id": "a", "coords": {"1": 2.0}},
                ],
            }
        },
    )
    assert main(["check-metric", spec]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_points_l2_indiscernible_is_input_error(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "space": {
                "kind": "points_l2",
                "points": [{"id": "a", "coords": {}}, {"id": "b", "coords": {"1": 0.0}}],
            }
        },
    )
    assert main(["check-metric", spec]) == 2
    assert "indiscernible" in capsys.readouterr().err


def test_atsuji_d2_fails_with_exit_1(tmp_path):
    spec = write_spec(tmp_path, builtin("positive_integers", n_max=1000, metric="d2"))
    code, report = run_to_file(tmp_path, ["atsuji", spec])
    assert code == 1
    assert report["result"]["status"] == "FAIL"
    witness = report["result"]["fail_witness"]
    assert (witness["x"], witness["y"]) == ("n999", "n1000")
    assert witness["distance"] == pytest.approx(1 / 999000, abs=1e-15)


def test_atsuji_d1_passes_with_exit_0(tmp_path):
    spec = write_spec(tmp_path, builtin("positive_integers", n_max=200, metric="d1"))
    code, report = run_to_file(
        tmp_path, ["atsuji", spec, "--eps-grid", "1,0.1", "--threshold", "1e-3"]
    )
    assert code == 0
    assert report["result"]["status"] == "PASS"
    assert report["result"]["isolation"]["1.0"]["eta"] == 1.0


def test_atsuji_derived_set_detect_arm(tmp_path):
    payload = builtin("convergent_sequence", n_max=100)
    payload["derived_set"] = {"kind": "detect", "radius": 0.01}
    spec = write_spec(tmp_path, payload)
    code, report = run_to_file(tmp_path, ["atsuji", spec])
    assert any("over-approximate" in note for note in report["notes"])


def test_atsuji_oracle_arm_rejects_unknown_ids(tmp_path, capsys):
    payload = builtin("convergent_sequence", n_max=10)
    payload["derived_set"] = {"kind": "oracle", "ids": ["ghost"]}
    spec = write_spec(tmp_path, payload)
    assert main(["atsuji", spec]) == 2
    assert "derived_set.ids" in capsys.readouterr().err


def test_remetrize_report_spot_value(tmp_path):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=200))
    code, report = run_to_file(tmp_path, ["remetrize", spec])
    assert code == 0
    assert report["result"]["newdist"]["n2"]["n3"] == 0.25
    assert report["result"]["empty_derived_fallback_used"] is False
    assert report["result"]["axioms"]["passed"] is True
    assert report["result"]["same_topology"]["passed"] is True
    assert all(v["passed"] for v in report["result"]["isolation_bounds"].values())


def test_remetrize_fallback_flag_and_note(tmp_path):
    payload = builtin("positive_integers", n_max=50, metric="d2")
    payload["derived_set"] = {"kind": "empty"}
    spec = write_spec(tmp_path, payload)
    code, report = run_to_file(tmp_path, ["remetrize", spec])
    assert code == 0
    assert report["result"]["empty_derived_fallback_used"] is True
    assert any("fallback" in note for note in report["notes"])


def test_remetrize_out_matrix_roundtrip(tmp_path):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=50))
    out_matrix = tmp_path / "matrix_spec.json"
    code, report = run_to_file(
        tmp_path, ["remetrize", spec, "--out-matrix", str(out_matrix)]
    )
    assert code == 0

    reloaded = json.loads(out_matrix.read_text(encoding="utf-8"))
    assert reloaded["space"]["kind"] == "matrix"
    assert reloaded["derived_set"] == {"kind": "oracle", "ids": ["zero"]}
    # emitted matrix entries match the report bit for bit
    assert reloaded["space"]["matrix"][1][2] == report["result"]["newdist"]["n1"]["n2"]

    code2, report2 = run_to_file(
        tmp_path, ["check-metric", str(out_matrix)], name="roundtrip.json"
    )
    assert code2 == 0
    assert report2["result"]["passed"] is True


def test_reports_are_byte_identical(tmp_path):
    spec = write_spec(tmp_path, builtin("positive_integers", n_max=300, metric="d2"))
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert main(["atsuji", spec, "--out", str(first)]) == 1
    assert main(["atsuji", spec, "--out", str(second)]) == 1
    assert first.read_bytes() == second.read_bytes()

    third = tmp_path / "r3.json"
    fourth = tmp_path / "r4.json"
    assert main(["remetrize", spec, "--out", str(third)]) == 0
    assert main(["remetrize", spec, "--out", str(fourth)]) == 0
    assert third.read_bytes() == fourth.read_bytes()


def test_witness_parity_found(tmp_path):
    spec = write_spec(
        tmp_path, builtin("sequence_grid_E", i_max=50, j_max=50, include_origin=False)
    )
    code, report = run_to_file(
        tmp_path,
        ["witness", spec, "--fn", "parity", "--eps0", "0.5", "--delta", "1e-3"],
    )
    assert code == 1
    witness = report["result"]["witness"]
    assert (witness["x"], witness["y"]) == ("p_1_32", "p_1_33")
    assert witness["gap"] == 1.0


def test_witness_const_not_found(tmp_path):
    spec = write_spec(tmp_path, builtin("positive_integers", n_max=20, metric="d2"))
    code, report = run_to_file(
        tmp_path, ["witness", spec, "--fn", "const", "--eps0", "0.5", "--delta", "1.0"]
    )
    assert code == 0
    assert report["result"]["found"] is False
    assert report["result"]["witness"] is None


def test_witness_separator_requires_sets(tmp_path, capsys):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    code = main(["witness", spec, "--fn", "separator", "--eps0", "0.5", "--delta", "0.1"])
    assert code == 2
    assert "--fn" in capsys.readouterr().err


def test_separator_command(tmp_path):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    code, report = run_to_file(
        tmp_path, ["separator", spec, "--a", "zero", "--b", "n1"]
    )
    assert code == 0
    values = report["result"]["values"]
    assert values["zero"] == 0.0
    assert values["n1"] == 1.0
    assert values["n2"] == 0.5


def test_separator_unknown_id(tmp_path, capsys):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    assert main(["separator", spec, "--a", "ghost", "--b", "n1"]) == 2
    assert "--a" in capsys.readouterr().err


def test_separator_empty_id_list_names_flag(tmp_path, capsys):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    assert main(["separator", spec, "--a", "", "--b", "n1"]) == 2
    assert "--a" in capsys.readouterr().err


def test_net_command_frozen(tmp_path):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=20))
    code, report = run_to_file(tmp_path, ["net", spec, "--eps", "0.3"])
    assert code == 0
    assert report["result"]["net"] == ["zero", "n1", "n2"]
    assert report["result"]["size"] == 3


def test_tol_flag_overrides(tmp_path):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    code, report = run_to_file(tmp_path, ["check-metric", spec, "--tol", "1e-9"])
    assert code == 0
    assert report["inputs"]["flags"]["tol"] == 1e-9


def test_spec_tol_field(tmp_path):
    payload = builtin("convergent_sequence", n_max=10)
    payload["tol"] = 1e-10
    spec = write_spec(tmp_path, payload)
    code, report = run_to_file(tmp_path, ["check-metric", spec])
    assert report["inputs"]["flags"]["tol"] == 1e-10


def test_module_entrypoint_subprocess(tmp_path):
    spec = write_spec(
        tmp_path,
        {"space": {"kind": "matrix", "ids": ["a", "b"], "matrix": [[0, 1], [1, 0]]}},
    )
    proc = subprocess.run(
        [sys.executable, "-m", "atsuji", "check-metric", spec],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["passed"] is True
    assert proc.stderr == ""


# --- non-finite and wrongly typed inputs exit 2 --------------------------------


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["atsuji", "{spec}", "--threshold", "inf"], "--threshold"),
        (["atsuji", "{spec}", "--eps-grid", "1,inf"], "--eps-grid"),
        (["net", "{spec}", "--eps", "inf"], "--eps"),
        (["witness", "{spec}", "--fn", "const", "--eps0", "inf", "--delta", "1"], "--eps0"),
        (["witness", "{spec}", "--fn", "const", "--eps0", "1", "--delta", "inf"], "--delta"),
        (["check-metric", "{spec}", "--tol", "inf"], "--tol"),
    ],
    ids=["threshold", "eps-grid", "eps", "eps0", "delta", "tol"],
)
def test_non_finite_flag_is_input_error(tmp_path, capsys, argv, flag):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    out = tmp_path / "report.json"
    argv = [spec if a == "{spec}" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"{flag}: must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, field",
    [
        ('"tol": 1e400', "tol"),
        ('"derived_set": {"kind": "detect", "radius": 1e400}', "derived_set.radius"),
        ('"comment": 1e400', "Out of range float"),
    ],
    ids=["tol", "radius", "echoed-field"],
)
def test_non_finite_spec_number_is_input_error(tmp_path, capsys, extra, field):
    path = tmp_path / "spec.json"
    path.write_text(
        '{"space": {"kind": "builtin", "name": "convergent_sequence", '
        f'"params": {{"n_max": 10}}}}, {extra}}}',
        encoding="utf-8",
    )
    out = tmp_path / "report.json"
    assert main(["atsuji", str(path), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, field",
    [
        (builtin("sequence_grid_E", i_max=3, j_max=3, include_origin="false"),
         "space.params.include_origin"),
        (builtin("positive_integers", n_max=10.9), "space.params.n_max"),
        (builtin("convergent_sequence", n_max=True), "space.params.n_max"),
        (builtin("positive_integers", n_max=10, metric=2), "space.params.metric"),
    ],
    ids=["include_origin-string", "n_max-float", "n_max-bool", "metric-number"],
)
def test_builtin_params_are_not_coerced(tmp_path, capsys, payload, field):
    spec = write_spec(tmp_path, payload)
    assert main(["check-metric", spec]) == 2
    assert f"{field}: must be" in capsys.readouterr().err


def test_deeply_nested_spec_is_input_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text('{"space": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["check-metric", str(path), "--out", str(out)]) == 2
    assert "spec: invalid JSON: nested too deeply" in capsys.readouterr().err
    assert not out.exists()
