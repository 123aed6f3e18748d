import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from atsuji import FiniteSpace, convergent_sequence, remetrize, verify_metric_axioms
from atsuji import cli
from atsuji import space as space_module
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


def test_grossly_non_metric_matrix_exits_2_without_listing_every_violation(
    tmp_path, capsys, monkeypatch
):
    # about a sixth of the 120^3 ordered triples violate: listing them all
    # took some 49 MB, where the message needs only the first.  Traced is the
    # validation alone, since parsing the spec already peaks near 1 MB.
    n = 120
    rng = np.random.default_rng(3)
    d = np.triu(rng.uniform(0.0, 1.0, (n, n)), k=1)
    d = d + d.T
    ids = [f"p{k}" for k in range(n)]
    spec = write_spec(tmp_path, {"space": {"kind": "matrix", "ids": ids, "matrix": d.tolist()}})
    validate, peaks = cli._validate_matrix_arm, []

    def traced_validate(*args):
        tracemalloc.start()
        try:
            return validate(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_validate_matrix_arm", traced_validate)
    assert main(["atsuji", spec]) == 2
    first = verify_metric_axioms(FiniteSpace(ids=tuple(ids), dist=d)).violations[0]
    assert capsys.readouterr().err == (
        f"error: space.matrix: violates the {first.kind} axiom at indices "
        f"{first.where} (magnitude {first.magnitude!r})\n"
    )
    assert len(peaks) == 1 and peaks[0] < 1_000_000


def test_a_negative_entry_exits_2_before_the_triangle_scan(tmp_path, capsys):
    # the nonneg pass lists the violation first, and the scan stops there
    n = 40
    x = np.arange(n, dtype=float)
    d = np.abs(x[:, None] - x[None, :])
    d[0, n - 1] += 5.0  # a triangle violation too, listed after the nonneg one
    d[2, 7] = -0.5
    ids = [f"p{k}" for k in range(n)]
    spec = write_spec(tmp_path, {"space": {"kind": "matrix", "ids": ids, "matrix": d.tolist()}})
    with mock.patch.object(
        space_module, "_triangle_block", wraps=space_module._triangle_block
    ) as block:
        assert main(["atsuji", spec]) == 2
    assert block.call_count == 0
    assert capsys.readouterr().err == (
        "error: space.matrix: violates the nonneg axiom at indices (2, 7) (magnitude 0.5)\n"
    )


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

    for space, message in [
        ({"kind": "builtin", "name": "cantor"}, "space.name: unknown builtin 'cantor'; "),
        ({"kind": "builtin", "name": "convergent_sequence", "params": {"k": 1}},
         "space.params: unknown parameters ['k'] for 'convergent_sequence'\n"),
        ({"kind": "builtin", "name": "convergent_sequence", "params": {"n_max": 1}},
         "space.params: n_max must be >= 2, got 1\n"),
        ({"kind": "points_l2", "points": []}, "space.points: must be a nonempty list\n"),
        ({"kind": "matrix", "ids": [], "matrix": []},
         "space.ids: must be a nonempty list of point ids\n"),
    ]:
        spec = write_spec(tmp_path, {"space": space})
        assert main(["check-metric", spec]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


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


def hexes(rows):
    return [[float(v).hex() for v in row] for row in rows]


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
    # every entry of the report and of the matrix file is the new metric's,
    # bit for bit; its floors are powers of two, so entries repeat
    space, derived = convergent_sequence(50)
    newdist = remetrize(space, derived).newdist
    assert len(np.unique(newdist)) < newdist.size // 4
    ids = list(space.ids)
    assert reloaded["space"]["ids"] == ids
    assert hexes(reloaded["space"]["matrix"]) == hexes(newdist.tolist())
    written = report["result"]["newdist"]
    assert list(written) == ids and all(list(written[x]) == ids for x in ids)
    assert hexes([written[x].values() for x in ids]) == hexes(newdist.tolist())

    again = tmp_path / "matrix_spec_again.json"
    assert main(["remetrize", spec, "--out", str(tmp_path / "again.json"),
                 "--out-matrix", str(again)]) == 0
    assert again.read_bytes() == out_matrix.read_bytes()

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


def matrix_spec(ids, matrix):
    return {"space": {"kind": "matrix", "ids": ids, "matrix": matrix}}


def points_spec(points):
    return {"space": {"kind": "points_l2", "points": points}}


BIG = 10**400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "payload, field",
    [
        (matrix_spec(["a", "b"], [[0, "1"], ["1", 0]]), "space.matrix: entries must be"),
        (matrix_spec(["a", "b"], [[0, True], [True, 0]]), "space.matrix: entries must be"),
        (matrix_spec(["a", "b"], ["01", "10"]), "space.matrix: entries must be"),
        (matrix_spec(["a", "b"], [[0, BIG], [BIG, 0]]), "space.matrix: entries must be finite"),
        (matrix_spec([1, 2], [[0, 1], [1, 0]]), "space.ids[0]: must be a JSON string"),
        (matrix_spec([{"x": 1}, "b"], [[0, 1], [1, 0]]), "space.ids[0]: must be a JSON string"),
        (points_spec([{"id": "a", "coords": {"1": "0.5"}}, {"id": "b"}]),
         "space.points[0].coords: slot '1' must"),
        (points_spec([{"id": "a", "coords": {" 1": 0.5}}, {"id": "b"}]),
         "space.points[0].coords: slot ' 1' must"),
        (points_spec([{"id": "a", "coords": {"1": BIG}}, {"id": "b"}]),
         "space.points[0].coords: must be finite"),
        (points_spec([{"id": 1, "coords": {"1": 0.5}}, {"id": "b"}]),
         "space.points[0].id: must be a JSON string"),
        ({**builtin("convergent_sequence", n_max=5), "tol": "1e-9"}, "tol: must be a JSON number"),
        ({**builtin("convergent_sequence", n_max=5), "tol": BIG}, "tol: must be finite"),
        ({**builtin("convergent_sequence", n_max=5),
          "derived_set": {"kind": "detect", "radius": True}},
         "derived_set.radius: must be a JSON number"),
        ({**builtin("convergent_sequence", n_max=5),
          "derived_set": {"kind": "oracle", "ids": [0]}},
         "derived_set.ids[0]: must be a JSON string"),
    ],
    ids=["matrix-string", "matrix-bool", "matrix-string-rows", "matrix-huge-int", "ids-ints",
         "ids-object", "coord-string", "slot-space", "coord-huge-int", "point-id-int",
         "tol-string", "tol-huge-int", "radius-bool", "oracle-id-int"],
)
def test_spec_values_are_not_coerced(tmp_path, capsys, payload, field):
    spec = write_spec(tmp_path, payload)
    out = tmp_path / "report.json"
    assert main(["check-metric", spec, "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "matrix",
    [
        [[0, -1.7e308, 1], [-1.7e308, 0, -1.7e308], [1, -1.7e308, 0]],
        [[0, 1.7e308], [-1.7e308, 0]],
    ],
    ids=["triangle-sum", "symmetry-gap"],
)
def test_overflowing_magnitudes_are_null_and_silent(tmp_path, capsys, matrix):
    # finite entries whose sums or differences overflow: not a metric (exit
    # 1), and the infinite magnitude is null in the report, not a warning
    spec = write_spec(tmp_path, matrix_spec([f"p{k}" for k in range(len(matrix))], matrix))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report = run_to_file(tmp_path, ["check-metric", spec])
    assert code == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == ""
    magnitudes = [v["magnitude"] for v in report["result"]["violations"]]
    assert None in magnitudes
    assert all(m is None or math.isfinite(m) for m in magnitudes)


def test_deeply_nested_spec_is_input_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text('{"space": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["check-metric", str(path), "--out", str(out)]) == 2
    assert "spec: invalid JSON: nested too deeply" in capsys.readouterr().err
    assert not out.exists()


def test_overlong_integer_in_spec_is_invalid_json(tmp_path, capsys):
    # json.loads raises a plain ValueError for an integer beyond Python's
    # digit limit; the diagnostic still names the spec
    path = tmp_path / "spec.json"
    path.write_text('{"space": {"kind": "matrix", "ids": ["a", "b"], '
                    f'"matrix": [[0, {"9" * 5000}], [1, 0]]}}}}', encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["check-metric", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: spec: invalid JSON: ")
    assert not out.exists()


def test_points_l2_repeated_slot_is_input_error(tmp_path, capsys):
    # "1" and "01" both name slot 1: neither silently wins
    spec = write_spec(tmp_path, points_spec([
        {"id": "a", "coords": {"1": 0.5, "01": 0.7}},
        {"id": "b", "coords": {"1": 0.7}},
    ]))
    assert main(["check-metric", spec]) == 2
    assert ("space.points[0].coords: slot '01' repeats slot 1"
            in capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["atsuji", "{spec}", "--threshold", "0"], "--threshold"),
        (["atsuji", "{spec}", "--eps-grid", "1,-0.5"], "--eps-grid"),
        (["witness", "{spec}", "--fn", "const", "--eps0", "0", "--delta", "1"], "--eps0"),
        (["witness", "{spec}", "--fn", "const", "--eps0", "1", "--delta", "-1"], "--delta"),
    ],
    ids=["threshold", "eps-grid", "eps0", "delta"],
)
def test_non_positive_flag_names_the_flag(tmp_path, capsys, argv, flag):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    argv = [spec if a == "{spec}" else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: must be positive, got ")
    assert err.count("\n") == 1



@pytest.mark.parametrize(
    "argv, message",
    [
        (["net", "{spec}", "--eps", "-inf"], "--eps: expected one argument\n"),
        (["net", "{spec}"], "the following arguments are required: --eps\n"),
        (["cloud", "{spec}"], "command: invalid choice: 'cloud' "),
        (["net", "{spec}", "--eps", "1", "--bogus"], "unrecognized arguments: --bogus\n"),
    ],
    ids=["missing-value", "missing-flag", "unknown-command", "unknown-argument"],
)
def test_malformed_command_line_is_one_error_line(tmp_path, capsys, argv, message):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    assert main([spec if a == "{spec}" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["net", "--help"])
    assert raised.value.code == 0
    assert "--eps" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["net", "{spec}", "--eps", "1_0"], "--eps", "1_0"),
        (["net", "{spec}", "--eps", " 1"], "--eps", " 1"),
        (["net", "{spec}", "--eps", ".5"], "--eps", ".5"),
        (["net", "{spec}", "--eps", "1."], "--eps", "1."),
        (["net", "{spec}", "--eps", "+1"], "--eps", "+1"),
        (["atsuji", "{spec}", "--eps-grid", "1, 0.5"], "--eps-grid", " 0.5"),
        (["check-metric", "{spec}", "--tol", "1e-1_0"], "--tol", "1e-1_0"),
    ],
    ids=["underscore", "space", "no-integer-part", "no-fraction-digits", "plus", "grid-space",
         "tol"],
)
def test_flag_numbers_must_be_json_numbers(tmp_path, capsys, argv, flag, value):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    assert main([spec if a == "{spec}" else a for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {flag}: must be a JSON number, got {value!r}\n"


def test_json_number_flags_are_read(tmp_path):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    for eps in ["2E+1", "1e-3", "0.5", "3"]:
        code, report = run_to_file(tmp_path, ["net", spec, "--eps", eps])
        assert (code, report["result"]["eps"]) == (0, float(eps))

# --- output paths -----------------------------------------------------------


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("flag", ["--out", "--out-matrix"])
def test_unwritable_output_path_is_input_error(tmp_path, capsys, flag, where):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    bad = tmp_path / "missing" / "file.json" if where == "missing-directory" else tmp_path
    out = tmp_path / "report.json"
    argv = ["remetrize", spec, flag, str(bad)]
    if flag == "--out-matrix":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ")
    assert err.count("\n") == 1
    if flag == "--out-matrix":  # written after the report, which stays
        assert json.loads(out.read_text(encoding="utf-8"))["command"] == "remetrize"


def test_unencodable_report_leaves_no_out_matrix_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"space": {"kind": "builtin", "name": "convergent_sequence", '
                    '"params": {"n_max": 10}}, "comment": 1e400}', encoding="utf-8")
    out, matrix = tmp_path / "report.json", tmp_path / "matrix.json"
    argv = ["remetrize", str(path), "--out", str(out), "--out-matrix", str(matrix)]
    assert main(argv) == 2
    assert "Out of range float" in capsys.readouterr().err
    assert not out.exists()
    assert not matrix.exists()


# --- witness functions other than parity and const ---------------------------


def test_witness_identity_found(tmp_path):
    # identity gives canonical indices, so any two points are a gap >= 1 apart;
    # the least pair closer than 0.1 is (1/3, 1/4)
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    code, report = run_to_file(
        tmp_path, ["witness", spec, "--fn", "identity", "--eps0", "0.5", "--delta", "0.1"]
    )
    assert code == 1
    assert report["inputs"]["flags"] == {"fn": "identity", "eps0": 0.5, "delta": 0.1,
                                         "tol": 1e-12}
    result = report["result"]
    assert (result["function"], result["found"]) == ("identity", True)
    assert (result["witness"]["x"], result["witness"]["y"]) == ("n3", "n4")
    assert result["witness"]["distance"] == pytest.approx(1 / 12)
    assert result["witness"]["gap"] == 1.0
    assert report["witnesses"] == [result["witness"]]


@pytest.mark.parametrize(
    "eps0, delta, code, pair",
    [("0.05", "0.2", 1, ["zero", "n6"]), ("0.5", "0.1", 0, None)],
    ids=["found", "not-found"],
)
def test_witness_separator_echoes_its_sets(tmp_path, eps0, delta, code, pair):
    # with A = {zero} and B = {n1} the separator is x -> x on {0} and 1/n,
    # so a pair's gap is its distance
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    got, report = run_to_file(tmp_path, ["witness", spec, "--fn", "separator", "--a", "zero",
                                         "--b", "n1", "--eps0", eps0, "--delta", delta])
    assert got == code
    assert report["inputs"]["flags"] == {"fn": "separator", "eps0": float(eps0),
                                         "delta": float(delta), "tol": 1e-12,
                                         "a": "zero", "b": "n1"}
    result = report["result"]
    assert result["function"] == "separator(|A|=1,|B|=1)"
    assert result["found"] is (pair is not None)
    witness = result["witness"]
    assert (witness and [witness["x"], witness["y"]]) == pair
    if pair:
        assert witness["gap"] == pytest.approx(witness["distance"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["atsuji", "{spec}", "--eps", "0.5"], "unrecognized arguments: --eps 0.5\n"),
        (["net", "{spec}", "--ep", "0.5"], "the following arguments are required: --eps\n"),
        (["net", "{spec}", "--eps", "1", "--ep=0.5"], "unrecognized arguments: --ep=0.5\n"),
        (["net", "{spec}", "--eps", "1", "--to", "0.1"], "unrecognized arguments: --to 0.1\n"),
        (["witness", "{spec}", "--fn", "parity", "--eps", "0.5", "--delta", "0.1"],
         "the following arguments are required: --eps0\n"),
    ],
    ids=["eps-for-eps-grid", "ep-for-eps", "ep-joined", "to-for-tol", "eps-for-eps0"],
)
def test_abbreviated_flags_are_unknown_arguments(tmp_path, capsys, argv, message):
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    assert main([spec if a == "{spec}" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}")


def test_an_overflowing_l2_distance_names_its_points(tmp_path, capsys):
    points = [{"id": "a", "coords": {"1": 1e200}}, {"id": "b", "coords": {"1": -1e200}}]
    spec = write_spec(tmp_path, {"space": {"kind": "points_l2", "points": points}})
    assert main(["check-metric", spec]) == 2
    assert capsys.readouterr().err == (
        "error: space.points: points 'a' and 'b': their l2 distance overflows a double\n"
    )


def test_a_spec_tol_shares_the_built_matrix(tmp_path, monkeypatch):
    from atsuji import cli

    built, build = [], cli.build_space
    monkeypatch.setattr(cli, "build_space", lambda specs: built.append(build(specs)) or built[0])
    points = [{"id": "a", "coords": {"1": 1.0}}, {"id": "b", "coords": {"2": 1.0}}]
    spec = write_spec(tmp_path, {"space": {"kind": "points_l2", "points": points}, "tol": 0.25})
    space, *_ = cli.load_spec(spec)
    assert space.tol == 0.25
    assert space.dist is built[0].dist


def test_a_tol_flag_shares_the_loaded_matrix(tmp_path, monkeypatch, capsys):
    from atsuji import cli

    loaded, load = [], cli.load_spec
    monkeypatch.setattr(cli, "load_spec", lambda path: loaded.append(load(path)) or loaded[0])
    seen, net = [], cli._COMMANDS["net"]
    monkeypatch.setitem(cli._COMMANDS, "net",
                        lambda space, *rest: seen.append(space) or net(space, *rest))
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    assert main(["net", spec, "--eps", "0.5", "--tol", "0.125"]) == 0
    assert seen[0].tol == 0.125
    assert seen[0].dist is loaded[0][0].dist


# --- schema 2: an inline payload is echoed as the sha256 of its canonical bytes


def test_matrix_echo_is_the_digest_of_its_float64_bytes(tmp_path):
    matrix = [[0, 1, 2.5], [1, 0, 1.5], [2.5, 1.5, 0]]  # int entries are floats too
    spec = write_spec(tmp_path, {**matrix_spec(["a", "b", "c"], matrix), "tol": 1e-9})
    code, report = run_to_file(tmp_path, ["check-metric", spec])
    assert code == 0 and report["schema_version"] == 2
    digest = hashlib.sha256(np.asarray(matrix, dtype="<f8")).hexdigest()
    assert report["inputs"]["spec"] == {
        "space": {"kind": "matrix", "ids": ["a", "b", "c"],
                  "matrix": {"kind": "float64-le", "n": 3, "sha256": digest}},
        "tol": 1e-9,
    }


def test_points_echo_is_the_digest_of_their_compact_json(tmp_path):
    # the digest is of the parsed points, so the file's layout and number
    # spellings do not enter it; every other field is echoed verbatim
    spec = tmp_path / "spec.json"
    spec.write_text('{"comment": [1, {"x": null}], "space": {"kind": "points_l2", "points": [\n'
                    '  {"id": "a", "coords": {"1": 1.50e0}, "note": "\\u00e9"},\n'
                    '  {"id": "b", "coords": {"2": 2}}]}, "derived_set": {"kind": "empty"}}',
                    encoding="utf-8")
    points = json.loads(spec.read_text(encoding="utf-8"))["space"]["points"]
    compact = '[{"id":"a","coords":{"1":1.5},"note":"\\u00e9"},{"id":"b","coords":{"2":2}}]'
    assert json.dumps(points, separators=(",", ":"), allow_nan=False) == compact
    code, report = run_to_file(tmp_path, ["net", str(spec), "--eps", "0.5"])
    assert code == 0
    digest = hashlib.sha256(compact.encode("ascii")).hexdigest()
    assert report["inputs"]["spec"] == {
        "comment": [1, {"x": None}],
        "space": {"kind": "points_l2",
                  "points": {"kind": "json-compact", "n": 2, "sha256": digest}},
        "derived_set": {"kind": "empty"},
    }


def test_out_matrix_echo_is_the_digest_of_the_reports_newdist(tmp_path):
    spec = write_spec(tmp_path, builtin("sequence_grid_E", i_max=3, j_max=4, include_origin=True))
    out_matrix = tmp_path / "m.json"
    code, first = run_to_file(tmp_path, ["remetrize", spec, "--out-matrix", str(out_matrix)])
    assert code == 0
    assert first["inputs"]["spec"] == json.loads(Path(spec).read_text(encoding="utf-8"))
    code, second = run_to_file(tmp_path, ["check-metric", str(out_matrix)], name="second.json")
    assert code == 0
    newdist = first["result"]["newdist"]
    values = np.array([list(row.values()) for row in newdist.values()], dtype="<f8")
    assert second["inputs"]["spec"]["space"]["matrix"] == {
        "kind": "float64-le", "n": len(newdist), "sha256": hashlib.sha256(values).hexdigest(),
    }


def test_load_spec_keeps_only_the_matrix_of_a_matrix_spec(tmp_path):
    """Neither the spec's text nor its parsed lists outlive load_spec: the
    text is freed before the space is built, and the echo holds a digest."""
    n = 300
    coords = np.random.default_rng(0).random((n, 3))
    matrix = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(axis=2))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(matrix_spec([f"p{k}" for k in range(n)], matrix.tolist())),
                    encoding="utf-8")
    del coords, matrix
    tracemalloc.start()
    try:
        loaded = cli.load_spec(str(spec))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded[0].n == n
    # the text is 2.5 matrices and the parsed lists 4; holding the text
    # while building, as before, peaked at 7.59 matrices and held 5.07
    assert held < 1.5 * 8 * n * n
    assert peak < 7.0 * 8 * n * n
