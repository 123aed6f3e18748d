import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atsuji import FiniteSpace, convergent_sequence, remetrize, verify_metric_axioms
from atsuji import cli
from atsuji import space as space_module
from atsuji.cli import main
from atsuji.space import _ROW_BLOCK
from test_remetrize import full_listing, shortest_path_metric


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
    # load gate's scan alone, since parsing the spec already peaks near 1 MB.
    n = 120
    rng = np.random.default_rng(3)
    d = np.triu(rng.uniform(0.0, 1.0, (n, n)), k=1)
    d = d + d.T
    ids = [f"p{k}" for k in range(n)]
    spec = write_spec(tmp_path, {"space": {"kind": "matrix", "ids": ids, "matrix": d.tolist()}})
    validate, peaks = cli.verify_metric_axioms, []

    def traced_validate(*args, **kwargs):
        tracemalloc.start()
        try:
            return validate(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cli, "verify_metric_axioms", traced_validate)
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


TOL_POINTS = [{"id": "a"}, {"id": "b", "coords": {"1": 1e-6}}, {"id": "c", "coords": {"1": 1.0}}]
TOL_MATRIX = [[0.0, 1e-6, 1.0], [1e-6, 0.0, 1.0 - 1e-6], [1.0, 1.0 - 1e-6, 0.0]]
TOL_ARGV = {
    "atsuji": [],
    "remetrize": [],
    "witness": ["--fn", "const", "--eps0", "1", "--delta", "1"],
    "separator": ["--a", "a", "--b", "c"],
    "net": ["--eps", "0.5"],
}


@pytest.mark.parametrize("command", sorted(TOL_ARGV))
@pytest.mark.parametrize("tol_field", ["tol", "--tol"])
def test_points_within_the_run_tol_are_input_error(tmp_path, capsys, command, tol_field):
    # build_space keeps points more than DEFAULT_TOL apart; a larger tol must
    # hold a points_l2 space to the identity axiom as it holds a matrix
    payload = points_spec(TOL_POINTS)
    argv = [command, write_spec(tmp_path, payload), *TOL_ARGV[command]]
    if tol_field == "tol":
        write_spec(tmp_path, {**payload, "tol": 1e-3})
    else:
        argv += ["--tol", "1e-3"]
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: {tol_field}: points 'a' and 'b' are indiscernible (distance 1e-06 <= tol 0.001)\n"
    )


@pytest.mark.parametrize("payload, message", [
    ({"space": {"kind": "matrix", "ids": ["a", "b", "c"], "matrix": TOL_MATRIX}, "tol": 1e-3},
     "space.matrix: violates the identity axiom at indices (0, 1) (magnitude 0.000999)"),
    ({**builtin("convergent_sequence", n_max=30), "tol": 1e-2},
     "tol: points 'n10' and 'n11' are indiscernible (distance 0.009090909090909094 <= tol 0.01)"),
], ids=["matrix", "builtin"])
def test_every_arm_is_held_to_identity_at_the_run_tol(tmp_path, capsys, payload, message):
    assert main(["atsuji", write_spec(tmp_path, payload)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_points_l2_below_the_default_tol_are_held_to_the_default(tmp_path, capsys):
    # build_space keeps points more than DEFAULT_TOL apart, whatever the run's
    # tol: two points 5e-13 apart exit 2 at --tol 1e-15, naming a tol that the
    # run does not use, while the same distances as a matrix spec load
    points = [{"id": "a", "coords": {}}, {"id": "b", "coords": {"1": 5e-13}}]
    spec = write_spec(tmp_path, points_spec(points))
    assert main(["net", spec, "--eps", "1", "--tol", "1e-15"]) == 2
    assert capsys.readouterr().err == (
        "error: space.points: points 'a' and 'b' are indiscernible (distance 5e-13 <= tol 1e-12)\n"
    )
    spec = write_spec(tmp_path, matrix_spec(["a", "b"], [[0, 5e-13], [5e-13, 0]]))
    code, report = run_to_file(tmp_path, ["net", spec, "--eps", "1", "--tol", "1e-15"])
    assert code == 0 and report["result"]["size"] == 1


def test_a_points_l2_spec_loads_on_its_excess_bound_not_on_a_scan(tmp_path):
    # the load gate holds points_l2 and builtin arms to identity only; their
    # triangle inequality rests on build_space's excess bound, which the
    # absolute tol cannot cover at large coordinates.  check-metric and
    # remetrize scan and list false violations, while atsuji loads and passes
    # (README's caveat; the ROADMAP item "Axiom comparisons at the matrix's
    # scale" flips the first two)
    xs = np.random.default_rng(1).uniform(0, 1e5, 60)
    points = [{"id": f"x{k}", "coords": {"1": float(x)}} for k, x in enumerate(xs)]
    spec = write_spec(tmp_path, {**points_spec(points), "derived_set": {"kind": "empty"}})
    code, report = run_to_file(tmp_path, ["check-metric", spec])
    assert code == 1
    assert {v["kind"] for v in report["result"]["violations"]} == {"triangle"}
    assert len(report["result"]["violations"]) == 2014
    assert run_to_file(tmp_path, ["remetrize", spec])[0] == 1
    code, report = run_to_file(tmp_path, ["atsuji", spec])
    assert (code, report["result"]["status"]) == (0, "PASS")


def test_check_metric_lists_points_within_the_run_tol(tmp_path):
    payload = {**points_spec(TOL_POINTS), "tol": 1e-3}
    code, report = run_to_file(tmp_path, ["check-metric", write_spec(tmp_path, payload)])
    assert code == 1
    assert [(v["kind"], v["ids"]) for v in report["result"]["violations"]] == [
        ("identity", ["a", "b"])
    ]


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


# two pairs 0.125 apart: (c, d) only in the complement at eps 0.5, (a, b) at
# both scales, so both grid entries reach the least isolation
TIED_SCALES = [{"id": "c", "coords": {"1": 0.5}}, {"id": "d", "coords": {"1": 0.625}},
               {"id": "a", "coords": {"1": 4.0}}, {"id": "b", "coords": {"1": 4.125}},
               {"id": "z"}]


@pytest.mark.parametrize("grid", ["1,0.5", "0.5,1"], ids=["descending", "ascending"])
def test_atsuji_fail_witness_does_not_depend_on_the_eps_grid_order(tmp_path, grid):
    payload = {**points_spec(TIED_SCALES), "derived_set": {"kind": "oracle", "ids": ["z"]}}
    spec = write_spec(tmp_path, payload)
    code, report = run_to_file(tmp_path, ["atsuji", spec, "--eps-grid", grid,
                                          "--threshold", "0.2"])
    assert code == 1
    assert report["result"]["fail_witness"] == {"x": "a", "y": "b", "distance": 0.125, "gap": 0.0}
    assert report["notes"][1:] == ["isolation 0.125 at eps 1.0 fell below threshold 0.2"]


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


def test_remetrize_lists_the_witness_of_each_failed_guarantee(tmp_path, monkeypatch):
    # remetrize's output satisfies every guarantee, so the checks are made to fail
    from atsuji.remetrize import IsolationBoundReport, TopologyReport

    monkeypatch.setattr(cli, "verify_same_topology", lambda result: TopologyReport(
        passed=False, witness=("n1", "n2"), failed_check="domination"))
    monkeypatch.setattr(cli, "verify_isolation_bound", lambda result, eta: IsolationBoundReport(
        passed=eta != 0.5, n=2, witness=None if eta != 0.5 else ("n2", "n3"), observed_eta=eta))
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    code, report = run_to_file(tmp_path, ["remetrize", spec])
    assert code == 1
    assert report["witnesses"] == [
        {"check": "same_topology", "pair": ["n1", "n2"]},
        {"check": "isolation_bound(0.5)", "pair": ["n2", "n3"]},
    ]
    assert report["result"]["same_topology"]["failed_check"] == "domination"
    assert report["result"]["isolation_bounds"]["0.5"]["passed"] is False


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


@pytest.mark.parametrize("flags", [["--a", "nope"], ["--b", "zz"], ["--a", "nope", "--b", "zz"]],
                         ids=["a", "b", "both"])
@pytest.mark.parametrize("fn", ["parity", "identity", "const"])
def test_witness_rejects_separator_sets_for_other_functions(tmp_path, capsys, fn, flags):
    spec = write_spec(tmp_path, builtin("sequence_grid_E", i_max=3, j_max=3,
                                        include_origin=False))
    out = tmp_path / "report.json"
    argv = ["witness", spec, "--fn", fn, "--eps0", "0.5", "--delta", "1", *flags]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flags[0]}: applies only to --fn separator\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, argv, message",
    [
        (builtin("convergent_sequence", n_max=5),
         ["witness", "{spec}", "--fn", "parity", "--eps0", "0.5", "--delta", "1"],
         "--fn: point id 'zero' does not encode grid indices p_<i>_<j>"),
        ({"space": {"kind": "matrix", "ids": ["p_1_1", "p_1_2\n"], "matrix": [[0, 1], [1, 0]]}},
         ["witness", "{spec}", "--fn", "parity", "--eps0", "0.5", "--delta", "2"],
         "--fn: point id 'p_1_2\\n' does not encode grid indices p_<i>_<j>"),
        ({"space": {"kind": "matrix", "ids": ["p_1_1", "p_\u0661_3"], "matrix": [[0, 1], [1, 0]]}},
         ["witness", "{spec}", "--fn", "parity", "--eps0", "0.5", "--delta", "2"],
         "--fn: point id 'p_\u0661_3' does not encode grid indices p_<i>_<j>"),
        (builtin("sequence_grid_E", i_max=3, j_max=3, include_origin=False),
         ["separator", "{spec}", "--a", "p_1_1", "--b", "p_1_1"],
         "--b: A and B must be disjoint; shared points: ['p_1_1']"),
        (builtin("sequence_grid_E", i_max=3, j_max=3, include_origin=False),
         ["witness", "{spec}", "--fn", "separator", "--eps0", "0.5", "--delta", "1",
          "--a", "p_1_1,p_1_2", "--b", "p_1_2"],
         "--b: A and B must be disjoint; shared points: ['p_1_2']"),
    ],
    ids=["parity-off-grid", "parity-trailing-newline", "parity-arabic-digit", "separator-shared",
         "witness-separator-shared"],
)
def test_a_function_that_cannot_be_built_names_its_flag(tmp_path, capsys, payload, argv, message):
    spec = write_spec(tmp_path, payload)
    assert main([spec if a == "{spec}" else a for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_separator_reads_point_ids_exactly_as_written(tmp_path):
    # " a" is a point of its own; trimming the flag would name "a" instead
    spec = write_spec(tmp_path, {"space": {"kind": "matrix", "ids": ["a", " a", "b"],
                                           "matrix": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]}})
    code, report = run_to_file(tmp_path, ["separator", spec, "--a", " a", "--b", "b"])
    assert code == 0
    assert report["result"]["values"] == {"a": 1 / 3, " a": 0.0, "b": 1.0}


def test_separator_at_the_top_of_the_double_range(tmp_path):
    # d(c, A) + d(c, B) = 2e308 is beyond the largest double; the value is 1/2
    big = 1e308
    spec = write_spec(tmp_path, {"space": {"kind": "matrix", "ids": ["a", "b", "c"],
                                           "matrix": [[0, big, big], [big, 0, big], [big, big, 0]]}})
    code, report = run_to_file(tmp_path, ["separator", spec, "--a", "a", "--b", "b"])
    assert code == 0
    assert report["result"]["values"] == {"a": 0.0, "b": 1.0, "c": 0.5}


@pytest.mark.parametrize(
    "raw, missing",
    [("ghost", ["ghost"]), ("zero, n1", [" n1"]), ("zero,", [""]), ("", [""])],
    ids=["unknown", "padded", "trailing-comma", "empty"],
)
def test_separator_id_entries_that_are_not_points_exit_2(capsys, raw, missing):
    spec = str(Path(__file__).parent / "golden" / "sequence.spec.json")
    assert main(["separator", spec, "--a", raw, "--b", "n2"]) == 2
    assert capsys.readouterr().err == f"error: --a: not points of the space: {missing!r}\n"


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


def test_a_closed_stdout_pipe_keeps_the_exit_code(tmp_path):
    # the report (2.7 MB) is far larger than a pipe buffer, so the reader
    # closes the pipe while the report is still being written
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=300))
    argv = [sys.executable, "-m", "atsuji", "remetrize", spec]
    to_devnull = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    assert (to_devnull.returncode, to_devnull.stderr) == (0, b"")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with proc:
        assert proc.stdout.read(10) == b'{\n  "schem'
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert (proc.wait(timeout=120), stderr) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_stdout_write_error_other_than_a_closed_pipe_is_not_handled():
    spec = str(Path(__file__).parent / "golden" / "sequence.spec.json")
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "atsuji", "net", spec, "--eps", "0.5"],
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == 1
    assert "OSError: [Errno 28]" in proc.stderr


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


@pytest.mark.parametrize(
    "space, line",
    [
        ({"name": "sequence_grid_E", "params": {"j_max": 3}},
         "space.params.i_max: missing required field"),
        ({"name": "sequence_grid_E", "params": {"i_max": 3, "j_max": 3}},
         "space.params.include_origin: missing required field"),
        ({"name": "convergent_sequence"}, "space.params.n_max: missing required field"),
        ({"name": "sequence_grid_E", "params": {"i_max": 3, "j_max": "3", "include_origin": True}},
         "space.params.j_max: must be a JSON int, got '3'"),
        # unknown keys first, then each parameter in call order, then the
        # generator's own range checks
        ({"name": "sequence_grid_E", "params": {"k": 1, "i_max": "3"}},
         "space.params: unknown parameters ['k'] for 'sequence_grid_E'"),
        ({"name": "sequence_grid_E", "params": {"i_max": 0, "j_max": "3"}},
         "space.params.j_max: must be a JSON int, got '3'"),
        ({"name": "sequence_grid_E", "params": {"i_max": 0, "j_max": 3, "include_origin": True}},
         "space.params: i_max and j_max must be >= 1, got (0, 3)"),
        ({"name": "positive_integers", "params": {"n_max": 10, "metric": "d3"}},
         "space.params: metric must be 'd1' or 'd2', got 'd3'"),
    ],
    ids=["i_max-missing", "include_origin-missing", "no-params", "j_max-string",
         "unknown-before-types", "types-before-ranges", "range", "metric-range"],
)
def test_builtin_param_errors_name_the_field(tmp_path, capsys, space, line):
    spec = write_spec(tmp_path, {"space": {"kind": "builtin", **space}})
    assert main(["check-metric", spec]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


def test_positive_integers_metric_defaults_to_d1(tmp_path):
    reports = []
    for payload in (builtin("positive_integers", n_max=20),
                    builtin("positive_integers", n_max=20, metric="d1")):
        code, report = run_to_file(tmp_path, ["atsuji", write_spec(tmp_path, payload)])
        assert code == 0
        reports.append(report["result"])
    assert reports[0] == reports[1]
    assert reports[0]["isolation"]["1.0"]["eta"] == 1.0


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
    "payload, message",
    [
        ({**builtin("convergent_sequence", n_max=5), "tol": None},
         "tol: must be a JSON number, got None"),
        ({**builtin("convergent_sequence", n_max=5), "derived_set": None},
         "derived_set: must be a JSON object, got None"),
        (points_spec([{"id": "a", "coords": {"0": 0.5}}, {"id": "b"}]),
         "space.points[0].coords: slot '0' must map an integer >= 1 to a number"),
        (points_spec([{"id": "a", "coords": {"00": 0.5}}, {"id": "b"}]),
         "space.points[0].coords: slot '00' must map an integer >= 1 to a number"),
    ],
    ids=["tol-null", "derived-set-null", "slot-zero", "slot-zero-zero"],
)
def test_optional_spec_fields_are_read_strictly(tmp_path, capsys, payload, message):
    # null is a value, not an absent field, and slot 0 is not a slot
    spec = write_spec(tmp_path, payload)
    out = tmp_path / "report.json"
    assert main(["check-metric", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
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


def test_a_spec_that_is_not_utf8_is_invalid_json(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(b'{"space": \xff}')
    out = tmp_path / "report.json"
    assert main(["check-metric", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: spec: invalid JSON: 'utf-8' codec can't decode byte 0xff in position 10: "
        "invalid start byte\n"
    )
    assert not out.exists()


def test_points_l2_overlong_slot_is_input_error(tmp_path, capsys):
    # int() of a slot beyond Python's digit limit raises; the field is named first
    spec = write_spec(tmp_path, points_spec([
        {"id": "a", "coords": {"1" * 5000: 0.5}},
        {"id": "b", "coords": {"1": 0.7}},
    ]))
    assert main(["check-metric", spec]) == 2
    assert capsys.readouterr().err == (
        "error: space.points[0].coords: slot of 5000 characters is longer than 640 digits\n")


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
        (["check-metric", "{spec}", "--tol", "0"], "--tol: must be positive, got 0.0"),
        (["atsuji", "{spec}", "--threshold", "0"], "--threshold: must be positive, got 0.0"),
        (["atsuji", "{spec}", "--eps-grid", "1,nan"], "--eps-grid: must be finite, got 'nan'"),
        (["net", "{spec}", "--eps", "abc"], "--eps: must be a number"),
        (["witness", "{spec}", "--fn", "const", "--eps0=-1", "--eps0=0.5", "--delta", "1"],
         "--eps0: must be positive, got -1.0"),
        (["witness", "{spec}", "--fn", "const", "--eps0", "1", "--delta", "1e400"],
         "--delta: must be finite, got '1e400'"),
    ],
    ids=["tol", "threshold", "eps-grid", "eps", "repeated-eps0", "delta"],
)
def test_a_bad_flag_exits_2_before_the_spec_is_read(tmp_path, capsys, monkeypatch, argv, message):
    # the parser reads every occurrence of every flag, so a bad value costs no
    # spec load, build or validation
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    loaded, load = [], cli.load_spec
    monkeypatch.setattr(cli, "load_spec",
                        lambda path, *rest: loaded.append(path) or load(path, *rest))
    assert main([spec if a == "{spec}" else a for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert loaded == []



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


@pytest.mark.parametrize(
    "matrix_path", ["{out}", "{dir}/./report.json", "{dir}/sub/../report.json"],
    ids=["same", "dot", "dot-dot"],
)
def test_out_matrix_must_not_name_the_out_file(tmp_path, capsys, monkeypatch, matrix_path):
    # the matrix would overwrite the report; refused before the spec is read
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    (tmp_path / "sub").mkdir()
    out = tmp_path / "report.json"
    matrix_path = matrix_path.format(out=out, dir=tmp_path)
    loaded, load = [], cli.load_spec
    monkeypatch.setattr(cli, "load_spec",
                        lambda path, *rest: loaded.append(path) or load(path, *rest))
    assert main(["remetrize", spec, "--out", str(out), "--out-matrix", matrix_path]) == 2
    assert capsys.readouterr().err == "error: --out-matrix: names the same file as --out\n"
    assert not out.exists() and loaded == []


def test_out_matrix_must_not_be_a_hard_link_to_the_out_file(tmp_path, capsys):
    # a hard link has its own real path; both paths exist, so they are compared as files
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    out, link = tmp_path / "h1.json", tmp_path / "h2.json"
    out.write_text("old", encoding="utf-8")
    os.link(out, link)
    assert main(["remetrize", spec, "--out", str(out), "--out-matrix", str(link)]) == 2
    assert capsys.readouterr().err == "error: --out-matrix: names the same file as --out\n"
    assert out.read_text(encoding="utf-8") == "old"


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["atsuji", "{spec}", "--eps-grid=", "--out", "{out}"], "--eps-grid: must be a number\n"),
        (["net", "{spec}", "--eps", "0.5", "--out="], "--out: "),
        (["remetrize", "{spec}", "--out-matrix=", "--out", "{out}"], "--out-matrix: "),
    ],
    ids=["eps-grid", "out", "out-matrix"],
)
def test_an_empty_flag_value_is_input_error(tmp_path, capsys, argv, message):
    # an empty value is a value: no default grid, no stdout, no skipped file
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    out = tmp_path / "report.json"
    argv = [{"{spec}": spec, "{out}": str(out)}.get(a, a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert captured.out == ""


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
        "error: space.points: points 'a' and 'b': their squared l2 distance overflows a double\n"
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
    monkeypatch.setattr(cli, "load_spec",
                        lambda *args: loaded.append(load(*args)) or loaded[0])
    built, build = [], cli.convergent_sequence
    monkeypatch.setattr(cli, "convergent_sequence",
                        lambda n_max: built.append(build(n_max)) or built[0])
    seen, net = [], cli._COMMANDS["net"]
    monkeypatch.setitem(cli._COMMANDS, "net",
                        lambda space, *rest: seen.append(space) or net(space, *rest))
    spec = write_spec(tmp_path, builtin("convergent_sequence", n_max=10))
    # below the least distance, 1/9 - 1/10, so no two points are indiscernible
    assert main(["net", spec, "--eps", "0.5", "--tol", "0.0078125"]) == 0
    assert seen[0].tol == 0.0078125
    assert seen[0].dist is loaded[0][0].dist
    assert seen[0].dist is built[0][0].dist


def test_a_spec_tol_and_a_tol_flag_adopt_the_matrix_for_the_run_tol_once(
    tmp_path, monkeypatch, capsys
):
    # the flag overrides the spec's tol, which is still validated: the loaded
    # matrix is adopted at the default tol, once at the flag's, and once more
    # by the load gate with its excess bound
    adopted, adopt = [], FiniteSpace._adopt

    def traced_adopt(ids, dist, *rest):
        adopted.append((dist, *rest))
        return adopt(ids, dist, *rest)

    monkeypatch.setattr(FiniteSpace, "_adopt", staticmethod(traced_adopt))
    matrix = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    spec = write_spec(tmp_path, {**matrix_spec(["a", "b", "c"], matrix), "tol": 0.125})
    code, report = run_to_file(tmp_path, ["net", spec, "--eps", "0.5", "--tol", "0.25"])
    assert code == 0 and report["inputs"]["flags"]["tol"] == 0.25
    assert [rest for _, *rest in adopted] == [[], [0.25, math.inf], [0.25, 0.25]]
    assert all(dist is adopted[0][0] for dist, *_ in adopted)
    spec = write_spec(tmp_path, {**matrix_spec(["a", "b", "c"], matrix), "tol": -1})
    assert main(["net", spec, "--eps", "0.5", "--tol", "0.25"]) == 2
    assert capsys.readouterr().err == "error: tol: must be positive, got -1.0\n"


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
    text is freed before the space is built, and the echo holds a digest.
    Measured is the parse, ungated: the gate's first threaded scan imports
    concurrent.futures, which ``held`` would count, depending on test order."""
    n = 300
    coords = np.random.default_rng(0).random((n, 3))
    matrix = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(axis=2))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(matrix_spec([f"p{k}" for k in range(n)], matrix.tolist())),
                    encoding="utf-8")
    del coords, matrix
    tracemalloc.start()
    try:
        loaded = cli.load_spec(str(spec), gate=False)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded[0].n == n
    # the text is 2.5 matrices and the parsed lists 4; holding the text
    # while building, as before, peaked at 7.59 matrices and held 5.07
    assert held < 1.5 * 8 * n * n
    assert peak < 7.0 * 8 * n * n


# --- a matrix spec's triangle inequality, decided at load once ---------------


@st.composite
def metric_matrix_specs(draw):
    """A matrix spec at tol 1e-12 or 1e-3, with a random derived set (empty
    included): an l2 table or a shortest-path metric, exactly symmetric, or
    with a few upper entries moved by up to a quarter of tol, so symmetric
    only within tol.  Not every one passes the load gate."""
    n = draw(st.integers(2, 3 * _ROW_BLOCK + 3))
    tol = draw(st.sampled_from([1e-12, 1e-3]))
    scale = 10.0 ** draw(st.integers(-1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = rng.uniform(-1.0, 1.0, (n, draw(st.integers(1, 3)))) * scale
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    else:
        weights = np.full((n, n), math.inf)
        np.fill_diagonal(weights, 0.0)
        for k in range(1, n):
            j = int(rng.integers(0, k))
            weights[k, j] = weights[j, k] = rng.uniform(0.01, 1.0) * scale
        d = shortest_path_metric(weights)
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 4))):
            i, j = sorted(int(v) for v in rng.choice(n, 2, replace=False))
            d[i, j] += rng.uniform(-0.25, 0.25) * tol
    ids = [f"p{k}" for k in range(n)]
    share = draw(st.sampled_from([0.0, 0.2, 0.6]))
    members = [p for p in ids if rng.random() < share]
    return {"space": {"kind": "matrix", "ids": ids, "matrix": d.tolist()},
            "derived_set": {"kind": "oracle", "ids": members}, "tol": tol}


def report_bytes(argv, out):
    code = main([*argv, "--out", out])
    with open(out, "rb") as report:
        return code, report.read()


@settings(max_examples=100, deadline=None)
@given(metric_matrix_specs())
def test_a_certified_matrix_spec_reports_what_the_full_scan_lists(spec):
    scan = space_module._violations
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        try:
            gated, derived, _ = cli.load_spec(path)
        except cli.SpecError:
            assume(False)
        assert gated._excess == gated.tol == spec["tol"]
        for checked in (gated, remetrize(gated, derived).space):
            assert verify_metric_axioms(checked) == full_listing(checked)
        # the command's report, with and without every bound ignored
        out = os.path.join(tmp, "report.json")
        certified = report_bytes(["remetrize", path], out)
        with mock.patch.object(space_module, "_violations", lambda d, tol, excess: scan(d, tol)):
            scanned = report_bytes(["remetrize", path], out)
    assert certified == scanned


def run_counting_blocks(argv):
    with mock.patch.object(
        space_module, "_triangle_block", wraps=space_module._triangle_block
    ) as block:
        code = main(argv)
    return code, block.call_count


def test_remetrize_on_a_symmetric_matrix_scans_only_at_load(tmp_path):
    n = 3 * _ROW_BLOCK + 3
    pts = np.random.default_rng(5).uniform(0.0, 1.0, (n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    ids = [f"p{k}" for k in range(n)]
    spec = write_spec(tmp_path, {**matrix_spec(ids, d.tolist()),
                                 "derived_set": {"kind": "oracle", "ids": ["p0"]}})
    out = tmp_path / "report.json"
    # every block is decided once, by the load gate; none for the output
    assert run_counting_blocks(["remetrize", spec, "--out", str(out)]) == (
        0, math.ceil(n / _ROW_BLOCK))
    assert json.loads(out.read_text())["result"]["axioms"] == {"passed": True, "violations": []}


def test_remetrize_on_a_matrix_symmetric_within_tol_scans_its_output(tmp_path):
    spec = str(Path(__file__).parent / "golden" / "within-tol-metric.spec.json")
    out = str(tmp_path / "report.json")
    blocks = math.ceil(len(json.loads(Path(spec).read_text())["space"]["ids"]) / _ROW_BLOCK)
    assert run_counting_blocks(["remetrize", spec, "--out", out]) == (0, 2 * blocks)


def test_large_coordinates_take_the_full_scan(tmp_path):
    # the two large-coordinate repros: their bounds are above tol, so their
    # false triangle violations are still found and listed
    xs = np.random.default_rng(1).uniform(0.0, 1e5, 60)
    one_slot = write_spec(tmp_path, points_spec(
        [{"id": f"p{k}", "coords": {"1": float(x)}} for k, x in enumerate(xs)]), "one-slot.json")
    collinear = write_spec(tmp_path, {**points_spec(
        [{"id": f"p{k}", "coords": {"1": 25000.0 * k, "2": 25000.0 * k}} for k in range(40)]),
        "derived_set": {"kind": "empty"}}, "collinear.json")
    out = str(tmp_path / "report.json")
    assert run_counting_blocks(["check-metric", one_slot, "--out", out]) == (
        1, math.ceil(60 / _ROW_BLOCK))
    assert run_counting_blocks(["remetrize", collinear, "--out", out]) == (
        1, math.ceil(40 / _ROW_BLOCK))
    axioms = json.loads(Path(out).read_text())["result"]["axioms"]
    assert not axioms["passed"] and {v["kind"] for v in axioms["violations"]} == {"triangle"}
