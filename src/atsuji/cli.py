"""Command-line interface: load a space spec file, run one operation, and
emit a deterministic JSON report.

Spec files are JSON with a ``space`` arm (``builtin``, ``points_l2``, or
``matrix``), an optional ``derived_set`` arm (``oracle``, ``detect``, or
``empty``; defaults to the builtin's bundled oracle, else empty), and an
optional ``tol``.  Reports serialize with a fixed field order and full
round-trip float precision, so identical invocations are byte-identical.
Exit codes: 0 success/PASS, 1 FAIL verdict (or witness found), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

from . import __version__
from .analysis import (
    DEFAULT_EPS_GRID,
    DEFAULT_THRESHOLD,
    AtsujiVerdict,
    DerivedSetView,
    IsolationReport,
    atsuji_check,
    detect_limit_points,
    greedy_epsilon_net,
)
from .functions import (
    SampledFunction,
    WitnessPair,
    parity_function,
    separator,
    uc_witness_search,
)
from .generators import convergent_sequence, positive_integers, sequence_grid
from .remetrize import remetrize, verify_isolation_bound, verify_same_topology
from .space import (
    AxiomReport,
    FiniteSpace,
    PointSpec,
    build_space,
    verify_metric_axioms,
)

SCHEMA_VERSION = 1

_BUILTIN_PARAMS = {
    "sequence_grid_E": ("i_max", "j_max", "include_origin"),
    "positive_integers": ("n_max", "metric"),
    "convergent_sequence": ("n_max",),
}


class SpecError(Exception):
    """A malformed spec file; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _require(data: dict, field: str, context: str) -> Any:
    if field not in data:
        raise SpecError(f"{context}.{field}", "missing required field")
    return data[field]


def _param(params: dict, field: str, kind: type, default: Any = None) -> Any:
    """A builtin parameter of exactly JSON type ``kind`` (so true is not an
    int), never coerced."""
    if field not in params and default is not None:
        return default
    value = _require(params, field, "space.params")
    if type(value) is not kind:
        raise SpecError(f"space.params.{field}", f"must be a JSON {kind.__name__}, got {value!r}")
    return value


def _finite(value: Any, field: str, positive: bool = False) -> float:
    """A spec or command-line number.  Infinities (a spec's 1e400 included)
    and NaN are rejected: the report echoes its inputs and JSON has neither."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise SpecError(field, "must be a number") from None
    if not math.isfinite(number):
        raise SpecError(field, f"must be finite, got {value!r}")
    if positive and not number > 0:
        raise SpecError(field, f"must be positive, got {number!r}")
    return number


def _known_ids(space: FiniteSpace, ids: list[str], field: str) -> list[str]:
    known = set(space.ids)
    missing = sorted(i for i in ids if i not in known)
    if missing:
        raise SpecError(field, f"not points of the space: {missing}")
    return ids


def _build_builtin(spec: dict) -> tuple[FiniteSpace, DerivedSetView]:
    name = _require(spec, "name", "space")
    params = spec.get("params", {})
    if name not in _BUILTIN_PARAMS:
        raise SpecError("space.name", f"unknown builtin {name!r}; "
                        f"expected one of {sorted(_BUILTIN_PARAMS)}")
    if not isinstance(params, dict):
        raise SpecError("space.params", "must be an object")
    unknown = sorted(set(params) - set(_BUILTIN_PARAMS[name]))
    if unknown:
        raise SpecError("space.params", f"unknown parameters {unknown} for {name!r}")
    try:
        if name == "sequence_grid_E":
            return sequence_grid(
                _param(params, "i_max", int),
                _param(params, "j_max", int),
                _param(params, "include_origin", bool),
            )
        if name == "positive_integers":
            return positive_integers(
                _param(params, "n_max", int), _param(params, "metric", str, "d1")
            )
        return convergent_sequence(_param(params, "n_max", int))
    except (ValueError, TypeError) as exc:
        raise SpecError("space.params", str(exc)) from exc


def _build_points(spec: dict) -> FiniteSpace:
    points = _require(spec, "points", "space")
    if not isinstance(points, list) or not points:
        raise SpecError("space.points", "must be a nonempty list")
    specs = []
    for k, entry in enumerate(points):
        if not isinstance(entry, dict) or "id" not in entry:
            raise SpecError(f"space.points[{k}]", "must be an object with an 'id'")
        coords_raw = entry.get("coords", {})
        if not isinstance(coords_raw, dict):
            raise SpecError(f"space.points[{k}].coords", "must be an object")
        coords = {}
        for slot, value in coords_raw.items():
            try:
                coords[int(slot)] = float(value)
            except (TypeError, ValueError):
                raise SpecError(
                    f"space.points[{k}].coords",
                    f"slot {slot!r} must map an integer >= 1 to a number",
                ) from None
        specs.append(PointSpec(str(entry["id"]), coords))
    try:
        return build_space(specs)
    except ValueError as exc:
        raise SpecError("space.points", str(exc)) from exc


def _build_matrix(spec: dict) -> FiniteSpace:
    ids = _require(spec, "ids", "space")
    matrix = _require(spec, "matrix", "space")
    if not isinstance(ids, list) or not ids:
        raise SpecError("space.ids", "must be a nonempty list of point ids")
    if not isinstance(matrix, list) or len(matrix) != len(ids):
        raise SpecError("space.matrix", f"must be a {len(ids)}x{len(ids)} array")
    try:
        rows = [[float(v) for v in row] for row in matrix]
    except (TypeError, ValueError):
        raise SpecError("space.matrix", "entries must be numbers") from None
    if any(len(row) != len(ids) for row in rows):
        raise SpecError("space.matrix", f"every row must have {len(ids)} entries")
    try:
        return FiniteSpace(ids=tuple(str(i) for i in ids), dist=rows)
    except ValueError as exc:
        raise SpecError("space", str(exc)) from exc


def load_spec(path: str) -> tuple[FiniteSpace, DerivedSetView, dict, str]:
    """Parse and validate a spec file; returns (space, derived, echo, kind)."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError("spec_path", str(exc)) from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SpecError("spec", f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise SpecError("spec", "invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise SpecError("spec", "top level must be an object")

    space_spec = _require(data, "space", "spec")
    if not isinstance(space_spec, dict):
        raise SpecError("space", "must be an object")
    kind = _require(space_spec, "kind", "space")

    oracle: DerivedSetView | None = None
    if kind == "builtin":
        space, oracle = _build_builtin(space_spec)
    elif kind == "points_l2":
        space = _build_points(space_spec)
    elif kind == "matrix":
        space = _build_matrix(space_spec)
    else:
        raise SpecError("space.kind", f"unknown kind {kind!r}; "
                        "expected 'builtin', 'points_l2', or 'matrix'")

    if data.get("tol") is not None:
        space = replace(space, tol=_finite(data["tol"], "tol", positive=True))

    derived_spec = data.get("derived_set")
    if derived_spec is None:
        derived = oracle if oracle is not None else DerivedSetView("oracle", frozenset())
    else:
        if not isinstance(derived_spec, dict):
            raise SpecError("derived_set", "must be an object")
        dkind = _require(derived_spec, "kind", "derived_set")
        if dkind == "oracle":
            ids = _require(derived_spec, "ids", "derived_set")
            if not isinstance(ids, list):
                raise SpecError("derived_set.ids", "must be a list of point ids")
            ids = _known_ids(space, [str(i) for i in ids], "derived_set.ids")
            derived = DerivedSetView("oracle", frozenset(ids))
        elif dkind == "detect":
            radius = _require(derived_spec, "radius", "derived_set")
            radius = _finite(radius, "derived_set.radius", positive=True)
            derived = detect_limit_points(space, radius)
        elif dkind == "empty":
            derived = DerivedSetView("oracle", frozenset())
        else:
            raise SpecError("derived_set.kind", f"unknown kind {dkind!r}; "
                            "expected 'oracle', 'detect', or 'empty'")

    return space, derived, data, kind


# --- report serialization ------------------------------------------------

def _num(value: float) -> float | None:
    """math.inf serializes as null (JSON has no infinity)."""
    return None if math.isinf(value) else float(value)


def _witness_obj(w: WitnessPair | None) -> dict | None:
    if w is None:
        return None
    return {"x": w.x, "y": w.y, "distance": _num(w.distance), "gap": _num(w.gap)}


def _pair_obj(pair: tuple[str, str] | None) -> list[str] | None:
    return None if pair is None else [pair[0], pair[1]]


def _isolation_obj(rep: IsolationReport) -> dict:
    return {"eta": _num(rep.eta), "witness": _pair_obj(rep.witness)}


def _axiom_obj(space: FiniteSpace, report: AxiomReport) -> dict:
    return {
        "passed": report.passed,
        "violations": [
            {
                "kind": v.kind,
                "indices": list(v.where),
                "ids": [space.ids[k] for k in v.where],
                "magnitude": v.magnitude,
            }
            for v in report.violations
        ],
    }


def _verdict_obj(verdict: AtsujiVerdict) -> dict:
    return {
        "status": verdict.status,
        "net_sizes": {repr(e): verdict.net_sizes[e] for e in verdict.net_sizes},
        "isolation": {repr(e): _isolation_obj(verdict.isolation[e]) for e in verdict.isolation},
        "fail_witness": _witness_obj(verdict.fail_witness),
    }


def _matrix_obj(space: FiniteSpace, matrix) -> dict:
    # row by row: a whole-matrix tolist() would hold n^2 list slots at once
    return {x: dict(zip(space.ids, row.tolist())) for x, row in zip(space.ids, matrix)}


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report(command: str, spec_path: str, spec_echo: dict, flags: dict,
            result: dict, witnesses: list, notes: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "inputs": {"spec_path": spec_path, "spec": spec_echo, "flags": flags},
        "result": result,
        "witnesses": witnesses,
        "notes": notes,
    }


# --- commands -------------------------------------------------------------

def _parse_id_list(raw: str, space: FiniteSpace, flag: str) -> list[str]:
    ids = [s for s in (part.strip() for part in raw.split(",")) if s]
    if not ids:
        raise SpecError(flag, "expected a comma-separated list of point ids")
    return _known_ids(space, ids, flag)


def _make_function(space: FiniteSpace, args) -> SampledFunction:
    if args.fn == "parity":
        return parity_function(space)
    if args.fn == "identity":
        values = {p: float(k) for k, p in enumerate(space.ids)}
        return SampledFunction(values=values, label="identity")
    if args.fn == "const":
        return SampledFunction(values={p: 0.0 for p in space.ids}, label="const")
    # separator
    if not args.a or not args.b:
        raise SpecError("--fn", "separator requires --a and --b")
    return separator(
        space,
        _parse_id_list(args.a, space, "--a"),
        _parse_id_list(args.b, space, "--b"),
    )


def _validate_matrix_arm(command: str, kind: str, space: FiniteSpace) -> None:
    """Matrix-arm specs must satisfy the axioms at load (builtin and points_l2
    spaces are valid by construction); check-metric is itself the validator."""
    if kind != "matrix" or command == "check-metric":
        return
    report = verify_metric_axioms(space)
    if not report.passed:
        v = report.violations[0]
        raise SpecError(
            "space.matrix",
            f"violates the {v.kind} axiom at indices {tuple(v.where)} "
            f"(magnitude {v.magnitude!r})",
        )


def _cmd_check_metric(space, derived, args, spec_echo) -> tuple[dict, int]:
    report = verify_metric_axioms(space)
    result = _axiom_obj(space, report)
    code = 0 if report.passed else 1
    return _report("check-metric", args.spec, spec_echo, {"tol": space.tol},
                   result, [], []), code


def _cmd_atsuji(space, derived, args, spec_echo) -> tuple[dict, int]:
    entries = args.eps_grid.split(",") if args.eps_grid else DEFAULT_EPS_GRID
    grid = [_finite(s, "--eps-grid") for s in entries]
    threshold = _finite(args.threshold, "--threshold")
    verdict = atsuji_check(space, derived, grid, threshold)
    flags = {"eps_grid": grid, "threshold": threshold, "tol": space.tol}
    witnesses = [w for w in [_witness_obj(verdict.fail_witness)] if w is not None]
    code = 1 if verdict.status == "FAIL" else 0
    return _report("atsuji", args.spec, spec_echo, flags,
                   _verdict_obj(verdict), witnesses, list(verdict.notes)), code


def _cmd_remetrize(space, derived, args, spec_echo) -> tuple[dict, int]:
    result_space = remetrize(space, derived)
    new_space = result_space.space
    axioms = verify_metric_axioms(new_space)
    topology = verify_same_topology(result_space)
    bounds = {eta: verify_isolation_bound(result_space, eta) for eta in DEFAULT_EPS_GRID}

    result = {
        "empty_derived_fallback_used": result_space.empty_derived_fallback_used,
        "levels": {p: result_space.levels[p] for p in space.ids if p in result_space.levels},
        "newdist": _matrix_obj(space, result_space.newdist),
        "axioms": _axiom_obj(new_space, axioms),
        "same_topology": {
            "passed": topology.passed,
            "witness": _pair_obj(topology.witness),
            "failed_check": topology.failed_check,
        },
        "isolation_bounds": {
            repr(eta): {
                "passed": rep.passed,
                "n": rep.n,
                "witness": _pair_obj(rep.witness),
                "observed_eta": _num(rep.observed_eta),
            }
            for eta, rep in bounds.items()
        },
    }
    notes = []
    if result_space.empty_derived_fallback_used:
        notes.append("derived set empty: used the max(dist, 1) fallback metric")

    if args.out_matrix:
        members = sorted(derived.members, key=space.index)
        matrix_spec = {
            "space": {
                "kind": "matrix",
                "ids": list(space.ids),
                "matrix": result_space.newdist.tolist(),
            },
            "derived_set": (
                {"kind": "oracle", "ids": members} if members else {"kind": "empty"}
            ),
            "tol": space.tol,
        }
        Path(args.out_matrix).write_text(
            json.dumps(matrix_spec, indent=2, allow_nan=False) + "\n", encoding="utf-8"
        )

    ok = axioms.passed and topology.passed and all(r.passed for r in bounds.values())
    witnesses = [
        {"check": name, "pair": _pair_obj(pair)}
        for name, pair in [
            ("same_topology", topology.witness),
            *[(f"isolation_bound({eta!r})", rep.witness) for eta, rep in bounds.items()],
        ]
        if pair is not None
    ]
    flags = {"out_matrix": args.out_matrix, "tol": space.tol}
    return _report("remetrize", args.spec, spec_echo, flags, result, witnesses, notes), (
        0 if ok else 1
    )


def _cmd_witness(space, derived, args, spec_echo) -> tuple[dict, int]:
    eps0, delta = _finite(args.eps0, "--eps0"), _finite(args.delta, "--delta")
    f = _make_function(space, args)
    pair = uc_witness_search(space, f, eps0, delta)
    flags = {"fn": args.fn, "eps0": eps0, "delta": delta, "tol": space.tol}
    if args.fn == "separator":
        flags["a"] = args.a
        flags["b"] = args.b
    result = {"function": f.label, "found": pair is not None, "witness": _witness_obj(pair)}
    witnesses = [w for w in [_witness_obj(pair)] if w is not None]
    return _report("witness", args.spec, spec_echo, flags, result, witnesses, []), (
        1 if pair is not None else 0
    )


def _cmd_separator(space, derived, args, spec_echo) -> tuple[dict, int]:
    f = separator(
        space,
        _parse_id_list(args.a, space, "--a"),
        _parse_id_list(args.b, space, "--b"),
    )
    result = {"label": f.label, "values": {p: f.values[p] for p in space.ids}}
    flags = {"a": args.a, "b": args.b, "tol": space.tol}
    return _report("separator", args.spec, spec_echo, flags, result, [], []), 0


def _cmd_net(space, derived, args, spec_echo) -> tuple[dict, int]:
    eps = _finite(args.eps, "--eps", positive=True)
    net = greedy_epsilon_net(space, space.ids, eps)
    result = {"eps": eps, "size": len(net), "net": net}
    return _report("net", args.spec, spec_echo, {"eps": eps, "tol": space.tol},
                   result, [], []), 0


_COMMANDS = {
    "check-metric": _cmd_check_metric,
    "atsuji": _cmd_atsuji,
    "remetrize": _cmd_remetrize,
    "witness": _cmd_witness,
    "separator": _cmd_separator,
    "net": _cmd_net,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atsuji",
        description="Decide, with witnesses, whether a finite metric space "
        "satisfies the uniform-continuity characterization, and remetrize it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="path to a JSON space spec file")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--tol", help="override the comparison tolerance")

    p = sub.add_parser("check-metric", help="verify the metric axioms exhaustively")
    common(p)

    p = sub.add_parser("atsuji", help="run the characterization check")
    common(p)
    p.add_argument("--eps-grid", help="comma-separated positive scales "
                   "(default: 2^0 down to 2^-10)")
    p.add_argument("--threshold", default=DEFAULT_THRESHOLD,
                   help="isolation below this fails the check (default %(default)s)")

    p = sub.add_parser("remetrize", help="build the equivalent uniformly "
                       "continuous metric and verify its guarantees")
    common(p)
    p.add_argument("--out-matrix", help="also write the new matrix as a "
                   "reloadable matrix-arm spec file")

    p = sub.add_parser("witness", help="search for a uniform-continuity "
                       "failure witness of a named function")
    common(p)
    p.add_argument("--fn", required=True, choices=["parity", "identity", "const", "separator"])
    p.add_argument("--eps0", required=True, help="minimum value gap")
    p.add_argument("--delta", required=True, help="maximum distance")
    p.add_argument("--a", help="comma-separated ids (separator only)")
    p.add_argument("--b", help="comma-separated ids (separator only)")

    p = sub.add_parser("separator", help="evaluate the two-set ratio function")
    common(p)
    p.add_argument("--a", required=True, help="comma-separated ids of the zero set")
    p.add_argument("--b", required=True, help="comma-separated ids of the one set")

    p = sub.add_parser("net", help="greedy eps-net of the whole space")
    common(p)
    p.add_argument("--eps", required=True, help="net radius")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        space, derived, spec_echo, kind = load_spec(args.spec)
        if args.tol is not None:
            space = replace(space, tol=_finite(args.tol, "--tol", positive=True))
        _validate_matrix_arm(args.command, kind, space)
        report, code = _COMMANDS[args.command](space, derived, args, spec_echo)
        _emit(report, args.out)
    except (SpecError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
