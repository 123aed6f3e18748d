"""Command-line interface: load a space spec file, run one operation, and
emit a deterministic JSON report.

Spec files are JSON with a ``space`` arm (``builtin``, ``points_l2``, or
``matrix``), an optional ``derived_set`` arm (``oracle``, ``detect``, or
``empty``; defaults to the builtin's bundled oracle, else empty), and an
optional ``tol``.  Reports serialize with a fixed field order and full
round-trip float precision, so identical invocations are byte-identical.
Exit codes: 0 success/PASS, 1 FAIL verdict (or witness found), 2 input error
(a malformed spec, a bad flag value, or an output path that cannot be opened).
Spec values are never coerced: numbers are JSON ints or floats (not bools),
point ids are JSON strings, and coordinate slots are decimal digits.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path
from typing import Any

import numpy as np

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

SCHEMA_VERSION = 2

_BUILTIN_PARAMS = {
    "sequence_grid_E": ("i_max", "j_max", "include_origin"),
    "positive_integers": ("n_max", "metric"),
    "convergent_sequence": ("n_max",),
}


class SpecError(Exception):
    """A malformed spec file or flag; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


_MISSING = object()
_JSON_NAMES = {(int, float): "number", (int,): "int", (bool,): "bool", (str,): "string",
               (list,): "array", (dict,): "object"}


def _typed(value: Any, field: str, *kinds: type) -> Any:
    """``value`` when its type is exactly one of ``kinds`` (so true is not an
    int and 1 is not the id "1"), never coerced."""
    if type(value) not in kinds:
        raise SpecError(field, f"must be a JSON {_JSON_NAMES[kinds]}, got {value!r}")
    return value


def _get(data: dict, key: str, context: str, *kinds: type, default: Any = _MISSING) -> Any:
    """``data[key]``, of one of ``kinds`` when any are given; a missing key is
    an error unless a default is given."""
    field = f"{context}.{key}"
    if key not in data:
        if default is _MISSING:
            raise SpecError(field, "missing required field")
        return default
    return _typed(data[key], field, *kinds) if kinds else data[key]


# the number grammar of JSON; float() also reads "1_0", " 1", ".5" and "+1"
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def _finite(value: Any, field: str, positive: bool = False) -> float:
    """A spec or command-line number.  Infinities (a spec's 1e400, or an
    integer too large for a double) and NaN are rejected: the report echoes
    its inputs and JSON has neither.  A flag's text must be a JSON number."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    except (TypeError, ValueError):
        raise SpecError(field, "must be a number") from None
    if not math.isfinite(number):
        raise SpecError(field, f"must be finite, got {value!r}")
    if isinstance(value, str) and not _JSON_NUMBER.fullmatch(value):
        raise SpecError(field, f"must be a JSON number, got {value!r}")
    if positive and not number > 0:
        raise SpecError(field, f"must be positive, got {number!r}")
    return number


def _id_list(ids: list, field: str) -> list[str]:
    """A list of point ids, each exactly a JSON string."""
    return [_typed(point, f"{field}[{k}]", str) for k, point in enumerate(ids)]


def _known_ids(space: FiniteSpace, ids: list[str], field: str) -> list[str]:
    known = set(space.ids)
    missing = sorted(i for i in ids if i not in known)
    if missing:
        raise SpecError(field, f"not points of the space: {missing}")
    return ids


def _build_builtin(spec: dict) -> tuple[FiniteSpace, DerivedSetView]:
    name = _get(spec, "name", "space", str)
    if name not in _BUILTIN_PARAMS:
        raise SpecError("space.name", f"unknown builtin {name!r}; "
                        f"expected one of {sorted(_BUILTIN_PARAMS)}")
    params = _get(spec, "params", "space", dict, default={})
    unknown = sorted(set(params) - set(_BUILTIN_PARAMS[name]))
    if unknown:
        raise SpecError("space.params", f"unknown parameters {unknown} for {name!r}")
    try:
        if name == "sequence_grid_E":
            return sequence_grid(
                _get(params, "i_max", "space.params", int),
                _get(params, "j_max", "space.params", int),
                _get(params, "include_origin", "space.params", bool),
            )
        if name == "positive_integers":
            return positive_integers(
                _get(params, "n_max", "space.params", int),
                _get(params, "metric", "space.params", str, default="d1"),
            )
        return convergent_sequence(_get(params, "n_max", "space.params", int))
    except (ValueError, TypeError) as exc:
        raise SpecError("space.params", str(exc)) from exc


def _build_points(spec: dict) -> FiniteSpace:
    points = _get(spec, "points", "space", list)
    if not points:
        raise SpecError("space.points", "must be a nonempty list")
    specs = []
    for k, entry in enumerate(points):
        entry = _typed(entry, f"space.points[{k}]", dict)
        point_id = _get(entry, "id", f"space.points[{k}]", str)
        coords_raw = _get(entry, "coords", f"space.points[{k}]", dict, default={})
        coords, field = {}, f"space.points[{k}].coords"
        for slot, value in coords_raw.items():
            if not (slot.isascii() and slot.isdigit()) or type(value) not in (int, float):
                raise SpecError(field, f"slot {slot!r} must map an integer >= 1 to a number")
            if int(slot) in coords:  # "1" and "01" name one slot
                raise SpecError(field, f"slot {slot!r} repeats slot {int(slot)}")
            coords[int(slot)] = _finite(value, field)
        specs.append(PointSpec(point_id, coords))
    try:
        return build_space(specs)
    except ValueError as exc:
        raise SpecError("space.points", str(exc)) from exc


def _build_matrix(spec: dict) -> FiniteSpace:
    ids = _id_list(_get(spec, "ids", "space", list), "space.ids")
    matrix = _get(spec, "matrix", "space", list)
    if not ids:
        raise SpecError("space.ids", "must be a nonempty list of point ids")
    if len(matrix) != len(ids):
        raise SpecError("space.matrix", f"must be a {len(ids)}x{len(ids)} array")
    if any(type(row) is not list for row in matrix) or not (
        {type(v) for row in matrix for v in row} <= {int, float}
    ):
        raise SpecError("space.matrix", "entries must be JSON numbers")
    if any(len(row) != len(ids) for row in matrix):
        raise SpecError("space.matrix", f"every row must have {len(ids)} entries")
    try:
        dist = np.array(matrix, dtype=float)
    except OverflowError:
        raise SpecError("space.matrix", "entries must be finite") from None
    try:
        return FiniteSpace._adopt(ids, dist)
    except ValueError as exc:
        raise SpecError("space", str(exc)) from exc


def _parse(path: str) -> Any:
    """The parsed spec file; its text is freed on return, before any build."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError("spec_path", str(exc)) from exc
    try:
        return json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise SpecError("spec", f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise SpecError("spec", "invalid JSON: nested too deeply") from None


def _compact(value: Any, field: str) -> str:
    """The spec's ``field`` as compact JSON.  JSON has no NaN or infinity, so
    one anywhere in it (say, in an entry's extra field) is an input error."""
    try:
        return json.dumps(value, separators=(",", ":"), allow_nan=False)
    except (ValueError, RecursionError) as exc:
        raise SpecError(field, str(exc)) from None


def _echo(data: dict, space: FiniteSpace, key: str, kind: str, payload) -> dict:
    """The spec, its inline ``space.<key>`` replaced by the sha256 of the
    payload's bytes.  hashlib is imported here: at module level it would load
    OpenSSL into every run."""
    import hashlib

    digest = {"kind": kind, "n": space.n, "sha256": hashlib.sha256(payload).hexdigest()}
    return {**data, "space": {**data["space"], key: digest}}


def load_spec(path: str) -> tuple[FiniteSpace, DerivedSetView, dict, str]:
    """Parse and validate a spec file; returns (space, derived, echo, kind), the
    echo holding an inline ``space.points`` or ``space.matrix`` as its digest."""
    data = _typed(_parse(path), "spec", dict)

    space_spec = _get(data, "space", "spec", dict)
    kind = _get(space_spec, "kind", "space")

    oracle: DerivedSetView | None = None
    echo = data
    if kind == "builtin":
        space, oracle = _build_builtin(space_spec)
    elif kind == "points_l2":
        space = _build_points(space_spec)
        points = _compact(space_spec["points"], "space.points").encode()
        echo = _echo(data, space, "points", "json-compact", points)
    elif kind == "matrix":
        space = _build_matrix(space_spec)
        # hashed through the matrix's buffer: no copy on a little-endian machine
        echo = _echo(data, space, "matrix", "float64-le", np.asarray(space.dist, dtype="<f8"))
    else:
        raise SpecError("space.kind", f"unknown kind {kind!r}; "
                        "expected 'builtin', 'points_l2', or 'matrix'")

    if data.get("tol") is not None:
        tol = _finite(_typed(data["tol"], "tol", int, float), "tol", positive=True)
        space = FiniteSpace._adopt(space.ids, space.dist, tol)

    derived_spec = data.get("derived_set")
    if derived_spec is None:
        derived = oracle if oracle is not None else DerivedSetView("oracle", frozenset())
    else:
        _typed(derived_spec, "derived_set", dict)
        dkind = _get(derived_spec, "kind", "derived_set")
        if dkind == "oracle":
            ids = _id_list(_get(derived_spec, "ids", "derived_set", list), "derived_set.ids")
            ids = _known_ids(space, ids, "derived_set.ids")
            derived = DerivedSetView("oracle", frozenset(ids))
        elif dkind == "detect":
            radius = _get(derived_spec, "radius", "derived_set", int, float)
            radius = _finite(radius, "derived_set.radius", positive=True)
            derived = detect_limit_points(space, radius)
        elif dkind == "empty":
            derived = DerivedSetView("oracle", frozenset())
        else:
            raise SpecError("derived_set.kind", f"unknown kind {dkind!r}; "
                            "expected 'oracle', 'detect', or 'empty'")

    for key, value in echo.items():  # the report must encode, so fail here, not after the run
        _compact(value, key)
    return space, derived, echo, kind


# --- report serialization ------------------------------------------------

def _num(value: float) -> float | None:
    """math.inf serializes as null (JSON has no infinity)."""
    return None if math.isinf(value) else float(value)


def _witness_obj(w: WitnessPair | None) -> dict | None:
    if w is None:
        return None
    return {"x": w.x, "y": w.y, "distance": _num(w.distance), "gap": _num(w.gap)}


def _isolation_obj(rep: IsolationReport) -> dict:
    return {"eta": _num(rep.eta), "witness": rep.witness}


def _axiom_obj(space: FiniteSpace, report: AxiomReport) -> dict:
    return {
        "passed": report.passed,
        "violations": [
            {
                "kind": v.kind,
                "indices": v.where,
                "ids": [space.ids[k] for k in v.where],
                "magnitude": _num(v.magnitude),
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


class _Matrix:
    """A report leaf: an n x n float64 matrix (n >= 1), written as json.dumps
    writes ``{ids[i]: {ids[j]: values[i, j]}}``, or ``values.tolist()`` when
    there are no ids, without building either."""

    __slots__ = ("values", "ids")

    def __init__(self, values: np.ndarray, ids: tuple[str, ...] | None = None):
        self.values = values
        self.ids = ids


def _heads(keys: tuple[str, ...] | None, opening: str, indent: str, count: int) -> list[str]:
    """The text before each of ``count`` members of a container: the opening
    bracket or a comma, the newline and indent, and the member's key if any."""
    if keys is None:
        return [opening + indent] + ["," + indent] * (count - 1)
    keys = [json.encoder.encode_basestring_ascii(key) + ": " for key in keys]
    return [opening + indent + keys[0]] + ["," + indent + key for key in keys[1:]]


def _matrix_text(matrix: _Matrix, indent: str) -> list[str]:
    """The pieces of a matrix whose rows are indented by ``indent``.

    Each distinct entry is formatted once: the entries are deduplicated by
    bit pattern (so -0.0 and 0.0 stay apart), and a row is one join of the
    keys and separators, built once, with that row's texts."""
    values = matrix.values
    opening, closing = "[]" if matrix.ids is None else "{}"
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    inverse = inverse.reshape(values.shape)  # its shape varies across numpy 2.x releases
    distinct = distinct.view(np.float64)
    if not np.isfinite(distinct).all():
        # json's error, which names the first non-finite entry in row order
        bad = float(values.flat[np.argmin(np.isfinite(values))])
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    texts = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)
    rows, columns = values.shape
    parts: list[str] = [""] * (2 * columns + 1)  # heads and texts, interleaved
    parts[0::2] = _heads(matrix.ids, opening, indent + "  ", columns) + [indent + closing]
    first = parts[0]
    pieces = []
    for head, row in zip(_heads(matrix.ids, opening, indent, rows), inverse):
        parts[0] = head + first
        parts[1::2] = texts[row].tolist()
        pieces.append("".join(parts))
    pieces.append(indent[:-2] + closing)
    return pieces


def _report_text(report: Any) -> list[str]:
    """The pieces of ``json.dumps(report, indent=2, allow_nan=False) + "\\n"``,
    each _Matrix leaf written as json.dumps writes its rows.

    json's own encoder writes the report; for a matrix, ``default`` returns
    None, and the ``null`` chunk that json yields next is replaced by the
    matrix's text, indented one step past the line it starts on."""
    matrices: list[_Matrix] = []

    def default(value: Any) -> Any:
        if isinstance(value, _Matrix):
            matrices.append(value)
            return None
        return json.JSONEncoder.default(encoder, value)

    encoder = json.JSONEncoder(indent=2, allow_nan=False, default=default)
    pieces: list[str] = []
    try:
        for chunk in encoder.iterencode(report):
            if not matrices:
                pieces.append(chunk)
                continue
            line = next((piece for piece in reversed(pieces) if "\n" in piece), "\n")
            pieces += _matrix_text(matrices.pop(), line[line.rfind("\n"):] + "  ")
    except RecursionError:  # json's encoder recurses once per nesting level
        raise ValueError("report: nested too deeply to encode") from None
    pieces.append("\n")
    return pieces


def _emit(report: dict, out: str | None) -> None:
    """Write a report; it is encoded in full first, so an unencodable report
    (a non-finite float) raises before ``out`` is opened."""
    pieces = _report_text(report)
    if out:
        with open(out, "w", encoding="utf-8") as sink:
            sink.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


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
    report = verify_metric_axioms(space, limit=1)
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
    grid = [_finite(s, "--eps-grid", positive=True) for s in entries]
    threshold = _finite(args.threshold, "--threshold", positive=True)
    verdict = atsuji_check(space, derived, grid, threshold)
    flags = {"eps_grid": grid, "threshold": threshold, "tol": space.tol}
    witnesses = [w for w in [_witness_obj(verdict.fail_witness)] if w is not None]
    code = 1 if verdict.status == "FAIL" else 0
    return _report("atsuji", args.spec, spec_echo, flags,
                   _verdict_obj(verdict), witnesses, list(verdict.notes)), code


def _cmd_remetrize(space, derived, args, spec_echo) -> tuple:
    result_space = remetrize(space, derived)
    new_space = result_space.space
    axioms = verify_metric_axioms(new_space)
    topology = verify_same_topology(result_space)
    bounds = {eta: verify_isolation_bound(result_space, eta) for eta in DEFAULT_EPS_GRID}

    result = {
        "empty_derived_fallback_used": result_space.empty_derived_fallback_used,
        "levels": result_space.levels,
        "newdist": _Matrix(result_space.newdist, space.ids),
        "axioms": _axiom_obj(new_space, axioms),
        "same_topology": {
            "passed": topology.passed,
            "witness": topology.witness,
            "failed_check": topology.failed_check,
        },
        "isolation_bounds": {
            repr(eta): {
                "passed": rep.passed,
                "n": rep.n,
                "witness": rep.witness,
                "observed_eta": _num(rep.observed_eta),
            }
            for eta, rep in bounds.items()
        },
    }
    notes = []
    if result_space.empty_derived_fallback_used:
        notes.append("derived set empty: used the max(dist, 1) fallback metric")

    outputs = []
    if args.out_matrix:
        members = sorted(derived.members, key=space.index)
        matrix_spec = {
            "space": {
                "kind": "matrix",
                "ids": list(space.ids),
                "matrix": _Matrix(result_space.newdist),
            },
            "derived_set": (
                {"kind": "oracle", "ids": members} if members else {"kind": "empty"}
            ),
            "tol": space.tol,
        }
        outputs.append((matrix_spec, args.out_matrix, "--out-matrix"))

    ok = axioms.passed and topology.passed and all(r.passed for r in bounds.values())
    witnesses = [
        {"check": name, "pair": pair}
        for name, pair in [
            ("same_topology", topology.witness),
            *[(f"isolation_bound({eta!r})", rep.witness) for eta, rep in bounds.items()],
        ]
        if pair is not None
    ]
    flags = {"out_matrix": args.out_matrix, "tol": space.tol}
    report = _report("remetrize", args.spec, spec_echo, flags, result, witnesses, notes)
    return report, 0 if ok else 1, *outputs


def _cmd_witness(space, derived, args, spec_echo) -> tuple[dict, int]:
    eps0 = _finite(args.eps0, "--eps0", positive=True)
    delta = _finite(args.delta, "--delta", positive=True)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are SpecErrors, so a malformed command
    line exits 2 with one ``error:`` line; subcommand parsers share the class.
    A flag is only ever its full name: a prefix such as ``--eps`` for
    ``--eps-grid`` is an unknown argument, so a flag added later cannot change
    what an existing command line means."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        field, _, detail = message.removeprefix("argument ").partition(": ")
        raise SpecError(field, detail)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    # a finite matrix can still overflow in sums and differences: that is an
    # infinite magnitude in the report, not a numpy warning on stderr
    with np.errstate(over="ignore"):
        try:
            args = build_parser().parse_args(argv)
            space, derived, spec_echo, kind = load_spec(args.spec)
            if args.tol is not None:
                tol = _finite(args.tol, "--tol", positive=True)
                space = FiniteSpace._adopt(space.ids, space.dist, tol)
            _validate_matrix_arm(args.command, kind, space)
            # a command returns its report, exit code and any further
            # (document, path, flag) outputs, written only after the report
            report, code, *outputs = _COMMANDS[args.command](space, derived, args, spec_echo)
            for document, path, flag in [(report, args.out, "--out"), *outputs]:
                try:
                    _emit(document, path)
                except OSError as exc:
                    if not path:  # stdout, not a flag's path
                        raise
                    raise SpecError(flag, str(exc)) from None
        except (SpecError, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
