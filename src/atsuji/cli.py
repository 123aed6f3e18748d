"""Command-line interface: load a space spec file, run one operation, and
emit a deterministic JSON report.

Spec files are JSON with a ``space`` arm (``builtin``, ``points_l2``, or
``matrix``), an optional ``derived_set`` arm (``oracle``, ``detect``, or
``empty``; defaults to the builtin's bundled oracle, else empty), and an
optional ``tol``.  Reports serialize with a fixed field order and full
round-trip float precision, so identical invocations are byte-identical.  A
list or object whose members are all JSON scalars is written on one line, as
``json.dumps`` writes it; every other one is indented two spaces a level, as
``json.dumps(indent=2)`` writes it.  Every object key in a report is a str.
The writer checks the spec's echo at load, so a field no report can hold (a
NaN, nesting too deep) is an input error, named before the run.  Exit codes:
0 success/PASS, 1 FAIL verdict (or witness found), 2 input error (a malformed
spec, a bad flag value, or an output path that cannot be opened).
Number flags are read by the parser, every occurrence, before the spec is.
Spec values are never coerced: numbers are JSON ints or floats (not bools),
point ids are JSON strings, and coordinate slots are decimal digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from collections.abc import Callable, Iterator
from itertools import repeat
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_EPS_GRID,
    DEFAULT_THRESHOLD,
    AtsujiVerdict,
    DerivedSetView,
    atsuji_check,
    detect_limit_points,
    greedy_epsilon_net,
)
from .functions import (
    SampledFunction,
    parity_function,
    separator,
    uc_witness_search,
)
from .generators import convergent_sequence, positive_integers, sequence_grid
from .remetrize import remetrize, verify_isolation_bound, verify_same_topology
from .space import (
    DEFAULT_TOL,
    AxiomReport,
    FiniteSpace,
    PointSpec,
    Violation,
    _require_discernible,
    build_space,
    verify_metric_axioms,
)

SCHEMA_VERSION = 2

class SpecError(Exception):
    """A malformed spec file or flag, as ``"<field>: <message>"``."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")


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
    """``ids`` when each is a point of ``space`` exactly as written."""
    known = set(space.ids)
    missing = sorted(i for i in ids if i not in known)
    if missing:
        raise SpecError(field, f"not points of the space: {missing}")
    return ids


def _build_builtin(spec: dict) -> tuple[FiniteSpace, DerivedSetView]:
    # each builtin's generator and its parameters in call order, as (name,
    # JSON type, default); built per call, so a generator replaced on this
    # module (a tracing wrapper, a test's patch) is the one called
    builtins = {
        "sequence_grid_E": (sequence_grid, (("i_max", int, _MISSING), ("j_max", int, _MISSING),
                                            ("include_origin", bool, _MISSING))),
        "positive_integers": (positive_integers, (("n_max", int, _MISSING), ("metric", str, "d1"))),
        "convergent_sequence": (convergent_sequence, (("n_max", int, _MISSING),)),
    }
    name = _get(spec, "name", "space", str)
    if name not in builtins:
        raise SpecError("space.name", f"unknown builtin {name!r}; "
                        f"expected one of {sorted(builtins)}")
    generator, fields = builtins[name]
    params = _get(spec, "params", "space", dict, default={})
    unknown = sorted(set(params) - {key for key, _, _ in fields})
    if unknown:
        raise SpecError("space.params", f"unknown parameters {unknown} for {name!r}")
    args = [_get(params, key, "space.params", kind, default=default)
            for key, kind, default in fields]
    try:
        return generator(*args)
    except (ValueError, TypeError) as exc:
        raise SpecError("space.params", str(exc)) from exc


# No digit limit on CPython's int() of a decimal string can be set below 640
# (sys.int_info.str_digits_check_threshold), so a slot this long always converts.
_SLOT_DIGITS = 640


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
            if len(slot) > _SLOT_DIGITS:  # int() of a longer one may raise, naming no field
                raise SpecError(field, f"slot of {len(slot)} characters is longer "
                                f"than {_SLOT_DIGITS} digits")
            if not (slot.isascii() and slot.isdigit() and int(slot) >= 1) or (
                type(value) not in (int, float)
            ):
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
    except UnicodeDecodeError as exc:
        raise SpecError("spec", f"invalid JSON: {exc}") from exc
    try:
        return json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise SpecError("spec", f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise SpecError("spec", "invalid JSON: nested too deeply") from None


def _compact(value: Any, field: str) -> str:
    """The points' compact JSON, for their digest.  JSON has no NaN or infinity,
    so one anywhere in it (say, in an entry's extra field) is an input error."""
    try:
        return _one_line(value, _COMPACT)
    except (ValueError, RecursionError) as exc:
        raise SpecError(field, str(exc)) from None


def _echo(data: dict, space: FiniteSpace, key: str, kind: str, payload) -> dict:
    """The spec, its inline ``space.<key>`` replaced by the sha256 of the
    payload's bytes.  hashlib is imported here: at module level it would load
    OpenSSL into every run."""
    import hashlib

    digest = {"kind": kind, "n": space.n, "sha256": hashlib.sha256(payload).hexdigest()}
    return {**data, "space": {**data["space"], key: digest}}


def load_spec(
    path: str, tol: float | None = None, gate: bool = True
) -> tuple[FiniteSpace, DerivedSetView, dict]:
    """Parse and validate a spec file; returns (space, derived, echo), the
    echo holding an inline ``space.points`` or ``space.matrix`` as its digest.
    The space is at the run's tol: ``tol`` (the ``--tol`` flag), else the
    spec's, else the default.  With ``gate`` (every command but check-metric,
    the validator itself) it must satisfy the axioms at that tol.  A matrix
    arm is scanned, and on a pass carries ``tol`` as its excess bound: the
    scan decided every triple.  builtin and points_l2 spaces are metrics whose
    points build_space keeps more than DEFAULT_TOL apart: a larger tol relaxes
    every other axiom, but can make two points identical."""
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

    tol_field = "tol" if tol is None else "--tol"
    if "tol" in data:  # validated even when the flag overrides it
        spec_tol = _finite(_typed(data["tol"], "tol", int, float), "tol", positive=True)
        tol = spec_tol if tol is None else tol
    if tol is not None:
        space = FiniteSpace._adopt(space.ids, space.dist, tol, space._excess)

    if "derived_set" not in data:
        derived = oracle if oracle is not None else DerivedSetView("oracle", frozenset())
    else:
        derived_spec = _typed(data["derived_set"], "derived_set", dict)
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

    for key, value in echo.items():  # where the report puts it: fail here, not after the run
        try:
            _report_text({"inputs": {"spec": {key: value}}})
        except ValueError as exc:
            raise SpecError(key, str(exc)) from None

    if gate and kind == "matrix":
        report = verify_metric_axioms(space, limit=1)
        if not report.passed:
            v = report.violations[0]
            raise SpecError("space.matrix", f"violates the {v.kind} axiom at indices "
                            f"{tuple(v.where)} (magnitude {v.magnitude!r})")
        space = FiniteSpace._adopt(space.ids, space.dist, space.tol, space.tol)
    elif gate and space.tol > DEFAULT_TOL:
        try:
            _require_discernible(space, space.tol)
        except ValueError as exc:
            raise SpecError(tol_field, str(exc)) from None
    return space, derived, echo


# --- report serialization ------------------------------------------------

def _num(value: float) -> float | None:
    """math.inf serializes as null (JSON has no infinity)."""
    return None if math.isinf(value) else float(value)


def _fields(report: Any) -> dict | None:
    """A result dataclass as a report object, None for None: its fields, each
    float through ``_num``.  ``dataclasses.fields`` lists the declared fields
    only, never a cached property, in declaration order: a result's field
    order is its report order, and the golden corpus pins it."""
    if report is None:
        return None
    values = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    return {name: _num(v) if isinstance(v, float) else v for name, v in values.items()}


def _axiom_obj(space: FiniteSpace, report: AxiomReport) -> dict:
    return {"passed": report.passed, "violations": _Violations(space.ids, report.violations)}


def _verdict_obj(verdict: AtsujiVerdict) -> dict:
    return {
        "status": verdict.status,
        "net_sizes": {repr(e): verdict.net_sizes[e] for e in verdict.net_sizes},
        "isolation": {repr(e): _fields(verdict.isolation[e]) for e in verdict.isolation},
        "fail_witness": _fields(verdict.fail_witness),
    }


_ONE_LINE = json.JSONEncoder(allow_nan=False).encode
_quote = json.encoder.encode_basestring_ascii  # every key of a report is a str
_COMPACT = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _one_line(value: Any, encode: Callable[[Any], str] = _ONE_LINE) -> str:
    """``encode(value)``, by default ``json.dumps(value, allow_nan=False)``.
    json's C encoder names no value in its non-finite error, so on a
    ValueError the value is encoded again by json.dumps(indent=2), which
    raises the error naming it."""
    try:
        return encode(value)
    except ValueError:
        json.dumps(value, indent=2, allow_nan=False)
        raise


def _is_scalar(value: Any) -> bool:
    return value is None or isinstance(value, (str, int, float))


# A report leaf stands for a list or object that is never built.  ``keys`` are
# its members' keys (None for a list), and ``members(indent)`` gives each
# member's finished text at ``indent`` (a newline and spaces).  No member is a
# scalar; ``_report_text`` writes the brackets, keys and separators around them.


class _Matrix:
    """A report leaf: the distance matrix of a FiniteSpace, written as
    ``{ids[i]: {ids[j]: dist[i, j]}}``, or ``dist.tolist()`` for its
    ``without_ids`` twin, without building either: one row a line.  Each
    distinct entry is formatted here, once; a space's entries are finite."""

    __slots__ = ("keys", "texts", "inverse")

    def __init__(self, space: FiniteSpace):
        self.keys = space.ids
        # deduplicated by bit pattern, so -0.0 and 0.0 stay apart
        distinct, inverse = np.unique(space.dist.view(np.uint64), return_inverse=True)
        self.texts = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())),
                              dtype=object)
        self.inverse = inverse.reshape(space.dist.shape)  # each entry's index into texts

    def without_ids(self) -> _Matrix:
        """This matrix written as ``dist.tolist()``, from the same texts."""
        twin = _Matrix.__new__(_Matrix)
        twin.keys, twin.texts, twin.inverse = None, self.texts, self.inverse
        return twin

    def members(self, indent: str) -> Iterator[str]:
        """A row is one join of the column heads, built once, with that row's
        texts."""
        opening, closing = "[]" if self.keys is None else "{}"
        heads = [opening] + [", "] * (self.inverse.shape[1] - 1)
        if self.keys is not None:
            heads = [head + _quote(key) + ": " for head, key in zip(heads, self.keys)]
        parts: list[str] = [""] * (2 * len(heads) + 1)  # heads and texts, interleaved
        parts[0::2] = heads + [closing]
        for row in self.inverse:
            parts[1::2] = self.texts[row].tolist()
            yield "".join(parts)


class _Violations:
    """A report leaf: the violations of a space's AxiomReport, written as
    ``[{"kind", "indices", "ids", "magnitude"}]``, an infinite magnitude as
    null (as ``_num`` writes it), without building the dicts.  A scan of a
    finite matrix lists no NaN magnitude: each is at least 0."""

    __slots__ = ("ids", "violations")
    keys = None

    def __init__(self, ids: tuple[str, ...], violations: list[Violation]):
        self.ids = ids
        self.violations = violations

    def members(self, indent: str) -> Iterator[str]:
        """One f-string per violation: each point id is encoded once, indices
        are written with ``str`` and magnitudes with ``float.__repr__``."""
        ids = list(map(_quote, self.ids))
        field = indent + "  "
        for kind, where, magnitude in self.violations:
            magnitude = float.__repr__(magnitude)
            if magnitude in ("inf", "-inf"):
                magnitude = "null"
            yield (f'{{{field}"kind": {_quote(kind)},'
                   f'{field}"indices": [{", ".join(map(str, where))}],'
                   f'{field}"ids": [{", ".join(map(ids.__getitem__, where))}],'
                   f'{field}"magnitude": {magnitude}{indent}}}')


def _report_text(report: Any) -> list[str]:
    """The pieces of the report's JSON text and a closing newline.  A list
    or object whose members are all JSON scalars (an empty one too) is one
    line, as ``json.dumps(value, allow_nan=False)`` writes it; every other
    one has a member a line, indented two spaces a level, as
    ``json.dumps(indent=2)`` writes it.  A report leaf's members are written
    as its ``members`` method gives them.  Every key is a str, as every
    report's is.  json's errors for a non-finite float or an unencodable
    value are raised as json raises them; a cycle, which no report has, nests
    too deeply.  ``load_spec`` writes each echo field, so a loaded spec writes."""
    pieces: list[str] = []

    def write(value: Any, indent: str) -> None:
        inner = indent + "  "
        leaf = False
        if isinstance(value, dict):
            keys, members = value.keys(), value.values()
        elif isinstance(value, (list, tuple)):
            keys, members = None, value
        elif hasattr(value, "members"):
            keys, members, leaf = value.keys, value.members(inner), True
        else:
            pieces.append(_one_line(value))
            return
        if not leaf and all(map(_is_scalar, members)):
            pieces.append(_one_line(value))
            return
        opening, closing = "[]" if keys is None else "{}"
        head = opening + inner
        labels = repeat("") if keys is None else (_quote(key) + ": " for key in keys)
        for label, member in zip(labels, members):
            pieces.append(head + label)
            if leaf:
                pieces.append(member)
            else:
                write(member, inner)
            head = "," + inner
        # a leaf may have no members: json.dumps(indent=2) writes [] or {}
        pieces.append(indent + closing if head[0] == "," else opening + closing)

    try:
        write(report, "\n")
    except RecursionError:  # one Python frame, and json's, per nesting level
        raise ValueError("nested too deeply to encode") from None
    pieces.append("\n")
    return pieces


def _emit(report: dict, out: str | None) -> None:
    """Write a report; it is encoded in full first, so an unencodable report
    (a non-finite float) raises before ``out`` is opened."""
    pieces = _report_text(report)
    if out is not None:
        with open(out, "w", encoding="utf-8") as sink:
            sink.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


# --- commands -------------------------------------------------------------
#
# A command takes the space, its derived set and the parsed flags, and returns
# the report's flags echo, result, witnesses and notes, the exit code, and any
# further (document, path, flag) outputs, written only after the report.

def _make_function(space: FiniteSpace, fn: str, a: str | None, b: str | None) -> SampledFunction:
    """The function ``fn`` on ``space``; a ValueError of its construction is
    an input error of the flag that chose what it is built from."""
    if fn != "separator":
        for flag, ids in (("--a", a), ("--b", b)):
            if ids is not None:
                raise SpecError(flag, "applies only to --fn separator")
    if fn == "parity":
        try:
            return parity_function(space)
        except ValueError as exc:
            raise SpecError("--fn", str(exc)) from None
    if fn == "identity":
        values = {p: float(k) for k, p in enumerate(space.ids)}
        return SampledFunction(values=values, label="identity")
    if fn == "const":
        return SampledFunction(values={p: 0.0 for p in space.ids}, label="const")
    # separator
    if a is None or b is None:
        raise SpecError("--fn", "separator requires --a and --b")
    zero_set = _known_ids(space, a.split(","), "--a")
    one_set = _known_ids(space, b.split(","), "--b")
    try:
        return separator(space, zero_set, one_set)
    except ValueError as exc:
        raise SpecError("--b", str(exc)) from None


def _cmd_check_metric(space, derived, args) -> tuple:
    report = verify_metric_axioms(space)
    return {"tol": space.tol}, _axiom_obj(space, report), [], [], 0 if report.passed else 1


def _cmd_atsuji(space, derived, args) -> tuple:
    verdict = atsuji_check(space, derived, args.eps_grid, args.threshold)
    flags = {"eps_grid": args.eps_grid, "threshold": args.threshold, "tol": space.tol}
    witnesses = [w for w in [_fields(verdict.fail_witness)] if w is not None]
    code = 1 if verdict.status == "FAIL" else 0
    return flags, _verdict_obj(verdict), witnesses, list(verdict.notes), code


def _cmd_remetrize(space, derived, args) -> tuple:
    result_space = remetrize(space, derived)
    new_space = result_space.space
    axioms = verify_metric_axioms(new_space)
    topology = verify_same_topology(result_space)
    bounds = {eta: verify_isolation_bound(result_space, eta) for eta in DEFAULT_EPS_GRID}

    newdist = _Matrix(new_space)
    result = {
        "empty_derived_fallback_used": result_space.empty_derived_fallback_used,
        "levels": result_space.levels,
        "newdist": newdist,
        "axioms": _axiom_obj(new_space, axioms),
        "same_topology": _fields(topology),
        "isolation_bounds": {repr(eta): _fields(rep) for eta, rep in bounds.items()},
    }
    notes = []
    if result_space.empty_derived_fallback_used:
        notes.append("derived set empty: used the max(dist, 1) fallback metric")

    outputs = []
    if args.out_matrix is not None:
        members = sorted(derived.members, key=space.index)
        matrix_spec = {
            "space": {
                "kind": "matrix",
                "ids": list(space.ids),
                "matrix": newdist.without_ids(),
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
    return flags, result, witnesses, notes, 0 if ok else 1, *outputs


def _cmd_witness(space, derived, args) -> tuple:
    f = _make_function(space, args.fn, args.a, args.b)
    pair = uc_witness_search(space, f, args.eps0, args.delta)
    flags = {"fn": args.fn, "eps0": args.eps0, "delta": args.delta, "tol": space.tol}
    if args.fn == "separator":
        flags.update(a=args.a, b=args.b)
    witness = _fields(pair)
    result = {"function": f.label, "found": pair is not None, "witness": witness}
    return flags, result, [] if pair is None else [witness], [], 0 if pair is None else 1


def _cmd_separator(space, derived, args) -> tuple:
    f = _make_function(space, "separator", args.a, args.b)
    result = {"label": f.label, "values": f.values}
    return {"a": args.a, "b": args.b, "tol": space.tol}, result, [], [], 0


def _cmd_net(space, derived, args) -> tuple:
    net = greedy_epsilon_net(space, space.ids, args.eps)
    result = {"eps": args.eps, "size": len(net), "net": net}
    return {"eps": args.eps, "tol": space.tol}, result, [], [], 0


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


def _positive(flag: str):
    """The reader of a positive number flag, which the parser applies to
    every occurrence before the spec is read.  Its SpecError is neither an
    ArgumentError nor a ValueError, so argparse lets it through to ``main``."""
    return lambda text: _finite(text, flag, positive=True)


def _scales(text: str) -> list[float]:
    """The reader of ``--eps-grid``: comma-separated positive numbers."""
    return [_finite(entry, "--eps-grid", positive=True) for entry in text.split(",")]


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
        p.add_argument("--tol", type=_positive("--tol"),
                       help="override the comparison tolerance")

    p = sub.add_parser("check-metric", help="verify the metric axioms exhaustively")
    common(p)

    p = sub.add_parser("atsuji", help="run the characterization check")
    common(p)
    p.add_argument("--eps-grid", type=_scales, default=list(DEFAULT_EPS_GRID),
                   help="comma-separated positive scales (default: 2^0 down to 2^-10)")
    p.add_argument("--threshold", type=_positive("--threshold"), default=DEFAULT_THRESHOLD,
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
    p.add_argument("--eps0", required=True, type=_positive("--eps0"), help="minimum value gap")
    p.add_argument("--delta", required=True, type=_positive("--delta"), help="maximum distance")
    p.add_argument("--a", help="comma-separated ids (separator only)")
    p.add_argument("--b", help="comma-separated ids (separator only)")

    p = sub.add_parser("separator", help="evaluate the two-set ratio function")
    common(p)
    p.add_argument("--a", required=True, help="comma-separated ids of the zero set")
    p.add_argument("--b", required=True, help="comma-separated ids of the one set")

    p = sub.add_parser("net", help="greedy eps-net of the whole space")
    common(p)
    p.add_argument("--eps", required=True, type=_positive("--eps"), help="net radius")

    return parser


def _same_file(a: str, b: str) -> bool:
    """Whether two output paths name one file: by ``os.path.samefile`` when
    both exist (which sees hard links), else by their real paths."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # a path that does not exist yet, or cannot be read
        return os.path.realpath(a) == os.path.realpath(b)


def main(argv: list[str] | None = None) -> int:
    # a finite matrix can still overflow in sums and differences: that is an
    # infinite magnitude in the report, not a numpy warning on stderr
    with np.errstate(over="ignore"):
        try:
            args = build_parser().parse_args(argv)
            out_matrix = getattr(args, "out_matrix", None)
            if out_matrix is not None and args.out is not None and _same_file(out_matrix, args.out):
                raise SpecError("--out-matrix", "names the same file as --out")
            gate = args.command != "check-metric"
            space, derived, spec_echo = load_spec(args.spec, args.tol, gate)
            flags, result, witnesses, notes, code, *outputs = _COMMANDS[args.command](
                space, derived, args
            )
            report = {
                "schema_version": SCHEMA_VERSION,
                "version": __version__,
                "command": args.command,
                "inputs": {"spec_path": args.spec, "spec": spec_echo, "flags": flags},
                "result": result,
                "witnesses": witnesses,
                "notes": notes,
            }
            for document, path, flag in [(report, args.out, "--out"), *outputs]:
                try:
                    _emit(document, path)
                except OSError as exc:
                    if path is not None:
                        raise SpecError(flag, str(exc)) from None
                    if not isinstance(exc, BrokenPipeError):
                        raise
                    # the reader closed stdout, which leaves the verdict as it
                    # is; fd 1 goes to devnull so the exit flush cannot raise
                    devnull = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(devnull, sys.stdout.fileno())
                    os.close(devnull)
        except (SpecError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
