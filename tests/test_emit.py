"""The report emitter writes one layout, for any JSON tree whose object keys
are strings (as every report's are), plus a newline: a list or object whose
members are all JSON scalars (an empty one too) is one line, as
``json.dumps(value, allow_nan=False)`` writes it, and every other one is
indented two spaces a level, as ``json.dumps(indent=2)`` writes it.  It
raises the errors ``json.dumps(report, indent=2, allow_nan=False)`` raises,
with their text."""

import contextlib
import inspect
import io
import json
import math
import struct
import subprocess
import sys
import uuid
from typing import Any, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atsuji.cli import _emit, _Matrix, _report_text, _Violations, main
from atsuji.space import FiniteSpace, Violation

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
TRICKY_CHARS = [", ", ",\x00", "\x00", "%", '"', "\\", "\n", "\x7f", "é", " ",
                "\U0001f600", "\ud800", "\udfff", "a", "[", "}", ": "]

texts = st.one_of(st.text(), st.lists(st.sampled_from(TRICKY_CHARS)).map("".join))
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**64), 10**300]),
    finite_floats,
    st.sampled_from(SPECIAL_FLOATS),
    finite_floats.map(np.float64),
    texts,
)
# every object key of a report is a str
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=5),
    ),
    max_leaves=40,
)


def emitted(obj) -> str:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        _emit(obj, None)
    return sink.getvalue()


def dumped(obj) -> str:
    """json.dumps(indent=2), whose errors the emitter raises."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def reference(tree) -> str:
    """The layout from json alone: ``json.dumps(indent=2)`` of the tree with
    each all-scalar list or object swapped for a unique sentinel string, each
    quoted sentinel then replaced by ``json.dumps`` of the container."""
    token = uuid.uuid4().hex
    lines = {}

    def swap(value):
        if not isinstance(value, (list, tuple, dict)):
            return value
        members = value.values() if isinstance(value, dict) else value
        if all(m is None or isinstance(m, (str, int, float)) for m in members):
            sentinel = f"{token}:{len(lines)}"
            lines[json.dumps(sentinel)] = json.dumps(value, allow_nan=False)
            return sentinel
        if isinstance(value, dict):
            return {key: swap(member) for key, member in value.items()}
        return [swap(member) for member in value]

    text = json.dumps(swap(tree), indent=2, allow_nan=False)
    for quoted, line in lines.items():
        text = text.replace(quoted, line)
    return text + "\n"


def exact(value):
    """A parsed or unparsed JSON value as nested tuples that compare floats
    bit for bit: objects as their (key, value) pairs in order, and each
    scalar tagged with its JSON type.  A string is taken as it reads back
    from JSON, where the escapes of a surrogate pair read as the one
    character they encode."""
    if isinstance(value, Pairs):
        return ("object", tuple((exact(key), exact(member)) for key, member in value))
    if isinstance(value, dict):
        return ("object", tuple((exact(key), exact(member)) for key, member in value.items()))
    if isinstance(value, (list, tuple)):
        return ("array", tuple(map(exact, value)))
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, bool) or value is None:
        return ("literal", value)
    if isinstance(value, int):
        return ("int", int(value))
    return ("string", json.loads(json.dumps(value)))


class Pairs(list):
    """An object as json.loads read it: its (key, value) pairs, repeats kept."""


def parsed(text: str):
    return json.loads(text, object_pairs_hook=Pairs)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_emit_writes_scalar_containers_on_one_line_and_the_rest_indented(tree):
    assert emitted(tree) == reference(tree)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_emit_reads_back_as_the_tree_with_floats_bit_for_bit(tree):
    assert exact(parsed(emitted(tree))) == exact(tree)


@pytest.mark.parametrize(
    "obj, text",
    [
        ([], "[]"),
        ({"a": [1, 2.5], "b": {}}, '{\n  "a": [1, 2.5],\n  "b": {}\n}'),
        ([{"x": None, "y": "s"}, [[]]], '[\n  {"x": null, "y": "s"},\n  [\n    []\n  ]\n]'),
    ],
    ids=["empty", "rows", "nested-empty"],
)
def test_emit_writes_the_layout_as_stated(obj, text):
    assert emitted(obj) == text + "\n" == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [], {}, [[]], [{}], {"a": []}, {"a": {"b": {}}}, ((), ([],)),
        [[1, 2], [3, [4]], "x"],
        {"row": {"b": 0.5, "a": 1e-300}, "ids": ["a", "b"], "n": 2},
        {"1": "int", "2.5": "float", "true": "bool", "null": "none", "s": [np.float64(-0.0)]},
    ],
)
def test_emit_matches_json_dumps_on_shapes(obj):
    assert emitted(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        float("inf"),
        np.float64("nan"),
        [1.0, 2.0, float("nan")],
        {"row": {"a": 0.0, "b": -float("inf")}},
        {"a": {"b": {"c": [1], "d": np.float64("inf")}}},
        [[1, 2], [3, 10**5000]],
    ],
    ids=["top-level", "top-level-np", "leaf-row", "leaf-dict", "nested-dict", "huge-int"],
)
def test_emit_raises_json_dumps_errors(obj):
    with pytest.raises(ValueError) as expected:
        dumped(obj)
    with pytest.raises(ValueError) as raised:
        emitted(obj)
    assert str(raised.value) == str(expected.value)


def test_emit_raises_json_dumps_type_errors():
    for obj in [{("a", "b"): 1}, [1, {2, 3}]]:
        with pytest.raises(TypeError) as expected:
            dumped(obj)
        with pytest.raises(TypeError) as raised:
            emitted(obj)
        assert str(raised.value) == str(expected.value)


def test_emit_rejects_a_circular_report(tmp_path):
    # no report is cyclic, so the writer makes no cycle check: a hand-built
    # cycle recurses until it is nested too deeply, before the file is opened
    loop = {"rows": [[1, 2]]}
    loop["rows"].append(loop)
    out = tmp_path / "report.json"
    with pytest.raises(ValueError, match="nested too deeply"):
        _emit(loop, str(out))
    assert not out.exists()


def test_emit_raises_an_input_error_on_a_report_too_deep_to_encode(tmp_path):
    # json's encoder recurses once per level; main exits 2 on a ValueError
    deep = [1.5]
    for _ in range(2 * sys.getrecursionlimit()):
        deep = [deep]
    out = tmp_path / "report.json"
    with pytest.raises(ValueError, match="nested too deeply"):
        _emit({"inputs": deep}, str(out))
    assert not out.exists()


def test_emit_to_file_matches_stdout(tmp_path):
    report = {"rows": [[0.5, 1.0], [1.0, 0.5]], "ids": ["a", "b"], "nested": {"x": [{}]}}
    out = tmp_path / "report.json"
    _emit(report, str(out))
    assert out.read_text(encoding="utf-8") == emitted(report) == reference(report)


# --- matrix leaves ------------------------------------------------------------

MATRIX_FLOATS = [0.0, -0.0, 5e-324, 1.7976931348623157e308, -2.5, 0.1]


def plain_matrix(space, with_ids):
    """The nested dicts, or lists without ids, that ``_Matrix(space)`` or its
    ``without_ids`` twin stands for."""
    rows = space.dist.tolist()
    if not with_ids:
        return rows
    return {x: dict(zip(space.ids, row)) for x, row in zip(space.ids, rows)}


def plain_violations(ids, violations):
    """The list of dicts that ``_Violations(ids, violations)`` stands for."""
    return [
        {
            "kind": v.kind,
            "indices": v.where,
            "ids": [ids[k] for k in v.where],
            "magnitude": None if math.isinf(v.magnitude) else v.magnitude,
        }
        for v in violations
    ]


class Leaf(NamedTuple):
    """A report leaf, and the nested dicts or lists it stands for."""

    leaf: Any
    plain: Any


def unfold(tree, side: str):
    """``tree`` with each Leaf replaced by its ``side``, "leaf" or "plain"."""
    if isinstance(tree, Leaf):
        return getattr(tree, side)
    if isinstance(tree, dict):
        return {key: unfold(value, side) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [unfold(value, side) for value in tree]
    return tree


@st.composite
def matrices(draw):
    """A Leaf of the ``_Matrix`` of a space of n points, n in 1..5, or of its
    ``without_ids`` twin; the matrix is not symmetric in general, and its
    entries repeat and include both zeros and the extreme magnitudes."""
    n = draw(st.integers(1, 5))
    entries = st.sampled_from(MATRIX_FLOATS) | finite_floats
    values = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    space = FiniteSpace(draw(st.lists(texts, min_size=n, max_size=n, unique=True)), values)
    with_ids = draw(st.booleans())
    leaf = _Matrix(space) if with_ids else _Matrix(space).without_ids()
    return Leaf(leaf, plain_matrix(space, with_ids))


@st.composite
def violation_lists(draw):
    """A Leaf of violations on n points, n in 1..5, with pair and triple
    ``where``s, ids with escapes, and magnitudes that include infinities and
    the extremes; the list may be empty."""
    n = draw(st.integers(1, 5))
    ids = draw(st.lists(texts, min_size=n, max_size=n, unique=True).map(tuple))
    kinds = st.sampled_from(["nonneg", "symmetry", "identity", "triangle"])
    where = st.lists(st.integers(0, n - 1), min_size=2, max_size=3).map(tuple)
    magnitudes = st.sampled_from([math.inf, -math.inf, *MATRIX_FLOATS]) | finite_floats
    violations = draw(st.lists(st.builds(Violation, kinds, where, magnitudes), max_size=6))
    return Leaf(_Violations(ids, violations), plain_violations(ids, violations))


@st.composite
def trees_with_a_leaf(draw, leaves):
    """A report leaf at depth 0 to 3, with siblings before and after it."""
    tree = draw(leaves)
    for _ in range(draw(st.integers(0, 3))):
        before = draw(st.lists(trees, max_size=2))
        after = draw(st.lists(trees, max_size=2))
        if draw(st.booleans()):
            tree = [*before, tree, *after]
        else:
            keys = draw(st.lists(texts, min_size=3, max_size=3, unique=True))
            tree = {keys[0]: before, keys[1]: tree, keys[2]: after}
    return tree


@settings(max_examples=400, deadline=None)
@given(trees_with_a_leaf(matrices()))
def test_a_matrix_is_written_as_json_dumps_writes_its_rows(tree):
    text = "".join(_report_text(unfold(tree, "leaf")))
    assert text == reference(unfold(tree, "plain"))
    assert exact(parsed(text)) == exact(unfold(tree, "plain"))


@settings(max_examples=400, deadline=None)
@given(trees_with_a_leaf(violation_lists()))
def test_violations_are_written_as_json_dumps_writes_their_dicts(tree):
    text = "".join(_report_text(unfold(tree, "leaf")))
    assert text == reference(unfold(tree, "plain"))
    assert exact(parsed(text)) == exact(unfold(tree, "plain"))


NO_ACCELERATOR = """
import sys
sys.modules["_json"] = None  # json falls back to its pure-Python encoder
import json
import uuid
from json import encoder
assert encoder.c_make_encoder is None
import numpy as np
from atsuji.cli import _Matrix, _report_text, _Violations
from atsuji.space import FiniteSpace, Violation
# reference
trees = [
    {"newdist": {"a": {"a": 0.0, "b": 0.1}, "b": {"a": 0.1, "b": 0.0}}, "ids": ["a", "\\ud800,\\x00"]},
    [[], {}, [[1, 2.5e-300, None, True]], {"k": (), "1": [-0.0], "null": {"x": "\\u00e9"}}],
]
for tree in trees:
    assert "".join(_report_text(tree)) == reference(tree)
values = np.array([[0.0, -0.0], [0.1, 0.1]])
ids = ("\\ud800,\\x00", "%\\u00e9")
rows = values.tolist()
space = FiniteSpace(ids, values)
for tree, expected in [
    ({"m": _Matrix(space)}, {"m": {x: dict(zip(ids, row)) for x, row in zip(ids, rows)}}),
    ([_Matrix(space).without_ids()], [rows]),
]:
    assert "".join(_report_text(tree)) == reference(expected)
violations = [Violation("triangle", (0, 1, 0), 2.5), Violation("nonneg", (1, 0), float("inf"))]
expected = {"result": {"passed": False, "violations": [
    {"kind": "triangle", "indices": [0, 1, 0], "ids": [ids[0], ids[1], ids[0]], "magnitude": 2.5},
    {"kind": "nonneg", "indices": [1, 0], "ids": [ids[1], ids[0]], "magnitude": None},
]}, "empty": []}
tree = {"result": {"passed": False, "violations": _Violations(ids, violations)},
        "empty": _Violations(ids, [])}
assert "".join(_report_text(tree)) == reference(expected)
for tree, value in [({"row": [1.0, float("nan")]}, "nan"), ({"rows": [[1]], "k": -float("inf")}, "-inf")]:
    try:
        _report_text(tree)
    except ValueError as exc:
        assert str(exc) == "Out of range float values are not JSON compliant: " + value, exc
    else:
        raise AssertionError("a non-finite float was encoded")
"""


def test_emit_without_json_accelerator_matches_json_dumps():
    # the child defines reference() from its source here, once json is imported
    script = NO_ACCELERATOR.replace("# reference\n", inspect.getsource(reference))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def builtin_with(extra: str) -> str:
    return ('{"space": {"kind": "builtin", "name": "convergent_sequence", '
            f'"params": {{"n_max": 5}}}}, {extra}}}')


@pytest.mark.parametrize(
    "extra",
    ['"comment": 1e400', '"comment": [1, 2, -1e400]', '"comment": {"a": {"b": 1e400, "c": [1]}}'],
    ids=["top-level", "leaf-row", "nested-dict"],
)
@pytest.mark.parametrize("command", [["net", "--eps", "0.5"], ["remetrize"]])
def test_non_finite_echo_exits_2_and_leaves_no_report(tmp_path, capsys, extra, command):
    spec = tmp_path / "spec.json"
    spec.write_text(builtin_with(extra), encoding="utf-8")
    out, matrix = tmp_path / "report.json", tmp_path / "matrix.json"
    argv = [command[0], str(spec), *command[1:], "--out", str(out)]
    if command[0] == "remetrize":
        argv += ["--out-matrix", str(matrix)]
    assert main(argv) == 2
    assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, field",
    [
        (builtin_with('"comment": [1, 1e400]'), "comment"),
        ('{"space": {"kind": "points_l2", "points": '
         '[{"id": "a", "coords": {"1": 0.5}, "note": 1e400}]}}', "space.points"),
    ],
    ids=["comment", "point-field"],
)
def test_a_non_finite_echo_error_names_the_value(tmp_path, capsys, text, field):
    spec = tmp_path / "spec.json"
    spec.write_text(text, encoding="utf-8")
    assert main(["net", str(spec), "--eps", "0.5"]) == 2
    assert capsys.readouterr().err == (
        f"error: {field}: Out of range float values are not JSON compliant: inf\n")


def nested(depth: int, lists_only: bool) -> str:
    """An echoed field nested ``depth`` deep, lists and dicts alternating or
    lists only, around a non-empty innermost leaf."""
    text = '{"leaf": [1, 2.5, "x"]}'
    for k in range(depth):
        text = f"[{text}]" if k % 2 or lists_only else f'{{"k": {text}}}'
    return text


@pytest.mark.parametrize("depth, lists_only", [
    *[pytest.param(depth, False, id=str(depth)) for depth in (500, 900, 960, 980, 990, 995, 998)],
    *[pytest.param(depth, True, id=f"lists-{depth}") for depth in (500, 980, 990, 998)],
])
def test_deeply_nested_echo_is_echoed_or_input_error(tmp_path, depth, lists_only):
    spec = tmp_path / "spec.json"
    spec.write_text(builtin_with(f'"comment": {nested(depth, lists_only)}'), encoding="utf-8")
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "atsuji", "net", str(spec), "--eps", "0.5", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert "Traceback" not in proc.stderr
    if proc.returncode == 2:
        assert proc.stderr.startswith("error: ")
        assert not out.exists()
        return
    assert proc.returncode == 0
    text = out.read_text(encoding="utf-8")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4 * depth)  # json's own encoder recurses per level
    try:
        report = json.loads(text)
        assert report["inputs"]["spec"] == json.loads(spec.read_text(encoding="utf-8"))
        assert text == reference(report)
    finally:
        sys.setrecursionlimit(limit)


def test_every_echo_depth_that_parses_is_written_or_rejected_at_load(tmp_path, capsys):
    # the depths json.loads reads but the writer cannot write back sit where
    # the stack above main puts them, and shift with the Python version, so
    # the scan starts below them and runs to the first depth json.loads
    # rejects: a depth at a time while reports are written, then doubling
    # its step, then bisecting for that depth
    spec, out = tmp_path / "spec.json", tmp_path / "report.json"

    def outcome(depth: int) -> str:
        spec.write_text(builtin_with(f'"comment": {nested(depth, False)}'), encoding="utf-8")
        code = main(["net", str(spec), "--eps", "0.5", "--out", str(out)])
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
            out.unlink()
            return "written"
        assert code == 2 and not out.exists()
        if err.startswith("error: spec: invalid JSON: nested too deeply"):
            return "parse"
        assert err == "error: comment: nested too deeply to encode\n", (depth, err)
        return "load"

    low = sys.getrecursionlimit() - len(inspect.stack()) - 50
    assert outcome(low) == "written"
    while (found := outcome(low + 1)) == "written":
        low += 1
    step = 1
    while found != "parse":
        low, step = low + step, 2 * step
        found = outcome(low + step)
    high = low + step  # low parses, high does not
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if outcome(mid) == "parse" else (mid, high)
