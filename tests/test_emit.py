"""The report emitter writes exactly ``json.dumps(report, indent=2,
allow_nan=False)`` plus a newline, for any JSON tree, and raises its errors."""

import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atsuji.cli import _emit, _Matrix, _report_text, main

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
keys = st.one_of(texts, st.integers(), finite_floats, st.booleans(), st.none())
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=5),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=40,
)


def emitted(obj) -> str:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        _emit(obj, None)
    return sink.getvalue()


def dumped(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


@settings(max_examples=400, deadline=None)
@given(trees)
def test_emit_is_json_dumps_with_indent_2(tree):
    assert emitted(tree) == dumped(tree)


@pytest.mark.parametrize(
    "obj",
    [
        [], {}, [[]], [{}], {"a": []}, {"a": {"b": {}}}, ((), ([],)),
        [[1, 2], [3, [4]], "x"],
        {"row": {"b": 0.5, "a": 1e-300}, "ids": ["a", "b"], "n": 2},
        {1: "int", 2.5: "float", True: "bool", None: "none", "s": [np.float64(-0.0)]},
    ],
)
def test_emit_matches_json_dumps_on_shapes(obj):
    assert emitted(obj) == dumped(obj)


@pytest.mark.parametrize(
    "obj",
    [
        float("inf"),
        np.float64("nan"),
        [1.0, 2.0, float("nan")],
        {"row": {"a": 0.0, "b": -float("inf")}},
        {"a": {"b": {"c": [1], "d": np.float64("inf")}}},
        {"a": [{"ok": 1}], float("-inf"): 2},
        [[1, 2], [3, 10**5000]],
    ],
    ids=["top-level", "top-level-np", "leaf-row", "leaf-dict", "nested-dict", "key", "huge-int"],
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


def test_emit_rejects_a_circular_report():
    loop = {"rows": [[1, 2]]}
    loop["rows"].append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        emitted(loop)


def test_emit_to_file_matches_stdout(tmp_path):
    report = {"rows": [[0.5, 1.0], [1.0, 0.5]], "ids": ["a", "b"], "nested": {"x": [{}]}}
    out = tmp_path / "report.json"
    _emit(report, str(out))
    assert out.read_text(encoding="utf-8") == emitted(report) == dumped(report)


# --- matrix leaves ------------------------------------------------------------

MATRIX_FLOATS = [0.0, -0.0, 5e-324, 1.7976931348623157e308, -2.5, 0.1]


def plain(tree):
    """``tree`` with each _Matrix replaced by the nested dicts or lists that
    json.dumps would write for it."""
    if isinstance(tree, _Matrix):
        rows = tree.values.tolist()
        if tree.ids is None:
            return rows
        return {x: dict(zip(tree.ids, row)) for x, row in zip(tree.ids, rows)}
    if isinstance(tree, dict):
        return {key: plain(value) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [plain(value) for value in tree]
    return tree


@st.composite
def matrices(draw):
    """An n x n matrix, n in 1..5, not symmetric in general, whose entries
    repeat and include both zeros and the extreme magnitudes; with or
    without ids."""
    n = draw(st.integers(1, 5))
    entries = st.sampled_from(MATRIX_FLOATS) | finite_floats
    values = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    ids = draw(st.none() | st.lists(texts, min_size=n, max_size=n, unique=True).map(tuple))
    return _Matrix(values, ids)


@st.composite
def trees_with_a_matrix(draw):
    """A matrix at depth 0 to 3, with siblings before and after it."""
    tree = draw(matrices())
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
@given(trees_with_a_matrix())
def test_a_matrix_is_written_as_json_dumps_writes_its_rows(tree):
    assert "".join(_report_text(tree)) == dumped(plain(tree))


@pytest.mark.parametrize(
    "rows, ids",
    [
        ([[1.0, float("nan")], [float("inf"), 0.0]], None),
        ([[1.0, float("-inf")], [float("nan"), 0.0]], ("a", "b")),
        ([[float("inf")]], ("a",)),
    ],
    ids=["nan-first", "-inf-first", "1x1-inf"],
)
def test_a_non_finite_matrix_raises_json_dumps_error_before_opening_out(tmp_path, rows, ids):
    tree = {"before": [1.5], "m": _Matrix(np.array(rows), ids)}
    with pytest.raises(ValueError) as expected:
        dumped(plain(tree))
    out = tmp_path / "report.json"
    with pytest.raises(ValueError) as raised:
        _emit(tree, str(out))
    assert str(raised.value) == str(expected.value)
    assert not out.exists()


NO_ACCELERATOR = """
import sys
sys.modules["_json"] = None  # json falls back to its pure-Python encoder
import json
from json import encoder
assert encoder.c_make_encoder is None
import numpy as np
from atsuji.cli import _Matrix, _report_text
trees = [
    {"newdist": {"a": {"a": 0.0, "b": 0.1}, "b": {"a": 0.1, "b": 0.0}}, "ids": ["a", "\\ud800,\\x00"]},
    [[], {}, [[1, 2.5e-300, None, True]], {"k": (), 1: [-0.0], None: {"x": "\\u00e9"}}],
]
for tree in trees:
    assert "".join(_report_text(tree)) == json.dumps(tree, indent=2, allow_nan=False) + "\\n"
values = np.array([[0.0, -0.0], [0.1, 0.1]])
ids = ("\\ud800,\\x00", "%\\u00e9")
rows = values.tolist()
for tree, expected in [
    ({"m": _Matrix(values, ids)}, {"m": {x: dict(zip(ids, row)) for x, row in zip(ids, rows)}}),
    ([_Matrix(values)], [rows]),
]:
    assert "".join(_report_text(tree)) == json.dumps(expected, indent=2, allow_nan=False) + "\\n"
try:
    _report_text({"row": [1.0, float("nan")]})
except ValueError as exc:
    assert str(exc) == "Out of range float values are not JSON compliant: nan", exc
else:
    raise AssertionError("nan was encoded")
"""


def test_emit_without_json_accelerator_matches_json_dumps():
    proc = subprocess.run([sys.executable, "-c", NO_ACCELERATOR], capture_output=True, text=True)
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


def nested(depth: int) -> str:
    """An echoed field nested ``depth`` deep, lists and dicts alternating,
    around a non-empty innermost leaf."""
    text = '{"leaf": [1, 2.5, "x"]}'
    for k in range(depth):
        text = f"[{text}]" if k % 2 else f'{{"k": {text}}}'
    return text


@pytest.mark.parametrize("depth", [500, 900, 960, 980, 990, 995, 998])
def test_deeply_nested_echo_is_echoed_or_input_error(tmp_path, depth):
    spec = tmp_path / "spec.json"
    spec.write_text(builtin_with(f'"comment": {nested(depth)}'), encoding="utf-8")
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
        assert text == dumped(report)
    finally:
        sys.setrecursionlimit(limit)
