"""The exit-code contract under hostile input.

Every subcommand runs in-process on a valid spec of each arm with one field
replaced by arbitrary JSON, or removed, or with the whole spec replaced:
wrong types, numbers beyond the double range (``10**400``, ``1e400``),
zero-padded and repeated object keys, nested lists and objects.  Whatever
the input, ``main`` raises nothing and returns 0, 1 or 2.  On 2 its stderr is
exactly one line starting with ``error: `` and no report is written; on 0
and 1 its stderr is empty.

Sizes (``n_max``, ``i_max``, ``j_max``) are drawn small.  A huge size is a
well-typed spec that exhausts memory, because nothing yet bounds the point
count before the distance matrix is allocated.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atsuji import cli
from atsuji.cli import main


class Obj(tuple):
    """A JSON object as (key, value) pairs, so a key may repeat."""


class Raw(str):
    """JSON text written as is: number literals json.dumps cannot write."""


DROP = object()  # the field is removed


def text(value) -> str:
    if isinstance(value, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {text(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(text, value)) + "]"
    return value if isinstance(value, Raw) else json.dumps(value)


def replace(node, path: tuple, new):
    """``node`` with the value at ``path`` replaced by ``new``: added when
    absent, removed when ``new`` is DROP."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(node, list):
        members = [replace(v, rest, new) if k == head else v for k, v in enumerate(node)]
        return [v for v in members if v is not DROP]
    pairs = [(k, replace(v, rest, new) if k == head else v) for k, v in node.items()]
    if head not in node:
        pairs.append((head, new))
    return Obj((k, v) for k, v in pairs if v is not DROP)


def paths(node, prefix=()):
    yield prefix
    members = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, member in members:
        yield from paths(member, prefix + (key,))


NAMES = st.sampled_from([
    "builtin", "points_l2", "matrix", "oracle", "detect", "empty", "sequence_grid_E",
    "positive_integers", "convergent_sequence", "d1", "d2", "zero", "n1", "p_1_1", "a",
])
KEYS = st.sampled_from(["1", "01", "001", "2", "0", " 1", "-1", "1.0", "", "id", "kind"]) | (
    st.text(max_size=4))
EXTREMES = st.sampled_from([
    10**400, -10**400, Raw("1e400"), Raw("-1e400"), Raw("1e-400"), Raw("-0.0"), Raw("NaN"),
])
NOT_INTS = st.none() | st.booleans() | st.floats() | st.text(max_size=6) | NAMES | (
    EXTREMES.filter(lambda v: type(v) is not int))
SCALARS = NOT_INTS | st.integers() | EXTREMES
SIZES = NOT_INTS | st.integers(-2, 12)


def json_values(scalars):
    return st.recursive(
        scalars,
        lambda members: st.lists(members, max_size=4)
        | st.lists(st.tuples(KEYS, members), max_size=4).map(Obj),
        max_leaves=10,
    )


def builtin(name, **params):
    return {"space": {"kind": "builtin", "name": name, "params": params}}


# (spec, two of its point ids for --a and --b)
BASES = {
    "sequence_grid_E": (builtin("sequence_grid_E", i_max=3, j_max=3, include_origin=True),
                        "zero", "p_1_1"),
    "positive_integers": (builtin("positive_integers", n_max=6, metric="d2"), "n1", "n2"),
    "convergent_sequence": (builtin("convergent_sequence", n_max=6), "zero", "n1"),
    "points_l2": ({"space": {"kind": "points_l2", "points": [
        {"id": "a", "coords": {"1": 1.0}},
        {"id": "b", "coords": {"1": 0.5, "2": 0.25}},
        {"id": "c"},
    ]}, "derived_set": {"kind": "oracle", "ids": ["c"]}}, "a", "b"),
    "matrix": ({"space": {"kind": "matrix", "ids": ["a", "b", "c"],
                          "matrix": [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]},
                "derived_set": {"kind": "empty"}, "tol": 1e-9}, "a", "b"),
}
SIZE_FIELDS = {"n_max", "i_max", "j_max"}


def commands(a: str, b: str, matrix_path: str) -> list[list[str]]:
    return [
        ["check-metric"],
        ["atsuji", "--eps-grid", "1,0.25", "--threshold", "0.01"],
        ["remetrize", "--out-matrix", matrix_path],
        *[["witness", "--fn", fn, "--eps0", "0.5", "--delta", "0.6"]
          for fn in ("parity", "identity", "const")],
        ["witness", "--fn", "separator", "--eps0", "0.5", "--delta", "0.6", "--a", a, "--b", b],
        ["separator", "--a", a, "--b", b],
        ["net", "--eps", "0.5"],
    ]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def assert_contract(workdir, spec_text: str, command: list[str]) -> None:
    spec, out = workdir / "spec.json", workdir / "report.json"
    spec.write_text(spec_text, encoding="utf-8")
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command[0], str(spec), *command[1:], "--out", str(out)])
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    assert stdout.getvalue() == ""
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert not out.exists()
    else:
        assert err == ""
        json.loads(out.read_text(encoding="utf-8"))


@st.composite
def mutations(draw, base: str):
    spec, a, b = BASES[base]
    path = draw(st.sampled_from([*paths(spec), ("comment",)]))
    values = json_values(SIZES if path and path[-1] in SIZE_FIELDS else SCALARS)
    new = draw(values | st.just(DROP)) if path else draw(values)
    return text(replace(spec, path, new)), a, b


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
@pytest.mark.parametrize("base", sorted(BASES))
def test_every_command_keeps_the_exit_code_contract(workdir, base, data):
    spec_text, a, b = data.draw(mutations(base))
    command = data.draw(st.sampled_from(commands(a, b, str(workdir / "matrix.json"))))
    assert_contract(workdir, spec_text, command)


FLAG_VALUES = st.sampled_from(
    ["1", "0.5", "1e-3", "0", "-1", "inf", "-inf", "nan", "1e400", "abc", "", "--x"]
) | st.text(max_size=6)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(value=FLAG_VALUES, flag=st.sampled_from([
    ("atsuji", "--eps-grid"), ("atsuji", "--threshold"), ("net", "--eps"),
    ("witness", "--eps0"), ("witness", "--delta"), ("separator", "--a"), ("separator", "--b"),
    ("check-metric", "--tol"),
]), joined=st.booleans())
def test_every_flag_value_keeps_the_exit_code_contract(workdir, value, flag, joined):
    command, name = flag
    fixed = {"witness": ["--fn", "const", "--eps0=0.5", "--delta=0.5"], "net": ["--eps=0.5"],
             "separator": ["--a=zero", "--b=n1"]}.get(command, [])
    # --flag=value keeps a value that starts with "-" a value; as a separate
    # argument argparse reads it as an option.  The last occurrence of a flag wins
    spec_text = json.dumps(builtin("convergent_sequence", n_max=6))
    given_as = [f"{name}={value}"] if joined else [name, value]
    assert_contract(workdir, spec_text, [command, *fixed, *given_as])


@pytest.mark.parametrize("name", [["convergent_sequence"], {"n_max": 5}], ids=["list", "object"])
def test_builtin_name_of_the_wrong_type_is_input_error(tmp_path, capsys, name):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"space": {"kind": "builtin", "name": name}}), encoding="utf-8")
    assert main(["check-metric", str(spec)]) == 2
    assert capsys.readouterr().err == f"error: space.name: must be a JSON string, got {name!r}\n"


POINTS_AB = '[{"id": "a", "coords": {}}, {"id": "b", "coords": {"1": 1}}]'


def points_with_note(note: str) -> str:
    return ('{"space": {"kind": "points_l2", "points": [{"id": "a", "coords": {}, '
            f'"note": {note}}}, {{"id": "b", "coords": {{"1": 1}}}}]}}}}')


@pytest.mark.parametrize("spec_text, field", [
    *[pytest.param(points_with_note(note), "space.points", id=note)
      for note in ["NaN", "-Infinity", "1e400", '[{"deep": NaN}]']],
    pytest.param(f'{{"space": {{"kind": "points_l2", "points": {POINTS_AB}}}, "comment": NaN}}',
                 "comment", id="comment-NaN"),
    pytest.param(f'{{"space": {{"kind": "points_l2", "points": {POINTS_AB}}}, '
                 '"derived_set": {"kind": "oracle", "ids": ["a"], "why": [Infinity]}}',
                 "derived_set", id="derived_set-field-Infinity"),
    pytest.param('{"space": {"kind": "matrix", "ids": ["a", "b"], "matrix": [[0, 1], [1, 0]], '
                 '"note": {"x": 1e400}}}', "space", id="matrix-space-field-1e400"),
    pytest.param('{"space": {"kind": "builtin", "name": "convergent_sequence", '
                 '"params": {"n_max": 3}}, "tags": [-Infinity]}',
                 "tags", id="builtin-tags-Infinity"),
])
def test_a_non_finite_value_in_a_point_entry_is_input_error_at_load(
    tmp_path, monkeypatch, spec_text, field
):
    # the echo is written as JSON, which has no NaN or infinity: the spec is
    # rejected at load, naming the field, before any command computes or writes
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text, encoding="utf-8")
    ran = []
    for name in list(cli._COMMANDS):
        monkeypatch.setitem(cli._COMMANDS, name, lambda *args: ran.append(args))
    out, matrix = tmp_path / "report.json", tmp_path / "matrix.json"
    for command in commands("a", "b", str(matrix)):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([command[0], str(spec), *command[1:], "--out", str(out)])
        err = stderr.getvalue()
        assert code == 2
        assert err.startswith(f"error: {field}: Out of range float values") and (
            err.count("\n") == 1 and err.endswith("\n")), err
        assert not out.exists() and not matrix.exists()
    assert ran == []
