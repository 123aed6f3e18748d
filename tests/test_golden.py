"""Reports, exit codes, stderr and ``--out-matrix`` files of the golden corpus
in ``tests/golden/``.

Each case runs ``main`` in a temporary directory holding a copy of its spec,
under the spec's name in the corpus, so the report echoes the same spec path
and the case's other output files are written there, not into the corpus.
Every file must reproduce the corpus byte for byte.
``tests/golden/regen.py`` is the only way the corpus is rewritten.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from atsuji.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="ascii"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(tmp_path, capsys, monkeypatch, name):
    case = CASES[name]
    argv = case["argv"]
    shutil.copy(GOLDEN / argv[1], tmp_path)  # argv[1] is the spec path
    out = tmp_path / f"{name}.report.json"
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", str(out)]) == case["exit"]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", case["stderr"])
    written = [argv[k + 1] for k, flag in enumerate(argv) if flag == "--out-matrix"]
    for path in [out.name, *written]:
        expected = GOLDEN / path
        assert (tmp_path / path).exists() == expected.exists(), path
        if expected.exists():
            assert (tmp_path / path).read_bytes() == expected.read_bytes(), path


@pytest.mark.parametrize("crash", ["traceback", "exit-3"])
def test_regen_refuses_to_pin_a_crash(tmp_path, monkeypatch, crash):
    spec = importlib.util.spec_from_file_location("regen", GOLDEN / "regen.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)

    def crashing_main(argv):
        if crash == "traceback":
            raise BrokenPipeError(32, "Broken pipe")
        return 3

    monkeypatch.setattr(regen, "HERE", tmp_path)
    monkeypatch.setattr(regen, "main", crashing_main)
    with pytest.raises(SystemExit) as exited:
        regen.regenerate()
    assert exited.value.code not in (0, None)
    assert list(tmp_path.iterdir()) == []


def test_the_corpus_stays_under_one_megabyte():
    size = sum(path.stat().st_size for path in GOLDEN.iterdir() if path.is_file())
    assert size < 1_000_000, f"the golden corpus holds {size} bytes"
