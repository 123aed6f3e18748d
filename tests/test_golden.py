"""Reports, exit codes and stderr of the golden corpus in ``tests/golden/``.

Each case runs ``main`` with that directory as its working directory and its
report written to a temporary file, and must reproduce the corpus byte for
byte.  ``tests/golden/regen.py`` is the only way the corpus is rewritten.
"""

import json
from pathlib import Path

import pytest

from atsuji.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="ascii"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(tmp_path, capsys, monkeypatch, name):
    case = CASES[name]
    out = tmp_path / "report.json"
    monkeypatch.chdir(GOLDEN)
    assert main([*case["argv"], "--out", str(out)]) == case["exit"]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", case["stderr"])
    expected = GOLDEN / f"{name}.report.json"
    assert out.exists() == expected.exists()
    if expected.exists():
        assert out.read_bytes() == expected.read_bytes()
