"""The mutation gate's table (``tests/mutants.py``) still applies to the code
under test: each row's source text occurs exactly once in its file, and each
test it names exists.  So an edit that breaks a row fails here, in the suite,
and not only in the gate's own run."""

from pathlib import Path

import atsuji
from mutants import MUTANTS

PACKAGE = Path(atsuji.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def test_every_mutant_row_applies_and_names_tests_that_exist():
    broken = []
    for k, row in enumerate(MUTANTS, 1):
        count = (PACKAGE / row.path).read_text(encoding="utf-8").count(row.source)
        if count != 1:
            broken.append(f"row {k}: {row.source!r} occurs {count} times in {row.path}")
        for name in row.tests:
            path, _, test = name.partition("::")
            file = TESTS / path
            if not file.is_file() or (test and f"\ndef {test}(" not in file.read_text("utf-8")):
                broken.append(f"row {k}: no test {name}")
    assert broken == []
