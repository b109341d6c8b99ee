"""`tools/mutants.py`'s list against the source: every mutant's snippet is
still there, exactly once; no mutant runs."""
from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_applies_exactly_once():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        assert m.replacement != m.snippet and m.tests, m.name
        assert mutants.occurrences(m) == 1, m.name
