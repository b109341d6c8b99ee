"""`tools/mutants.py`'s list against the source: every mutant's snippet is
still there, exactly once; no mutant of the list runs. One run checks the
time bound."""
from __future__ import annotations

import importlib.util
import time
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


def test_a_run_past_the_bound_is_timed_out(tmp_path, monkeypatch):
    """A mutant whose test outlasts `TIMEOUT` is stopped there, with the
    verdict `timed out`, which is not `killed`."""
    sleeper = tmp_path / "test_sleeps.py"
    sleeper.write_text("import time\n\n\ndef test_sleeps():\n    time.sleep(60)\n")
    monkeypatch.setattr(mutants, "TIMEOUT", 2)
    mutant = mutants.MUTANTS[0]._replace(tests=(str(sleeper),))
    start = time.monotonic()
    assert mutants.run(mutant) == "timed out"
    assert time.monotonic() - start < 30
