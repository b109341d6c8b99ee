"""`tools/ab.py`'s parsing and summary, on canned perfbench output; no
benchmark runs."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BETTER = {"wall_ref": "lower", "schedules_per_ref": "higher"}


def _stdout(wall: float, digest: str = "d0", correct: bool = True,
            failed: int = 0) -> str:
    """What `perfbench/run.py --trace 0` prints, with these values."""
    line = {"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "wall_ref": {"value": wall, "unit": "ref"},
        "schedules_per_ref": {"value": 100 / wall, "unit": "1/ref"}}}
    return "\n".join([
        'env {"nproc": 2, "python": "3.11.7"}',
        f"digest {digest}",
        "objective 0.25 failed_frac 0.0",
        'details {"passes": 3}',
        "full result perfbench/out/x.json",
        json.dumps(line),
    ]) + "\n"


def test_a_run_is_its_last_line_with_its_digest_and_objective():
    run = ab.parse_run(_stdout(40.0, digest="abc"))
    assert run["metrics"]["wall_ref"]["value"] == 40.0
    assert (run["digest"], run["objective"], run["correct"]) == ("abc", "0.25", True)


def test_the_summary_gives_medians_wins_and_the_parents_spread():
    walls = [(50.0, 45.0), (48.0, 49.0), (52.0, 44.0), (46.0, 43.0)]
    pairs = [(ab.parse_run(_stdout(p)), ab.parse_run(_stdout(c))) for p, c in walls]
    rows = {line.split()[0]: line.split()
            for line in ab.summarize("w", pairs, BETTER).splitlines()}
    # parent median 49, change median 44.5, the change won three pairs;
    # the parent's quartiles are 46.5 and 51.5 (`statistics.quantiles`)
    assert rows["wall_ref"][1:] == ["49", "44.5", "-9.2%", "3/4", "5"]
    # higher is better: the same three pairs
    assert rows["schedules_per_ref"][4] == "3/4"
    assert rows["w:"] == ["w:", "4", "alternating", "pairs"]


def test_the_summary_names_every_digest_and_every_bad_run():
    pairs = [(ab.parse_run(_stdout(40.0)), ab.parse_run(_stdout(39.0, digest="d1"))),
             (ab.parse_run(_stdout(41.0, correct=False)),
              ab.parse_run(_stdout(38.0, failed=2)))]
    text = ab.summarize("w", pairs, BETTER)
    assert "parent digest d0 objective 0.25" in text
    assert "change digest d0 objective 0.25" in text
    assert "change digest d1 objective 0.25" in text
    assert "parent run 2: correct False, failed 0 of 10" in text
    assert "change run 2: correct True, failed 2 of 10" in text
    assert "every run correct" not in text
    clean = ab.summarize("w", pairs[:1], BETTER)
    assert clean.endswith("every run correct, none failed")


def test_a_run_passes_its_seed_to_the_benchmark(monkeypatch, tmp_path):
    seen = []

    def fake(cmd, **kwargs):
        seen.append((cmd, kwargs["cwd"]))
        return ab.subprocess.CompletedProcess(cmd, 0, _stdout(40.0), "")

    monkeypatch.setattr(ab.subprocess, "run", fake)
    for seed in (7, None):
        run = ab.run_once(tmp_path, "w", *([seed] if seed else []))
        cmd, cwd = seen[-1]
        assert cwd == tmp_path and run["metrics"]["wall_ref"]["value"] == 40.0
        assert cmd[cmd.index("--workload") + 1] == "w"
        assert cmd[cmd.index("--seed") + 1] == str(seed or 1)


# the parent's walls: median 54, quartiles 51.5 and 56.5, so an IQR of 5
PARENT_WALLS = [50.0, 52.0, 54.0, 56.0, 58.0] * 2
BOUNDS = {"wall_ref": 0.25, "schedules_per_ref": 0.25}


@pytest.mark.parametrize("change, claim, held", [
    ([40.0] * 9 + [60.0], "yes", "yes"),  # won 9 of 10, medians 54 -> 40
    ([40.0] * 8 + [60.0] * 2, "no", "yes"),  # won only 8 of 10
    ([w - 1 for w in PARENT_WALLS], "no", "yes"),  # won all, by 1, within the IQR
    ([58.0] * 10, "no", "yes"),  # +7.4%, within the bound
    ([70.0] * 10, "no", "no"),  # +29.6%, past the bound
], ids=["claim", "eight-wins", "inside-the-iqr", "worse-in-bound", "worse-past-bound"])
def test_with_bounds_a_row_says_whether_a_claim_holds_and_the_bound_is_kept(
        change, claim, held):
    pairs = [(ab.parse_run(_stdout(p)), ab.parse_run(_stdout(c)))
             for p, c in zip(PARENT_WALLS, change)]
    lines = ab.summarize("w", pairs, BETTER, BOUNDS).splitlines()
    assert lines[1].split()[-3:] == ["claim", "in", "bound"]
    row = next(line.split() for line in lines if line.startswith("wall_ref"))
    assert row[5] == "5" and row[6:] == [claim, held]
