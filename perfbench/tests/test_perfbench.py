"""Tests of the benchmark itself: its contract, tiny passes, the tracer.

    python -m pytest perfbench/tests
"""
from __future__ import annotations

import importlib
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.tracing import PATCHES, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Solving, Training  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny(name):
    wl = WORKLOADS[name]
    if isinstance(wl, Training):
        return replace(wl, cells=2, population=4, n_test=1, realizations=2)
    assert isinstance(wl, Solving)
    return replace(wl, instances=2, schedules=6, chunk=4)


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS) and 2 <= len(names) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    seen = set(names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
        assert m["name"] not in seen
        seen.add(m["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "wall_ref", "schedules_per_ref", "peak_rss_mb", "setup_s"}
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def check_line(result, metrics):
    line = result["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, result["errors"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert json.loads(json.dumps(line)) == line
    assert set(line["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_pass_of_each_workload(name):
    wl = tiny(name)
    plain = harness.run(name, 5, 0.01, False, wl)
    check_line(plain, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in plain["line"]["metrics"].values())

    traced = harness.run(name, 5, 0.01, True, wl)
    check_line(traced, SPEC["per_layer"])
    assert (traced["digest"], traced["objective"]) == (plain["digest"], plain["objective"])
    layer = traced["line"]["metrics"]
    attributed = sum(layer[f"{n}.self_s"]["value"] for n in harness.LAYERS
                     if n not in ("instgen.generate_instance", "model.analysis",
                                     "model.validate_schedule"))
    assert attributed + layer["trace.unattributed_s"]["value"] == pytest.approx(
        layer["trace.wall_s"]["value"], rel=0.05)

    again = harness.run(name, 5, 0.01, False, wl)
    assert again["digest"] == plain["digest"]
    other = harness.run(name, 6, 0.01, False, wl)
    assert other["digest"] != plain["digest"]


def originals():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in PATCHES}


def test_tracer_restores_every_global_it_patched():
    before = originals()
    tracer = Tracer()
    with tracer:
        during = originals()
        assert all(during[k] is not before[k] for k in before)
        assert all(during[k].__wrapped__ is before[k] for k in before)
    assert all(v is before[k] for k, v in originals().items())

    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(v is before[k] for k, v in originals().items())


def test_self_times_add_up_to_the_root():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))
    mid = tracer.wrap("mid", lambda: [leaf() for _ in range(3)], span=True)
    tracer.frame("root", lambda: [mid() for _ in range(2)], span=True)
    assert tracer.calls == {"leaf": 6, "mid": 2, "root": 1}
    root = next(s for s in tracer.spans if s[2] == "root")
    assert sum(tracer.self_ns.values()) == root[4] - root[3]
    assert [s[1] for s in tracer.spans if s[2] == "mid"] == [root[0], root[0]]


def test_missing_sources_exit_without_a_result(tmp_path):
    import shutil
    import subprocess
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "solve-ggp-j30", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60, env={"PATH": "/usr/bin:/bin"})
    assert p.returncode != 0
    assert p.stdout == ""
