"""End-to-end smoke tests for the command line interface."""
import json

import pytest

from kneegp.cli import main
from kneegp.model import load_instance, schedule_from_dict, validate_schedule
from kneegp.rules import load_rules

from conftest import demo_instance


@pytest.fixture
def demo_file(tmp_path):
    from kneegp.model import save_instance

    path = tmp_path / "demo.json"
    save_instance(demo_instance(), path)
    return path


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "pair.rules"
    path.write_text("ordering: (add LFT ExpDur)\ngroup: (neg (add RR ExpDur))\n")
    return path


def test_gen_writes_instances(tmp_path, capsys):
    spec = {"n_activities": 6, "n_modes": 2, "n_resources": 2,
            "order_strength": 0.5, "os_tolerance": 0.15, "seed": 12}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "instances"
    assert main(["gen", "--spec", str(spec_path), "--out", str(out),
                 "--count", "2"]) == 0
    files = sorted(out.glob("instance_*.json"))
    assert len(files) == 2
    insts = [load_instance(f) for f in files]
    assert [i.metadata["seed"] for i in insts] == [12, 13]
    assert all(i.n_activities == 8 for i in insts)
    assert "os=" in capsys.readouterr().out


def test_gen_failure_is_reported(tmp_path, capsys):
    spec = {"n_activities": 6, "order_strength": 0.9,
            "os_tolerance": 0.0001, "move_budget": 20}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["gen", "--spec", str(spec_path), "--out",
                 str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


def test_gen_rejects_a_misspelt_spec_key(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_activities": 6, "order_strenght": 0.5}))
    assert main(["gen", "--spec", str(spec_path), "--out",
                 str(tmp_path / "x")]) == 1
    assert "error: unknown generator spec key(s): order_strenght" in capsys.readouterr().err


def test_gen_rejects_a_count_that_is_not_an_integer(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_activities": "30"}))
    assert main(["gen", "--spec", str(spec_path), "--out",
                 str(tmp_path / "x")]) == 1
    assert "error: counts, the move budget and range bounds must be integers" \
        in capsys.readouterr().err


@pytest.mark.parametrize("experiment, message", [
    ({"seed": 1}, "missing experiment key(s): scenarios"),
    ({"scenarios": [{"gen": {"n_activities": 6}}]}, "missing scenario key(s): name"),
])
def test_bench_run_reports_a_missing_key(tmp_path, capsys, experiment, message):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(experiment))
    assert main(["bench", "run", "--experiment", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_outputs_artifacts(tmp_path, demo_file, rules_file, capsys):
    sched_path = tmp_path / "schedule.json"
    log_path = tmp_path / "log.csv"
    code = main(["solve", "--instance", str(demo_file), "--rules",
                 str(rules_file), "--policy", "kggp-max", "--expected",
                 "--schedule-out", str(sched_path), "--log", str(log_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("makespan ")

    sched = schedule_from_dict(json.loads(sched_path.read_text()))
    assert validate_schedule(demo_instance(), sched).ok
    log = log_path.read_text().splitlines()
    assert log[0] == "clock,eligible_size,filtered_size,group_size,pairs"
    assert len(log) >= 2


def test_solve_seeded_run_is_deterministic(tmp_path, demo_file, rules_file, capsys):
    argv = ["solve", "--instance", str(demo_file), "--rules", str(rules_file),
            "--policy", "sgp", "--duration-seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_solve_rejects_group_policy_without_group_tree(tmp_path, demo_file, capsys):
    sigma_only = tmp_path / "sigma.rules"
    sigma_only.write_text("ordering: (neg LFT)\n")
    code = main(["solve", "--instance", str(demo_file), "--rules",
                 str(sigma_only), "--policy", "ggp"])
    assert code == 1
    assert "group tree" in capsys.readouterr().err


def test_evolve_trains_and_writes_artifacts(tmp_path, demo_file, capsys):
    config = {
        "instances": [demo_file.name],
        "population_size": 4,
        "max_generations": 2,
        "tournament_size": 2,
        "init_depth": [2, 3],
        "policy": "kggp-max",
        "seed": 5,
    }
    cfg_path = demo_file.parent / "train.json"
    cfg_path.write_text(json.dumps(config))
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["evolve", "--config", str(cfg_path), "--out", str(out_b)]) == 0

    best = load_rules(out_a / "best.rules")
    assert best.group is not None
    assert (out_a / "best.rules").read_bytes() == (out_b / "best.rules").read_bytes()
    history = (out_a / "history.csv").read_text().splitlines()
    assert history[0].startswith("generation,best_fitness")
    assert len(history) == 3
    summary = json.loads((out_a / "result.json").read_text())
    assert summary["generations"] == 2
    assert summary["best_fitness"] >= 0.0
    assert "best fitness" in capsys.readouterr().out


def _experiment_file(tmp_path):
    exp = {
        "seed": 21,
        "n_runs": 2,
        "algorithms": ["sgp", "kggp-max"],
        "test_realizations": 2,
        "gp": {"population_size": 4, "max_generations": 2,
               "tournament_size": 2, "init_depth": [2, 3]},
        "scenarios": [{
            "name": "tiny",
            "gen": {"n_activities": 6, "n_modes": 2, "n_resources": 2,
                    "order_strength": 0.5, "os_tolerance": 0.15},
            "n_train": 1,
            "n_test": 1,
        }],
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(exp))
    return path


def test_bench_pipeline(tmp_path, capsys):
    exp_path = _experiment_file(tmp_path)
    out = tmp_path / "results"
    assert main(["bench", "run", "--experiment", str(exp_path),
                 "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert (out / "history.csv").exists()
    assert (out / "timings.csv").exists()
    capsys.readouterr()

    assert main(["bench", "stats", "--in", str(out), "--alpha", "0.05"]) == 0
    stats_out = capsys.readouterr().out
    assert "baseline: sgp" in stats_out
    assert (out / "stats.json").exists()

    assert main(["bench", "plots", "--in", str(out)]) == 0
    assert (out / "plots" / "convergence.csv").exists()
    assert (out / "plots" / "sizes.csv").exists()
    assert (out / "plots" / "runtime.csv").exists()


def test_bench_workers_do_not_change_results(tmp_path):
    exp_path = _experiment_file(tmp_path)
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    assert main(["bench", "run", "--experiment", str(exp_path),
                 "--out", str(seq)]) == 0
    assert main(["bench", "run", "--experiment", str(exp_path),
                 "--out", str(par), "--workers", "2"]) == 0
    assert (seq / "report.json").read_bytes() == (par / "report.json").read_bytes()
    assert (seq / "history.csv").read_bytes() == (par / "history.csv").read_bytes()
