"""End-to-end smoke tests for the command line interface."""
import json

import pytest

from kneegp.bench import RunReport, report_to_dict
from kneegp.cli import main
from kneegp.model import load_instance, validate_schedule
from kneegp.rules import load_rules

from conftest import demo_instance, schedule_from_dict


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
    assert "error: generator spec key n_activities must be int, not '30'" \
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


_SCENARIO = {"name": "tiny", "gen": {"n_activities": 6}}


@pytest.mark.parametrize("command, config, message", [
    ("gen", {"order_strength": "0.5"},
     "generator spec key order_strength must be float, not '0.5'"),
    ("evolve", {"population_size": "10"},
     "GP config key population_size must be int, not '10'"),
    ("evolve", {"knee": {"cap": "3"}}, "knee config key cap must be int, not '3'"),
    ("evolve", {"init_depth": 3},
     "GP config key init_depth must be tuple[int, int], not 3"),
    ("bench run", {"scenarios": [dict(_SCENARIO, n_train="1")]},
     "scenario key n_train must be int, not '1'"),
    ("bench run", {"scenarios": [_SCENARIO], "wall_limit": "5"},
     "experiment key wall_limit must be float | None, not '5'"),
    ("evolve", {"wall_limit": "5"},
     "training config key wall_limit must be float | None, not '5'"),
    ("evolve", {"instances": "a.json"},
     "training config key instances must be tuple[str, ...], not 'a.json'"),
    ("gen", {"duration_range": 5},
     "generator spec key duration_range must be tuple[int, int], not 5"),
    ("gen", [], "generator spec must be an object, not []"),
    ("evolve", [], "training config must be an object, not []"),
    ("bench run", [], "experiment must be an object, not []"),
    ("bench run", {"scenarios": [{"name": "x", "gen": []}]},
     "scenario key gen must be GenSpec, not []"),
    # removed keys: the policy name picks maximal groups, and reproduction
    # takes what crossover and mutation leave
    ("bench run", {"scenarios": [_SCENARIO], "gp": {"knee": {"retain_maximal_only": True}}},
     "unknown knee config key(s): retain_maximal_only"),
    ("bench run", {"scenarios": [_SCENARIO], "gp": {"reproduction_prob": 0.05}},
     "unknown GP config key(s): reproduction_prob"),
    ("evolve", {"reproduction_prob": 0.05}, "unknown GP config key(s): reproduction_prob"),
    # the knee cut always runs
    ("evolve", {"knee": {"apply_knee": False}}, "unknown knee config key(s): apply_knee"),
    ("gen --count 0", {"n_activities": 6}, "--count must be at least 1, not 0"),
    ("gen --count -2", {"n_activities": 6}, "--count must be at least 1, not -2"),
], ids=["gen-float", "evolve-int", "evolve-knee", "evolve-tuple", "bench-scenario",
        "bench-experiment", "evolve-wall-limit", "evolve-instances", "gen-range",
        "gen-list", "evolve-list", "bench-list", "bench-scenario-gen-list",
        "bench-removed-maximal", "bench-removed-reproduction", "evolve-removed-reproduction",
        "evolve-removed-knee-switch", "gen-count-zero", "gen-count-negative"])
def test_a_wrongly_typed_config_value_is_reported(tmp_path, demo_file, capsys,
                                                 command, config, message):
    path = tmp_path / "config.json"
    out = str(tmp_path / "out")
    command, _, flag = command.partition(" --")
    argv = {
        "gen": ["gen", "--spec", str(path), "--out", out],
        "evolve": ["evolve", "--config", str(path), "--out", out],
        "bench run": ["bench", "run", "--experiment", str(path), "--out", out],
    }[command] + (f"--{flag}".split() if flag else [])
    if command == "evolve" and isinstance(config, dict):
        config = {"instances": [str(demo_file)], **config}
    path.write_text(json.dumps(config))
    assert main(argv) == 1
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


def _without_predecessors(demo_file):
    data = json.loads(demo_file.read_text())
    del data["activities"][1]["predecessors"]
    return data


def _string_predecessors(demo_file):
    data = json.loads(demo_file.read_text())
    data["activities"][3]["predecessors"] = "10"
    return data


def _string_capacities(demo_file):
    data = json.loads(demo_file.read_text())
    data["capacities"] = "12"
    return data


def _string_in_demand(demo_file):
    data = json.loads(demo_file.read_text())
    data["activities"][1]["modes"][0]["demand"] = ["10"]
    return data


def _no_resources(_):
    """Three activities and no resource: every demand and the capacities empty."""
    mode = {"expected": 3, "min": 2, "max": 4, "demand": []}
    idle = {"expected": 0, "min": 0, "max": 0, "demand": []}
    return {"activities": [{"id": 0, "predecessors": [], "modes": [idle]},
                           {"id": 1, "predecessors": [0], "modes": [mode]},
                           {"id": 2, "predecessors": [1], "modes": [idle]}],
            "capacities": []}


def _edited(path, activity=(), **mode):
    data = json.loads(path.read_text())
    data["activities"][3].update(activity)
    data["activities"][3]["modes"][0].update(mode)
    return data


@pytest.mark.parametrize("payload, message", [
    (lambda _: {}, "instance is missing key 'activities'"),
    (lambda _: [], "instance must be an object, not list"),
    (_without_predecessors, "instance is missing key 'predecessors'"),
    (_string_predecessors, "activity 3 predecessors must be a list of integers, not '10'"),
    (_string_capacities, "capacities must be a list of integers, not '12'"),
    (_string_in_demand, "activity 1 demand must be a list of integers, not ['10']"),
    (lambda p: _edited(p, expected=5.9), "activity 3 expected must be an integer, not 5.9"),
    (lambda p: _edited(p, activity={"id": "3"}), "activity id must be an integer, not '3'"),
    (lambda p: _edited(p, min=True), "activity 3 min must be an integer, not True"),
    (lambda p: {**json.loads(p.read_text()), "metadata": 5},
     "metadata must be an object, not 5"),
    (lambda p: {**json.loads(p.read_text()), "metadata": [["a", 1]]},
     "metadata must be an object, not [['a', 1]]"),
    (_no_resources, "an instance needs at least one resource"),
], ids=["empty-object", "a-list", "no-predecessors", "string-predecessors",
        "string-capacities", "string-in-demand", "float-expected", "string-id",
        "bool-min", "int-metadata", "pairs-metadata", "no-resources"])
def test_solve_reports_a_malformed_instance(tmp_path, demo_file, rules_file, capsys,
                                            payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload(demo_file)))
    assert main(["solve", "--instance", str(path), "--rules", str(rules_file)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


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


_ENTRY = report_to_dict(RunReport("tiny", "sgp", 0, 1, "timeout", 0.5))
_NO_REPORTS = "report.json must be an object with a 'reports' list"


@pytest.mark.parametrize("payload, message", [
    ({"reports": [{k: v for k, v in _ENTRY.items() if k != "seed"}]},
     "report.json entry: missing key(s) ['seed']"),
    ({"reports": [dict(_ENTRY, sede=1)]},
     "report.json entry: missing key(s) [], unknown key(s) ['sede']"),
    ({"reports": [dict(_ENTRY, seed="1")]}, "report.json entry key seed must be int, not '1'"),
    ({"reports": [[]]}, "report.json entry must be an object, not []"),
    ([], _NO_REPORTS),
    ({"runs": []}, _NO_REPORTS),
], ids=["missing", "unknown", "wrongly-typed", "not-an-object", "a-list", "no-reports"])
def test_bench_stats_reports_a_bad_report_entry(tmp_path, capsys, payload, message):
    (tmp_path / "report.json").write_text(json.dumps(payload))
    assert main(["bench", "stats", "--in", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: report.json") and message in err


@pytest.mark.parametrize("name, header, message", [
    ("history.csv", "scenario,algorithm,run,best_fitness,mean_fitness,ordering_size,"
     "group_size", "history.csv: missing column(s) generation"),
    ("timings.csv", "scenario,algorithm,run,status,censored",
     "timings.csv: missing column(s) train_seconds"),
], ids=["history", "timings"])
def test_bench_stats_reports_a_missing_csv_column(tmp_path, capsys, name, header, message):
    (tmp_path / "report.json").write_text(json.dumps({"reports": [_ENTRY]}))
    (tmp_path / name).write_text(f"{header}\ntiny,sgp,0,timeout,1\n")
    assert main(["bench", "stats", "--in", str(tmp_path)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


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
