"""End-to-end smoke tests for the command line interface."""
import json
from dataclasses import fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import pytest

from kneegp.bench import Experiment, RunReport, Scenario, report_to_dict
from kneegp.cli import main
from kneegp.evolve import GpConfig, TrainingRun
from kneegp.instgen import GenSpec
from kneegp.model import load_instance, validate_schedule
from kneegp.policy import KneeConfig, build_policy
from kneegp.rules import MAX_DEPTH, load_rules
from kneegp.sim import DurationTable, solve

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
    _assert_refused(tmp_path, demo_file, capsys, command, config, message)


def _assert_refused(tmp_path, demo_file, capsys, command, config, message):
    """`command` on a config file holding `config` prints `error: message`,
    exits 1 and makes no output directory."""
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


# one value of each JSON kind
_JSON_KINDS = {"null": None, "bool": True, "int": 3, "float": 2.5, "string": "x",
               "list": [], "object": {}}


def _kinds(hint) -> set[str]:
    """The JSON kinds that a value of type `hint` may be read from."""
    if hint is type(None):
        return {"null"}
    if get_origin(hint) is tuple:
        return {"list"}
    if get_args(hint):  # a union such as `float | None`
        return set().union(*map(_kinds, get_args(hint)))
    if is_dataclass(hint):
        return {"object"}
    return {bool: {"bool"}, int: {"int"}, float: {"int", "float"}, str: {"string"}}[hint]


# the command that reads each config class, and the file holding one key of it
_READERS = {
    GenSpec: ("gen", lambda key, value: {key: value}),
    GpConfig: ("evolve", lambda key, value: {key: value}),
    KneeConfig: ("evolve", lambda key, value: {"knee": {key: value}}),
    TrainingRun: ("evolve", lambda key, value: {key: value}),
    Scenario: ("bench run", lambda key, value: {"scenarios": [{**_SCENARIO, key: value}]}),
    Experiment: ("bench run", lambda key, value: {"scenarios": [_SCENARIO], key: value}),
}
_WRONG_TYPES = [
    pytest.param(command, config(f.name, value),
                 f"{cls.what} key {f.name} must be {f.type}, not {value!r}",
                 id=f"{cls.__name__}-{f.name}-{kind}")
    for cls, (command, config) in _READERS.items()
    for f in fields(cls)
    for kind, value in _JSON_KINDS.items()
    if kind not in _kinds(get_type_hints(cls)[f.name])
]


@pytest.mark.parametrize("command, config, message", _WRONG_TYPES)
def test_every_config_key_refuses_every_wrong_json_kind(tmp_path, demo_file, capsys,
                                                         command, config, message):
    _assert_refused(tmp_path, demo_file, capsys, command, config, message)


# every field of an instance file, as its path from the top, with the JSON
# kinds it may hold; an activity, a mode or a list entry stands for all
_MODE = ("activities", 1, "modes", 0)
_INSTANCE_FIELDS = {
    ("activities",): {"list"},
    ("activities", 1): {"object"},
    ("activities", 1, "id"): {"int"},
    ("activities", 1, "predecessors"): {"list"},
    ("activities", 1, "predecessors", 0): {"int"},
    ("activities", 1, "modes"): {"list"},
    _MODE: {"object"},
    (*_MODE, "expected"): {"int"},
    (*_MODE, "min"): {"int"},
    (*_MODE, "max"): {"int"},
    (*_MODE, "demand"): {"list"},
    (*_MODE, "demand", 0): {"int"},
    ("capacities",): {"list"},
    ("capacities", 0): {"int"},
    ("lower_bound",): {"int"},
    ("metadata",): {"object", "null"},
}


@pytest.mark.parametrize("where, value", [
    pytest.param(where, value, id="-".join(map(str, where)) + f"-{kind}")
    for where, kinds in _INSTANCE_FIELDS.items()
    for kind, value in _JSON_KINDS.items() if kind not in kinds
])
def test_every_instance_field_refuses_every_wrong_json_kind(tmp_path, demo_file, rules_file,
                                                            capsys, where, value):
    data = json.loads(demo_file.read_text())
    parent = data
    for step in where[:-1]:
        parent = parent[step]
    parent[where[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "schedule.json"
    assert main(["solve", "--instance", str(path), "--rules", str(rules_file),
                 "--schedule-out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # the last key of the path, not a list position, and the value abridged
    assert [step for step in where if isinstance(step, str)][-1] in err
    assert len(err) < 400
    assert not out.exists()


def test_solve_refuses_a_rule_file_nested_too_deep(tmp_path, demo_file, capsys):
    deep = "ExpDur"
    for _ in range(4999):
        deep = f"(neg {deep})"
    path = tmp_path / "deep.rules"
    path.write_text(f"ordering: {deep}\ngroup: RR\n")
    assert main(["solve", "--instance", str(demo_file), "--rules", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"error: expression nests deeper than {MAX_DEPTH} levels\n"


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
    # one row per decision of the same solve, its group as `i:m` pairs
    inst = demo_instance()
    res = solve(inst, build_policy(load_rules(rules_file), "kggp-max"), DurationTable(inst))
    assert res.decisions
    assert log[1:] == [
        f"{d.clock},{d.eligible_size},{d.filtered_size},{len(d.group)},"
        + ";".join(f"{i}:{m}" for i, m in d.group) for d in res.decisions]


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
    ({"reports": [dict(_ENTRY, ordering=5)]},
     "report.json entry key ordering must be str | None, not 5"),
    ({"reports": [dict(_ENTRY, ordering="RR", group=7)]},
     "report.json entry key group must be str | None, not 7"),
    ({"reports": [dict(_ENTRY, ordering=["x"])]},
     "report.json entry key ordering must be str | None, not ['x']"),
    ({"reports": [[]]}, "report.json entry must be an object, not []"),
    ([], _NO_REPORTS),
    ({"runs": []}, _NO_REPORTS),
], ids=["missing", "unknown", "wrongly-typed", "ordering-a-number", "group-a-number",
        "ordering-a-list", "not-an-object", "a-list", "no-reports"])
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


@pytest.mark.parametrize("workers", [0, -1])
def test_bench_run_refuses_fewer_than_one_worker(tmp_path, capsys, workers):
    out = tmp_path / "results"
    assert main(["bench", "run", "--experiment", str(_experiment_file(tmp_path)),
                 "--out", str(out), "--workers", str(workers)]) == 1
    assert capsys.readouterr().err == f"error: workers must be at least 1, not {workers}\n"
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["0", "1", "5", "-1"])
def test_bench_stats_refuses_an_alpha_outside_zero_one(tmp_path, capsys, alpha):
    ok = [dict(_ENTRY, algorithm=alg, run_index=k, status="ok", test_objective=0.1 * k + j)
          for j, alg in enumerate(("sgp", "kggp-max")) for k in range(2)]
    (tmp_path / "report.json").write_text(json.dumps({"reports": ok}))
    assert main(["bench", "stats", "--in", str(tmp_path), "--alpha", alpha]) == 1
    assert capsys.readouterr().err == \
        f"error: alpha must lie in (0, 1), not {float(alpha)}\n"
    assert not (tmp_path / "stats.json").exists()
    assert main(["bench", "stats", "--in", str(tmp_path), "--alpha", "0.5"]) == 0
    assert (tmp_path / "stats.json").exists()


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
