"""Statistics, experiment orchestration and artifact files."""
import json
import random
import time
from dataclasses import asdict, fields, replace
from itertools import combinations

import pytest
from scipy import stats as scipy_stats

from kneegp.bench import (
    Experiment,
    _exact_p,
    _rank,
    _u_statistic,
    ReductionStats,
    RunReport,
    Scenario,
    emit_plot_data,
    experiment_from_dict,
    format_table,
    read_reports,
    reduction_report,
    run_experiment,
    run_one,
    summarize,
    wilcoxon_rank_sum,
    write_reports,
)
from kneegp.evolve import GpConfig, TrainingRun, evolve, rule_size
from kneegp.instgen import GenSpec
from kneegp.model import from_dict
from kneegp.policy import KneeConfig
from kneegp.rules import RulePair, leaf, load_rules, parse_sexpr, save_rules
from kneegp.sim import DecisionRecord, derive_seed

from conftest import chain_instance, parallel_instance


# ---------------------------------------------------------------------------
# rank-sum test

def test_identical_samples_are_similar():
    res = wilcoxon_rank_sum([3.0, 3.0, 3.0], [3.0, 3.0, 3.0])
    assert res.p_value == 1.0
    assert res.verdict == "similar"


def test_disjoint_samples_are_clearly_different():
    a = [float(v) for v in range(1, 31)]
    b = [float(v) for v in range(31, 61)]
    res = wilcoxon_rank_sum(a, b)
    assert res.p_value < 0.001
    assert res.verdict == "better"
    back = wilcoxon_rank_sum(b, a)
    assert back.verdict == "worse"
    assert back.p_value == pytest.approx(res.p_value)


def test_overlapping_small_samples_are_similar():
    res = wilcoxon_rank_sum([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert res.p_value > 0.05
    assert res.verdict == "similar"


def test_small_sample_p_matches_exact_oracle():
    rng = random.Random(60)
    for _ in range(40):
        n1, n2 = rng.randint(2, 7), rng.randint(2, 7)
        pool = rng.sample(range(1000), n1 + n2)  # distinct, no ties
        a = [float(v) for v in pool[:n1]]
        b = [float(v) for v in pool[n1:]]
        res = wilcoxon_rank_sum(a, b)
        oracle = scipy_stats.mannwhitneyu(a, b, alternative="two-sided",
                                          method="exact")
        assert res.statistic == pytest.approx(oracle.statistic)
        assert res.p_value == pytest.approx(oracle.pvalue)


def _enumerated_p(a, b, u_obs):
    """Reference: the permutation distribution of U over every relabelling."""
    pooled = list(a) + list(b)
    ranks = _rank(pooled)
    n1, n2 = len(a), len(b)
    mid = n1 * n2 / 2
    target = abs(u_obs - mid)
    hits = total = 0
    offset = n1 * (n1 + 1) / 2
    for combo in combinations(range(len(pooled)), n1):
        u = sum(ranks[i] for i in combo) - offset
        total += 1
        if abs(u - mid) >= target - 1e-12:
            hits += 1
    return hits / total


def test_exact_p_equals_enumeration_with_ties():
    rng = random.Random(63)
    for _ in range(300):
        n1, n2 = rng.randint(2, 9), rng.randint(2, 9)
        top = rng.choice([2, 5, 1000])  # heavy ties to none
        a = [float(rng.randint(0, top)) for _ in range(n1)]
        b = [float(rng.randint(0, top)) for _ in range(n2)]
        u = _u_statistic(a, b)
        assert _exact_p(a, b, u) == _enumerated_p(a, b, u), (a, b)


def test_exact_p_matches_scipy_with_one_large_sample():
    rng = random.Random(64)
    for _ in range(20):
        n1, n2 = rng.randint(2, 7), rng.randint(8, 40)
        pool = rng.sample(range(1000), n1 + n2)
        a = [float(v) for v in pool[:n1]]
        b = [float(v) for v in pool[n1:]]
        for x, y in ((a, b), (b, a)):
            res = wilcoxon_rank_sum(x, y)
            oracle = scipy_stats.mannwhitneyu(x, y, alternative="two-sided",
                                              method="exact")
            assert res.p_value == pytest.approx(oracle.pvalue)


def test_exact_p_is_fast_on_unbalanced_samples():
    rng = random.Random(65)
    a = [rng.random() for _ in range(7)]
    b = [rng.random() + 0.1 for _ in range(200)]
    start = time.perf_counter()
    for x, y in ((a, b), (b, a)):
        assert 0.0 < wilcoxon_rank_sum(x, y).p_value <= 1.0
    assert time.perf_counter() - start < 1.0


def test_large_sample_p_matches_normal_oracle():
    rng = random.Random(61)
    for _ in range(40):
        n1, n2 = rng.randint(8, 20), rng.randint(8, 20)
        a = [float(rng.randint(0, 12)) for _ in range(n1)]  # plenty of ties
        b = [float(rng.randint(2, 14)) for _ in range(n2)]
        res = wilcoxon_rank_sum(a, b)
        oracle = scipy_stats.mannwhitneyu(a, b, alternative="two-sided",
                                          method="asymptotic")
        assert res.statistic == pytest.approx(oracle.statistic)
        assert res.p_value == pytest.approx(oracle.pvalue)


def test_rank_sum_symmetry_on_random_samples():
    rng = random.Random(62)
    for _ in range(30):
        a = [round(rng.uniform(0, 5), 1) for _ in range(rng.randint(3, 12))]
        b = [round(rng.uniform(0, 5), 1) for _ in range(rng.randint(3, 12))]
        fwd = wilcoxon_rank_sum(a, b)
        rev = wilcoxon_rank_sum(b, a)
        assert fwd.p_value == pytest.approx(rev.p_value)
        flip = {"better": "worse", "worse": "better", "similar": "similar"}
        assert rev.verdict == flip[fwd.verdict]


def test_rank_sum_rejects_tiny_samples():
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([1.0], [2.0, 3.0])


# ---------------------------------------------------------------------------
# reduction accounting

def _decision(eligible, filtered):
    return DecisionRecord(0, eligible, filtered, ((1, 0),))


def test_reduction_single_decision():
    stats = reduction_report([_decision(10, 4)])
    assert stats == ReductionStats(10.0, 4.0, pytest.approx(60.0))


def test_reduction_averages_per_decision():
    stats = reduction_report([_decision(10, 4), _decision(20, 16)])
    assert stats.reduction_pct == pytest.approx(40.0)
    assert stats.eligible_mean == 15.0
    assert stats.filtered_mean == 10.0


def test_reduction_requires_decisions():
    with pytest.raises(ValueError):
        reduction_report([])


# ---------------------------------------------------------------------------
# experiment plumbing

def _tiny_experiment(seed=81, **overrides):
    gen = GenSpec(n_activities=6, n_modes=2, n_resources=2,
                  order_strength=0.5, os_tolerance=0.15)
    base = dict(
        seed=seed,
        scenarios=(Scenario("tiny", gen, n_train=1, n_test=1),),
        algorithms=("sgp", "kggp-max"),
        n_runs=2,
        gp=GpConfig(population_size=4, max_generations=2, tournament_size=2,
                    init_depth=(2, 3)),
        test_realizations=2,
    )
    base.update(overrides)
    return Experiment(**base)


@pytest.fixture(scope="module")
def tiny_reports():
    return run_experiment(_tiny_experiment())


def test_experiment_covers_the_grid(tiny_reports):
    assert len(tiny_reports) == 4  # 1 scenario x 2 algorithms x 2 runs
    assert {(r.algorithm, r.run_index) for r in tiny_reports} == {
        ("sgp", 0), ("sgp", 1), ("kggp-max", 0), ("kggp-max", 1)}
    for r in tiny_reports:
        assert r.status == "ok"
        assert r.test_objective >= 0.0
        # the winner is picked on the shared final tables, so it can never
        # score worse there than the generation-0 champion
        assert r.final_fitness <= r.gen0_fitness
        assert len(r.history) == 2
        assert r.ordering_size >= 1
        if r.algorithm == "sgp":
            assert r.group_size == 0
            assert r.reduction_pct == 0.0
        else:
            assert r.group_size >= 1
            assert 0.0 <= r.reduction_pct <= 100.0


def test_artifacts_are_byte_stable(tmp_path, tiny_reports):
    exp = _tiny_experiment()
    first = write_reports(tiny_reports, tmp_path / "a", exp)
    again = write_reports(run_experiment(exp), tmp_path / "b", exp)
    for key in ("report", "history"):
        assert first[key].read_bytes() == again[key].read_bytes()
    assert first["timings"].exists()
    payload = json.loads(first["report"].read_text())
    assert len(payload["reports"]) == 4
    assert payload["experiment"]["seed"] == 81
    ggp_free = [r for r in payload["reports"] if r["algorithm"] == "sgp"]
    assert all(r["group"] is None for r in ggp_free)


def test_summarize_and_format(tiny_reports):
    table = summarize(tiny_reports, alpha=0.05)
    assert table["baseline"] == "sgp"
    cells = table["cells"]["tiny"]
    assert set(cells) == {"sgp", "kggp-max"}
    assert cells["sgp"]["ok"] == 2
    assert cells["kggp-max"]["verdict"] in {"better", "worse", "similar"}
    text = format_table(table)
    assert "tiny" in text and "sgp" in text


def test_timeout_runs_are_reported_not_raised(tmp_path):
    exp = _tiny_experiment(wall_limit=0.0)
    reports = run_experiment(exp)
    assert all(r.status == "timeout" for r in reports)
    table = summarize(reports)
    assert table["cells"]["tiny"]["sgp"]["mean"] is None
    assert "no finished runs" in format_table(table)
    write_reports(reports, tmp_path, exp)
    with pytest.warns(UserWarning):
        emit_plot_data(reports, tmp_path)


def test_enumeration_overflow_is_reported_not_raised():
    exp = _tiny_experiment(
        algorithms=("ggp",),
        n_runs=1,
        gp=GpConfig(population_size=4, max_generations=1, tournament_size=2,
                    init_depth=(2, 3), enumeration_limit=3),
    )
    reports = run_experiment(exp)
    assert [r.status for r in reports] == ["overflow"]


@pytest.fixture(scope="module")
def late_overflow_report():
    """A `ggp` run that trains on a chain, where every decision has one pair,
    and overflows the enumeration limit on a wide antichain at test time."""
    exp = _tiny_experiment(
        algorithms=("ggp",), n_runs=1,
        gp=GpConfig(population_size=4, max_generations=1, tournament_size=2,
                    init_depth=(2, 3), enumeration_limit=10))
    scn = replace(exp.scenarios[0], name="wide")
    return exp, scn, run_one(exp, scn, "ggp", 0, [chain_instance([3, 1, 4, 2])],
                             [parallel_instance([2, 3, 4, 5, 6])])


def test_overflow_at_test_time_keeps_the_training_result(late_overflow_report):
    exp, scn, report = late_overflow_report
    trained = evolve(replace(exp.gp, policy="ggp",
                             seed=derive_seed(exp.seed, scn.name, "ggp", 0)),
                     [chain_instance([3, 1, 4, 2])])
    assert report.status == "overflow"
    assert report.rules == trained.best
    assert report.final_fitness == trained.best_fitness
    assert report.gen0_fitness == trained.candidates[0].final_fitness
    assert (report.ordering_size, report.group_size) == rule_size(trained.best)
    assert report.best_generation == trained.best_generation
    assert ([replace(h, wall_seconds=0.0) for h in report.history]
            == [replace(h, wall_seconds=0.0) for h in trained.history])
    assert report.test_objective is None
    assert report.eligible_mean is report.filtered_mean is report.reduction_pct is None


def test_plot_data_shapes(tmp_path, tiny_reports):
    written = emit_plot_data(tiny_reports, tmp_path)
    conv = written["convergence"].read_text().splitlines()
    assert conv[0] == "scenario,algorithm,run,generation,best_fitness"
    assert len(conv) == 1 + 4 * 2  # four runs, two generations each
    sizes = written["sizes"].read_text().splitlines()
    assert len(sizes) == 1 + 4
    runtime = written["runtime"].read_text().splitlines()
    assert len(runtime) == 1 + 4
    assert runtime[1].endswith(",0")  # finished runs are not censored
    with pytest.raises(ValueError):
        emit_plot_data([], tmp_path)


def test_report_directory_round_trip(tmp_path, tiny_reports, late_overflow_report):
    timeouts = [replace(r, scenario="late")
                for r in run_experiment(_tiny_experiment(wall_limit=0.0, n_runs=1))]
    # a timeout after some generations keeps their history
    timeouts.append(RunReport("later", "sgp", 0, 7, "timeout", 0.0125,
                              history=tiny_reports[0].history))
    overflow = run_experiment(_tiny_experiment(
        algorithms=("ggp",), n_runs=1,
        gp=GpConfig(population_size=4, max_generations=1, tournament_size=2,
                    init_depth=(2, 3), enumeration_limit=3)))
    reports = [*tiny_reports, *timeouts, *overflow, late_overflow_report[2]]
    assert [r.status for r in reports[4:]] == ["timeout"] * 3 + ["overflow"] * 2
    write_reports(reports, tmp_path, _tiny_experiment())
    loaded = read_reports(tmp_path)
    assert len(loaded) == len(reports)
    for got, want in zip(loaded, reports):
        # timings.csv keeps seconds to 3 decimals, history.csv no wall time
        assert got == replace(
            want, train_seconds=float(f"{want.train_seconds:.3f}"),
            history=tuple(replace(h, wall_seconds=0.0) for h in want.history))


def test_experiment_config_round_trip():
    exp = _tiny_experiment()
    blob = json.dumps(asdict(exp))
    assert experiment_from_dict(json.loads(blob)) == exp


_KNEE = KneeConfig(cap=4, group_size_hard_limit=50)
_GP = GpConfig(population_size=6, crossover_prob=0.7, mutation_prob=0.25,
               init_depth=(1, 3), max_depth=5, knee=_KNEE, enumeration_limit=99)


@pytest.mark.parametrize("config", [
    GenSpec(),
    GenSpec(n_activities=6, duration_range=(2, 4), demand_range=(2, 2),
            order_strength=0.75, resource_factor=0.5, seed=3),
    KneeConfig(),
    _KNEE,
    GpConfig(),
    replace(_GP, policy="sgp", seed=8),
    Experiment(scenarios=(Scenario("x"),)),
    Experiment(scenarios=(Scenario("a", GenSpec(n_modes=2, seed=4), n_train=2),
                          Scenario("b", n_test=1)),
               seed=5, algorithms=("kggp-all",), n_runs=3, gp=_GP,
               test_realizations=2, wall_limit=2.5),
], ids=["spec", "spec-set", "knee", "knee-set", "gp", "gp-set", "experiment",
        "experiment-set"])
def test_every_config_round_trips_through_json(config):
    if isinstance(config, Experiment):
        blob = json.dumps(asdict(config))
        assert experiment_from_dict(json.loads(blob)) == config
    else:
        assert from_dict(type(config), json.loads(json.dumps(asdict(config)))) == config


def test_every_config_key_is_listed_here():
    """The option surface: adding, renaming or removing a config key is a
    visible edit of this table."""
    assert {cls.__name__: tuple(f.name for f in fields(cls)) for cls in (
        GenSpec, GpConfig, KneeConfig, Scenario, Experiment, TrainingRun)} == {
        "GenSpec": ("n_activities", "n_modes", "n_resources", "duration_range",
                    "fluctuation_range", "demand_range", "order_strength",
                    "os_tolerance", "resource_factor", "resource_strength",
                    "move_budget", "seed"),
        "GpConfig": ("population_size", "max_generations", "crossover_prob",
                     "mutation_prob", "tournament_size", "init_depth", "max_depth",
                     "seed", "policy", "knee", "enumeration_limit"),
        "KneeConfig": ("cap", "group_size_hard_limit"),
        "Scenario": ("name", "gen", "n_train", "n_test"),
        "Experiment": ("scenarios", "seed", "algorithms", "n_runs", "gp",
                       "test_realizations", "wall_limit"),
        "TrainingRun": ("instances", "wall_limit"),
    }


def test_experiment_loader_rejects_unknown_keys():
    good = asdict(_tiny_experiment())
    with pytest.raises(ValueError, match="experiment key.*n_run"):
        experiment_from_dict(dict(good, n_run=10))
    scenario = dict(good["scenarios"][0], n_tset=9)
    with pytest.raises(ValueError, match="scenario key.*n_tset"):
        experiment_from_dict(dict(good, scenarios=[scenario]))
    with pytest.raises(ValueError, match="generator spec key.*n_activites"):
        experiment_from_dict(dict(good, scenarios=[
            dict(good["scenarios"][0], gen={"n_activites": 6})]))


def test_experiment_validation():
    gen = GenSpec(n_activities=6, os_tolerance=0.15)
    dup = (Scenario("x", gen), Scenario("x", gen))
    with pytest.raises(ValueError):
        Experiment(seed=1, scenarios=dup, algorithms=("sgp",), n_runs=1,
                   gp=GpConfig(population_size=4, tournament_size=2))
    with pytest.raises(ValueError):
        Scenario("x", gen, n_train=0)


def test_rule_file_round_trip(tmp_path):
    path = tmp_path / "best.rules"
    pair = RulePair(parse_sexpr("(add LFT (mul GRPW AvgRR))"),
                    parse_sexpr("(neg RR)"))
    save_rules(pair, path)
    assert load_rules(path) == pair

    sigma_only = RulePair(leaf("LFT"))
    save_rules(sigma_only, path)
    assert load_rules(sigma_only and path) == sigma_only

    path.write_text("# comment\nordering: (neg EST)\n")
    assert load_rules(path) == RulePair(parse_sexpr("(neg EST)"))
    path.write_text("group: (neg EST)\n")
    with pytest.raises(ValueError):
        load_rules(path)
    path.write_text("sorting: (neg EST)\n")
    with pytest.raises(ValueError):
        load_rules(path)
    for key in ("ordering", "group"):  # a repeated line is not silently dropped
        path.write_text(f"ordering: ExpDur\ngroup: RR\n{key}: (neg RR)\n")
        with pytest.raises(ValueError, match=f"defines '{key}' twice"):
            load_rules(path)
