"""Release gate: one test per acceptance criterion.

Every test prints a `[acceptance] NN <name>: PASS/FAIL` verdict line through
the capture manager, so the lines show up in plain `pytest -v` output. The
desk-scale study (criterion 8) carries the `desk` marker; skip it during
quick iterations with `-m "not desk"`.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import time
from contextlib import contextmanager

import pytest

import kneegp.policy
from kneegp.bench import (
    Experiment,
    Scenario,
    emit_plot_data,
    format_table,
    reduction_report,
    report_to_dict,
    run_experiment,
    run_one,
    scenario_instances,
    summarize,
    write_reports,
)
from kneegp.evolve import GpConfig, random_tree
from kneegp.instgen import GenSpec, generate_instance
from kneegp.model import Activity, Mode, build_instance, validate_schedule
from kneegp.policy import (
    KneeConfig,
    build_policy,
    full_enumeration_decide,
    knee_cut,
    knee_group_decide,
)
from kneegp.rules import (
    ALL_TERMINALS,
    DecisionContext,
    RulePair,
    eval_group_priority,
    eval_pair_priority,
    leaf,
)
from kneegp.sim import DurationTable, sample_durations, solve

from conftest import order_strength, rescan_eligible


@pytest.fixture
def console(request):
    """Print a line that survives pytest's output capture."""
    cap = request.config.pluginmanager.getplugin("capturemanager")

    def say(line: str) -> None:
        if cap is None:
            print(line)
            return
        with cap.global_and_fixture_disabled():
            print(line, flush=True)

    return say


@pytest.fixture
def criterion(console):
    @contextmanager
    def check(num: int, name: str, budget: float | None = None):
        t0 = time.perf_counter()
        try:
            yield
            elapsed = time.perf_counter() - t0
            if budget is not None:
                assert elapsed < budget, (
                    f"took {elapsed:.1f}s, budget {budget:.0f}s")
        except BaseException:
            console(f"[acceptance] {num:02d} {name}: "
                    f"FAIL ({time.perf_counter() - t0:.1f}s)")
            raise
        console(f"[acceptance] {num:02d} {name}: PASS ({elapsed:.1f}s)")

    return check


# ---------------------------------------------------------------------------
# shared builders

IDLE = Mode(0, 0, 0, (0,))


def _flat_multi(n: int, m: int, capacity: int = 10**6):
    """n independent activities with m modes each and token demands."""
    acts = [Activity(0, frozenset(), frozenset(range(1, n + 1)), (IDLE,))]
    for k in range(1, n + 1):
        modes = tuple(Mode(5 + j, 5 + j, 5 + j, (1,)) for j in range(m))
        acts.append(Activity(k, frozenset({0}), frozenset({n + 1}), modes))
    acts.append(Activity(n + 1, frozenset(range(1, n + 1)), frozenset(), (IDLE,)))
    return build_instance(acts, (capacity,))


def _random_project(rng: random.Random, n: int, n_modes: int,
                    n_resources: int = 2, capacity: int = 9,
                    max_demand: int = 4):
    """Random DAG project with topological ids, like the unit-test sweeps."""
    idle = Mode(0, 0, 0, (0,) * n_resources)
    preds = {i: set() for i in range(1, n + 1)}
    for j in range(2, n + 1):
        for i in range(1, j):
            if rng.random() < 0.35:
                preds[j].add(i)
    succs = {i: set() for i in range(1, n + 1)}
    for j, ps in preds.items():
        for i in ps:
            succs[i].add(j)
    acts = [Activity(0, frozenset(),
                     frozenset(i for i in range(1, n + 1) if not preds[i]),
                     (idle,))]
    for i in range(1, n + 1):
        modes = []
        for _ in range(n_modes):
            exp = rng.randint(2, 9)
            dem = tuple(rng.randint(1, max_demand) for _ in range(n_resources))
            modes.append(Mode(exp, max(1, exp - rng.randint(1, 3)),
                              exp + rng.randint(1, 3), dem))
        modes.sort(key=lambda mo: mo.expected)
        acts.append(Activity(i, frozenset(preds[i]) or frozenset({0}),
                             frozenset(succs[i]) or frozenset({n + 1}),
                             tuple(modes)))
    sinks = frozenset(i for i in range(1, n + 1) if not succs[i])
    acts.append(Activity(n + 1, sinks, frozenset(), (idle,)))
    return build_instance(acts, (capacity,) * n_resources)


def _random_rules(rng: random.Random, depth_hi: int = 4) -> RulePair:
    return RulePair(
        random_tree(rng, rng.randint(2, depth_hi), "grow", root_must_branch=True),
        random_tree(rng, rng.randint(2, depth_hi), "grow", root_must_branch=True),
    )


def _root_context(inst) -> DecisionContext:
    return DecisionContext(inst, 0, inst.analysis.pack_free(inst.capacities),
                           frozenset({inst.dummy_start}), {})


class _ScriptedPolicy:
    """Plays back a fixed list of groups, one per decision call."""

    def __init__(self, script):
        self.script = [tuple(g) for g in script]

    def decide(self, ctx, eligible):
        assert self.script, "executor asked for more decisions than scripted"
        group = self.script.pop(0)
        assert set(group) <= set(eligible)
        return group, len(eligible)


# ---------------------------------------------------------------------------
# criteria

def test_01_scripted_decisions_reproduce_known_makespans(demo, criterion):
    with criterion(1, "scripted-decision-makespans", budget=1.0):
        durations = DurationTable(demo)

        one_at_a_time = _ScriptedPolicy(
            [[(1, 0)], [(2, 0)], [(3, 0)], [(4, 0)], [(5, 0)]])
        seq = solve(demo, one_at_a_time, durations)
        assert not one_at_a_time.script
        assert seq.makespan == 20
        assert [d.clock for d in seq.decisions] == [0, 5, 9, 13, 17]
        validate_schedule(demo, seq.schedule)

        grouped = _ScriptedPolicy([[(1, 1), (2, 1)], [(3, 0)], [(4, 1), (5, 1)]])
        grp = solve(demo, grouped, durations)
        assert not grouped.script
        assert grp.makespan == 17
        assert [d.clock for d in grp.decisions] == [0, 7, 11]
        validate_schedule(demo, grp.schedule)


def test_02_enumeration_count_law(criterion):
    rules = RulePair(leaf("ExpDur"), leaf("GRD"))
    with criterion(2, "enumeration-count-law", budget=10.0):
        for n in range(1, 9):
            for m in range(1, 4):
                inst = _flat_multi(n, m)
                ctx = _root_context(inst)
                eligible = rescan_eligible(inst, ctx.completed, {}, ctx.availability)
                assert len(eligible) == n * m
                dec = full_enumeration_decide(rules, ctx, eligible)
                assert dec.count == (m + 1) ** n - 1

        # every pair fits alone, so all 24 are eligible and the law still
        # counts 3^12 - 1 assignments, but the enumerator only scores the
        # 24 singletons that fit one unit of capacity
        inst = _flat_multi(12, 2, capacity=1)
        ctx = _root_context(inst)
        eligible = rescan_eligible(inst, ctx.completed, {}, ctx.availability)
        assert len(eligible) == 24
        assert full_enumeration_decide(rules, ctx, eligible).count == 531_440


def _knee_oracle(values) -> int:
    """Brute-force max perpendicular distance to the normalized chord."""
    n = len(values)
    lo, hi = values[0], values[-1]
    pts = [(k / (n - 1), (v - lo) / (hi - lo)) for k, v in enumerate(values)]
    (x0, y0), (x1, y1) = pts[0], pts[-1]
    norm = math.hypot(x1 - x0, y1 - y0)
    best_k, best_d = 0, -1.0
    for k, (x, y) in enumerate(pts):
        d = abs((y1 - y0) * x - (x1 - x0) * y + x1 * y0 - y1 * x0) / norm
        if d > best_d:
            best_k, best_d = k, d
    return best_k


def test_03_knee_matches_perpendicular_distance_oracle(criterion):
    rng = random.Random(3)
    with criterion(3, "knee-distance-oracle", budget=30.0):
        for _ in range(10_000):
            n = rng.randint(3, 50)
            vals, v = [], 0.0
            for _ in range(n):
                v += rng.random() * 9 + 1e-3
                vals.append(v)
            k = _knee_oracle(vals)
            # strictly increasing curve: the inclusive cut keeps exactly k+1
            assert knee_cut(vals) == k + 1


class _CrossCheckPolicy:
    """Drives the simulation while comparing both group deciders."""

    def __init__(self, rules, cfg):
        self.rules = rules
        self.cfg = cfg
        self.checked = 0

    def decide(self, ctx, eligible):
        assert len(eligible) <= 6
        dec = knee_group_decide(self.rules, ctx, eligible, self.cfg, maximal=False)
        ref = full_enumeration_decide(self.rules, ctx, eligible)
        mine = eval_group_priority(self.rules.group, ctx, dec.group)
        best = eval_group_priority(self.rules.group, ctx, ref.group)
        assert mine == best
        self.checked += 1
        return dec.group, dec.filtered_size


def test_04_group_choice_matches_exhaustive_argmin(criterion, monkeypatch):
    rng = random.Random(4)
    cfg = KneeConfig()
    monkeypatch.setattr(kneegp.policy, "knee_cut", len)  # the knee cut off
    with criterion(4, "group-argmin-equivalence", budget=60.0):
        checked = 0
        for _ in range(200):
            inst = _random_project(rng, rng.randint(2, 6), n_modes=1)
            policy = _CrossCheckPolicy(_random_rules(rng), cfg)
            solve(inst, policy, sample_durations(inst, rng.randrange(2**30)))
            checked += policy.checked
        assert checked >= 200


MODES_FOR_OS = {0.25: 1, 0.5: 2, 0.75: 3}


def test_05_every_policy_yields_valid_schedules(criterion):
    combos = [(os_, r) for os_ in (0.75, 0.5, 0.25) for r in (8, 12)]
    rng = random.Random(5)
    with criterion(5, "all-policies-valid-schedules", budget=300.0):
        for k in range(100):
            os_, r = combos[k % len(combos)]
            spec = GenSpec(n_activities=30, n_modes=MODES_FOR_OS[os_],
                           n_resources=r, order_strength=os_)
            inst = generate_instance(spec, 5000 + k)
            rules = _random_rules(rng)
            for name in ("sgp", "ggp", "kggp-max", "kggp-all"):
                res = solve(inst, build_policy(rules, name),
                            sample_durations(inst, k))
                validate_schedule(inst, res.schedule)
                assert (res.makespan - inst.lower_bound) / inst.lower_bound >= 0


def test_06_generator_hits_order_strength_targets(criterion):
    with criterion(6, "generator-order-strength", budget=120.0):
        for t_idx, target in enumerate((0.25, 0.5, 0.75)):
            for s in range(30):
                inst = generate_instance(
                    GenSpec(order_strength=target), 6000 + 1000 * t_idx + s)
                assert abs(order_strength(inst) - target) <= 0.02 + 1e-12
                for i in inst.non_dummy_ids():
                    for mo in inst.activities[i].modes:
                        assert mo.min_duration <= mo.expected <= mo.max_duration
                        assert all(1 <= d <= 6 for d in mo.demand)


def test_07_knee_filtering_reduction_band(criterion):
    spec = GenSpec(n_activities=100, n_modes=3, n_resources=8,
                   order_strength=0.25)
    rng = random.Random(7)
    with criterion(7, "knee-reduction-band", budget=600.0):
        instances = [generate_instance(spec, 7000 + j) for j in range(5)]
        cuts = []
        for k in range(50):
            policy = build_policy(_random_rules(rng, depth_hi=5), "kggp-max")
            res = solve(instances[k % len(instances)], policy,
                        sample_durations(instances[k % len(instances)], k))
            cuts.append(reduction_report(res.decisions).reduction_pct)
        mean = sum(cuts) / len(cuts)
        assert 30.0 <= mean <= 70.0


def _tiny_experiment(algorithms) -> Experiment:
    return Experiment(
        seed=99,
        scenarios=(Scenario("tiny", GenSpec(n_activities=8, n_modes=2,
                                            n_resources=2, order_strength=0.5,
                                            os_tolerance=0.15),
                            n_train=2, n_test=2),),
        algorithms=algorithms,
        n_runs=2,
        gp=GpConfig(population_size=4, max_generations=2, tournament_size=2),
        test_realizations=2,
    )


def test_09_experiment_reruns_are_byte_identical(tmp_path, criterion):
    exp = _tiny_experiment(("sgp", "kggp-max"))
    with criterion(9, "byte-identical-reruns"):
        first = write_reports(run_experiment(exp), tmp_path / "a", exp)
        second = write_reports(run_experiment(exp), tmp_path / "b", exp)
        for name in ("report", "history"):
            assert first[name].read_bytes() == second[name].read_bytes()


# sha256 of the tiny experiment's artifacts over all four policies, measured
# on Python 3.11.7; a change here must say why the bytes moved
PINNED_SHA256 = {
    "report": "543d2458661a2978252b58efbc74a3df5c9dd07dbb4a633aa2afa517c980e1d3",
    "history": "013f091bc069f3730503a0b93b681808ab710c93b397406e235f0584305936d1",
}


def test_09_artifact_bytes_match_pinned_digests(tmp_path, criterion):
    exp = _tiny_experiment(("sgp", "ggp", "kggp-max", "kggp-all"))
    with criterion(9, "byte-pinned-artifacts"):
        paths = write_reports(run_experiment(exp), tmp_path, exp)
        for name, digest in PINNED_SHA256.items():
            assert hashlib.sha256(paths[name].read_bytes()).hexdigest() == digest, name


def test_10_terminals_are_clock_shift_invariant(criterion):
    rng = random.Random(10)
    with criterion(10, "terminal-shift-invariance", budget=10.0):
        projects = [_random_project(rng, rng.randint(4, 8), n_modes=2)
                    for _ in range(6)]
        trees = [leaf(name) for name in ALL_TERMINALS]
        assert len(trees) == 24
        states = 0
        while states < 1000:
            inst = rng.choice(projects)
            completed = {inst.dummy_start}
            for i in inst.analysis.topo_order:
                if i in (inst.dummy_start, inst.dummy_end):
                    continue
                preds = inst.activities[i].predecessors
                if preds <= completed and rng.random() < 0.45:
                    completed.add(i)
            clock = rng.randint(5, 60)
            running = {}
            for i in inst.non_dummy_ids():
                if i in completed:
                    continue
                if inst.activities[i].predecessors <= completed and rng.random() < 0.5:
                    running[i] = (rng.randrange(len(inst.activities[i].modes)),
                                  clock - rng.randint(0, 4))
            free = [i for i in inst.non_dummy_ids()
                    if i not in completed and i not in running
                    and inst.activities[i].predecessors <= completed]
            if not free:
                continue
            avail = list(inst.capacities)
            for i, (m, _) in running.items():
                for r, need in enumerate(inst.activities[i].modes[m].demand):
                    avail[r] = max(0, avail[r] - need)
            act = rng.choice(free)
            pair = (act, rng.randrange(len(inst.activities[act].modes)))
            shift = rng.randint(1, 10**6)
            here = DecisionContext(inst, clock, inst.analysis.pack_free(avail),
                                   frozenset(completed), running)
            later = DecisionContext(
                inst, clock + shift, inst.analysis.pack_free(avail), frozenset(completed),
                {i: (m, s + shift) for i, (m, s) in running.items()})
            for tree in trees:
                assert (eval_pair_priority(tree, here, pair)
                        == eval_pair_priority(tree, later, pair))
            states += 1


@pytest.mark.desk
def test_08_desk_scale_training_study(tmp_path, criterion, console):
    exp = Experiment(
        seed=2026,
        scenarios=(
            Scenario("j30-os75", GenSpec(n_activities=30, n_modes=3,
                                         n_resources=4, order_strength=0.75)),
            Scenario("j30-os50", GenSpec(n_activities=30, n_modes=3,
                                         n_resources=4, order_strength=0.5)),
        ),
        algorithms=("sgp", "kggp-max"),
        n_runs=10,
        gp=GpConfig(population_size=50, max_generations=20, tournament_size=5),
        test_realizations=5,
        wall_limit=1800.0,
    )
    with criterion(8, "desk-scale-training-study"):
        reports = run_experiment(exp)
        assert len(reports) == 40
        for r in reports:
            assert r.status == "ok"
            # winner picked on the shared final tables can never lose to the
            # generation-0 champion there
            assert r.final_fitness <= r.gen0_fitness

        # replay one cell from scratch: the pipeline is deterministic
        scn = exp.scenarios[0]
        replay = run_one(exp, scn, "kggp-max", 0,
                         scenario_instances(exp, scn, "train"),
                         scenario_instances(exp, scn, "test"))
        original = next(r for r in reports
                        if (r.scenario, r.algorithm, r.run_index)
                        == (scn.name, "kggp-max", 0))
        assert (json.dumps(report_to_dict(replay), sort_keys=True)
                == json.dumps(report_to_dict(original), sort_keys=True))

        write_reports(reports, tmp_path, exp)
        emit_plot_data(reports, tmp_path)
        for name in ("report.json", "history.csv", "convergence.csv"):
            assert (tmp_path / name).exists()

        for line in format_table(summarize(reports, alpha=0.05)).splitlines():
            console(f"[acceptance] 08 | {line}")
