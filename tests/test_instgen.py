from __future__ import annotations

import hashlib
import json
import random

import pytest

from kneegp import instgen, model
from kneegp.instgen import (GenSpec, GenerationError, derive_capacities, generate_instance,
                            order_strength)
from kneegp.model import Mode, from_dict, instance_from_dict, instance_to_dict

from conftest import chain_instance, demo_instance, parallel_instance


def test_order_strength_chain_is_one():
    assert order_strength(chain_instance([2, 3, 1, 4])) == 1.0


def test_order_strength_antichain_is_zero():
    assert order_strength(parallel_instance([2, 3, 1, 4])) == 0.0


def test_order_strength_demo():
    assert order_strength(demo_instance()) == 0.5


def test_order_strength_degenerate_single_activity():
    assert order_strength(chain_instance([3])) == 1.0


SMALL = GenSpec(n_activities=30, n_modes=3, n_resources=4, order_strength=0.5)


def test_generation_is_deterministic():
    a = generate_instance(SMALL, seed=9)
    b = generate_instance(SMALL, seed=9)
    assert json.dumps(instance_to_dict(a)) == json.dumps(instance_to_dict(b))
    c = generate_instance(SMALL, seed=10)
    assert json.dumps(instance_to_dict(a)) != json.dumps(instance_to_dict(c))


def test_spec_loader_rejects_unknown_keys():
    assert from_dict(GenSpec, {"n_activities": 6, "demand_range": [1, 3]}) == \
        GenSpec(n_activities=6, demand_range=(1, 3))
    with pytest.raises(ValueError, match="n_activites, sead"):
        from_dict(GenSpec, {"n_activites": 6, "sead": 2, "n_modes": 2})


# sha256 of the saved JSON text; a change here changes every stored instance
PINNED_INSTANCES = [
    (SMALL, 9, "1c962a84ef52fb231a99f6bc93864e50436a305f0f989ad36902101df8c8d6f8"),
    (GenSpec(n_activities=120, n_modes=3, n_resources=8, order_strength=0.25), 3,
     "0c56101d21a0cefcf34f3b9b5859e0402450af9275aa7edba5b095ded40729c5"),
]


@pytest.mark.parametrize("spec,seed,sha", PINNED_INSTANCES)
def test_generated_instance_bytes_are_pinned(spec, seed, sha):
    inst = generate_instance(spec, seed)
    text = json.dumps(instance_to_dict(inst), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == sha
    assert list(inst.metadata)[-1] == "os_achieved"


def _count_calls(monkeypatch, module, name) -> list:
    made = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(module, name, counting)
    return made


def test_generation_builds_and_analyses_each_instance_once(monkeypatch):
    builds = _count_calls(monkeypatch, instgen, "build_instance")
    analyses = _count_calls(monkeypatch, model, "InstanceAnalysis")
    inst = generate_instance(SMALL, seed=9)
    assert builds == [inst]
    assert len(analyses) == 1 and inst.analysis is analyses[0]
    assert inst.lower_bound > 0
    assert len(analyses) == 1

    data = json.loads(json.dumps(instance_to_dict(inst)))
    again = instance_from_dict(data)
    assert len(analyses) == 2 and again.analysis is analyses[1]


def test_generated_shape_and_ranges():
    inst = generate_instance(SMALL, seed=3)
    assert inst.n_activities == 32
    assert inst.n_resources == 4
    assert inst.lower_bound > 0
    for i in inst.non_dummy_ids():
        a = inst.activities[i]
        assert a.n_modes == 3
        exps = [m.expected for m in a.modes]
        assert exps == sorted(exps)
        for m in a.modes:
            assert m.min_duration <= m.expected <= m.max_duration
            assert m.min_duration >= 1
            assert 5 <= m.expected <= 10
            assert m.expected - m.min_duration <= 3
            assert m.max_duration - m.expected <= 3
            # RF = 1: every resource demanded, inside the demand range
            assert all(1 <= d <= 6 for d in m.demand)
            assert all(d <= c for d, c in zip(m.demand, inst.capacities))


def test_generated_os_within_tolerance():
    for target in (0.25, 0.5, 0.75):
        spec = GenSpec(n_activities=30, order_strength=target)
        for seed in range(5):
            inst = generate_instance(spec, seed=seed)
            assert abs(order_strength(inst) - target) <= 0.02 + 1e-9
            assert inst.metadata["os_achieved"] == order_strength(inst)


def test_os_targets_are_ordered():
    # denser targets give denser graphs on average
    def mean_os(target):
        spec = GenSpec(n_activities=20, order_strength=target)
        return sum(order_strength(generate_instance(spec, seed=s)) for s in range(6)) / 6

    assert mean_os(0.25) < mean_os(0.5) < mean_os(0.75)


def test_partial_resource_factor():
    spec = GenSpec(n_activities=12, n_resources=4, resource_factor=0.5)
    inst = generate_instance(spec, seed=1)
    for i in inst.non_dummy_ids():
        for m in inst.activities[i].modes:
            assert sum(1 for d in m.demand if d) == 2


def test_unreachable_target_raises_with_achieved_value():
    spec = GenSpec(n_activities=12, order_strength=0.9, os_tolerance=0.0001,
                   move_budget=40)
    with pytest.raises(GenerationError) as err:
        generate_instance(spec, seed=0)
    assert 0.0 <= err.value.achieved_os <= 1.0


def _demo_mode_table():
    inst = demo_instance()
    modes = {i: list(inst.activities[i].modes) for i in inst.non_dummy_ids()}
    preds = {i: set(inst.activities[i].predecessors) - {0} for i in inst.non_dummy_ids()}
    return modes, preds


def test_derive_capacities_zero_strength_is_floor():
    modes, preds = _demo_mode_table()
    assert derive_capacities(modes, preds, 1, 0.0) == [10]


def test_derive_capacities_full_strength_is_ess_peak():
    modes, preds = _demo_mode_table()
    assert derive_capacities(modes, preds, 1, 1.0) == [17]


def test_derive_capacities_quarter_strength_matches_demo():
    modes, preds = _demo_mode_table()
    assert derive_capacities(modes, preds, 1, 0.25) == [12]


def test_full_strength_admits_critical_path_schedule():
    # with rs = 1 the earliest-start schedule fits, so a greedy run can reach
    # the lower bound; here we just check the ESS profile is feasible
    from kneegp.model import ScheduleEntry, make_schedule, validate_schedule

    spec = GenSpec(n_activities=20, order_strength=0.5, resource_strength=1.0)
    for seed in (0, 1, 2):
        inst = generate_instance(spec, seed=seed)
        ana = inst.analysis
        ect = [0] * inst.n_activities
        entries = {}
        for i in ana.topo_order:
            start = max((ect[j] for j in inst.activities[i].predecessors), default=0)
            d = inst.activities[i].modes[0].expected
            ect[i] = start + d
            if i not in (0, inst.dummy_end):
                entries[i] = ScheduleEntry(0, start, d)
        sched = make_schedule(entries)
        assert sched.makespan == inst.lower_bound
        assert validate_schedule(inst, sched).ok


def test_adding_an_edge_keeps_the_closure_a_rebuild_gives():
    """After each `_add_edge`, the reach masks equal `_rebuild`'s over the
    same edges, the count it returns is the growth in related pairs, and
    the masks hold exactly the ids a walk along the edges reaches."""
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randint(2, 40)
        reach, rebuilt, edges = [0] * (n + 1), [0] * (n + 1), []
        for _ in range(rng.randint(1, 2 * n)):
            u = rng.randint(1, n - 1)
            v = rng.randint(u + 1, n)
            before = sum(m.bit_count() for m in reach)
            added = instgen._add_edge(reach, n, u, v)
            edges.append((u, v))
            assert instgen._rebuild(rebuilt, n, edges) == before + added
            assert reach == rebuilt
        succ = {a: [v for u, v in edges if u == a] for a in range(1, n + 1)}
        for a in range(1, n + 1):
            seen, todo = set(), list(succ[a])
            while todo:
                b = todo.pop()
                if b not in seen:
                    seen.add(b)
                    todo += succ[b]
            assert reach[a] == sum(1 << b for b in seen)
