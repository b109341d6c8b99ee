from __future__ import annotations

import hashlib
import json
import random
import time

import pytest

from kneegp import instgen, model
from kneegp.instgen import GenSpec, GenerationError, derive_capacities, generate_instance
from kneegp.model import Mode, from_dict, instance_from_dict, instance_to_dict

from conftest import (chain_instance, demo_instance, make_schedule, order_strength,
                      parallel_instance)


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


@pytest.mark.parametrize("kwargs, message", [
    ({"n_modes": 0}, "counts must be positive"),
    ({"duration_range": (0, 3)}, "ranges must satisfy 0 < lo <= hi"),
    ({"demand_range": (4, 3)}, "ranges must satisfy 0 < lo <= hi"),
    ({"order_strength": 1.5}, "order strength must lie in [0, 1]"),
    ({"resource_factor": 0.0}, "resource factor must lie in (0, 1]"),
    ({"resource_strength": -0.1}, "resource strength must lie in [0, 1]"),
], ids=["count", "duration-range", "demand-range", "order-strength", "resource-factor",
        "resource-strength"])
def test_spec_refuses_a_value_out_of_range(kwargs, message):
    with pytest.raises(ValueError) as exc:
        GenSpec(**kwargs)
    assert str(exc.value) == message


# sha256 of the saved JSON text; a change here changes every stored instance
PINNED_INSTANCES = [
    (SMALL, 9, "1c962a84ef52fb231a99f6bc93864e50436a305f0f989ad36902101df8c8d6f8"),
    (GenSpec(n_activities=120, n_modes=3, n_resources=8, order_strength=0.25), 3,
     "0c56101d21a0cefcf34f3b9b5859e0402450af9275aa7edba5b095ded40729c5"),
    # climbs that refuse an edge (1, 2 and 3 times) and still succeed, so a
    # refused edge that leaves a trace in the closure changes their bytes;
    # the first two are the desk study's j30-os75 and j30-os50 (SMALL)
    (GenSpec(n_activities=30, n_modes=3, n_resources=4, order_strength=0.75), 1,
     "9f1a5f6e31635af1682157f3f93bf12e1de67deee156fcd9e9febba08aeeb99d"),
    (SMALL, 165, "b8c592ed9f73a1ae1e67a25944d7e274dea6deffe13a5cc62184b5aa7b4368cd"),
    (GenSpec(n_activities=12, order_strength=0.9), 55,
     "02e969afd4d79c767ec16ade3b6d6809eb0dc0b627d68d2e7e119e5b1e20e289"),
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


@pytest.mark.parametrize("n, target", [(1, 0.5), (2, 1.0), (3, 0.0), (3, 1.0), (12, 0.5),
                                       (120, 0.25)])
def test_the_recorded_os_is_the_reference_os(n, target):
    # the generator records the count it grew, not a second pass over the
    # closure; below two activities both read 1.0
    for seed in range(3):
        inst = generate_instance(GenSpec(n_activities=n, order_strength=target), seed=seed)
        got, ref = inst.metadata["os_achieved"], order_strength(inst)
        assert got == ref and type(got) is type(ref) is float


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


def test_short_modes_keep_a_minimum_duration_of_one():
    """A mode whose expected duration less its shrink is at most 1 gets the
    floor 1: with expected durations of 1 or 2 every shrink reaches it."""
    spec = GenSpec(n_activities=12, duration_range=(1, 3))
    short = 0
    for seed in range(4):
        inst = generate_instance(spec, seed)
        for i in inst.non_dummy_ids():
            for m in inst.activities[i].modes:
                assert 1 <= m.min_duration <= m.expected
                if m.expected <= 2:
                    assert m.min_duration == 1
                    short += 1
    assert short > 20


def test_an_empty_order_strength_band_is_refused_before_the_climb(monkeypatch):
    """No whole count of related pairs lies within the band, so no edge is
    tried, and the message names the band and the pair count."""
    tried = []
    monkeypatch.setattr(instgen, "_add_edge", lambda *args: tried.append(args))
    # 28 pairs, target 11.2
    spec = GenSpec(n_activities=8, order_strength=0.4, os_tolerance=0.0)
    with pytest.raises(GenerationError) as err:
        generate_instance(spec, seed=0)
    assert str(err.value) == ("order strength 0.4 with tolerance 0.0 needs [11.2000, "
                              "11.2000] of 28 pairs related, and no whole count lies "
                              "in that band")
    assert err.value.achieved_os == 0.0 and tried == []


def test_a_band_that_holds_a_count_can_still_run_out_of_moves():
    # 66 pairs, band [58.74, 60.06] holds 59 and 60, but 5 moves reach neither
    spec = GenSpec(n_activities=12, order_strength=0.9, os_tolerance=0.01, move_budget=5)
    with pytest.raises(GenerationError, match=r"order strength 0\.9 unreachable in 5 moves"
                       r" \(achieved 0\.\d{4}\)") as err:
        generate_instance(spec, seed=0)
    assert 0.0 < err.value.achieved_os < 0.89


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


def dense_capacities(modes, preds, n_resources, rs):
    """Reference `derive_capacities`: the earliest-start profile of the
    reference modes on a usage list over every tick to the horizon."""
    ids = sorted(modes)
    floor = [max(m.demand[r] for i in ids for m in modes[i]) for r in range(n_resources)]
    est = {i: 0 for i in ids}
    for i in ids:  # ids are topological
        for p in preds[i]:
            est[i] = max(est[i], est[p] + modes[p][0].expected)
    horizon = max((est[i] + modes[i][0].expected for i in ids), default=0)
    peak = [0] * n_resources
    for r in range(n_resources):
        usage = [0] * (horizon + 1)
        for i in ids:
            for t in range(est[i], est[i] + modes[i][0].expected):
                usage[t] += modes[i][0].demand[r]
        peak[r] = max(usage)
    return [floor[r] + round(rs * (max(peak[r], floor[r]) - floor[r]))
            for r in range(n_resources)]


def _random_mode_table(rng, scale=1):
    n, n_res = rng.randint(1, 12), rng.randint(1, 4)
    preds = {i: {p for p in range(1, i) if rng.random() < 0.3} for i in range(1, n + 1)}
    modes = {}
    for i in preds:
        exps = sorted(rng.choice((0, 0, 1, 2, 5, 9)) for _ in range(rng.randint(1, 3)))
        modes[i] = [Mode(e * scale, e * scale, e * scale,
                         tuple(rng.choice((0, 0, 1, 3, 7)) for _ in range(n_res)))
                    for e in exps]
    return modes, preds, n_res


def test_derive_capacities_equals_the_dense_sweep():
    rng = random.Random(29)
    for _ in range(400):
        modes, preds, n_res = _random_mode_table(rng)
        rs = rng.choice((0.0, 0.25, 0.5, 1.0, rng.random()))
        assert derive_capacities(modes, preds, n_res, rs) == \
            dense_capacities(modes, preds, n_res, rs)


def test_derive_capacities_takes_no_time_from_the_duration_values():
    """Durations of 10^7 scale the profile's times, not its peak, and the
    sweep visits only its events."""
    for seed in range(5):
        modes, preds, n_res = _random_mode_table(random.Random(seed))
        huge, _, _ = _random_mode_table(random.Random(seed), scale=10 ** 7)
        tick = time.perf_counter()
        got = derive_capacities(huge, preds, n_res, 1.0)
        assert time.perf_counter() - tick < 0.5
        assert got == dense_capacities(modes, preds, n_res, 1.0)


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
    from kneegp.model import ScheduleEntry, validate_schedule

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
    """After each `_add_edge`, the reach masks equal `model._closure`'s over
    the same edges, the count it returns is the growth in related pairs,
    and the masks hold exactly the ids a walk along the edges reaches."""
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randint(2, 40)
        reach, succ = [0] * (n + 1), [[] for _ in range(n + 1)]
        for _ in range(rng.randint(1, 2 * n)):
            u = rng.randint(1, n - 1)
            v = rng.randint(u + 1, n)
            before = sum(m.bit_count() for m in reach)
            added = instgen._add_edge(reach, u, v)
            succ[u].append(v)
            rebuilt = model._closure(range(n, 0, -1), succ)  # ids are topological
            assert sum(m.bit_count() for m in rebuilt) == before + added
            assert reach == rebuilt
        for a in range(1, n + 1):
            seen, todo = set(), list(succ[a])
            while todo:
                b = todo.pop()
                if b not in seen:
                    seen.add(b)
                    todo += succ[b]
            assert reach[a] == sum(1 << b for b in seen)
