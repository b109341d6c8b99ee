from __future__ import annotations

import random

import pytest

from kneegp.evolve import random_tree
from kneegp.model import build_instance, validate_schedule, Activity, Mode
from kneegp.policy import POLICY_NAMES, build_policy
from kneegp.rules import RulePair
from kneegp.sim import (
    DurationTable,
    PolicyContractError,
    derive_seed,
    eligible_set,
    realized_duration,
    sample_durations,
    solve,
)

from conftest import (
    chain_instance, count_calls, demo_instance, random_instance, realized, rescan_eligible,
)


class LowestIdFirst:
    """Start one pair at a time: smallest activity id, then smallest mode."""

    def decide(self, ctx, eligible):
        return [min(eligible)], len(eligible)


class GreedyReference:
    """Start every eligible activity in its reference mode, greedily."""

    def decide(self, ctx, eligible):
        picked, used = [], list(ctx.availability)
        for i, m in eligible:
            if m != 0:
                continue
            dem = ctx.instance.activities[i].modes[m].demand
            if all(k <= a for k, a in zip(dem, used)):
                picked.append((i, m))
                used = [a - k for a, k in zip(used, dem)]
        return picked, len(eligible)


class Scripted:
    """Replay a fixed decision sequence keyed by clock."""

    def __init__(self, script):
        self.script = {t: [list(g) for g in groups] for t, groups in script.items()}

    def decide(self, ctx, eligible):
        queue = self.script.get(ctx.clock)
        if queue:
            return queue.pop(0), len(eligible)
        return (), len(eligible)


def test_sequential_hand_rule_reaches_twenty(demo):
    res = solve(demo, LowestIdFirst(), DurationTable(demo))
    assert res.makespan == 20
    assert validate_schedule(demo, res.schedule).ok


def test_scripted_group_run_reaches_seventeen(demo):
    script = {0: [[(1, 1), (2, 1)]], 7: [[(3, 0)]], 11: [[(4, 1), (5, 1)]]}
    res = solve(demo, Scripted(script), DurationTable(demo))
    assert res.makespan == 17
    assert validate_schedule(demo, res.schedule).ok
    assert [d.clock for d in res.decisions] == [0, 7, 11]


def test_eligible_set_at_start(demo):
    elig = eligible_set(demo, {2, 1}, demo.capacities)
    assert elig == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert elig == rescan_eligible(demo, frozenset({0}), {}, demo.capacities)


def test_eligible_set_respects_free_capacity(demo):
    # activity 1 running in mode 0 leaves 2 units: nothing else fits
    assert eligible_set(demo, {2}, (2,)) == []
    assert rescan_eligible(demo, frozenset({0}), {1: (0, 0, 5)}, (2,)) == []


def test_eligible_set_when_everything_done(demo):
    assert eligible_set(demo, set(), demo.capacities) == []
    done = frozenset(range(demo.n_activities))
    assert rescan_eligible(demo, done, {}, demo.capacities) == []


def _lazy_reveal_reference(inst, policy, seed):
    """Minimal unit-step executor that draws durations only at start time."""
    completed, running, entries = {0}, {}, {}
    avail = list(inst.capacities)
    t = 0
    log = []
    end_preds = inst.activities[inst.dummy_end].predecessors
    while not end_preds <= completed:
        for i in [i for i, (_, _, e) in running.items() if e == t]:
            m, _, _ = running.pop(i)
            for r, k in enumerate(inst.activities[i].modes[m].demand):
                avail[r] += k
            completed.add(i)
        while True:
            elig = rescan_eligible(inst, frozenset(completed), running, avail)
            if not elig:
                break
            from kneegp.rules import DecisionContext

            ctx = DecisionContext(inst, t, tuple(avail), frozenset(completed),
                                  {i: (m, s) for i, (m, s, _) in running.items()})
            group, filtered = policy.decide(ctx, elig)
            if not group:
                break
            log.append((t, len(elig), filtered, tuple(group)))
            for i, m in group:
                d = realized_duration(inst, seed, i, m)  # revealed now
                entries[i] = (m, t, d)
                if d == 0:
                    completed.add(i)
                else:
                    for r, k in enumerate(inst.activities[i].modes[m].demand):
                        avail[r] -= k
                    running[i] = (m, t, t + d)
        t += 1
    return entries, log


def test_presampling_matches_lazy_reveal(demo):
    # the reference steps one tick at a time, so this also pins solve's
    # event stepping to unit stepping
    rng = random.Random(77)
    cases = [random_instance(rng, n=rng.randint(3, 10), capacity=12, max_demand=7)
             for _ in range(50)] + [demo] * 10
    for k, inst in enumerate(cases):
        policy = GreedyReference() if k % 2 else LowestIdFirst()
        res = solve(inst, policy, sample_durations(inst, seed=1000 + k))
        entries, log = _lazy_reveal_reference(inst, policy, seed=1000 + k)
        assert {i: (e.mode, e.start, e.duration)
                for i, e in res.schedule.entries.items()} == entries
        assert [(d.clock, d.eligible_size, d.filtered_size, d.group)
                for d in res.decisions] == log


class RescanChecked:
    """Delegates to a policy after checking the eligible list it is handed
    against a full rescan of the decision state."""

    def __init__(self, policy):
        self.policy = policy
        self.decisions = 0

    def decide(self, ctx, eligible):
        assert list(eligible) == rescan_eligible(
            ctx.instance, ctx.completed, ctx.running, ctx.availability)
        self.decisions += 1
        return self.policy.decide(ctx, eligible)


def test_ready_set_matches_full_rescan():
    rng = random.Random(31)
    zero_starts = decisions = 0
    for k in range(40):
        inst = random_instance(rng, n=rng.randint(3, 9), capacity=12,
                               max_demand=7, zero_prob=0.3)
        rules = RulePair(random_tree(rng, 4), random_tree(rng, 4))
        for name in POLICY_NAMES:
            policy = RescanChecked(build_policy(rules, name))
            res = solve(inst, policy, sample_durations(inst, seed=k))
            assert validate_schedule(inst, res.schedule).ok
            decisions += policy.decisions
            zero_starts += sum(e.duration == 0 for e in res.schedule.entries.values())
    assert decisions > 500 and zero_starts > 100


def test_empty_project_finishes_at_zero():
    idle = Mode(0, 0, 0, (0,))
    inst = build_instance(
        [Activity(0, frozenset(), frozenset({1}), (idle,)),
         Activity(1, frozenset({0}), frozenset(), (idle,))],
        [3],
    )
    res = solve(inst, LowestIdFirst(), DurationTable(inst))
    assert res.makespan == 0
    assert res.decisions == ()


def test_sampling_bounds_and_determinism(demo):
    for seed in range(30):
        t = sample_durations(demo, seed)
        assert realized(t) == realized(sample_durations(demo, seed))
        for i in demo.non_dummy_ids():
            for m, mo in enumerate(demo.activities[i].modes):
                assert mo.min_duration <= t.duration(i, m) <= mo.max_duration
        assert t.duration(0, 0) == 0
        assert t.duration(demo.dummy_end, 0) == 0


def _eager_realized(inst, seed):
    """The whole table drawn in advance, as the executor once did."""
    table = {}
    for a in inst.activities:
        for m in range(a.n_modes):
            table[(a.id, m)] = realized_duration(inst, seed, a.id, m)
    return table


def test_lazy_draws_equal_eager_draws(demo):
    rng = random.Random(12)
    cases = [random_instance(rng, n=rng.randint(3, 10), n_modes=3, zero_prob=0.3)
             for _ in range(20)] + [chain_instance([3, 0, 5]), demo]
    fixed = sum(mo.min_duration == mo.max_duration
                for inst in cases for a in inst.activities for mo in a.modes)
    assert fixed > 50  # zero-duration, single-valued and dummy modes
    for k, inst in enumerate(cases):
        seed = 700 + k
        pairs = [(a.id, m) for a in inst.activities for m in range(a.n_modes)]
        rng.shuffle(pairs)
        table = sample_durations(inst, seed)
        for i, m in pairs:
            assert table.duration(i, m) == realized_duration(inst, seed, i, m)
        assert realized(table) == _eager_realized(inst, seed)
        assert realized(sample_durations(inst, seed)) == _eager_realized(inst, seed)
        assert realized(DurationTable(inst)) == {
            (a.id, m): mo.expected
            for a in inst.activities for m, mo in enumerate(a.modes)}


def test_solve_draws_once_per_started_activity(monkeypatch):
    draws = count_calls(monkeypatch, "realized_duration")
    rng = random.Random(41)
    for k in range(30):
        inst = random_instance(rng, n=rng.randint(3, 9), n_modes=3, zero_prob=0.2)
        rules = RulePair(random_tree(rng, 4), random_tree(rng, 4))
        for name in POLICY_NAMES:
            draws.clear()
            res = solve(inst, build_policy(rules, name), sample_durations(inst, k))
            started = {(k, i, e.mode) for i, e in res.schedule.entries.items()}
            assert len(draws) == len(set(draws)) <= len(started)
            assert set(draws) <= started


def test_eligible_set_rescans_once_per_clock_and_zero_duration_start(monkeypatch):
    scans = count_calls(monkeypatch, "eligible_set")
    rng = random.Random(43)
    rescan_per_decision = total_scans = 0
    for k in range(30):
        inst = random_instance(rng, n=rng.randint(3, 9), capacity=12,
                               max_demand=5, zero_prob=0.2)
        rules = RulePair(random_tree(rng, 4), random_tree(rng, 4))
        for name in POLICY_NAMES:
            scans.clear()
            res = solve(inst, build_policy(rules, name), sample_durations(inst, k))
            entries = res.schedule.entries.values()
            # every policy here starts something whenever it can, so the
            # clock visits 0 and completion times only
            clocks = {0} | {e.start + e.duration for e in entries if e.duration}
            zero_starts = sum(e.duration == 0 for e in entries)
            assert len(scans) <= len(clocks) + zero_starts
            total_scans += len(scans)
            rescan_per_decision += len(clocks) + len(res.decisions)
    assert total_scans < 0.8 * rescan_per_decision


def test_degenerate_interval_needs_no_draw():
    inst = demo_instance()
    # dummy activities have [0, 0] intervals
    for seed in (0, 1, 2):
        assert realized_duration(inst, seed, 0, 0) == 0


def test_sample_mean_approaches_midpoint(demo):
    # activity 4 mode 0 is U{2..5}: mean 3.5
    n = 10_000
    s = sum(realized_duration(demo, seed, 4, 0) for seed in range(n))
    assert abs(s / n - 3.5) < 0.1


def test_solver_determinism(demo):
    a = solve(demo, LowestIdFirst(), sample_durations(demo, 5))
    b = solve(demo, LowestIdFirst(), sample_durations(demo, 5))
    assert a == b


class _Misbehaving:
    def __init__(self, group):
        self.group = group

    def decide(self, ctx, eligible):
        return self.group, len(eligible)


def test_contract_rejects_ineligible_pair(demo):
    with pytest.raises(PolicyContractError):
        solve(demo, _Misbehaving([(3, 0)]), DurationTable(demo))


def test_contract_rejects_two_modes_of_one_activity(demo):
    with pytest.raises(PolicyContractError):
        solve(demo, _Misbehaving([(1, 0), (1, 1)]), DurationTable(demo))


def test_contract_rejects_joint_overload(demo):
    # both fit alone (10 and 7 under 12) but not together
    with pytest.raises(PolicyContractError):
        solve(demo, _Misbehaving([(1, 0), (2, 0)]), DurationTable(demo))


def test_stall_guard_fires(demo):
    class Lazy:
        def decide(self, ctx, eligible):
            return (), len(eligible)

    with pytest.raises(RuntimeError, match="stalled"):
        solve(demo, Lazy(), DurationTable(demo))


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    seen = {derive_seed("run", k) for k in range(1000)}
    assert len(seen) == 1000
