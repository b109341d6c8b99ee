from __future__ import annotations

import io
import random

import pytest

from kneegp.model import build_instance, validate_schedule, Activity, Mode
from kneegp.sim import (
    DurationTable,
    PolicyContractError,
    decision_log_to_csv,
    derive_seed,
    eligible_set,
    expected_durations,
    realized_duration,
    sample_durations,
    solve,
)

from conftest import demo_instance, random_instance


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
    res = solve(demo, LowestIdFirst(), expected_durations(demo))
    assert res.makespan == 20
    assert validate_schedule(demo, res.schedule).ok


def test_scripted_group_run_reaches_seventeen(demo):
    script = {0: [[(1, 1), (2, 1)]], 7: [[(3, 0)]], 11: [[(4, 1), (5, 1)]]}
    res = solve(demo, Scripted(script), expected_durations(demo))
    assert res.makespan == 17
    assert validate_schedule(demo, res.schedule).ok
    assert [d.clock for d in res.decisions] == [0, 7, 11]


def test_eligible_set_at_start(demo):
    elig = eligible_set(demo, frozenset({0}), {}, demo.capacities)
    assert elig == [(1, 0), (1, 1), (2, 0), (2, 1)]


def test_eligible_set_respects_free_capacity(demo):
    # activity 1 running in mode 0 leaves 2 units: nothing else fits
    elig = eligible_set(demo, frozenset({0}), {1: (0, 0, 5)}, (2,))
    assert elig == []


def test_eligible_set_when_everything_done(demo):
    done = frozenset(range(demo.n_activities))
    assert eligible_set(demo, done, {}, demo.capacities) == []


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
            elig = eligible_set(inst, frozenset(completed), running, avail)
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


def test_empty_project_finishes_at_zero():
    idle = Mode(0, 0, 0, (0,))
    inst = build_instance(
        [Activity(0, frozenset(), frozenset({1}), (idle,)),
         Activity(1, frozenset({0}), frozenset(), (idle,))],
        [3],
    )
    res = solve(inst, LowestIdFirst(), expected_durations(inst))
    assert res.makespan == 0
    assert res.decisions == ()


def test_sampling_bounds_and_determinism(demo):
    for seed in range(30):
        t = sample_durations(demo, seed)
        assert t.realized == sample_durations(demo, seed).realized
        for i in demo.non_dummy_ids():
            for m, mo in enumerate(demo.activities[i].modes):
                assert mo.min_duration <= t.duration(i, m) <= mo.max_duration
        assert t.duration(0, 0) == 0
        assert t.duration(demo.dummy_end, 0) == 0


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
        solve(demo, _Misbehaving([(3, 0)]), expected_durations(demo))


def test_contract_rejects_two_modes_of_one_activity(demo):
    with pytest.raises(PolicyContractError):
        solve(demo, _Misbehaving([(1, 0), (1, 1)]), expected_durations(demo))


def test_contract_rejects_joint_overload(demo):
    # both fit alone (10 and 7 under 12) but not together
    with pytest.raises(PolicyContractError):
        solve(demo, _Misbehaving([(1, 0), (2, 0)]), expected_durations(demo))


def test_stall_guard_fires(demo):
    class Lazy:
        def decide(self, ctx, eligible):
            return (), len(eligible)

    with pytest.raises(RuntimeError, match="stalled"):
        solve(demo, Lazy(), expected_durations(demo))


def test_decision_log_csv(demo):
    res = solve(demo, LowestIdFirst(), expected_durations(demo))
    buf = io.StringIO()
    decision_log_to_csv(res.decisions, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "clock,eligible_size,filtered_size,group_size,pairs"
    assert len(lines) == len(res.decisions) + 1
    assert lines[1].startswith("0,4,4,1,1:0")


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    seen = {derive_seed("run", k) for k in range(1000)}
    assert len(seen) == 1000
