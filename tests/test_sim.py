from __future__ import annotations

import random
import re

import pytest

from kneegp.evolve import random_tree
from kneegp.model import build_instance, validate_schedule, Activity, Mode
from kneegp.policy import POLICY_NAMES, build_policy
from kneegp.rules import DecisionContext, RulePair
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
    EagerRecords, _act, chain_instance, count_calls, demo_instance, full_scan_horizon,
    random_instance, realized, reference_check_group, rescan_eligible,
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
    elig = eligible_set(demo, {2, 1}, demo.analysis.pack_free(demo.capacities))
    assert elig == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert elig == rescan_eligible(demo, frozenset({0}), {}, demo.capacities)


def test_eligible_set_respects_free_capacity(demo):
    # activity 1 running in mode 0 leaves 2 units: nothing else fits
    assert eligible_set(demo, {2}, demo.analysis.pack_free((2,))) == []
    assert rescan_eligible(demo, frozenset({0}), {1: (0, 0, 5)}, (2,)) == []


def test_eligible_set_when_everything_done(demo):
    assert eligible_set(demo, set(), demo.analysis.pack_free(demo.capacities)) == []
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

            ctx = DecisionContext(inst, t, inst.analysis.pack_free(avail),
                                  frozenset(completed),
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


# (resources, capacity): both sides of each step in the lane width, which
# is the capacity's bit length plus a guard bit
LANE_EDGES = [(n_res, cap) for n_res in (1, 8) for k in range(1, 6)
              for cap in (2 ** k - 1, 2 ** k)]


def _lane_edge_instance(rng, n_resources, capacity):
    """A random project whose demands often take a resource's whole
    capacity, the top of its lane, with zero-duration modes."""
    inst = random_instance(rng, n=rng.randint(3, 9), n_modes=rng.randint(1, 3),
                           n_resources=n_resources, capacity=capacity,
                           max_demand=capacity, zero_prob=0.25, top_prob=0.3)
    assert inst.analysis.lanes[0] == capacity.bit_length() + 1
    return inst


class TopChecked(RescanChecked):
    """`RescanChecked`, counting the eligible pairs that take all that is
    free of some resource."""

    tight = 0

    def decide(self, ctx, eligible):
        self.tight += sum(
            any(map(int.__eq__, ctx.instance.activities[i].modes[m].demand,
                    ctx.availability))
            for i, m in eligible)
        return super().decide(ctx, eligible)


def test_eligible_sets_at_the_lane_edges():
    rng = random.Random(53)
    decisions = tight = 0
    for k, (n_res, cap) in enumerate(LANE_EDGES * 2):
        inst = _lane_edge_instance(rng, n_res, cap)
        rules = RulePair(random_tree(rng, 4), random_tree(rng, 4))
        for name in POLICY_NAMES:
            policy = TopChecked(build_policy(rules, name))
            res = solve(inst, policy, sample_durations(inst, seed=k))
            assert validate_schedule(inst, res.schedule).ok
            decisions += policy.decisions
            tight += policy.tight
    assert decisions > 500 and tight > 300


class CapacityChecked(RescanChecked):
    """`RescanChecked`, also checking the context's free capacity: unpacked,
    it is the capacities less the running demands, and packing that again
    gives the packed `free` the context holds."""

    busy = 0

    def decide(self, ctx, eligible):
        inst = ctx.instance
        left = list(inst.capacities)
        for i, (m, _) in ctx.running.items():
            for r, k in enumerate(inst.activities[i].modes[m].demand):
                left[r] -= k
        assert ctx.availability == tuple(left)
        assert inst.analysis.pack_free(ctx.availability) == ctx.free
        self.busy += bool(ctx.running)
        return super().decide(ctx, eligible)


def test_free_capacity_is_the_capacities_less_the_running_demands():
    """At every decision of all four policies, on random projects with
    zero-duration modes at the lane edges, whose demands take a whole
    capacity or share it."""
    rng = random.Random(61)
    decisions = busy = 0
    for k, (n_res, cap) in enumerate(LANE_EDGES * 4):
        inst = random_instance(rng, n=rng.randint(3, 9), n_modes=rng.randint(1, 3),
                               n_resources=n_res, capacity=cap,
                               max_demand=rng.choice([cap, max(1, cap // 4)]),
                               zero_prob=0.25, top_prob=rng.choice([0.0, 0.3]))
        rules = RulePair(random_tree(rng, 4), random_tree(rng, 4))
        for name in POLICY_NAMES:
            policy = CapacityChecked(build_policy(rules, name))
            solve(inst, policy, sample_durations(inst, seed=k))
            decisions += policy.decisions
            busy += policy.busy
    assert decisions > 1000 and busy > 200


class RandomGroups:
    """Proposes a random group of eligible pairs of distinct activities at
    every decision: mostly cut to the longest prefix that fits, otherwise
    as drawn, now and then with a repeated activity or a pair of any
    activity and mode, and its pairs sometimes as lists. `expected` is the
    tuple reference's verdict on the last proposal."""

    def __init__(self, rng):
        self.rng = rng
        self.expected = None
        self.decisions = 0

    def decide(self, ctx, eligible):
        assert self.expected is None  # the executor started only valid groups
        self.decisions += 1
        rng, inst = self.rng, ctx.instance
        best = {}  # one random mode per activity
        for pair in rng.sample(eligible, len(eligible)):
            best.setdefault(pair[0], pair)
        group = list(best.values())[:rng.randint(1, 4)]
        roll = rng.random()
        if roll < 0.7:
            while reference_check_group(inst, group, eligible, ctx.availability):
                group.pop()
        elif roll < 0.8:
            group.insert(rng.randrange(len(group) + 1), rng.choice(group))
        elif roll < 0.9:
            i = rng.choice(inst.non_dummy_ids())
            group.insert(rng.randrange(len(group) + 1),
                         (i, rng.randrange(inst.activities[i].n_modes)))
        if rng.random() < 0.3:
            group = [list(p) for p in group]
        self.expected = reference_check_group(inst, group, eligible, ctx.availability)
        return group, len(eligible)


def test_contract_verdicts_match_the_tuple_reference_at_the_lane_edges():
    rng = random.Random(59)
    verdicts: dict[str, int] = {}
    decisions = 0
    for k, (n_res, cap) in enumerate(LANE_EDGES * 20):
        inst = _lane_edge_instance(rng, n_res, cap)
        policy = RandomGroups(rng)
        try:
            solve(inst, policy, sample_durations(inst, seed=k))
        except PolicyContractError as exc:
            assert str(exc) == policy.expected
            verdict = policy.expected.split()[0]
        else:
            assert policy.expected is None
            verdict = "finished"
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        decisions += policy.decisions
    # pair not eligible, activity in two modes, group overdraws
    assert min(verdicts[v] for v in ("pair", "activity", "group", "finished")) >= 40
    assert decisions > 1000


def _full_lane_instance(capacity):
    """Four parallel activities, each taking all of resource 0 in one mode
    and half of it in another; resource 1 is barely used."""
    acts = [_act(0, [], [1, 2, 3, 4], [(0, 0, 0, (0, 0))])]
    for k in range(1, 5):
        acts.append(_act(k, [0], [5], [(3, 3, 3, (capacity, 1)),
                                       (4, 4, 4, (capacity // 2, 0))]))
    acts.append(_act(5, [1, 2, 3, 4], [], [(0, 0, 0, (0, 0))]))
    return build_instance(acts, [capacity, capacity])


@pytest.mark.parametrize("capacity", [3, 4, 7, 8, 15, 16])
def test_contract_counts_members_at_a_lane_top_one_at_a_time(capacity):
    """Full-capacity members overdraw however their packed demands add up.
    Two of them sum to at most twice the top, which still fits a lane; from
    three on a sum can carry into the next lane, or a borrow restore a
    cleared guard bit, so the executor takes them off one at a time."""
    inst = _full_lane_instance(capacity)
    for n in (2, 3, 4):
        group = [(k, 0) for k in range(1, n + 1)]
        with pytest.raises(PolicyContractError) as exc:
            solve(inst, _Misbehaving(group), DurationTable(inst))
        assert str(exc.value) == (
            f"group demands {n * capacity} of resource 0, only {capacity} free")
        assert str(exc.value) == reference_check_group(
            inst, group, rescan_eligible(inst, {0}, {}, inst.capacities), inst.capacities)
    # two half-capacity members fit
    script = {0: [[(1, 1), (2, 1)]], 4: [[(3, 1), (4, 1)]]}
    res = solve(inst, Scripted(script), DurationTable(inst))
    assert [d.group for d in res.decisions] == [((1, 1), (2, 1)), ((3, 1), (4, 1))]


def test_records_equal_the_eager_reference():
    """At every decision of all four policies, on random projects with
    zero-duration modes and on ones whose modes all take 0, the records a
    result builds on each read are those built as the solve went."""
    rng = random.Random(67)
    zero_makespans = 0
    for k in range(40):
        zero_prob = 1.0 if k % 8 == 0 else 0.3
        inst = random_instance(rng, n=rng.randint(3, 9), n_modes=rng.randint(1, 3),
                               capacity=12, max_demand=7, zero_prob=zero_prob)
        rules = RulePair(random_tree(rng, 4), random_tree(rng, 4))
        for name in POLICY_NAMES:
            table = sample_durations(inst, seed=k)
            eager = EagerRecords(build_policy(rules, name), table)
            res = solve(inst, eager, table)
            schedule, decisions = res.schedule, res.decisions
            assert res.makespan == max((e.start + e.duration
                                        for e in schedule.entries.values()), default=0)
            assert schedule == eager.schedule
            assert list(schedule.entries.items()) == list(eager.schedule.entries.items())
            assert decisions == tuple(eager.decisions)
            assert res.schedule == schedule and res.decisions == decisions
            zero_makespans += res.makespan == 0
    assert zero_makespans >= 20


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


@pytest.mark.parametrize("script, message", [
    # activity 3 waits on activity 1
    ({0: [[(3, 0)]]}, "pair (3, 0) is not eligible"),
    # ready, but after (2, 1) takes 5 of 12 its demand of 10 no longer fits
    ({0: [[(2, 1)], [(1, 0)]]}, "pair (1, 0) is not eligible"),
    # a mode the activity does not have
    ({0: [[(1, 2)]]}, "pair (1, 2) is not eligible"),
])
def test_a_lone_pair_outside_the_eligible_list_is_refused(demo, script, message):
    """Only a lone pair of the eligible list skips the full check: every
    one of those fits, and any other lone pair is refused as before."""
    with pytest.raises(PolicyContractError, match=f"^{re.escape(message)}$"):
        solve(demo, Scripted(script), DurationTable(demo))


def test_stall_guard_fires(demo):
    class Lazy:
        calls = 0

        def decide(self, ctx, eligible):
            self.calls += 1
            return (), len(eligible)

    lazy = Lazy()
    with pytest.raises(RuntimeError, match="stalled"):
        solve(demo, lazy, DurationTable(demo))
    # nothing runs, so no later clock could change the answer
    assert lazy.calls == 1


def test_decision_context_keeps_its_snapshot(demo):
    # the executor hands its live state over and goes on changing it
    completed, running = {0, 1}, {2: (0, 5)}
    ctx = DecisionContext(demo, 7, demo.analysis.pack_free((5,)), completed, running)
    completed.add(3)
    running[4] = (1, 6)
    running[2] = (1, 7)
    assert ctx.availability == (5,)
    assert ctx.completed == frozenset({0, 1})
    assert ctx.running == {2: (0, 5)}


class LiveChecked:
    """Delegates to a policy after checking the context `solve` hands it
    against a copying context of the same state: `horizon`, `availability`
    and `_avail_stats` agree in value and type, and `horizon` equals the full
    scan. It reads the executor's own `completed` and `running` at every
    decision. Every activity before the horizon cursor has started and the
    one at it has not; `seen` gets the cursor and its position at each
    decision, and `skipped_running` counts the decisions with a running
    activity before the cursor."""

    def __init__(self, policy):
        self.policy = policy
        self.seen = []
        self.skipped_running = 0

    def decide(self, ctx, eligible):
        if not self.seen:
            self.state = ctx.completed, ctx.running
        assert ctx.completed is self.state[0] and ctx.running is self.state[1]
        copy = DecisionContext(ctx.instance, ctx.clock, ctx.free, ctx.completed, ctx.running)
        for name in ("horizon", "availability", "_avail_stats"):
            assert repr(getattr(ctx, name)) == repr(getattr(copy, name)), name
        assert repr(ctx.horizon) == repr(full_scan_horizon(ctx))
        order, k = ctx.instance.analysis.horizon_order, ctx._cursor[0]
        started = ctx.completed | set(ctx.running)
        assert set(order[:k]) <= started and order[k] not in started
        self.skipped_running += any(i in ctx.running for i in order[:k])
        self.seen.append((ctx._cursor, k))
        return self.policy.decide(ctx, eligible)


def test_a_live_context_reads_as_a_copying_one():
    """`solve` hands each policy a context over its own state, with one
    horizon cursor per solve that only moves forward."""
    rng = random.Random(31)
    cursors, decisions, skipped = [], 0, 0
    for k in range(25):
        inst = random_instance(rng, n=rng.randint(3, 12), capacity=12, max_demand=7,
                               zero_prob=0.25)
        rules = RulePair(random_tree(rng, 4), random_tree(rng, 4))
        for name in POLICY_NAMES:
            policy = LiveChecked(build_policy(rules, name))
            solve(inst, policy, sample_durations(inst, seed=k))
            mine = [c for c, _ in policy.seen]
            assert all(c is mine[0] for c in mine)
            assert not any(c is mine[0] for c in cursors)
            cursors.append(mine[0])
            positions = [p for _, p in policy.seen]
            assert positions == sorted(positions)
            decisions += len(positions)
            skipped += policy.skipped_running
    assert decisions > 500 and skipped > 50


def test_a_public_context_keeps_its_own_cursor(demo):
    """Each context built by the constructor starts its cursor at 0, so its
    horizon needs no history of the states before it."""
    free = demo.analysis.pack_free((5,))
    late = DecisionContext(demo, 7, free, {0, 1, 2, 3}, {4: (1, 6)})
    early = DecisionContext(demo, 7, free, {0}, {})
    assert late._cursor == early._cursor == [0] and late._cursor is not early._cursor
    for ctx in (late, early):
        assert repr(ctx.horizon) == repr(full_scan_horizon(ctx))


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    seen = {derive_seed("run", k) for k in range(1000)}
    assert len(seen) == 1000
