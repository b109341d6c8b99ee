"""Knee cut, group enumeration and the executor-facing policies."""
import math
import random

import pytest

from kneegp.model import Activity, Mode, build_instance
from kneegp.policy import (
    DEFAULT_ENUMERATION_LIMIT,
    EnumerationOverflowError,
    KneeConfig,
    build_policy,
    feasible_groups,
    full_enumeration_decide,
    knee_cut,
    knee_group_decide,
    knee_index,
    sequential_decide,
)
from kneegp.rules import DecisionContext, RulePair, func, leaf, parse_sexpr
from kneegp.sim import eligible_set, sample_durations, solve

from conftest import random_instance


def _knee_oracle(values):
    """Kept-prefix length, recomputed from the raw line-distance formula."""
    n = len(values)
    if n <= 2 or values[0] == values[-1]:
        return n
    x1, y1 = 0.0, float(values[0])
    x2, y2 = float(n - 1), float(values[-1])
    denom = math.hypot(x2 - x1, y2 - y1)
    best, best_d = 0, -1.0
    for k, v in enumerate(values):
        # rescale to the unit square before measuring
        x = (k - x1) / (x2 - x1)
        y = (v - y1) / (y2 - y1)
        d = abs(x - y) / math.sqrt(2)
        if d > best_d:
            best, best_d = k, d
    assert denom > 0
    return sum(1 for v in values if v <= values[best])


def test_knee_of_elbow_curve():
    # distances peak at the third point: 1, 2, 3 | 10, 11
    assert knee_index([1, 2, 3, 10, 11]) == 2
    assert knee_cut([1, 2, 3, 10, 11]) == 3


def test_flat_and_tiny_curves_keep_everything():
    assert knee_cut([4, 4, 4, 4]) == 4
    assert knee_cut([7]) == 1
    assert knee_cut([3, 9]) == 2
    assert knee_cut([]) == 0


def test_knee_boundary_is_inclusive():
    # knee lands on the plateau, so every tied value survives
    assert knee_cut([0, 0, 0, 5]) == 3


def test_knee_matches_line_distance_oracle():
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randint(3, 40)
        values = sorted(round(rng.uniform(0, 50), 2) for _ in range(n))
        if rng.random() < 0.3:
            values = sorted(rng.choices([1.0, 2.0, 5.0], k=n))
        assert knee_cut(values) == _knee_oracle(values)


def _flat_instance(expecteds, demands, capacity):
    """Independent activities between the dummies, one mode each."""
    n = len(expecteds)
    acts = [Activity(0, frozenset(), frozenset(range(1, n + 1)),
                     (Mode(0, 0, 0, (0,)),))]
    for k, (e, d) in enumerate(zip(expecteds, demands), start=1):
        acts.append(Activity(k, frozenset({0}), frozenset({n + 1}),
                             (Mode(e, e, e, (d,)),)))
    acts.append(Activity(n + 1, frozenset(range(1, n + 1)), frozenset(),
                         (Mode(0, 0, 0, (0,)),)))
    return build_instance(acts, (capacity,))


def _context(inst):
    avail = inst.capacities
    return DecisionContext(inst, 0, avail, frozenset({inst.dummy_start}), {})


def test_walkthrough_scenario():
    # priorities 1,2,3,10,11; each activity demands 5 of 12, so pairs of the
    # three promising activities fit but not all three together
    inst = _flat_instance([1, 2, 3, 10, 11], [5] * 5, 12)
    ctx = _context(inst)
    eligible = eligible_set(inst, ctx.completed, {}, ctx.availability)
    rules = RulePair(leaf("ExpDur"), func("neg", leaf("ExpDur")))

    gd = knee_group_decide(rules, ctx, eligible, KneeConfig())
    assert gd.filtered_size == 3
    assert gd.group == ((2, 0), (3, 0))  # longest feasible 2-set wins

    keep_all = knee_group_decide(rules, ctx, eligible,
                                 KneeConfig(retain_maximal_only=False))
    assert keep_all.group == ((3, 0),)  # the lone longest activity

    exact = full_enumeration_decide(rules, ctx, eligible)
    assert exact.count == 2 ** 5 - 1
    assert exact.group == ((5, 0),)  # sees past the knee to activity 5


def test_cap_truncates_after_the_cut():
    # twelve short activities tie below the knee, three long ones lie past it
    inst = _flat_instance([1] * 12 + [100, 101, 102], [1] * 15, 100)
    ctx = _context(inst)
    eligible = eligible_set(inst, ctx.completed, {}, ctx.availability)
    rules = RulePair(leaf("ExpDur"), func("neg", leaf("RR")))
    assert knee_cut([1.0] * 12 + [100.0, 101.0, 102.0]) == 12
    gd = knee_group_decide(rules, ctx, eligible, KneeConfig(cap=10))
    assert gd.filtered_size == 12
    assert gd.group == tuple((i, 0) for i in range(1, 11))
    gd = knee_group_decide(rules, ctx, eligible, KneeConfig(cap=1))
    assert gd.group == ((1, 0),)


def test_filtered_size_reports_the_pre_cap_count():
    inst = _flat_instance([4] * 15, [1] * 15, 20)
    rules = RulePair(leaf("ExpDur"), leaf("GRD"))
    res = solve(inst, build_policy(rules, "kggp-max"), sample_durations(inst, 1))
    first = res.decisions[0]
    assert first.eligible_size == 15
    assert first.filtered_size == 15  # flat ranking keeps everything
    assert len(first.group) == 10     # enumeration still capped


def test_group_tie_breaks_on_smallest_activity_ids():
    # identical activities, constant group score: every subset ties
    inst = _flat_instance([4] * 5, [1] * 5, 2)
    ctx = _context(inst)
    eligible = eligible_set(inst, ctx.completed, {}, ctx.availability)
    rules = RulePair(leaf("ExpDur"), func("sub", leaf("RR"), leaf("RR")))
    gd = knee_group_decide(rules, ctx, eligible, KneeConfig())
    assert gd.group == ((1, 0), (2, 0))


def test_no_feasible_subset_returns_empty():
    inst = _flat_instance([3, 3], [5, 5], 12)
    ctx = DecisionContext(inst, 0, (4,), frozenset({0}), {})
    rules = RulePair(leaf("ExpDur"), leaf("RR"))
    gd = knee_group_decide(rules, ctx, [(1, 0), (2, 0)], KneeConfig())
    assert gd.group == ()
    assert gd.count == 0


def test_hard_limit_narrows_the_enumeration():
    inst = _flat_instance([4] * 6, [1] * 6, 20)
    ctx = _context(inst)
    eligible = eligible_set(inst, ctx.completed, {}, ctx.availability)
    rules = RulePair(leaf("ExpDur"), func("neg", leaf("RR")))
    gd = knee_group_decide(rules, ctx, eligible,
                           KneeConfig(group_size_hard_limit=7))
    assert gd.count <= 7
    assert len(gd.group) <= 3  # 2**3 - 1 == 7


def test_knee_config_rejects_bad_values():
    with pytest.raises(ValueError):
        KneeConfig(cap=0)
    with pytest.raises(ValueError):
        KneeConfig(group_size_hard_limit=0)


def test_sequential_breaks_ties_on_activity_then_mode(demo):
    ctx = _context(demo)
    eligible = eligible_set(demo, ctx.completed, {}, ctx.availability)
    constant = func("sub", leaf("EST"), leaf("EST"))
    assert sequential_decide(constant, ctx, eligible) == (1, 0)
    assert sequential_decide(leaf("ExpDur"), ctx, eligible) == (2, 0)
    with pytest.raises(ValueError):
        sequential_decide(constant, ctx, [])


def test_enumeration_count_is_product_of_mode_choices():
    rng = random.Random(9)
    rules = RulePair(leaf("ExpDur"), leaf("RR"))
    for _ in range(30):
        inst = random_instance(rng, n=rng.randint(3, 7), n_modes=rng.randint(1, 3),
                               capacity=30, max_demand=4)
        ctx = _context(inst)
        eligible = eligible_set(inst, ctx.completed, {}, ctx.availability)
        if not eligible:
            continue
        by_act = {}
        for i, m in eligible:
            by_act.setdefault(i, []).append(m)
        expect = 1
        for ms in by_act.values():
            expect *= len(ms) + 1
        ed = full_enumeration_decide(rules, ctx, eligible)
        assert ed.count == expect - 1


def test_enumeration_matches_subset_oracle():
    # brute force over every skip-or-mode assignment, no pruning
    from itertools import product

    rng = random.Random(77)
    for trial in range(40):
        inst = random_instance(rng, n=rng.randint(2, 5), n_modes=2,
                               capacity=8, max_demand=4)
        ctx = _context(inst)
        eligible = eligible_set(inst, ctx.completed, {}, ctx.availability)
        if not eligible:
            continue
        rules = RulePair(leaf("ExpDur"),
                         func("mul", leaf("GRD"), leaf("AvgRR")))
        by_act = {}
        for i, m in eligible:
            by_act.setdefault(i, []).append(m)
        acts = sorted(by_act)
        best = None
        from kneegp.rules import eval_group_priority

        for choice in product(*[[None] + by_act[i] for i in acts]):
            group = tuple((i, m) for i, m in zip(acts, choice) if m is not None)
            if not group:
                continue
            need = [0] * inst.n_resources
            for i, m in group:
                for r, d in enumerate(inst.activities[i].modes[m].demand):
                    need[r] += d
            if any(n > c for n, c in zip(need, ctx.availability)):
                continue
            key = (eval_group_priority(rules.group, ctx, group),
                   tuple(i for i, _ in group), group)
            if best is None or key < best:
                best = key
        ed = full_enumeration_decide(rules, ctx, eligible)
        assert best is not None
        assert ed.group == best[2]


def test_enumeration_overflow_carries_the_count():
    inst = _flat_instance([3] * 13, [1] * 13, 26)
    two_mode = []
    for a in inst.activities:
        if a.id in (0, 14):
            two_mode.append(a)
        else:
            m = a.modes[0]
            two_mode.append(Activity(a.id, a.predecessors, a.successors,
                                     (m, Mode(4, 4, 4, (2,)))))
    inst = build_instance(two_mode, inst.capacities)
    ctx = _context(inst)
    eligible = eligible_set(inst, ctx.completed, {}, ctx.availability)
    assert len(eligible) == 26
    rules = RulePair(leaf("ExpDur"), leaf("RR"))
    with pytest.raises(EnumerationOverflowError) as exc:
        full_enumeration_decide(rules, ctx, eligible)
    assert exc.value.count == 3 ** 13 - 1
    assert exc.value.count > DEFAULT_ENUMERATION_LIMIT


def test_keep_all_equals_maximal_when_bigger_is_always_better():
    # neg(RR) strictly rewards adding members, so the keep-all argmin is
    # itself maximal and both variants must agree
    rng = random.Random(303)
    rules = RulePair(leaf("LFT"), func("neg", leaf("RR")))
    for _ in range(40):
        inst = random_instance(rng, n=rng.randint(4, 9), n_modes=2,
                               capacity=10, max_demand=4)
        ctx = _context(inst)
        eligible = eligible_set(inst, ctx.completed, {}, ctx.availability)
        if not eligible:
            continue
        gmax = knee_group_decide(rules, ctx, eligible,
                                 KneeConfig(retain_maximal_only=True))
        gall = knee_group_decide(rules, ctx, eligible,
                                 KneeConfig(retain_maximal_only=False))
        assert gmax.group == gall.group
        assert gmax.count <= gall.count


def test_single_mode_knee_disabled_matches_full_enumeration():
    rng = random.Random(515)
    for trial in range(60):
        inst = random_instance(rng, n=rng.randint(3, 8), n_modes=1,
                               capacity=9, max_demand=4)
        ctx = _context(inst)
        eligible = eligible_set(inst, ctx.completed, {}, ctx.availability)
        if not eligible or len(eligible) > 10:
            continue
        sigma = parse_sexpr("(add LFT (mul GRPW AvgRR))")
        gamma = parse_sexpr("(sub GRD (max RR MinRLA))")
        rules = RulePair(sigma, gamma)
        cfg = KneeConfig(apply_knee=False, retain_maximal_only=False)
        gd = knee_group_decide(rules, ctx, eligible, cfg)
        ed = full_enumeration_decide(rules, ctx, eligible)
        assert gd.group == ed.group
        assert gd.filtered_size == len(eligible)


def test_policies_drive_full_runs(demo):
    sigma = parse_sexpr("(add LFT ExpDur)")
    gamma = parse_sexpr("(neg (add RR ExpDur))")
    rules = RulePair(sigma, gamma)
    tables = sample_durations(demo, 99)
    for name in ("sgp", "ggp", "kggp-max", "kggp-all"):
        policy = build_policy(rules, name)
        res = solve(demo, policy, tables)
        assert res.makespan >= demo.lower_bound
        assert all(d.filtered_size <= d.eligible_size for d in res.decisions)


def test_sequential_policy_reports_whole_eligible_set(demo):
    res = solve(demo, build_policy(RulePair(leaf("LFT")), "sgp"),
                sample_durations(demo, 3))
    assert all(len(d.group) == 1 for d in res.decisions)
    assert res.decisions[0].eligible_size == 4
    assert res.decisions[0].filtered_size == 4


def test_build_policy_validates_inputs():
    sigma_only = RulePair(leaf("LFT"))
    for name in ("ggp", "kggp-max", "kggp-all"):
        with pytest.raises(ValueError, match="group tree"):
            build_policy(sigma_only, name)
    with pytest.raises(ValueError):
        build_policy(RulePair(leaf("LFT"), leaf("RR")), "grouped")

    # the walkthrough: only kggp-all scores the non-maximal singleton
    inst = _flat_instance([1, 2, 3, 10, 11], [5] * 5, 12)
    ctx = _context(inst)
    eligible = eligible_set(inst, ctx.completed, {}, ctx.availability)
    rules = RulePair(leaf("ExpDur"), func("neg", leaf("ExpDur")))
    assert build_policy(rules, "sgp").decide(ctx, eligible) == (((1, 0),), 5)
    assert build_policy(rules, "kggp-max").decide(ctx, eligible) == (((2, 0), (3, 0)), 3)
    assert build_policy(rules, "kggp-all").decide(ctx, eligible) == (((3, 0),), 3)

    # 2**5 - 1 candidates: one over the limit overflows, the limit itself runs
    with pytest.raises(EnumerationOverflowError):
        build_policy(rules, "ggp", hard_limit=30).decide(ctx, eligible)
    assert build_policy(rules, "ggp", hard_limit=31).decide(ctx, eligible) == (((5, 0),), 5)


def test_maximal_groups_are_the_uncontained_feasible_ones():
    # brute force over skip-or-take assignments of random multi-option slots
    from itertools import product

    rng = random.Random(808)
    for _ in range(200):
        n_res = rng.randint(1, 3)
        slots = [[((k, m), tuple(rng.randint(0, 4) for _ in range(n_res)))
                  for m in range(rng.randint(1, 3))]
                 for k in range(rng.randint(1, 5))]
        avail = tuple(rng.randint(0, 8) for _ in range(n_res))
        feasible = set()
        for choice in product(*[[None] + s for s in slots]):
            taken = [o for o in choice if o is not None]
            need = [sum(d[r] for _, d in taken) for r in range(n_res)]
            if taken and all(k <= a for k, a in zip(need, avail)):
                feasible.add(tuple(p for p, _ in taken))
        maximal = {g for g in feasible
                   if not any(set(g) < set(h) for h in feasible)}
        every = list(feasible_groups(slots, avail))
        assert len(every) == len(set(every))
        assert set(every) == feasible
        assert set(feasible_groups(slots, avail, maximal=True)) == maximal
