"""Knee cut, group enumeration and the executor-facing policies."""
import math
import random

import pytest

from kneegp.model import Activity, Mode, build_instance
from kneegp.policy import (
    DEFAULT_ENUMERATION_LIMIT,
    EnumerationOverflowError,
    KneeConfig,
    Decision,
    Policy,
    build_policy,
    full_enumeration_decide,
    knee_cut,
    knee_group_decide,
    rank_pairs,
    sequential_decide,
)
from kneegp import policy as policy_module
from kneegp import rules as rules_module
from kneegp.evolve import random_tree
from kneegp.rules import (
    DecisionContext,
    RulePair,
    eval_group_priority,
    eval_pair_priority,
    format_sexpr,
    func,
    leaf,
    parse_sexpr,
)
from kneegp.sim import sample_durations, solve

from conftest import (feasible_groups, random_instance, readied, reference_best_group,
                      rescan_eligible)


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
    return DecisionContext(inst, 0, inst.analysis.pack_free(inst.capacities),
                           frozenset({inst.dummy_start}), {})


def test_walkthrough_scenario():
    # priorities 1,2,3,10,11; each activity demands 5 of 12, so pairs of the
    # three promising activities fit but not all three together
    inst = _flat_instance([1, 2, 3, 10, 11], [5] * 5, 12)
    ctx = _context(inst)
    eligible = rescan_eligible(inst, ctx.completed, {}, ctx.availability)
    rules = RulePair(leaf("ExpDur"), func("neg", leaf("ExpDur")))

    gd = knee_group_decide(rules, ctx, eligible, KneeConfig())
    assert gd.filtered_size == 3
    assert gd.group == ((2, 0), (3, 0))  # longest feasible 2-set wins

    keep_all = knee_group_decide(rules, ctx, eligible, KneeConfig(), maximal=False)
    assert keep_all.group == ((3, 0),)  # the lone longest activity

    exact = full_enumeration_decide(rules, ctx, eligible)
    assert exact.count == 2 ** 5 - 1
    assert exact.group == ((5, 0),)  # sees past the knee to activity 5


def test_cap_truncates_after_the_cut():
    # twelve short activities tie below the knee, three long ones lie past it
    inst = _flat_instance([1] * 12 + [100, 101, 102], [1] * 15, 100)
    ctx = _context(inst)
    eligible = rescan_eligible(inst, ctx.completed, {}, ctx.availability)
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
    eligible = rescan_eligible(inst, ctx.completed, {}, ctx.availability)
    rules = RulePair(leaf("ExpDur"), func("sub", leaf("RR"), leaf("RR")))
    gd = knee_group_decide(rules, ctx, eligible, KneeConfig())
    assert gd.group == ((1, 0), (2, 0))


def test_no_feasible_subset_returns_empty():
    inst = _flat_instance([3, 3], [5, 5], 12)
    ctx = DecisionContext(inst, 0, inst.analysis.pack_free((4,)), frozenset({0}), {})
    rules = RulePair(leaf("ExpDur"), leaf("RR"))
    gd = knee_group_decide(rules, ctx, [(1, 0), (2, 0)], KneeConfig())
    assert gd.group == ()
    assert gd.count == 0


def test_a_lone_option_is_taken_only_if_it_fits():
    # a demand that overdraws one resource leaves the other's guard bit set
    idle = (Mode(0, 0, 0, (0, 0)),)
    inst = build_instance([Activity(0, frozenset(), frozenset({1}), idle),
                           Activity(1, frozenset({0}), frozenset({2}), (Mode(3, 3, 3, (5, 1)),)),
                           Activity(2, frozenset({1}), frozenset(), idle)], (8, 8))
    rules = RulePair(leaf("ExpDur"), leaf("RR"))
    for avail, group in (((4, 8), ()), ((8, 0), ()), ((5, 1), ((1, 0),))):
        ctx = DecisionContext(inst, 0, inst.analysis.pack_free(avail), frozenset({0}), {})
        for maximal in (False, True):
            d = knee_group_decide(rules, ctx, [(1, 0)], KneeConfig(), maximal)
            assert (d.group, d.count) == (group, len(group)), avail
        assert full_enumeration_decide(rules, ctx, [(1, 0)]).group == group, avail


def test_hard_limit_narrows_the_enumeration():
    inst = _flat_instance([4] * 6, [1] * 6, 20)
    ctx = _context(inst)
    eligible = rescan_eligible(inst, ctx.completed, {}, ctx.availability)
    rules = RulePair(leaf("ExpDur"), func("neg", leaf("RR")))
    gd = knee_group_decide(rules, ctx, eligible,
                           KneeConfig(group_size_hard_limit=7))
    assert gd.count <= 7
    assert len(gd.group) <= 3  # 2**3 - 1 == 7


@pytest.mark.parametrize("decide, message", [
    (lambda r, c, e: knee_group_decide(r, c, e, KneeConfig()),
     "knee group policy needs a group tree"),
    (full_enumeration_decide, "full enumeration needs a group tree"),
], ids=["knee", "full"])
def test_a_group_decision_needs_a_group_tree(demo, decide, message):
    ctx = _context(demo)
    eligible = rescan_eligible(demo, ctx.completed, {}, ctx.availability)
    with pytest.raises(ValueError, match=message):
        decide(RulePair(leaf("ExpDur")), ctx, eligible)


def test_knee_config_rejects_bad_values():
    with pytest.raises(ValueError):
        KneeConfig(cap=0)
    with pytest.raises(ValueError):
        KneeConfig(group_size_hard_limit=0)


def test_sequential_breaks_ties_on_activity_then_mode(demo):
    ctx = _context(demo)
    eligible = rescan_eligible(demo, ctx.completed, {}, ctx.availability)
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
        eligible = rescan_eligible(inst, ctx.completed, {}, ctx.availability)
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
        eligible = rescan_eligible(inst, ctx.completed, {}, ctx.availability)
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
        shuffled = list(eligible)
        rng.shuffle(shuffled)
        assert full_enumeration_decide(rules, ctx, shuffled) == ed


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
    eligible = rescan_eligible(inst, ctx.completed, {}, ctx.availability)
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
        eligible = rescan_eligible(inst, ctx.completed, {}, ctx.availability)
        if not eligible:
            continue
        gmax = knee_group_decide(rules, ctx, eligible, KneeConfig(), maximal=True)
        gall = knee_group_decide(rules, ctx, eligible, KneeConfig(), maximal=False)
        assert gmax.group == gall.group
        assert gmax.count <= gall.count


def test_single_mode_knee_disabled_matches_full_enumeration(monkeypatch):
    monkeypatch.setattr(policy_module, "knee_cut", len)  # the knee cut off
    rng = random.Random(515)
    for trial in range(60):
        inst = random_instance(rng, n=rng.randint(3, 8), n_modes=1,
                               capacity=9, max_demand=4)
        ctx = _context(inst)
        eligible = rescan_eligible(inst, ctx.completed, {}, ctx.availability)
        if not eligible or len(eligible) > 10:
            continue
        sigma = parse_sexpr("(add LFT (mul GRPW AvgRR))")
        gamma = parse_sexpr("(sub GRD (max RR MinRLA))")
        rules = RulePair(sigma, gamma)
        gd = knee_group_decide(rules, ctx, eligible, KneeConfig(), maximal=False)
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
    eligible = rescan_eligible(inst, ctx.completed, {}, ctx.availability)
    rules = RulePair(leaf("ExpDur"), func("neg", leaf("ExpDur")))
    assert build_policy(rules, "sgp").decide(ctx, eligible) == (((1, 0),), 5)
    assert build_policy(rules, "kggp-max").decide(ctx, eligible) == (((2, 0), (3, 0)), 3)
    assert build_policy(rules, "kggp-all").decide(ctx, eligible) == (((3, 0),), 3)

    # 2**5 - 1 candidates: one over the limit overflows, the limit itself runs
    with pytest.raises(EnumerationOverflowError):
        build_policy(rules, "ggp", hard_limit=30).decide(ctx, eligible)
    assert build_policy(rules, "ggp", hard_limit=31).decide(ctx, eligible) == (((5, 0),), 5)


def test_build_policy_rejects_limits_below_one():
    # 2**5 - 1 candidates: a limit of 0 used to fall back to the default
    inst = _flat_instance([1, 2, 3, 10, 11], [5] * 5, 12)
    ctx = _context(inst)
    eligible = rescan_eligible(inst, ctx.completed, {}, ctx.availability)
    rules = RulePair(leaf("ExpDur"), func("neg", leaf("ExpDur")))
    for name in ("sgp", "ggp", "kggp-max"):
        for limit in (0, -1):
            with pytest.raises(ValueError, match="hard limit"):
                build_policy(rules, name, hard_limit=limit)
    assert build_policy(rules, "ggp", hard_limit=None).decide(ctx, eligible) == (((5, 0),), 5)
    assert build_policy(rules, "ggp", hard_limit=1).decide(ctx, [(5, 0)]) == (((5, 0),), 1)


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
        slots_before, avail_list = repr(slots), list(avail)
        every = list(feasible_groups(slots, avail_list))
        assert len(every) == len(set(every))
        assert set(every) == feasible
        assert set(feasible_groups(slots, avail_list, maximal=True)) == maximal
        # members in slot order; the inputs are read, never written
        assert all([k for k, _ in g] == sorted({k for k, _ in g}) for g in every)
        assert repr(slots) == slots_before and avail_list == list(avail)


def _reference_ranking(ordering, ctx, eligible):
    """The pair order before `rank_pairs`: a key-lambda sort, then the first
    pair of each activity kept with a seen-set."""
    scored = sorted(
        ((eval_pair_priority(ordering, ctx, p), p) for p in eligible),
        key=lambda sp: (sp[0], sp[1][0], sp[1][1]),
    )
    kept, seen = [], set()
    for prio, pair in scored:
        if pair[0] not in seen:
            seen.add(pair[0])
            kept.append((prio, pair))
    return scored, kept


TIE_HEAVY_TREES = ["(sub RR RR)", "ExpDur", "(max ExpDur OptDur)", "(min LFT LST)",
                   "(mul RR (sub EST EST))", "(add LFT (neg ExpDur))"]


def test_rank_pairs_equals_the_key_lambda_order(monkeypatch):
    handed = []
    group_tree = leaf("RR")
    real = rules_module._compile_best(group_tree)

    def spy(ctx, slots, maximal):
        handed.append([pair for slot in slots for pair in slot])
        return real(ctx, slots, maximal)

    monkeypatch.setitem(vars(group_tree), "_best", spy)
    rng = random.Random(616)
    trials = 0
    for _ in range(80):
        inst = random_instance(rng, n=rng.randint(2, 12), n_modes=rng.randint(2, 3),
                               capacity=20, max_demand=6,
                               edge_prob=rng.choice([0.0, 0.2]))
        ctx = _context(inst)
        eligible = rescan_eligible(inst, ctx.completed, {}, ctx.availability)
        if not eligible:
            continue
        rng.shuffle(eligible)
        for text in TIE_HEAVY_TREES:
            ordering = parse_sexpr(text)
            scored, kept = _reference_ranking(ordering, ctx, eligible)
            assert rank_pairs(ordering, ctx, eligible) == scored
            assert sequential_decide(ordering, ctx, eligible) == scored[0][1]

            cfg = KneeConfig(cap=rng.randint(1, 6))
            handed.clear()
            d = knee_group_decide(RulePair(ordering, group_tree), ctx, eligible, cfg)
            assert d.filtered_size == knee_cut([p for p, _ in kept])
            width = min(d.filtered_size, cfg.cap)
            if width > 1:
                assert handed == [[pair for _, pair in kept[:width]]]
            else:  # a lone option that fits is taken without the form
                assert handed == [] and d.group == (kept[0][1],) and d.count == 1
            trials += 1
    assert trials > 300


def _random_modes_instance(rng, n_res):
    """Independent activities with 1-3 modes each; a mode may take no time
    and may demand nothing."""
    n = rng.randint(1, 6)
    acts = [Activity(0, frozenset(), frozenset(range(1, n + 1)),
                     (Mode(0, 0, 0, (0,) * n_res),))]
    for k in range(1, n + 1):
        modes = []
        for _ in range(rng.randint(1, 3)):
            e = rng.choice([0, 0, 2, 3, 5])
            modes.append(Mode(e, e, e + rng.randint(0, 2),
                              tuple(rng.choice([0, 0, 1, 2, 4]) for _ in range(n_res))))
        acts.append(Activity(k, frozenset({0}), frozenset({n + 1}), tuple(modes)))
    acts.append(Activity(n + 1, frozenset(range(1, n + 1)), frozenset(),
                         (Mode(0, 0, 0, (0,) * n_res),)))
    return build_instance(acts, (8,) * n_res)


def _mode_slots(ctx, eligible):
    """The slots full enumeration hands on: every mode of each activity."""
    by_act = {}
    for i, m in sorted(eligible):
        by_act.setdefault(i, []).append(((i, m), ctx.instance.activities[i].modes[m].demand))
    return list(by_act.values())


def _knee_slots(rules, ctx, eligible, cfg, cut=True):
    """The slots knee_group_decide hands on: the best-ranked mode of each
    activity, cut at the knee (if `cut`) and the cap."""
    ranked = {}
    for prio, pair in rank_pairs(rules.ordering, ctx, eligible):
        ranked.setdefault(pair[0], (prio, pair))
    kept = list(ranked.values())
    filtered = knee_cut([p for p, _ in kept]) if cut else len(kept)
    width = min(filtered, cfg.cap, (cfg.group_size_hard_limit + 1).bit_length() - 1)
    modes = ctx.instance.activities
    return filtered, [[(pair, modes[pair[0]].modes[pair[1]].demand)]
                      for _, pair in kept[:width]]


def _pairs(slots):
    """What the engine is handed of reference slots: the pairs alone."""
    return [[pair for pair, _ in slot] for slot in slots]


TIE_HEAVY_GROUP_TREES = ["(sub RR RR)", "DSC", "TPC", "(min DSC DPC)", "ExpDur",
                         "(neg (add GRD DSC))", "(div EST (sub LFT LFT))"]
WORK_GROUP_TREES = ["GRPW", "GRPW_all", "(sub GRPW_all (mul GRPW DSC))", "(sub TSC DSC)"]


def _wide_instance(rng, n_res):
    """17-30 activities with precedence edges and 1-3 modes each, so that a
    group's successor unions span three or more bytes."""
    return random_instance(rng, n=rng.randint(17, 30), n_modes=rng.randint(1, 3),
                           n_resources=n_res, capacity=8, max_demand=4, zero_prob=0.2)


def _lane_edge_instance(rng, n_res, powers=(1, 3, 8, 16)):
    """Independent activities on capacities at the edges of a packed lane:
    0, 1, 2^k - 1 or 2^k for a k of `powers`, all equal or mixed. A demand
    is 0, the whole capacity, or one of two halves that fit it exactly
    together."""
    k = rng.choice(powers)
    edges = [0, 1, 2 ** k - 1, 2 ** k]
    caps = ((rng.choice(edges),) * n_res if rng.random() < 0.5
            else tuple(rng.choice(edges) for _ in range(n_res)))
    n = rng.randint(2, 5)
    idle = (Mode(0, 0, 0, (0,) * n_res),)
    acts = [Activity(0, frozenset(), frozenset(range(1, n + 1)), idle)]
    for a in range(1, n + 1):
        modes = []
        for _ in range(rng.randint(1, 3)):
            e = rng.choice([0, 2, 5])
            modes.append(Mode(e, e, e, tuple(rng.choice([0, c, c // 2, c - c // 2])
                                             for c in caps)))
        acts.append(Activity(a, frozenset({0}), frozenset({n + 1}), tuple(modes)))
    acts.append(Activity(n + 1, frozenset(range(1, n + 1)), frozenset(), idle))
    return build_instance(acts, caps)


def test_group_choice_equals_the_reference_on_random_slots(monkeypatch):
    """Group and count against feasible_groups + interpreted group scores +
    the minimum (score, sorted ids, group), on slots of 1-3 options with zero
    demands and zero availability, maximal on and off. Trials 250-289 draw
    up to 8 pairs of 17-30 activities, complete the predecessors of the
    drawn activities, and score the group work terminals;
    the last trials put 1 or 8 resources at the edges of a packed lane, with
    the availability at 0, at the capacity or between."""
    rng = random.Random(4242)
    empty = several = multi_option = exact = 0
    for trial in range(390):
        wide, edge = 250 <= trial < 290, trial >= 290
        n_res = rng.choice([1, 8]) if edge else rng.randint(1, 3)
        if edge:
            inst = _lane_edge_instance(rng, n_res)
            avail = tuple(rng.choice([0, c, c, rng.randint(0, c)])
                          for c in inst.capacities)
        else:
            inst = (_wide_instance if wide else _random_modes_instance)(rng, n_res)
            avail = ((0,) * n_res if trial % 5 == 0
                     else tuple(rng.randint(0, 8) for _ in range(n_res)))
        pairs = [(i, m) for i in inst.non_dummy_ids()
                 for m in range(inst.activities[i].n_modes)]
        root = DecisionContext(inst, 0, inst.analysis.pack_free(avail), {0}, {})
        ctx, eligible = readied(root, rng.sample(
            pairs, rng.randint(1, 8 if wide else len(pairs))))
        texts = ((WORK_GROUP_TREES if wide else TIE_HEAVY_GROUP_TREES)
                 + [format_sexpr(random_tree(rng, 4))])
        for text in rng.sample(texts, 3):
            rules = RulePair(random_tree(rng, 3), parse_sexpr(text))
            slots = _mode_slots(ctx, eligible)
            group, scored = reference_best_group(rules.group, ctx, slots)
            ed = full_enumeration_decide(rules, ctx, eligible)
            assert ed.group == group, text
            assert ed.count == math.prod(len(s) + 1 for s in slots) - 1
            for maximal in (False, True):
                # multi-option slots with the maximal test, as no policy hands them on
                assert (policy_module._best_group(rules.group, ctx, _pairs(slots), maximal)
                        == reference_best_group(rules.group, ctx, slots, maximal)), text
                cfg, cut = KneeConfig(), trial % 2 == 0
                filtered, knee = _knee_slots(rules, ctx, eligible, cfg, cut)
                chosen, count = reference_best_group(rules.group, ctx, knee, maximal)
                with monkeypatch.context() as patch:
                    if not cut:
                        patch.setattr(policy_module, "knee_cut", len)
                    assert (knee_group_decide(rules, ctx, eligible, cfg, maximal)
                            == Decision(chosen, filtered, count)), text
            empty += not group
            several += scored > 1
            multi_option += any(len(s) > 1 for s in slots)
        if edge:  # a feasible group that leaves a positive capacity at 0
            exact += any(a and not k for g in feasible_groups(slots, avail)
                         for a, k in zip(avail, _left(inst, g, avail)))
    assert empty > 100 and several > 300 and multi_option > 300 and exact > 20


# group trees that read the summed demand `D` or the capacity left `left`
WIDE_LANE_GROUP_TREES = ["MaxRR", "MinRR", "GRD", "AvgRLA", "MaxRLA", "MinRLA",
                         "(sub MaxRLA MinRR)", "(add AvgRLA (mul GRD MinRLA))",
                         "(min MaxRR (neg MaxRLA))"]


def test_the_decision_form_equals_the_reference_at_wide_lanes():
    """Group and count against `reference_best_group`, maximal on and off,
    for group trees that read `D` or `left`, on capacities at 2^32 and
    2^64, whose wide lanes are 32, 64 or 128 bits: slots of every mode of
    an activity and slots of one mode each. Equal scores are common, and
    some tie between groups of the same activities in other modes."""
    rng = random.Random(3264)
    widths, several, ties, same_ids = set(), 0, 0, 0
    for trial in range(200):
        n_res = rng.choice([1, 8])
        inst = _lane_edge_instance(rng, n_res, powers=(32, 64))
        widths.add(inst.analysis.wide_width)
        avail = tuple(rng.choice([0, c, c, rng.randint(0, c)]) for c in inst.capacities)
        ctx = DecisionContext(inst, 0, inst.analysis.pack_free(avail), {0}, {})
        pairs = [(i, m) for i in inst.non_dummy_ids()
                 for m in range(inst.activities[i].n_modes)]
        by_mode = _mode_slots(ctx, pairs)
        for slots in (by_mode, [[rng.choice(slot)] for slot in by_mode]):
            tree = parse_sexpr(rng.choice(WIDE_LANE_GROUP_TREES))
            for maximal in (False, True):
                want = reference_best_group(tree, ctx, slots, maximal)
                assert tree._best(ctx, _pairs(slots), maximal) == want, (trial, tree)
                assert policy_module._best_group(tree, ctx, _pairs(slots), maximal) == want
            groups = list(feasible_groups(slots, avail))
            scores = [eval_group_priority(tree, ctx, g) for g in groups]
            several += len(groups) > 1
            if len(groups) > 1 and scores.count(min(scores)) > 1:
                ties += 1
                best = [sorted(i for i, _ in g) for g, v in zip(groups, scores)
                        if v == min(scores)]
                same_ids += len(best) > len({tuple(b) for b in best})
    assert {32, 64, 128} <= widths
    assert several > 150 and ties > 120 and same_ids > 40


def _left(inst, group, avail):
    """The capacity a group leaves."""
    left = list(avail)
    for i, m in group:
        for r, k in enumerate(inst.activities[i].modes[m].demand):
            left[r] -= k
    return left


def test_an_availability_outside_the_capacities_is_refused():
    # a packed lane holds a value up to the largest capacity or demand only,
    # so no context can hold an availability outside [0, capacity]
    inst = _flat_instance([3, 3], [5, 5], 12)
    for avail in ((13,), (-1,)):
        with pytest.raises(ValueError, match="outside"):
            inst.analysis.pack_free(avail)


@pytest.mark.parametrize("limit", [1, 2])
@pytest.mark.parametrize("name", ["kggp-max", "kggp-all"])
def test_a_hard_limit_below_three_scores_one_group_at_most(name, limit):
    """A hard limit of 1 or 2 subsets gives a knee width of 1: the one slot
    is the best-ranked pair, and at most one group is scored, at every
    decision of solves whose knee keeps more than one activity."""
    rng = random.Random(f"{name}-{limit}")
    decisions = wide = 0
    for k in range(15):
        inst = random_instance(rng, n=rng.randint(4, 9), n_modes=rng.randint(1, 3),
                               n_resources=rng.randint(1, 3), capacity=10, max_demand=5,
                               edge_prob=0.1, zero_prob=0.3)
        rules = RulePair(random_tree(rng, 4), random_tree(rng, 4))
        cfg, maximal = KneeConfig(cap=rng.randint(2, 8), group_size_hard_limit=limit), \
            name == "kggp-max"
        policy = build_policy(rules, name, cfg)

        def decide(ctx, eligible):
            nonlocal decisions, wide
            filtered, slots = _knee_slots(rules, ctx, eligible, cfg)
            d = knee_group_decide(rules, ctx, eligible, cfg, maximal)
            assert len(slots) == 1 and d.count <= 1
            assert (d.group, d.count) == reference_best_group(rules.group, ctx, slots, maximal)
            assert policy.decide(ctx, eligible) == (d.group, d.filtered_size)
            decisions += 1
            wide += filtered > 1
            return d.group, d.filtered_size

        solve(inst, Policy(decide), sample_durations(inst, seed=k))
    assert decisions > 50 and wide > 20


@pytest.mark.parametrize("name", ["kggp-max", "kggp-all", "ggp"])
def test_every_group_decision_of_a_solve_equals_the_reference(name):
    """Every decision of solves on random projects with zero-duration modes:
    the group (and, for the knee policies, the count) of the reference."""
    rng = random.Random(name)
    decisions = ties = 0
    for k in range(20):
        inst = random_instance(rng, n=rng.randint(4, 9), n_modes=rng.randint(1, 3),
                               n_resources=rng.randint(1, 3), capacity=10, max_demand=5,
                               edge_prob=rng.choice([0.1, 0.3]), zero_prob=0.3)
        text = rng.choice(TIE_HEAVY_GROUP_TREES + [format_sexpr(random_tree(rng, 4))])
        rules = RulePair(random_tree(rng, 4), parse_sexpr(text))
        cfg, maximal = KneeConfig(cap=rng.randint(2, 8)), name == "kggp-max"

        def decide(ctx, eligible):
            nonlocal decisions, ties
            if name == "ggp":
                slots = _mode_slots(ctx, eligible)
                d = full_enumeration_decide(rules, ctx, eligible)
                group, _ = reference_best_group(rules.group, ctx, slots)
                assert d.group == group, text
            else:
                filtered, slots = _knee_slots(rules, ctx, eligible, cfg)
                d = knee_group_decide(rules, ctx, eligible, cfg, maximal)
                group, count = reference_best_group(rules.group, ctx, slots, maximal)
                assert (d.group, d.count, d.filtered_size) == (group, count, filtered), text
            scores = [eval_group_priority(rules.group, ctx, g)
                      for g in feasible_groups(slots, ctx.availability)]
            ties += len(scores) > 1 and scores.count(min(scores)) > 1
            decisions += 1
            return d.group, d.filtered_size

        res = solve(inst, Policy(decide), sample_durations(inst, seed=k))
        assert len(res.decisions) > 0
    assert decisions > 100 and ties > 20
