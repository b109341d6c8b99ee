from __future__ import annotations

import math
import pickle
import random

import pytest

from kneegp import rules
from kneegp.evolve import GpConfig, evolve
from kneegp.policy import POLICY_NAMES, build_policy, full_enumeration_decide
from kneegp.rules import (
    ALL_TERMINALS,
    FUNCTION_ARITY,
    DecisionContext,
    Node,
    RulePair,
    eval_group_priority,
    eval_pair_priority,
    format_sexpr,
    func,
    leaf,
    parse_sexpr,
)
from kneegp.sim import sample_durations, solve

from conftest import (
    FUNCTIONS,
    GROUP_TERMINALS,
    PAIR_TERMINALS,
    LEAVES,
    GroupView,
    compile_row_rule,
    demo_instance,
    group_terminal_value,
    interpret,
    latest_finish,
    protected_div,
    random_instance,
    reference_best_group,
    terminal_value,
)


def fresh_ctx(inst, clock=0):
    return DecisionContext(inst, clock, inst.capacities, frozenset({0}), {})


@pytest.fixture
def ctx():
    return fresh_ctx(demo_instance())


# ---------------------------------------------------------------------------
# single-pair terminal values, hand-checked on the demo project at t = 0

def test_expdur(ctx):
    assert eval_pair_priority(leaf("ExpDur"), ctx, (1, 0)) == 5.0
    assert eval_pair_priority(leaf("OptDur"), ctx, (1, 0)) == 3.0
    assert eval_pair_priority(leaf("PessDur"), ctx, (1, 1)) == 8.0


def test_neg_wrapper(ctx):
    assert eval_pair_priority(func("neg", leaf("ExpDur")), ctx, (1, 0)) == -5.0


def test_protected_division_total(ctx):
    t = func("div", leaf("ExpDur"), func("sub", leaf("ExpDur"), leaf("ExpDur")))
    assert eval_pair_priority(t, ctx, (1, 0)) == 1.0
    assert protected_div(7.0, 0.0) == 1.0
    assert protected_div(7.0, 2.0) == 3.5


def test_the_engine_and_the_reference_know_the_same_functions():
    assert {k: t.count("{}") for k, t in FUNCTIONS.items()} == FUNCTION_ARITY
    assert rules._CLAMPED == {k for k, t in FUNCTIONS.items()
                              if t.startswith(("_clamp(", "protected_div("))}


def test_counts(ctx):
    assert terminal_value("DSC", ctx, (1, 0)) == 2.0
    assert terminal_value("DPC", ctx, (1, 0)) == 1.0
    assert terminal_value("TSC", ctx, (1, 0)) == 4.0
    assert terminal_value("TPC", ctx, (1, 0)) == 1.0


def test_time_terminals_fresh_state(ctx):
    assert terminal_value("EST", ctx, (1, 0)) == 0.0
    assert terminal_value("EFT", ctx, (1, 0)) == 5.0
    # backward pass anchored at the 12-tick critical path
    assert terminal_value("LFT", ctx, (1, 0)) == 5.0
    assert terminal_value("LST", ctx, (1, 0)) == 0.0
    assert terminal_value("LST", ctx, (1, 1)) == -1.0
    assert terminal_value("LFT", ctx, (2, 0)) == 8.0
    assert terminal_value("LST", ctx, (2, 0)) == 4.0


def test_downstream_work(ctx):
    assert terminal_value("GRPW", ctx, (1, 0)) == 13.0
    assert terminal_value("GRPW_all", ctx, (1, 0)) == 16.0
    assert terminal_value("GRPW", ctx, (2, 0)) == 8.0


def test_resource_terminals(ctx):
    assert terminal_value("MaxRA", ctx, (1, 0)) == 12.0
    assert terminal_value("AvgRA", ctx, (1, 0)) == 12.0
    assert terminal_value("GRD", ctx, (1, 0)) == 50.0
    assert terminal_value("RR", ctx, (1, 0)) == 10.0
    assert terminal_value("MinRLA", ctx, (1, 0)) == 2.0
    assert terminal_value("AvgRR", ctx, (2, 1)) == 5.0


def test_mid_run_state():
    inst = demo_instance()
    ctx = DecisionContext(inst, 6, (7,), frozenset({0, 1}), {2: (1, 0)})
    assert ctx.remaining_expected(2) == 1
    assert terminal_value("EST", ctx, (3, 0)) == 0.0
    assert ctx.horizon == 7.0
    assert terminal_value("LFT", ctx, (3, 0)) == 4.0
    assert terminal_value("LST", ctx, (3, 0)) == 0.0


# ---------------------------------------------------------------------------
# group adaptation

def test_group_union_count(ctx):
    assert group_terminal_value("DSC", ctx, [(1, 0), (2, 0)]) == 2.0


def test_group_time_average(ctx):
    assert group_terminal_value("ExpDur", ctx, [(1, 0), (2, 0)]) == 4.5


def test_group_downstream_work(ctx):
    assert group_terminal_value("GRPW", ctx, [(1, 0), (2, 0)]) == 17.0


def test_group_resource_aggregation(ctx):
    g = [(1, 0), (2, 0)]
    assert group_terminal_value("RR", ctx, g) == 17.0
    assert group_terminal_value("MaxRR", ctx, g) == 17.0
    assert group_terminal_value("AvgRLA", ctx, g) == -5.0
    assert group_terminal_value("GRD", ctx, g) == 76.5
    assert group_terminal_value("MaxRA", ctx, g) == 12.0


def test_group_tree_evaluation(ctx):
    t = func("add", leaf("DSC"), leaf("ExpDur"))
    assert eval_group_priority(t, ctx, [(1, 0), (2, 0)]) == 6.5


def test_empty_group_rejected(ctx):
    with pytest.raises(ValueError):
        eval_group_priority(leaf("ExpDur"), ctx, [])


def _random_state(rng, zero_prob=0.0, n=None):
    inst = random_instance(rng, n=n or rng.randint(4, 9), n_modes=2, n_resources=2,
                           capacity=14, max_demand=6, zero_prob=zero_prob)
    done = {0}
    running = {}
    clock = rng.randint(0, 9)
    for i in inst.analysis.topo_order:
        if i in (0, inst.dummy_end):
            continue
        if inst.activities[i].predecessors <= done and rng.random() < 0.5:
            if rng.random() < 0.6:
                done.add(i)
            else:
                running[i] = (rng.randrange(inst.activities[i].n_modes),
                              max(0, clock - rng.randint(0, 4)))
    avail = list(inst.capacities)
    for i, (m, _) in running.items():
        for r, k in enumerate(inst.activities[i].modes[m].demand):
            avail[r] = max(0, avail[r] - k)
    return inst, DecisionContext(inst, clock, avail, frozenset(done), running)


def _eligible(inst, ctx):
    out = []
    for i in inst.non_dummy_ids():
        if i in ctx.completed or i in ctx.running:
            continue
        if not inst.activities[i].predecessors <= (ctx.completed | {0}):
            continue
        for m in range(inst.activities[i].n_modes):
            out.append((i, m))
    return out


def test_singleton_group_matches_pair_semantics():
    rng = random.Random(42)
    checked = 0
    while checked < 300:
        inst, ctx = _random_state(rng)
        pairs = _eligible(inst, ctx)
        if not pairs:
            continue
        pair = rng.choice(pairs)
        for name in ALL_TERMINALS:
            assert group_terminal_value(name, ctx, [pair]) == pytest.approx(
                terminal_value(name, ctx, pair)), name
            checked += 1


def test_terminals_invariant_under_time_shift():
    rng = random.Random(99)
    for _ in range(60):
        inst, ctx = _random_state(rng)
        shift = rng.randint(1, 50)
        moved = DecisionContext(
            inst, ctx.clock + shift, ctx.availability, ctx.completed,
            {i: (m, s + shift) for i, (m, s) in ctx.running.items()},
        )
        for i, m in _eligible(inst, ctx):
            mo = inst.activities[i].modes[m]
            for name in ALL_TERMINALS:
                here = PAIR_TERMINALS[name](ctx, i, mo)
                there = PAIR_TERMINALS[name](moved, i, mo)
                assert here == there and type(here) is type(there), name


# ---------------------------------------------------------------------------
# time terminals against the full forward and backward passes

def _ref_forward(ctx):
    """Earliest completion of every activity, relative to the clock, with
    unstarted activities at their minimum expected duration."""
    inst = ctx.instance
    ana = inst.analysis
    ect = [0.0] * inst.n_activities
    for i in ana.topo_order:
        if i in ctx.completed:
            continue
        if i in ctx.running:
            m, start = ctx.running[i]
            ect[i] = max(0, start + inst.activities[i].modes[m].expected - ctx.clock)
            continue
        start = 0.0
        for j in inst.activities[i].predecessors:
            if ect[j] > start:
                start = ect[j]
        ect[i] = start + ana.dmin_exp[i]
    return ect


def _ref_times(ctx):
    """(horizon, latest finish per activity, earliest start per activity)."""
    inst = ctx.instance
    ana = inst.analysis
    ect = _ref_forward(ctx)
    horizon = max(0.0, ect[inst.dummy_end])
    lft = [horizon] * inst.n_activities
    for i in reversed(ana.topo_order):
        succ = inst.activities[i].successors
        if succ:
            lft[i] = min(lft[j] - ana.dmin_exp[j] for j in succ)
    est = [0.0 if i in ctx.running or i in ctx.completed else
           max((ect[j] for j in inst.activities[i].predecessors), default=0.0)
           for i in range(inst.n_activities)]
    return horizon, lft, est


def _exact(a, b) -> bool:
    return a == b and type(a) is type(b)


def _assert_times_exact(ctx) -> bool:
    """Check every time quantity of `ctx` against the reference passes, value
    and type; returns whether the horizon fell back on the forward pass."""
    horizon, lft, est = _ref_times(ctx)
    assert _exact(ctx.horizon, horizon)
    tie = "_forward" in vars(ctx)
    inst = ctx.instance
    for i, act in enumerate(inst.activities):
        assert _exact(latest_finish(ctx, i), lft[i]), i
        assert _exact(ctx.earliest_start(i), est[i]), i
        for m, mo in enumerate(act.modes):
            for name, ref in (("EST", est[i]), ("EFT", est[i] + mo.expected),
                              ("LFT", lft[i]), ("LST", lft[i] - mo.expected)):
                assert _exact(PAIR_TERMINALS[name](ctx, i, mo), ref), (name, i)
                raw = rules.rank_values(LEAVES[name], ctx, [(i, m)])[0]
                assert _exact(raw, ref), (name, i)
    return tie


def test_time_terminals_equal_the_reference_passes():
    rng = random.Random(123)
    ties = overdue = zero = 0
    for _ in range(1500):
        inst, ctx = _random_state(rng, zero_prob=0.25)
        ties += _assert_times_exact(ctx)
        overdue += sum(ctx.remaining_expected(i) == 0 for i in ctx.running)
        zero += sum(inst.activities[i].modes[m].expected == 0
                    for i, (m, _) in ctx.running.items())
    assert ties > 10 and overdue > 100 and zero > 100


def test_horizon_ties_take_the_forward_pass_type(demo):
    # running 2 has 3 expected ticks left, then 4 via activity 4: int 7;
    # ready 3 takes 4, then 3 via activity 5: float 7.0
    ctx = DecisionContext(demo, 1, (5,), frozenset({0, 1}), {2: (0, 0)})
    assert _exact(ctx.horizon, 7)
    assert _exact(latest_finish(ctx, 3), 4)
    assert _assert_times_exact(ctx)
    # running 3 has 1 tick left, then 3 via activity 5: int 4;
    # ready 4 takes 4: float 4.0, which the sink's predecessor set yields first
    ctx = DecisionContext(demo, 3, (3,), frozenset({0, 1, 2}), {3: (0, 0)})
    assert _exact(ctx.horizon, 4.0)
    assert _exact(latest_finish(ctx, 5), 4.0)
    assert _assert_times_exact(ctx)


class TimesChecked:
    """Delegates to a policy after checking the decision context's time
    quantities against the reference passes."""

    def __init__(self, policy):
        self.policy = policy
        self.decisions = self.ties = 0

    def decide(self, ctx, eligible):
        self.ties += _assert_times_exact(ctx)
        self.decisions += 1
        return self.policy.decide(ctx, eligible)


def test_time_terminals_exact_at_every_decision_of_solve():
    rng = random.Random(58)
    decisions = ties = 0
    for k in range(30):
        inst = random_instance(rng, n=rng.randint(3, 10), capacity=12,
                               max_demand=7, zero_prob=0.25)
        time_leaf = leaf(rng.choice(("EST", "EFT", "LST", "LFT")))
        rules_ = RulePair(func("add", time_leaf, random_tree(rng, 3)),
                          func("add", leaf("LST"), random_tree(rng, 3)))
        for name in POLICY_NAMES:
            policy = TimesChecked(build_policy(rules_, name))
            solve(inst, policy, sample_durations(inst, seed=k))
            decisions += policy.decisions
            ties += policy.ties
    assert decisions > 500 and ties > 10


# ---------------------------------------------------------------------------
# trees and serialization

def random_tree(rng, depth):
    if depth <= 1 or rng.random() < 0.3:
        return leaf(rng.choice(ALL_TERMINALS))
    op = rng.choice(list(FUNCTION_ARITY))
    kids = [random_tree(rng, depth - 1) for _ in range(FUNCTION_ARITY[op])]
    return func(op, *kids)


def test_sexpr_example_roundtrip():
    t = parse_sexpr("(mul GRD (mul LF (mul LF (mul LF LF))))")
    assert t.size() == 9
    assert format_sexpr(t) == "(mul GRD (mul LFT (mul LFT (mul LFT LFT))))"
    assert parse_sexpr(format_sexpr(t)) == t


def test_sexpr_random_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        t = random_tree(rng, rng.randint(1, 6))
        assert parse_sexpr(format_sexpr(t)) == t


def test_parse_rejects_garbage():
    for bad in ("", "(add ExpDur)", "(frobnicate ExpDur RR)", "NotATerminal",
                "(add ExpDur RR", "(add ExpDur RR) trailing"):
        with pytest.raises(ValueError):
            parse_sexpr(bad)


def _nested(depth: int) -> str:
    text = "ExpDur"
    for _ in range(depth - 1):
        text = f"(neg {text})"
    return text


def test_parse_refuses_nesting_beyond_the_depth_bound():
    assert parse_sexpr(_nested(rules.MAX_DEPTH)).depth() == rules.MAX_DEPTH
    for depth in (rules.MAX_DEPTH + 1, 5000):
        with pytest.raises(ValueError, match=f"deeper than {rules.MAX_DEPTH} levels"):
            parse_sexpr(_nested(depth))


def test_a_gp_run_grows_no_tree_a_rule_file_cannot_hold():
    assert GpConfig(max_depth=rules.MAX_DEPTH).max_depth == rules.MAX_DEPTH
    with pytest.raises(ValueError, match=f"max <= {rules.MAX_DEPTH}"):
        GpConfig(max_depth=rules.MAX_DEPTH + 1)


def test_a_tree_built_far_beyond_the_depth_bound_hashes():
    """`func` does not bound depth, and `hash` walks a tree without
    recursing, however deep it is."""
    t = leaf("ExpDur")
    for _ in range(4999):
        t = func("neg", t)
    other = leaf("ExpDur")
    for _ in range(4999):
        other = func("neg", other)
    assert hash(t) == hash(other)
    assert hash(t) != hash(func("neg", t))


def test_a_tree_at_the_depth_bound_survives_every_walk():
    """A tree exactly `MAX_DEPTH` deep hashes, pickles, round-trips through
    its text, and each of its three compiled forms equals the reference."""
    t = leaf("ExpDur")
    for k in range(rules.MAX_DEPTH - 1):
        t = func("add", t, leaf("RR")) if k % 2 else func("neg", t)
    assert t.depth() == rules.MAX_DEPTH
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and hash(copy) == hash(t)
    assert parse_sexpr(format_sexpr(t)) == t
    inst = demo_instance()
    ctx = fresh_ctx(inst)
    mo = inst.activities[1].modes[0]
    assert eval_pair_priority(t, ctx, (1, 0)) == float(
        interpret(t, lambda name: PAIR_TERMINALS[name](ctx, 1, mo)))
    view = GroupView(ctx, [(1, 1), (2, 1)])
    assert eval_group_priority(t, ctx, [(1, 1), (2, 1)]) == float(
        interpret(t, lambda name: GROUP_TERMINALS[name](view)))
    eligible = [(1, 0), (1, 1), (2, 0), (2, 1)]
    slots = [[((i, m), inst.activities[i].modes[m].demand) for m in (0, 1)] for i in (1, 2)]
    assert full_enumeration_decide(RulePair(leaf("RR"), t), ctx, eligible).group \
        == reference_best_group(t, ctx, slots)[0]


def test_evaluation_always_finite():
    rng = random.Random(2024)
    evals = 0
    while evals < 20_000:
        inst, ctx = _random_state(rng)
        pairs = _eligible(inst, ctx)
        if not pairs:
            continue
        for _ in range(10):
            t = random_tree(rng, rng.randint(1, 8))
            v = eval_pair_priority(t, ctx, rng.choice(pairs))
            assert math.isfinite(v)
            k = rng.randint(1, min(3, len(pairs)))
            g = rng.sample(pairs, k)
            if len({i for i, _ in g}) == len(g):
                assert math.isfinite(eval_group_priority(t, ctx, g))
            evals += 1


def test_clamp_blocks_overflow(ctx):
    # (((GRD^2)^2)...) ten times: 50^1024 overflows a float without clamping
    t = leaf("GRD")
    for _ in range(10):
        t = func("mul", t, t)
    assert math.isfinite(eval_pair_priority(t, ctx, (1, 0)))


# ---------------------------------------------------------------------------
# compiled evaluation against a reference interpreter

def _hostile_tree(rng, depth):
    """Random tree that also hits zero divisors and the 1e300 clamp."""
    roll = rng.random()
    if depth <= 1 or roll < 0.2:
        return leaf(rng.choice(ALL_TERMINALS))
    if roll < 0.3:
        # x - x is 0 (int or float): a divisor for protected_div
        t = _hostile_tree(rng, depth - 1)
        return func("div", _hostile_tree(rng, depth - 1), func("sub", t, t))
    if roll < 0.4:
        # repeated squaring of a product overflows past 1e300
        t = func("mul", leaf("GRD"), _hostile_tree(rng, depth - 2))
        for _ in range(min(depth - 2, 5)):
            t = func("mul", t, t)
        return t
    op = rng.choice(list(FUNCTION_ARITY))
    kids = [_hostile_tree(rng, depth - 1) for _ in range(FUNCTION_ARITY[op])]
    return func(op, *kids)


def _unstarted(inst, ctx):
    """Every pair of an activity that is neither completed nor running,
    whether its predecessors are complete or not."""
    return [(i, m) for i in inst.non_dummy_ids()
            if i not in ctx.completed and i not in ctx.running
            for m in range(inst.activities[i].n_modes)]


def test_compiled_trees_equal_the_interpreter_exactly():
    """Both compiled forms against node-by-node evaluation of the reference
    terminals: the raw value and its type, for every pair of a rank call
    and for a group. The engine before the two forms must agree too. The
    last states have 17-30 activities, so a group's union masks span three
    or more bytes."""
    rng = random.Random(7)
    clamped = zero_div = not_ready = zero_modes = wide_work = 0
    for k in range(170):
        wide = k >= 150
        inst, ctx = _random_state(rng, zero_prob=0.25 if k % 2 else 0.0,
                                  n=rng.randint(17, 30) if wide else None)
        pairs = _unstarted(inst, ctx)
        if not pairs:
            continue
        rows = inst.analysis.rows
        not_ready += sum(not inst.activities[i].predecessors <= ctx.completed
                         for i, _ in pairs)
        zero_modes += sum(inst.activities[i].modes[m].expected == 0 for i, m in pairs)
        for _ in range(8):
            t = _hostile_tree(rng, rng.randint(1, 8))
            row_rule, pair_terms, group_terms = compile_row_rule(t)
            raw = t._rank(ctx, pairs, rows)
            assert len(raw) == len(pairs)
            for (i, m), got in zip(pairs, raw):
                mo = inst.activities[i].modes[m]
                ref = interpret(t, lambda name: PAIR_TERMINALS[name](ctx, i, mo))
                assert _exact(got, ref), (format_sexpr(t), i, m)
                assert _exact(row_rule([f(ctx, i, mo) for f in pair_terms]), ref)
                assert eval_pair_priority(t, ctx, (i, m)) == float(ref)
                clamped += abs(ref) == 1e300

            g = rng.sample(pairs, rng.randint(1, min(3, len(pairs))))
            if len({a for a, _ in g}) < len(g):
                continue
            view = GroupView(ctx, g)
            ref = interpret(t, lambda name: GROUP_TERMINALS[name](view))
            got = t._score(ctx, g, rows)
            assert _exact(got, ref), format_sexpr(t)
            assert _exact(row_rule([f(view) for f in group_terms]), ref)
            assert eval_group_priority(t, ctx, g) == float(ref)
            zero_div += "div" in format_sexpr(t)
            union = view.union_mask(inst.analysis.trans_succ_mask)
            wide_work += ("GRPW" in format_sexpr(t)
                          and sum(map(bool, union.to_bytes(4, "little"))) >= 3)
    assert clamped > 0 and zero_div > 0 and not_ready > 100 and zero_modes > 20
    assert wide_work > 10


def _squared(t, times=10):
    for _ in range(times):
        t = func("mul", t, t)
    return t


# trees at the edges of the clamp: `big` is GRD squared ten times, an int
# past 1e300 at a pair (its GRD is an int of 2 or more) and an overflowing
# float at a group, so every clamped function meets exactly +-1e300, beyond
# it, and divisors 0 and 0.0
_BIG = format_sexpr(_squared(leaf("GRD")))
CLAMP_EDGE_TREES = [parse_sexpr(text.replace("big", _BIG)) for text in (
    "big",
    "(add big (sub RR RR))",
    "(sub (neg big) (sub RR RR))",
    "(mul big (div RR RR))",
    "(div (neg big) (div ExpDur ExpDur))",
    "(add big big)",
    "(sub (neg big) big)",
    "(mul (neg big) big)",
    "(div big (div ExpDur big))",
    "(div ExpDur (sub RR RR))",
    "(div ExpDur (sub AvgRR AvgRR))",
    "(div (mul GRD GRD) (sub MaxRR MaxRR))",
)]


def test_compiled_trees_equal_the_interpreter_at_the_clamp_edges():
    """Rank and group values of `CLAMP_EDGE_TREES` against node-by-node
    evaluation, in value and type. `RR - RR` is an int 0 and `AvgRR - AvgRR`
    a float 0.0, at a pair and at a group."""
    rng = random.Random(71)
    edge = past_int = groups = 0
    for _ in range(20):
        inst, ctx = _random_state(rng, zero_prob=0.2)
        every = _unstarted(inst, ctx)
        if not every:
            continue
        pairs, group = every[:5], [(i, m) for i, m in every if m == 0][:3]
        view = GroupView(ctx, group)
        rows = inst.analysis.rows
        for t in CLAMP_EDGE_TREES:
            for (i, m), got in zip(pairs, t._rank(ctx, pairs, rows)):
                mo = inst.activities[i].modes[m]
                ref = interpret(t, lambda name: PAIR_TERMINALS[name](ctx, i, mo))
                assert _exact(got, ref), (format_sexpr(t), i, m)
                edge += abs(ref) == 1e300
            ref = interpret(t, lambda name: GROUP_TERMINALS[name](view))
            assert _exact(t._score(ctx, group, rows), ref), format_sexpr(t)
            edge += abs(ref) == 1e300
            groups += 1
        for i, m in pairs:
            grd = PAIR_TERMINALS["GRD"](ctx, i, inst.activities[i].modes[m])
            past_int += type(grd) is int and grd >= 2
    assert edge > 500 and past_int > 50 and groups > 150


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_a_solve_builds_only_the_forms_its_policy_uses(name):
    ordering = parse_sexpr("(add LFT (mul ExpDur RR))")
    group = parse_sexpr("(neg (add GRD DSC))")
    inst = demo_instance()
    solve(inst, build_policy(RulePair(ordering, group), name),
          sample_durations(inst, seed=3))
    ranks = name != "ggp"  # exact enumeration never ranks pairs
    assert ("_rank" in vars(ordering)) == ranks
    assert "_best" not in vars(ordering)
    assert "_rank" not in vars(group)
    assert ("_best" in vars(group)) == (name != "sgp")
    # the one-group form is for eval_group_priority only
    assert "_score" not in vars(ordering) and "_score" not in vars(group)


def test_static_rows_are_built_once_per_instance(monkeypatch):
    built = []
    real = rules.static_rows

    def counting(ana):
        built.append(ana)
        return real(ana)

    monkeypatch.setattr(rules, "static_rows", counting)
    rng = random.Random(31)
    instances = [random_instance(rng, n=6) for _ in range(3)]
    assert built == []  # building an instance leaves its rows unbuilt
    cfg = GpConfig(population_size=6, max_generations=2, tournament_size=2,
                   init_depth=(1, 3), max_depth=4, seed=5, policy="kggp-max")
    evolve(cfg, instances[:2])
    for k in range(4):
        rules_ = RulePair(random_tree(rng, 4), random_tree(rng, 4))
        for name in POLICY_NAMES:
            solve(instances[2], build_policy(rules_, name),
                  sample_durations(instances[2], seed=k))
    assert sorted(map(id, built)) == sorted(id(i.analysis) for i in instances)


def test_byte_tables_are_kept_only_for_the_group_work():
    rng = random.Random(32)
    inst = random_instance(rng, n=20)
    built = vars(inst.analysis)
    assert "rows" not in built and "work_bytes" not in built
    rules_ = RulePair(parse_sexpr("(neg LFT)"), parse_sexpr("(add GRPW TSC)"))
    solve(inst, build_policy(rules_, "sgp"), sample_durations(inst, seed=1))
    assert "rows" in built  # the static rows sum the work from their own tables
    assert "work_bytes" not in built
    solve(inst, build_policy(rules_, "kggp-all"), sample_durations(inst, seed=1))
    assert "work_bytes" in built


def test_evaluated_rule_pair_pickles_and_compares_equal():
    t = parse_sexpr("(add (div GRD (sub RR RR)) (min EST (neg AvgRLA)))")
    g = parse_sexpr("(max DSC (mul ExpDur ExpDur))")
    pair = RulePair(t, g)
    ctx = fresh_ctx(demo_instance())
    eligible = [(1, 0), (1, 1), (2, 0)]
    before = (eval_pair_priority(t, ctx, (1, 0)), eval_group_priority(g, ctx, [(1, 0)]),
              full_enumeration_decide(pair, ctx, eligible))
    eval_group_priority(t, ctx, [(1, 0)]), eval_pair_priority(g, ctx, (1, 0))
    full_enumeration_decide(RulePair(g, t), ctx, eligible)
    assert all({"_rank", "_score", "_best"} <= set(vars(tree)) for tree in (t, g))
    copy = pickle.loads(pickle.dumps(pair))
    assert copy == pair and hash(copy) == hash(pair)
    assert (eval_pair_priority(copy.ordering, ctx, (1, 0)),
            eval_group_priority(copy.group, ctx, [(1, 0)]),
            full_enumeration_decide(copy, ctx, eligible)) == before


def test_deep_trees_compile():
    # one assignment per function node: depth never nests the source
    t = leaf("ExpDur")
    for _ in range(400):
        t = func("neg", t)
    assert eval_pair_priority(t, fresh_ctx(demo_instance()), (1, 0)) == 5.0


def test_malformed_nodes_are_rejected(ctx):
    for bad in (Node("import os"), Node("add", (leaf("RR"),)),
                Node("exec", (leaf("RR"), leaf("RR")))):
        with pytest.raises(ValueError):
            eval_pair_priority(bad, ctx, (1, 0))
        with pytest.raises(ValueError):
            eval_group_priority(bad, ctx, [(1, 0)])
        with pytest.raises(ValueError):
            full_enumeration_decide(RulePair(leaf("RR"), bad), ctx, [(1, 0), (2, 0)])
        for form in ("_rank", "_score", "_best"):
            with pytest.raises(ValueError):
                getattr(bad, form)
            assert form not in vars(bad)
