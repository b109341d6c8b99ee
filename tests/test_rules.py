from __future__ import annotations

import gc
import importlib
import math
import pickle
import pkgutil
import random
from operator import le

import pytest

import kneegp.evolve
from kneegp import model, rules
from kneegp.evolve import GpConfig, evolve
from kneegp.model import InstanceAnalysis, ProjectInstance
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
    earliest_start,
    forward_pass,
    full_scan_horizon,
    group_terminal_value,
    interpret,
    latest_finish,
    protected_div,
    random_instance,
    readied,
    reference_best_group,
    terminal_value,
)


def fresh_ctx(inst, clock=0):
    return DecisionContext(inst, clock, inst.analysis.pack_free(inst.capacities),
                           frozenset({0}), {})


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


def test_the_engine_and_the_reference_know_the_same_terminals():
    # `random_tree` draws a terminal by its position, so the order is pinned
    assert ALL_TERMINALS == (
        "EST", "EFT", "LST", "LFT", "ExpDur", "OptDur", "PessDur",
        "GRPW", "GRPW_all", "TPC", "DPC", "TSC", "DSC",
        "AvgRR", "MaxRR", "MinRR", "AvgRA", "MaxRA", "MinRA",
        "AvgRLA", "MaxRLA", "MinRLA", "RR", "GRD")
    for table in (rules._PAIR, rules._GROUP, PAIR_TERMINALS, GROUP_TERMINALS):
        assert sorted(table) == sorted(ALL_TERMINALS)
    # a row's head: the terminals that read neither `ra` nor `left`, in order
    assert list(rules._STATIC) == [
        "ExpDur", "OptDur", "PessDur", "GRPW", "GRPW_all", "TPC", "DPC", "TSC", "DSC",
        "AvgRR", "MaxRR", "MinRR", "RR", "GRD"]


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
    ctx = DecisionContext(inst, 6, inst.analysis.pack_free((7,)), frozenset({0, 1}),
                          {2: (1, 0)})
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


def _ids(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_the_id_mask_tie_break_orders_as_sorted_id_lists():
    """`_ids_before(a, b)` is `sorted ids of a < sorted ids of b`, on every
    pair of masks below 256 and on random masks of up to 130 bits, many of
    them sharing their low bits or one holding the other."""
    for a in range(256):
        for b in range(256):
            assert rules._ids_before(a, b) == (_ids(a) < _ids(b)), (a, b)
    rng = random.Random(130)
    for _ in range(20000):
        a = rng.getrandbits(rng.randint(0, 130))
        cut = rng.randint(0, 130)
        b = rng.choice([rng.getrandbits(130),  # unrelated
                        a & ((1 << cut) - 1) | rng.getrandbits(130) >> cut << cut,  # shared low bits
                        a & ((1 << cut) - 1),  # a prefix of a
                        a | 1 << cut])  # a with one id more
        assert rules._ids_before(a, b) == (_ids(a) < _ids(b)), (a, b)
        assert rules._ids_before(b, a) == (_ids(b) < _ids(a)), (b, a)


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
    return inst, DecisionContext(inst, clock, inst.analysis.pack_free(avail),
                                 frozenset(done), running)


def _lazy_subjects(rng, cls):
    """An object of `cls` whose attributes are all unread, and a fresh equal one."""
    if cls is Node:
        tree = random_tree(rng, rng.randint(1, 6))
        return tree, parse_sexpr(format_sexpr(tree))
    if cls is DecisionContext:
        inst, ctx = _random_state(rng, zero_prob=0.2)
        return ctx, DecisionContext(inst, ctx.clock, ctx.free, ctx.completed, ctx.running)
    inst = random_instance(rng, n=rng.randint(4, 9), zero_prob=0.2)
    # the constructor, not `build_instance`, which reads `analysis`
    args = (inst,) if cls is InstanceAnalysis else (inst.activities, inst.capacities)
    return cls(*args), cls(*args)


def _nodes(tree: Node) -> list[Node]:
    """The nodes of a tree that shares no subtree, its root first."""
    return [tree] + [n for c in tree.children for n in _nodes(c)]


def _same(value, fresh) -> bool:
    if callable(value):  # a compiled form: the same generated code
        return value.__code__ == fresh.__code__
    if isinstance(value, InstanceAnalysis):
        return vars(value) == vars(fresh)
    return value == fresh and type(value) is type(fresh)


_LAZY = [(Node, n) for n in ("_hash", "_size", "_rank", "_pick", "_score", "_best")] \
    + [(ProjectInstance, "analysis")] \
    + [(InstanceAnalysis, n) for n in ("work_bytes", "horizon_order", "lanes", "options",
                                      "wide_width", "split", "wide_demands", "rows")] \
    + [(DecisionContext, n) for n in ("horizon", "availability", "_avail_stats")]


def test_every_attribute_built_on_first_read_is_lazy():
    """`model.lazy` is the one first-read descriptor of the package, and
    `_LAZY` names every attribute that uses it."""
    mods = [importlib.import_module(f"kneegp.{m.name}")
            for m in pkgutil.iter_modules(kneegp.__path__)]
    found = {(cls, name) for mod in mods for cls in vars(mod).values()
             if isinstance(cls, type) and cls.__module__ == mod.__name__
             for name, attr in vars(cls).items() if isinstance(attr, model.lazy)}
    assert found == set(_LAZY)


@pytest.mark.parametrize("cls, name", _LAZY, ids=[f"{c.__name__}.{n}" for c, n in _LAZY])
def test_a_lazy_attribute_is_computed_once(monkeypatch, cls, name):
    """However often it is read, an object computes the attribute once, and
    its value is what the function gives on a fresh equal object."""
    descriptor = cls.__dict__[name]
    assert type(descriptor) is model.lazy and getattr(cls, name) is descriptor
    real, calls = descriptor.func, []

    def counted(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(descriptor, "func", counted)
    rng = random.Random(71)
    for _ in range(40):
        obj, fresh = _lazy_subjects(rng, cls)
        reads_children = cls is Node and name in ("_hash", "_size")
        if reads_children:
            # a node's hash and size read its children's: read them first on
            # some subtrees, so that only the nodes still unread compute theirs
            nodes = _nodes(obj)
            for sub in rng.sample(nodes[1:], rng.randint(0, len(nodes) - 1)):
                getattr(sub, name)
            unread = [id(n) for n in nodes if name not in vars(n)]
        calls.clear()
        values = [getattr(obj, name) for _ in range(3)]
        if reads_children:
            assert calls[0] is obj and sorted(map(id, calls)) == sorted(unread)
        else:
            assert calls == [obj]
        assert all(_same(v, real(fresh)) for v in values)


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
            inst, ctx.clock + shift, ctx.free, ctx.completed,
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

def _ref_times(ctx):
    """(horizon, latest finish per activity, earliest start per activity)."""
    inst = ctx.instance
    ana = inst.analysis
    ect = forward_pass(ctx)
    horizon = float(max(0.0, ect[inst.dummy_end]))
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
    """Check every time quantity of `ctx` against the reference passes, and
    the horizon against the full scan too, value and type, EST and EFT only
    at ready activities, the only ones the engine scores; returns whether
    `ctx` is a tie: the longest chain from a running activity with expected
    work left equals the longest `dmin + tail` from an unstarted one, and
    both are nonzero."""
    horizon, lft, est = _ref_times(ctx)
    assert _exact(ctx.horizon, horizon)
    assert _exact(ctx.horizon, full_scan_horizon(ctx))
    inst = ctx.instance
    ana = inst.analysis
    rems = {i: start + inst.activities[i].modes[m].expected - ctx.clock
            for i, (m, start) in ctx.running.items()}
    chain = max((rem + ana.tail[i] for i, rem in rems.items() if rem > 0), default=0)
    reach = max((ana.dmin_exp[i] + ana.tail[i] for i in range(inst.n_activities)
                 if i not in ctx.running and i not in ctx.completed), default=0)
    tie = chain == reach != 0
    for i, act in enumerate(inst.activities):
        assert _exact(latest_finish(ctx, i), lft[i]), i
        ready = i not in ctx.running and i not in ctx.completed \
            and act.predecessors <= ctx.completed
        for m, mo in enumerate(act.modes):
            times = [("LFT", lft[i]), ("LST", lft[i] - mo.expected)]
            if ready:
                times += [("EST", est[i]), ("EFT", est[i] + mo.expected)]
            for name, ref in times:
                assert _exact(PAIR_TERMINALS[name](ctx, i, mo), ref), (name, i)
                raw = LEAVES[name]._rank(ctx, [(i, m)])[0]
                assert _exact(raw, ref), (name, i)
    return tie


def test_time_terminals_equal_the_reference_passes():
    rng = random.Random(123)
    ties = overdue = zero = 0
    for _ in range(1500):
        inst, ctx = _random_state(rng, zero_prob=0.25)
        ties += _assert_times_exact(ctx)
        overdue += sum(start + inst.activities[i].modes[m].expected <= ctx.clock
                       for i, (m, start) in ctx.running.items())
        zero += sum(inst.activities[i].modes[m].expected == 0
                    for i, (m, _) in ctx.running.items())
    assert ties > 10 and overdue > 100 and zero > 100


def test_horizon_ties_are_floats(demo):
    # running 2 has 3 expected ticks left, then 4 via activity 4: 7;
    # ready 3 takes 4, then 3 via activity 5: 7 as well
    ctx = DecisionContext(demo, 1, demo.analysis.pack_free((5,)), frozenset({0, 1}),
                          {2: (0, 0)})
    assert _exact(ctx.horizon, 7.0)
    assert _exact(latest_finish(ctx, 3), 4.0)
    assert _assert_times_exact(ctx)
    # running 3 has 1 tick left, then 3 via activity 5: 4;
    # ready 4 takes 4: 4 as well
    ctx = DecisionContext(demo, 3, demo.analysis.pack_free((3,)), frozenset({0, 1, 2}),
                          {3: (0, 0)})
    assert _exact(ctx.horizon, 4.0)
    assert _exact(latest_finish(ctx, 5), 4.0)
    assert _assert_times_exact(ctx)


def test_horizon_once_nothing_is_left_to_start(demo):
    # the cursor runs off `horizon_order`, and no running chain is left
    free = demo.analysis.pack_free((12,))
    for done in (range(7), range(6)):
        ctx = DecisionContext(demo, 12, free, done, {})
        assert _exact(ctx.horizon, full_scan_horizon(ctx)) and ctx.horizon == 0.0


class TimesChecked:
    """Delegates to a policy after checking the decision context's time
    quantities against the reference passes, and each pair it is handed: it
    is ready and fits the free capacity alone, the precondition of the
    compiled forms' EST and EFT, which equal the forward-pass reference
    there, in value and type."""

    def __init__(self, policy):
        self.policy = policy
        self.decisions = self.ties = self.pairs = self.zero = 0

    def decide(self, ctx, eligible):
        self.ties += _assert_times_exact(ctx)
        self.decisions += 1
        acts = ctx.instance.activities
        est, eft = (LEAVES[name]._rank(ctx, eligible) for name in ("EST", "EFT"))
        for (i, m), got_est, got_eft in zip(eligible, est, eft):
            mo = acts[i].modes[m]
            assert i not in ctx.completed and i not in ctx.running, i
            assert acts[i].predecessors <= ctx.completed, i
            assert all(map(le, mo.demand, ctx.availability)), (i, m)
            ref = earliest_start(ctx, i)
            assert _exact(got_est, ref) and _exact(got_eft, ref + mo.expected), (i, m)
            self.zero += mo.expected == 0
        self.pairs += len(eligible)
        return self.policy.decide(ctx, eligible)


def test_time_terminals_exact_at_every_decision_of_solve():
    rng = random.Random(58)
    decisions = ties = pairs = zero = 0
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
            pairs += policy.pairs
            zero += policy.zero
    assert decisions > 500 and ties > 10 and pairs > 1000 and zero > 100


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


@pytest.mark.parametrize("text, message", [
    (")", "unexpected ')'"),
    ("(", "unexpected end of expression"),
    ("(add", "missing ')'"),
    ("ExpDur RR", "trailing tokens: RR"),
])
def test_parse_names_what_is_wrong(text, message):
    with pytest.raises(ValueError) as exc:
        parse_sexpr(text)
    assert str(exc.value) == message


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


def test_func_refuses_a_tree_deeper_than_the_bound():
    t = leaf("ExpDur")
    for _ in range(rules.MAX_DEPTH - 2):
        t = func("neg", t)
    assert func("add", leaf("RR"), t).depth() == rules.MAX_DEPTH
    for op, kids in (("neg", (func("neg", t),)), ("add", (leaf("RR"), func("neg", t)))):
        with pytest.raises(ValueError, match=f"deeper than {rules.MAX_DEPTH} levels"):
            func(op, *kids)


def _chain(bottom: str = "ExpDur") -> Node:
    """A `neg`/`add` chain exactly `MAX_DEPTH` levels deep."""
    t = leaf(bottom)
    for k in range(rules.MAX_DEPTH - 1):
        t = Node("add", (t, leaf("RR"))) if k % 2 else Node("neg", (t,))
    return t


def _doubled(bottom: str = "RR") -> Node:
    """`(add t t)` exactly `MAX_DEPTH` levels deep: one node object per
    level, shared by both children of the level above."""
    t = leaf(bottom)
    for _ in range(rules.MAX_DEPTH - 1):
        t = Node("add", (t, t))
    return t


def test_node_refuses_a_tree_deeper_than_the_bound():
    """`Node` itself bounds depth, so every tree, however it is put
    together, is at most `MAX_DEPTH` levels deep."""
    for t in (_chain(), _doubled()):
        assert t.depth() == rules.MAX_DEPTH
        for op, kids in (("neg", (t,)), ("add", (leaf("RR"), t)), ("add", (t, t))):
            with pytest.raises(ValueError,
                               match=f"^{op} would nest deeper than {rules.MAX_DEPTH} levels$"):
                Node(op, kids)


@pytest.mark.parametrize("build, size", [(_chain, 95), (_doubled, 2 ** 64 - 1)],
                         ids=["chain", "shared"])
def test_every_walk_works_at_the_depth_bound(build, size):
    """Hashing, `==`, pickling, `depth()` and `size()` of a tree at the
    bound, and of one that shares a subtree at every level."""
    t, other = build(), build()
    assert t is not other and t == other and hash(t) == hash(other)
    assert t != build("TSC") and Node("abs", t.children[:1]) != other
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and hash(copy) == hash(t)
    assert build is _chain or copy.children[0] is copy.children[1]
    assert t.depth() == copy.depth() == rules.MAX_DEPTH
    assert t.size() == copy.size() == size


def test_a_chain_at_the_depth_bound_has_a_repr():
    """The dataclass `repr` nests one call per level, which the bound keeps
    far from Python's stack limit; pytest prints it for a failed assertion."""
    t = _chain()
    assert repr(t).count("Node(op=") == t.size() == 95
    assert str(t) == format_sexpr(t)


def test_pickling_keeps_a_shared_subtree_shared():
    """A tree that reuses one subtree object pickles it once: each level of
    `(add t t)` doubles the tree's size but adds one row."""
    t = leaf("RR")
    for _ in range(60):
        t = Node("add", (t, t))
    data = pickle.dumps(t)
    assert len(data) < 2000
    copy = pickle.loads(data)
    assert copy == t and copy.children[0] is copy.children[1]


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
    and for a group. The engine before the two forms must agree too. Each
    state is checked at its ready pairs and at a random share of its
    unstarted pairs, made ready by completing their predecessors. The last
    states have 17-30 activities, so a group's union masks span three or
    more bytes."""
    rng = random.Random(7)
    clamped = zero_div = not_ready = zero_modes = wide_work = 0
    for k in range(170):
        wide = k >= 150
        inst, drawn = _random_state(rng, zero_prob=0.25 if k % 2 else 0.0,
                                    n=rng.randint(17, 30) if wide else None)
        pairs = _unstarted(inst, drawn)
        if not pairs:
            continue
        # the pairs ready as drawn, then a random share of every unstarted
        # pair, made ready by completing their predecessors
        for ctx, pairs in ((drawn, _eligible(inst, drawn)), readied(
                drawn, rng.sample(pairs, rng.randint(1, len(pairs))))):
            if not pairs:
                continue
            not_ready += sum(not inst.activities[i].predecessors <= drawn.completed
                             for i, _ in pairs)
            zero_modes += sum(inst.activities[i].modes[m].expected == 0 for i, m in pairs)
            for _ in range(8):
                t = _hostile_tree(rng, rng.randint(1, 8))
                row_rule, pair_terms, group_terms = compile_row_rule(t)
                raw = t._rank(ctx, pairs)
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
                got = t._score(ctx, g)
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
        for t in CLAMP_EDGE_TREES:
            for (i, m), got in zip(pairs, t._rank(ctx, pairs)):
                mo = inst.activities[i].modes[m]
                ref = interpret(t, lambda name: PAIR_TERMINALS[name](ctx, i, mo))
                assert _exact(got, ref), (format_sexpr(t), i, m)
                edge += abs(ref) == 1e300
            ref = interpret(t, lambda name: GROUP_TERMINALS[name](view))
            assert _exact(t._score(ctx, group), ref), format_sexpr(t)
            edge += abs(ref) == 1e300
            groups += 1
        for i, m in pairs:
            grd = PAIR_TERMINALS["GRD"](ctx, i, inst.activities[i].modes[m])
            past_int += type(grd) is int and grd >= 2
    assert edge > 500 and past_int > 50 and groups > 150


# operands at the edges of comparison: an int and a float that are equal,
# both zeros, the clamp bounds, both infinities, NaN and ints past 2**53,
# one of them equal to a float
_ORDER_EDGES = (3, 3.0, 0.0, -0.0, 1e300, -1e300, math.inf, -math.inf, math.nan,
                2 ** 53, float(2 ** 53), 2 ** 53 + 1, -(2 ** 53 + 1), 2 ** 60 + 1)


@pytest.mark.parametrize("name, builtin", [("min", min), ("max", max)], ids=["min", "max"])
def test_min_and_max_templates_return_what_the_builtins_return(name, builtin):
    """The engine writes two-argument `min` and `max` out as conditionals;
    each returns the very argument object the builtin returns, so value and
    type agree, NaN and the sign of zero included. The reference in
    `tests/conftest.py` keeps the builtin, so the exactness tests compare
    the two."""
    assert FUNCTIONS[name] == name + "({}, {})"
    engine = eval(f"lambda a, b: {rules._FUNCTIONS[name].format('a', 'b')}")
    for a in _ORDER_EDGES:
        for b in _ORDER_EDGES:
            assert engine(a, b) is builtin(a, b), (a, b)


# trees whose float values tie: 0.0 at every pair, RR at the pairs of one
# demand sum, and ints past 2**53 (the free capacity's largest lane to the
# 32nd power, plus or minus a small count) that differ as ints and round to
# one float
_MAX_RA_32 = format_sexpr(_squared(leaf("MaxRA"), 5))
PICK_TIE_TREES = [parse_sexpr(text.replace("big", _MAX_RA_32)) for text in (
    "(mul RR EST)",
    "(min RR (add RR EST))",
    "(add big DSC)",
    "(sub big (mul TSC RR))",
)]


class PicksChecked:
    """Decides as `policy` does, after checking at the decision's state the
    pick form of every tree of `trees` against the reference on the
    eligible list as given and shuffled."""

    def __init__(self, policy, trees, rng):
        self.policy, self.trees, self.rng = policy, trees, rng
        self.cases = self.tied = self.int_ties = 0

    def decide(self, ctx, eligible):
        for t in self.trees:
            for pairs in (eligible, self.rng.sample(eligible, len(eligible))):
                raw = t._rank(ctx, pairs)
                values = list(map(float, raw))
                ref = min(zip(values, pairs))[1]
                assert t._pick(ctx, pairs) is ref, (format_sexpr(t), pairs)
                low = min(values)
                best = {r for r, v in zip(raw, values) if v == low}
                self.cases += 1
                self.tied += values.count(low) > 1
                self.int_ties += len(best) > 1
        return self.policy.decide(ctx, eligible)


def test_pick_equals_the_reference_min_at_every_decision_of_solve():
    """`_pick` is `min(zip(map(float, t._rank(ctx, pairs)), pairs))[1]`:
    the pair of lowest float value, equal values broken on the pair, and
    the eligible pair object itself. Every decision of `sgp` and `kggp-max`
    solves on random instances checks random trees and `PICK_TIE_TREES`."""
    rng = random.Random(83)
    checked = []
    for k in range(40):
        inst = random_instance(rng, n=rng.randint(3, 10), capacity=12,
                               max_demand=7, zero_prob=0.2)
        trees = [random_tree(rng, rng.randint(1, 6)) for _ in range(3)] + PICK_TIE_TREES
        rules_ = RulePair(random_tree(rng, 4), random_tree(rng, 4))
        for name in ("sgp", "kggp-max"):
            policy = PicksChecked(build_policy(rules_, name), trees, rng)
            solve(inst, policy, sample_durations(inst, seed=k))
            checked.append(policy)
    cases, tied, int_ties = (sum(getattr(p, a) for p in checked)
                             for a in ("cases", "tied", "int_ties"))
    assert cases > 5000 and tied > 2500 and int_ties > 500
    bad = Node("add", (leaf("RR"),))
    with pytest.raises(ValueError):
        bad._pick
    assert "_pick" not in vars(bad)


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_a_solve_builds_only_the_forms_its_policy_uses(name):
    ordering = parse_sexpr("(add LFT (mul ExpDur RR))")
    group = parse_sexpr("(neg (add GRD DSC))")
    inst = demo_instance()
    solve(inst, build_policy(RulePair(ordering, group), name),
          sample_durations(inst, seed=3))
    # `sgp` picks one pair, the knee policies rank them, exact enumeration
    # does neither
    assert ("_pick" in vars(ordering)) == (name == "sgp")
    assert ("_rank" in vars(ordering)) == name.startswith("kggp")
    assert "_best" not in vars(ordering)
    assert "_rank" not in vars(group) and "_pick" not in vars(group)
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


def test_wide_demands_are_kept_only_for_the_decision_form():
    rng = random.Random(33)
    inst = random_instance(rng, n=20)
    built = vars(inst.analysis)
    rules_ = RulePair(parse_sexpr("(add MaxRLA RR)"), parse_sexpr("(sub MinRLA GRD)"))
    solve(inst, build_policy(rules_, "sgp"), sample_durations(inst, seed=1))
    assert "rows" in built  # ranking reads `left` from the demand tuples
    assert "wide_demands" not in built and "split" not in built
    solve(inst, build_policy(rules_, "kggp-max"), sample_durations(inst, seed=1))
    assert "wide_demands" in built and "split" in built


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


def test_building_parsing_and_compiling_a_tree_leave_no_cyclic_garbage():
    """What each builds is freed when it returns, not at the next
    collection, whose timing depends on everything else a run allocates."""
    texts = ["(add (mul RR ExpDur) (sub LFT (div EST RR)))",
             "(sub (neg GRD) (mul MaxRR (add GRD GRPW)))"]
    rng = random.Random(5)
    gc.collect()
    gc.disable()
    try:
        trees = [parse_sexpr(t) for t in texts * 3]
        trees += [kneegp.evolve.random_tree(rng, 5, method) for method in ("grow", "full")]
        for k, tree in enumerate(trees):
            tree._best if k % 2 else tree._rank
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_deep_trees_compile(monkeypatch):
    """Each distinct function node object becomes one assignment: a tree at
    the bound that shares a subtree at every level compiles to a few lines
    per level in all three forms, and `Node` refuses one level more."""
    t = _doubled()
    with pytest.raises(ValueError,
                       match=f"^add would nest deeper than {rules.MAX_DEPTH} levels$"):
        Node("add", (t, t))
    ctx = fresh_ctx(demo_instance())
    pairs, group = [(1, 0), (1, 1), (2, 0)], [(1, 1), (2, 1)]
    eligible = [(1, 0), (1, 1), (2, 0), (2, 1)]
    rr = leaf("RR")
    ranked = [eval_pair_priority(rr, ctx, p) for p in pairs]
    scored = eval_group_priority(rr, ctx, group)
    chosen = full_enumeration_decide(RulePair(rr, rr), ctx, eligible)
    sources, real = [], rules._exec

    def spy(src: str, name: str):
        sources.append(src)
        return real(src, name)

    monkeypatch.setattr(rules, "_exec", spy)
    scale = 2.0 ** (rules.MAX_DEPTH - 1)  # the tree is `RR` doubled 63 times
    assert [float(v) for v in t._rank(ctx, pairs)] == [scale * v for v in ranked]
    assert eval_group_priority(t, ctx, group) == scale * scored
    assert full_enumeration_decide(RulePair(rr, t), ctx, eligible) == chosen
    assert len(sources) == 3
    assert all(src.count("\n") < 4 * rules.MAX_DEPTH for src in sources)


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
