from __future__ import annotations

import random
from operator import le, sub
from typing import Callable, Iterator, Sequence

import pytest

from kneegp import rules
from kneegp.model import (Activity, Mode, ProjectInstance, Schedule, ScheduleEntry,
                          build_instance)
from kneegp.rules import (
    ALL_TERMINALS,
    TIME_TERMINALS,
    DecisionContext,
    Node,
    eval_group_priority,
    eval_pair_priority,
)


def _act(i, preds, succs, modes):
    return Activity(
        id=i,
        predecessors=frozenset(preds),
        successors=frozenset(succs),
        modes=tuple(Mode(*m) for m in modes),
    )


IDLE = (0, 0, 0, (0,))


def demo_instance() -> ProjectInstance:
    """Seven-activity, single-resource project with two modes per real activity.

    Used as the hand-checked ground truth across the suite: critical path 12,
    order strength 0.5, capacity 12.
    """
    return build_instance(
        [
            _act(0, [], [1, 2], [IDLE]),
            _act(1, [0], [3, 4], [(5, 3, 7, (10,)), (6, 5, 8, (6,))]),
            _act(2, [0], [4], [(4, 3, 7, (7,)), (7, 6, 11, (5,))]),
            _act(3, [1], [5], [(4, 3, 6, (9,)), (8, 7, 10, (8,))]),
            _act(4, [1, 2], [6], [(4, 2, 5, (7,)), (6, 4, 8, (4,))]),
            _act(5, [3], [6], [(3, 2, 5, (9,)), (5, 4, 7, (6,))]),
            _act(6, [4, 5], [], [IDLE]),
        ],
        capacities=[12],
        metadata={"name": "demo"},
    )


def rescan_eligible(inst: ProjectInstance, completed, running,
                    availability) -> list[tuple[int, int]]:
    """Reference eligible set by full rescan: unstarted pairs whose
    predecessors are complete and whose demand fits, in (activity, mode)
    order. The executor keeps a ready set instead; tests compare the two."""
    out = []
    for i in inst.non_dummy_ids():
        if i in completed or i in running:
            continue
        act = inst.activities[i]
        if not act.predecessors <= completed:
            continue
        for m, mo in enumerate(act.modes):
            if all(k <= a for k, a in zip(mo.demand, availability)):
                out.append((i, m))
    return out


def count_calls(monkeypatch, name: str) -> list[tuple]:
    """Wrap `kneegp.sim.<name>`; the returned list gets the arguments of
    each call, without the instance."""
    import kneegp.sim

    calls, real = [], getattr(kneegp.sim, name)

    def wrapper(inst, *args):
        calls.append(args)
        return real(inst, *args)

    monkeypatch.setattr(kneegp.sim, name, wrapper)
    return calls


def realized(table) -> dict[tuple[int, int], int]:
    """Every pair's duration in a `DurationTable`, drawing what no read has
    drawn yet."""
    return {(a.id, m): table.duration(a.id, m)
            for a in table.inst.activities for m in range(a.n_modes)}


def schedule_from_dict(data: dict) -> Schedule:
    """Inverse of `model.schedule_to_dict`."""
    entries = {
        int(i): ScheduleEntry(int(e["mode"]), int(e["start"]), int(e["duration"]))
        for i, e in data["entries"].items()
    }
    return Schedule(entries, int(data["makespan"]))


@pytest.fixture
def demo() -> ProjectInstance:
    return demo_instance()


def chain_instance(durations, demand=1, capacity=1) -> ProjectInstance:
    """Serial chain of single-mode activities."""
    n = len(durations)
    acts = [_act(0, [], [1], [(0, 0, 0, (0,))])]
    for k, d in enumerate(durations, start=1):
        acts.append(_act(k, [k - 1], [k + 1], [(d, d, d, (demand,))]))
    acts.append(_act(n + 1, [n], [], [(0, 0, 0, (0,))]))
    return build_instance(acts, [capacity])


def parallel_instance(durations, demand=1, capacity=None) -> ProjectInstance:
    """Antichain: every real activity depends only on the dummies."""
    n = len(durations)
    if capacity is None:
        capacity = n * demand
    acts = [_act(0, [], list(range(1, n + 1)), [(0, 0, 0, (0,))])]
    for k, d in enumerate(durations, start=1):
        acts.append(_act(k, [0], [n + 1], [(d, d, d, (demand,))]))
    acts.append(_act(n + 1, list(range(1, n + 1)), [], [(0, 0, 0, (0,))]))
    return build_instance(acts, [capacity])


def random_instance(rng: random.Random, n=8, n_modes=2, n_resources=2,
                    capacity=12, edge_prob=0.3, max_demand=None,
                    zero_prob=0.0) -> ProjectInstance:
    """Small random project for property sweeps; ids are topological.

    Each mode takes no time with probability `zero_prob`."""
    if max_demand is None:
        max_demand = max(1, capacity // 2)
    idle = (0, 0, 0, (0,) * n_resources)
    preds = {i: set() for i in range(1, n + 1)}
    for j in range(2, n + 1):
        for i in range(1, j):
            if rng.random() < edge_prob:
                preds[j].add(i)
    succs = {i: set() for i in range(1, n + 1)}
    for j, ps in preds.items():
        for i in ps:
            succs[i].add(j)
    sources = [i for i in range(1, n + 1) if not preds[i]]
    sinks = [i for i in range(1, n + 1) if not succs[i]]
    acts = [_act(0, [], sources, [idle])]
    for i in range(1, n + 1):
        modes = []
        for _ in range(n_modes):
            exp = rng.randint(2, 9)
            lo = max(1, exp - rng.randint(1, 3))
            hi = exp + rng.randint(1, 3)
            dem = tuple(rng.randint(1, max_demand) for _ in range(n_resources))
            if zero_prob and rng.random() < zero_prob:
                exp = lo = hi = 0
            modes.append((exp, lo, hi, dem))
        modes.sort(key=lambda m: m[0])
        acts.append(_act(i, sorted(preds[i]) or [0],
                         sorted(succs[i]) or [n + 1], modes))
    acts.append(_act(n + 1, sinks, [], [idle]))
    return build_instance(acts, [capacity] * n_resources)


def feasible_groups(slots, availability: Sequence[int],
                    maximal: bool = False) -> Iterator[tuple]:
    """Reference enumerator for the decision form (`Node._best`): every
    non-empty group of at most one option per slot that fits.

    Depth first over skip-or-take choices in slot order, members in slot
    order; a branch stops as soon as it overdraws a resource, so infeasible
    supersets are never visited. With `maximal`, a group is yielded only if
    no slot it skips has an option that still fits. Demands are non-negative,
    so those are exactly the groups no other feasible group contains.
    """
    # (next slot, capacity left, members, skipped slots), never mutated
    stack = [(0, tuple(availability), (), ())]
    while stack:
        k, free, members, skipped = stack.pop()
        if k == len(slots):
            if members and not (maximal and any(
                    all(map(le, d, free)) for j in skipped for _, d in slots[j])):
                yield members
            continue
        for pair, demand in slots[k]:
            if all(map(le, demand, free)):
                stack.append((k + 1, tuple(map(sub, free, demand)),
                              members + (pair,), skipped))
        stack.append((k + 1, free, members, skipped + (k,)))


def reference_best_group(tree: Node, ctx: DecisionContext, slots,
                         maximal: bool = False) -> tuple[tuple, int]:
    """Reference group choice for the decision form: every group from
    `feasible_groups`, each scored by `interpret` over the reference group
    terminals, the lowest (score, sorted activity ids, group) kept; and how
    many were scored. Nothing here is compiled from the engine's tables."""
    def score(group) -> float:
        view = GroupView(ctx, group)
        return float(interpret(tree, lambda name: GROUP_TERMINALS[name](view)))

    keys = [(score(group), sorted(i for i, _ in group), group)
            for group in feasible_groups(slots, ctx.availability, maximal)]
    return (min(keys)[2] if keys else ()), len(keys)


def protected_div(x: float, y: float) -> float:
    """Total division: anything over zero is 1."""
    if y == 0:
        return 1.0
    return rules._clamp(x / y)


# the functions' reference semantics, one source template each: plain Python
# arithmetic, so values keep its int/float types, with every add, sub, mul and
# div bounded by `_clamp`. The engine's compiled forms must equal them.
FUNCTIONS: dict[str, str] = {
    "add": "_clamp({} + {})",
    "sub": "_clamp({} - {})",
    "mul": "_clamp({} * {})",
    "div": "protected_div({}, {})",
    "min": "min({}, {})",
    "max": "max({}, {})",
    "abs": "abs({})",
    "neg": "-{}",
}
_FUNCTION_GLOBALS = {"_clamp": rules._clamp, "protected_div": protected_div}


def _function(template: str) -> Callable:
    args = [f"a{k}" for k in range(template.count("{}"))]
    return eval(f"lambda {', '.join(args)}: {template.format(*args)}", _FUNCTION_GLOBALS)


_APPLY = {name: _function(t) for name, t in FUNCTIONS.items()}


def interpret(node: Node, leafval: Callable[[str], float]):
    """Node-by-node evaluation, every leaf looked up where it occurs."""
    ch = node.children
    if not ch:
        return leafval(node.op)
    if len(ch) == 2:
        return _APPLY[node.op](interpret(ch[0], leafval), interpret(ch[1], leafval))
    return _APPLY[node.op](interpret(ch[0], leafval))


# ---------------------------------------------------------------------------
# one terminal at a time, through the engine's compiled forms

# one leaf tree per terminal, so repeated calls reuse its compiled forms
LEAVES = {name: Node(name) for name in ALL_TERMINALS}


def terminal_value(name: str, ctx: DecisionContext, pair) -> float:
    return eval_pair_priority(LEAVES[name], ctx, pair)


def group_terminal_value(name: str, ctx: DecisionContext, group) -> float:
    return eval_group_priority(LEAVES[name], ctx, group)


# ---------------------------------------------------------------------------
# reference semantics of the terminals: one function per terminal, evaluated
# on its own, as the engine computed them before its compiled forms. The
# engine's rank and group forms are checked against these.

def _left(ctx: DecisionContext, d: Sequence[int]) -> list[int]:
    return [a - k for a, k in zip(ctx.availability, d)]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


# value of a demand vector `d` taking `e` expected time units
RESOURCE_TERMINALS: dict[str, Callable[[DecisionContext, Sequence[int], float], float]] = {
    "AvgRR": lambda ctx, d, e: _mean(d),
    "MaxRR": lambda ctx, d, e: max(d),
    "MinRR": lambda ctx, d, e: min(d),
    "AvgRA": lambda ctx, d, e: ctx._avail_stats[0],
    "MaxRA": lambda ctx, d, e: ctx._avail_stats[1],
    "MinRA": lambda ctx, d, e: ctx._avail_stats[2],
    "AvgRLA": lambda ctx, d, e: _mean(_left(ctx, d)),
    "MaxRLA": lambda ctx, d, e: max(_left(ctx, d)),
    "MinRLA": lambda ctx, d, e: min(_left(ctx, d)),
    "RR": lambda ctx, d, e: sum(d),
    "GRD": lambda ctx, d, e: e * max(d),
}

def latest_finish(ctx: DecisionContext, i: int) -> float:
    """The backward pass from the horizon with minimum expected durations,
    relative to the clock; exact, since every value is an integer."""
    return ctx.horizon - ctx.instance.analysis.tail[i]


# value of a pair: (context, activity id, mode)
PAIR_TERMINALS: dict[str, Callable[[DecisionContext, int, Mode], float]] = {
    "EST": lambda ctx, i, mo: ctx.earliest_start(i),
    "EFT": lambda ctx, i, mo: ctx.earliest_start(i) + mo.expected,
    "LFT": lambda ctx, i, mo: latest_finish(ctx, i),
    "LST": lambda ctx, i, mo: latest_finish(ctx, i) - mo.expected,
    "ExpDur": lambda ctx, i, mo: mo.expected,
    "OptDur": lambda ctx, i, mo: mo.min_duration,
    "PessDur": lambda ctx, i, mo: mo.max_duration,
    "GRPW": lambda ctx, i, mo: mo.expected + sum(
        ctx.instance.analysis.dmin_exp[j] for j in ctx.instance.activities[i].successors),
    "GRPW_all": lambda ctx, i, mo: mo.expected + _masked_sum(
        ctx.instance.analysis.dmin_exp, ctx.instance.analysis.trans_succ_mask[i]),
    "TPC": lambda ctx, i, mo: ctx.instance.analysis.trans_pred_mask[i].bit_count(),
    "DPC": lambda ctx, i, mo: len(ctx.instance.activities[i].predecessors),
    "TSC": lambda ctx, i, mo: ctx.instance.analysis.trans_succ_mask[i].bit_count(),
    "DSC": lambda ctx, i, mo: len(ctx.instance.activities[i].successors),
    **{name: lambda ctx, i, mo, f=f: f(ctx, mo.demand, mo.expected)
       for name, f in RESOURCE_TERMINALS.items()},
}


class GroupView:
    """Shared per-evaluation aggregates of one candidate group."""

    __slots__ = ("ctx", "members", "demand", "mean_expected")

    def __init__(self, ctx: DecisionContext, pairs):
        self.ctx = ctx
        inst = ctx.instance
        self.members = [(i, inst.activities[i].modes[m]) for i, m in pairs]
        total = [0] * inst.n_resources
        exp = 0
        for _, mo in self.members:
            exp += mo.expected
            for r, k in enumerate(mo.demand):
                total[r] += k
        self.demand = total
        self.mean_expected = exp / len(self.members)

    def union_mask(self, masks: list[int]) -> int:
        m = 0
        for i, _ in self.members:
            m |= masks[i]
        return m


def _masked_sum(values, mask: int):
    """Reference for `model.byte_sum`: the sum of `values` over the set bits
    of `mask`, one bit at a time."""
    total = 0
    while mask:
        low = mask & -mask
        total += values[low.bit_length() - 1]
        mask ^= low
    return total


def group_work(view: GroupView, succ_masks: list[int]) -> float:
    own = sum(mo.expected for _, mo in view.members)
    dmin = view.ctx.instance.analysis.dmin_exp
    return own + _masked_sum(dmin, view.union_mask(succ_masks))


# value of a group: time terminals average the members' pair values,
# precedence terminals take the union of the members' sets
GROUP_TERMINALS: dict[str, Callable[[GroupView], float]] = {
    **{name: (lambda v, f=PAIR_TERMINALS[name]:
              sum(f(v.ctx, i, mo) for i, mo in v.members) / len(v.members))
       for name in TIME_TERMINALS},
    "GRPW": lambda v: group_work(v, v.ctx.instance.analysis.direct_succ_mask),
    "GRPW_all": lambda v: group_work(v, v.ctx.instance.analysis.trans_succ_mask),
    "TPC": lambda v: v.union_mask(v.ctx.instance.analysis.trans_pred_mask).bit_count(),
    "DPC": lambda v: v.union_mask(v.ctx.instance.analysis.direct_pred_mask).bit_count(),
    "TSC": lambda v: v.union_mask(v.ctx.instance.analysis.trans_succ_mask).bit_count(),
    "DSC": lambda v: v.union_mask(v.ctx.instance.analysis.direct_succ_mask).bit_count(),
    **{name: lambda v, f=f: f(v.ctx, v.demand, v.mean_expected)
       for name, f in RESOURCE_TERMINALS.items()},
}


def compile_row_rule(tree: Node) -> tuple[Callable[[list], float], tuple, tuple]:
    """The engine before its rank and group forms: a function of a terminal
    row, plus the pair and the group terminal of each row slot.

    Each distinct terminal gets one slot `r[k]`; each function node becomes
    one local assignment from `FUNCTIONS`."""
    slots: dict[str, int] = {}
    lines: list[str] = []

    def emit(n: Node) -> str:
        if not n.children:
            if n.op not in PAIR_TERMINALS:
                raise ValueError(f"unknown terminal {n.op!r}")
            return f"r[{slots.setdefault(n.op, len(slots))}]"
        template = FUNCTIONS.get(n.op)
        if template is None or template.count("{}") != len(n.children):
            raise ValueError(f"bad function node {n.op!r} with {len(n.children)} children")
        value = template.format(*[emit(c) for c in n.children])
        lines.append(f"    v{len(lines)} = {value}\n")
        return f"v{len(lines) - 1}"

    result = emit(tree)
    local: dict = {}
    exec("def rule(r):\n" + "".join(lines) + f"    return {result}\n",
         _FUNCTION_GLOBALS, local)
    return (local["rule"],
            tuple(PAIR_TERMINALS[name] for name in slots),
            tuple(GROUP_TERMINALS[name] for name in slots))
