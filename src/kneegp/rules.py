"""Priority rule trees and the terminal set they are built from.

A rule is an expression tree over protected arithmetic whose leaves are
scheduling terminals. Every terminal has a value for one (activity, mode)
pair and a value for a whole group of pairs, following its nature: time-like
terminals are defined for a pair and a group averages its members;
precedence counters take the union of the underlying sets; resource
terminals are defined once over a demand vector and an expected duration,
which a group supplies as its summed demand and mean expected duration.

All time-like terminals are expressed relative to the decision clock, so
shifting an identical state along the time axis never changes a priority.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .model import Mode, ProjectInstance, _masked_sum

Pair = tuple[int, int]  # (activity id, mode index)

_HUGE = 1e300


def _clamp(v: float) -> float:
    if v != v:  # NaN, e.g. from inf - inf upstream
        return 0.0
    if v > _HUGE:
        return _HUGE
    if v < -_HUGE:
        return -_HUGE
    return v


def protected_div(x: float, y: float) -> float:
    """Total division: anything over zero is 1."""
    if y == 0:
        return 1.0
    return _clamp(x / y)


_BINARY: dict[str, Callable[[float, float], float]] = {
    "add": lambda a, b: _clamp(a + b),
    "sub": lambda a, b: _clamp(a - b),
    "mul": lambda a, b: _clamp(a * b),
    "div": protected_div,
    "min": min,
    "max": max,
}
_UNARY: dict[str, Callable[[float], float]] = {
    "abs": abs,
    "neg": lambda a: -a,
}
FUNCTION_ARITY: dict[str, int] = {**{k: 2 for k in _BINARY}, **{k: 1 for k in _UNARY}}

TIME_TERMINALS = ("EST", "EFT", "LST", "LFT", "ExpDur", "OptDur", "PessDur")
PRECEDENCE_TERMINALS = ("GRPW", "GRPW_all", "TPC", "DPC", "TSC", "DSC")
RESOURCE_TERMINALS = (
    "AvgRR", "MaxRR", "MinRR",
    "AvgRA", "MaxRA", "MinRA",
    "AvgRLA", "MaxRLA", "MinRLA",
    "RR", "GRD",
)
ALL_TERMINALS = TIME_TERMINALS + PRECEDENCE_TERMINALS + RESOURCE_TERMINALS

# short historical spellings accepted on input
_ALIASES = {"LF": "LFT", "LS": "LST", "ES": "EST", "EF": "EFT"}


@dataclass(frozen=True)
class Node:
    """Expression tree node; leaves carry a terminal name, no children."""

    op: str
    children: tuple["Node", ...] = ()

    def is_leaf(self) -> bool:
        return not self.children

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(c.depth() for c in self.children)

    def __str__(self) -> str:
        return format_sexpr(self)


def leaf(name: str) -> Node:
    name = _ALIASES.get(name, name)
    if name not in ALL_TERMINALS:
        raise ValueError(f"unknown terminal {name!r}")
    return Node(name)


def func(op: str, *children: Node) -> Node:
    arity = FUNCTION_ARITY.get(op)
    if arity is None:
        raise ValueError(f"unknown function {op!r}")
    if arity != len(children):
        raise ValueError(f"{op} expects {arity} children, got {len(children)}")
    return Node(op, tuple(children))


def format_sexpr(node: Node) -> str:
    if node.is_leaf():
        return node.op
    return "(" + " ".join([node.op] + [format_sexpr(c) for c in node.children]) + ")"


def parse_sexpr(text: str) -> Node:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def read() -> Node:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            raise ValueError("unexpected ')'")
        if tok != "(":
            return leaf(tok)
        if pos >= len(tokens):
            raise ValueError("unexpected end of expression")
        op = tokens[pos]
        pos += 1
        children = []
        while pos < len(tokens) and tokens[pos] != ")":
            children.append(read())
        if pos >= len(tokens):
            raise ValueError("missing ')'")
        pos += 1
        return func(op, *children)

    node = read()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens: {' '.join(tokens[pos:])}")
    return node


@dataclass(frozen=True)
class RulePair:
    """An ordering tree plus an optional group tree. Single-rule policies
    carry only the ordering tree."""

    ordering: Node
    group: Node | None = None


def load_rules(path) -> RulePair:
    """Rule file: `ordering: <expr>` and optionally `group: <expr>` lines."""
    ordering = group = None
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, expr = line.partition(":")
        if key.strip() == "ordering":
            ordering = parse_sexpr(expr.strip())
        elif key.strip() == "group":
            group = parse_sexpr(expr.strip())
        else:
            raise ValueError(f"unknown rule line {line!r}")
    if ordering is None:
        raise ValueError("rule file must define an ordering tree")
    return RulePair(ordering, group)


def save_rules(rules: RulePair, path) -> None:
    lines = [f"ordering: {format_sexpr(rules.ordering)}"]
    if rules.group is not None:
        lines.append(f"group: {format_sexpr(rules.group)}")
    Path(path).write_text("\n".join(lines) + "\n")


class DecisionContext:
    """Snapshot of the simulation state at one decision point.

    `running` maps an activity id to its (mode index, start time). Remaining
    work of running activities is estimated from expected durations; realized
    durations of anything unfinished are deliberately not visible here.
    """

    def __init__(self, instance: ProjectInstance, clock: int,
                 availability: Sequence[int], completed: frozenset[int],
                 running: Mapping[int, tuple[int, int]]):
        self.instance = instance
        self.clock = clock
        self.availability = tuple(availability)
        self.completed = completed
        self.running = dict(running)

    def remaining_expected(self, i: int) -> int:
        mode_idx, start = self.running[i]
        mo = self.instance.activities[i].modes[mode_idx]
        return max(0, start + mo.expected - self.clock)

    @cached_property
    def _avail_stats(self) -> tuple[float, int, int]:
        a = self.availability
        return (sum(a) / len(a), max(a), min(a))

    @cached_property
    def _forward(self) -> list[float]:
        """Earliest completion of every activity, relative to the clock,
        treating unstarted activities at their minimum expected duration."""
        inst = self.instance
        ana = inst.analysis
        ect = [0.0] * inst.n_activities
        for i in ana.topo_order:
            if i in self.completed:
                continue
            if i in self.running:
                ect[i] = self.remaining_expected(i)
                continue
            start = 0.0
            for j in inst.activities[i].predecessors:
                if ect[j] > start:
                    start = ect[j]
            ect[i] = start + ana.dmin_exp[i]
        return ect

    @cached_property
    def horizon(self) -> float:
        """Projected completion of the whole project, relative to the clock."""
        return max(0.0, self._forward[self.instance.dummy_end])

    @cached_property
    def _latest_finish(self) -> list[float]:
        """Backward pass from the projected horizon with minimum expected
        durations, relative to the clock."""
        inst = self.instance
        ana = inst.analysis
        lft = [self.horizon] * inst.n_activities
        for i in reversed(ana.topo_order):
            succ = inst.activities[i].successors
            if succ:
                lft[i] = min(lft[j] - ana.dmin_exp[j] for j in succ)
        return lft

    def earliest_start(self, i: int) -> float:
        if i in self.running or i in self.completed:
            return 0.0
        ect = self._forward
        return max((ect[j] for j in self.instance.activities[i].predecessors),
                   default=0.0)

    def latest_finish(self, i: int) -> float:
        return self._latest_finish[i]


# ---------------------------------------------------------------------------
# terminal semantics

def _pair_value(name: str, ctx: DecisionContext, i: int, mo: Mode) -> float:
    ana = ctx.instance.analysis
    act = ctx.instance.activities[i]
    if name == "EST":
        return ctx.earliest_start(i)
    if name == "EFT":
        return ctx.earliest_start(i) + mo.expected
    if name == "LFT":
        return ctx.latest_finish(i)
    if name == "LST":
        return ctx.latest_finish(i) - mo.expected
    if name == "ExpDur":
        return mo.expected
    if name == "OptDur":
        return mo.min_duration
    if name == "PessDur":
        return mo.max_duration
    if name == "GRPW":
        return mo.expected + ana.succ_work[i]
    if name == "GRPW_all":
        return mo.expected + ana.trans_succ_work[i]
    if name == "TPC":
        return ana.trans_pred_mask[i].bit_count()
    if name == "DPC":
        return len(act.predecessors)
    if name == "TSC":
        return ana.trans_succ_mask[i].bit_count()
    if name == "DSC":
        return len(act.successors)
    return _resource_value(name, ctx, mo.demand, mo.expected)


def _resource_value(name: str, ctx: DecisionContext, d: Sequence[int],
                    expected: float) -> float:
    """Resource terminals of a demand vector taking `expected` time units."""
    if name == "AvgRR":
        return sum(d) / len(d)
    if name == "MaxRR":
        return max(d)
    if name == "MinRR":
        return min(d)
    if name == "AvgRA":
        return ctx._avail_stats[0]
    if name == "MaxRA":
        return ctx._avail_stats[1]
    if name == "MinRA":
        return ctx._avail_stats[2]
    left = [a - k for a, k in zip(ctx.availability, d)]
    if name == "AvgRLA":
        return sum(left) / len(left)
    if name == "MaxRLA":
        return max(left)
    if name == "MinRLA":
        return min(left)
    if name == "RR":
        return sum(d)
    if name == "GRD":
        return expected * max(d)
    raise ValueError(f"unknown terminal {name!r}")


class _GroupView:
    """Shared per-evaluation aggregates of one candidate group."""

    __slots__ = ("ctx", "members", "demand", "mean_expected")

    def __init__(self, ctx: DecisionContext, pairs: Sequence[Pair]):
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


def _group_value(name: str, view: _GroupView) -> float:
    ctx = view.ctx
    ana = ctx.instance.analysis
    if name in TIME_TERMINALS:
        return sum(_pair_value(name, ctx, i, mo) for i, mo in view.members) / len(view.members)
    if name == "GRPW":
        own = sum(mo.expected for _, mo in view.members)
        return own + _masked_sum(ana.dmin_exp, view.union_mask(ana.direct_succ_mask))
    if name == "GRPW_all":
        own = sum(mo.expected for _, mo in view.members)
        return own + _masked_sum(ana.dmin_exp, view.union_mask(ana.trans_succ_mask))
    if name == "TPC":
        return view.union_mask(ana.trans_pred_mask).bit_count()
    if name == "DPC":
        return view.union_mask(ana.direct_pred_mask).bit_count()
    if name == "TSC":
        return view.union_mask(ana.trans_succ_mask).bit_count()
    if name == "DSC":
        return view.union_mask(ana.direct_succ_mask).bit_count()
    return _resource_value(name, ctx, view.demand, view.mean_expected)


def terminal_value(name: str, ctx: DecisionContext, pair: Pair) -> float:
    i, m = pair
    return float(_pair_value(name, ctx, i, ctx.instance.activities[i].modes[m]))


def group_terminal_value(name: str, ctx: DecisionContext,
                         group: Sequence[Pair]) -> float:
    if not group:
        raise ValueError("group must be non-empty")
    return float(_group_value(name, _GroupView(ctx, group)))


def _eval(node: Node, leafval: Callable[[str], float]) -> float:
    ch = node.children
    if not ch:
        return leafval(node.op)
    if len(ch) == 2:
        return _BINARY[node.op](_eval(ch[0], leafval), _eval(ch[1], leafval))
    return _UNARY[node.op](_eval(ch[0], leafval))


def eval_pair_priority(tree: Node, ctx: DecisionContext, pair: Pair) -> float:
    """Score one (activity, mode) pair; smaller means more urgent."""
    i, m = pair
    mo = ctx.instance.activities[i].modes[m]
    return float(_eval(tree, lambda name: _pair_value(name, ctx, i, mo)))


def eval_group_priority(tree: Node, ctx: DecisionContext,
                        group: Sequence[Pair]) -> float:
    """Score a candidate group; smaller wins the group comparison."""
    if not group:
        raise ValueError("group must be non-empty")
    view = _GroupView(ctx, group)
    return float(_eval(tree, lambda name: _group_value(name, view)))


def validate_tree(node: Node, max_depth: int | None = None) -> None:
    """Raise ValueError on unknown symbols, arity problems or excess depth."""
    def walk(n: Node, d: int):
        if max_depth is not None and d > max_depth:
            raise ValueError(f"tree deeper than {max_depth}")
        if n.is_leaf():
            if n.op not in ALL_TERMINALS:
                raise ValueError(f"unknown terminal {n.op!r}")
            return
        arity = FUNCTION_ARITY.get(n.op)
        if arity is None:
            raise ValueError(f"unknown function {n.op!r}")
        if len(n.children) != arity:
            raise ValueError(f"{n.op} expects {arity} children")
        for c in n.children:
            walk(c, d + 1)

    walk(node, 1)
