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
from typing import Callable, Mapping, Sequence

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


# source templates of the functions; the compiled code calls _clamp and
# protected_div, so it keeps the int/float types of plain Python arithmetic
_TEMPLATES: dict[str, str] = {
    "add": "_clamp({} + {})",
    "sub": "_clamp({} - {})",
    "mul": "_clamp({} * {})",
    "div": "protected_div({}, {})",
    "min": "min({}, {})",
    "max": "max({}, {})",
    "abs": "abs({})",
    "neg": "-{}",
}
FUNCTION_ARITY: dict[str, int] = {k: t.count("{}") for k, t in _TEMPLATES.items()}

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
    """Expression tree node; leaves carry a terminal name, no children.

    A node caches its hash and its compiled form on first use. Neither takes
    part in equality or in the pickled state: string hashes differ between
    processes, and generated functions do not pickle.
    """

    op: str
    children: tuple["Node", ...] = ()

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.op, self.children))

    @cached_property
    def _compiled(self) -> "_Compiled":
        return _compile(self)

    def __getstate__(self) -> dict:
        return {"op": self.op, "children": self.children}

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

    Every completed or running activity must have all its predecessors
    completed, as in any state `sim.solve` reaches. The time terminals rely
    on it: then no path from an unfinished activity to the sink passes
    through a completed or running one.
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
        """Projected completion of the whole project, relative to the clock:
        `max(0.0, _forward[sink])`, in value and in int/float type.

        The pass's longest path starts at the frontier. A running activity
        with expected work left starts an int chain, `rem + tail`; an
        unstarted one starts a float chain from the pass's 0.0 floor,
        `dmin + tail`; an overdue running one adds only its successors'
        chains. Counting unstarted activities that are not ready changes
        neither side's maximum nor which side is longer: an unfinished
        predecessor starts a chain as long, or a strictly longer int one. On
        a tie the pass's type follows a predecessor set's iteration order,
        so the pass settles it.
        """
        inst = self.instance
        ana = inst.analysis
        tail, dmin = ana.tail, ana.dmin_exp
        chain = reach = 0  # longest int chain, longest float chain
        for i, (m, start) in self.running.items():
            rem = start + inst.activities[i].modes[m].expected - self.clock
            if rem > 0 and rem + tail[i] > chain:
                chain = rem + tail[i]
        done, running = self.completed, self.running
        for i in range(inst.n_activities):
            if i not in done and i not in running and dmin[i] + tail[i] > reach:
                reach = dmin[i] + tail[i]
        if chain > reach:
            return chain
        if reach > chain:
            return float(reach)
        if not reach:
            return 0.0
        return max(0.0, self._forward[inst.dummy_end])

    def earliest_start(self, i: int) -> float:
        preds = self.instance.activities[i].predecessors
        if i in self.running or i in self.completed or preds <= self.completed:
            return 0.0
        ect = self._forward
        return max(ect[j] for j in preds)

    def latest_finish(self, i: int) -> float:
        """Backward pass from the horizon with minimum expected durations,
        relative to the clock; exact, since every value is an integer."""
        return self.horizon - self.instance.analysis.tail[i]


# ---------------------------------------------------------------------------
# terminal semantics

def _left(ctx: DecisionContext, d: Sequence[int]) -> list[int]:
    return [a - k for a, k in zip(ctx.availability, d)]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


# value of a demand vector `d` taking `e` expected time units
_RESOURCE_TERMINALS: dict[str, Callable[[DecisionContext, Sequence[int], float], float]] = {
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

# value of a pair: (context, activity id, mode)
_PAIR_TERMINALS: dict[str, Callable[[DecisionContext, int, Mode], float]] = {
    "EST": lambda ctx, i, mo: ctx.earliest_start(i),
    "EFT": lambda ctx, i, mo: ctx.earliest_start(i) + mo.expected,
    "LFT": lambda ctx, i, mo: ctx.latest_finish(i),
    "LST": lambda ctx, i, mo: ctx.latest_finish(i) - mo.expected,
    "ExpDur": lambda ctx, i, mo: mo.expected,
    "OptDur": lambda ctx, i, mo: mo.min_duration,
    "PessDur": lambda ctx, i, mo: mo.max_duration,
    "GRPW": lambda ctx, i, mo: mo.expected + ctx.instance.analysis.succ_work[i],
    "GRPW_all": lambda ctx, i, mo: mo.expected + ctx.instance.analysis.trans_succ_work[i],
    "TPC": lambda ctx, i, mo: ctx.instance.analysis.trans_pred_mask[i].bit_count(),
    "DPC": lambda ctx, i, mo: len(ctx.instance.activities[i].predecessors),
    "TSC": lambda ctx, i, mo: ctx.instance.analysis.trans_succ_mask[i].bit_count(),
    "DSC": lambda ctx, i, mo: len(ctx.instance.activities[i].successors),
    **{name: lambda ctx, i, mo, f=f: f(ctx, mo.demand, mo.expected)
       for name, f in _RESOURCE_TERMINALS.items()},
}


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


def _group_work(view: _GroupView, succ_masks: list[int]) -> float:
    own = sum(mo.expected for _, mo in view.members)
    dmin = view.ctx.instance.analysis.dmin_exp
    return own + _masked_sum(dmin, view.union_mask(succ_masks))


# value of a group: time terminals average the members' pair values,
# precedence terminals take the union of the members' sets
_GROUP_TERMINALS: dict[str, Callable[[_GroupView], float]] = {
    **{name: (lambda v, f=_PAIR_TERMINALS[name]:
              sum(f(v.ctx, i, mo) for i, mo in v.members) / len(v.members))
       for name in TIME_TERMINALS},
    "GRPW": lambda v: _group_work(v, v.ctx.instance.analysis.direct_succ_mask),
    "GRPW_all": lambda v: _group_work(v, v.ctx.instance.analysis.trans_succ_mask),
    "TPC": lambda v: v.union_mask(v.ctx.instance.analysis.trans_pred_mask).bit_count(),
    "DPC": lambda v: v.union_mask(v.ctx.instance.analysis.direct_pred_mask).bit_count(),
    "TSC": lambda v: v.union_mask(v.ctx.instance.analysis.trans_succ_mask).bit_count(),
    "DSC": lambda v: v.union_mask(v.ctx.instance.analysis.direct_succ_mask).bit_count(),
    **{name: lambda v, f=f: f(v.ctx, v.demand, v.mean_expected)
       for name, f in _RESOURCE_TERMINALS.items()},
}


def _terminal(table: dict, name: str) -> Callable:
    fn = table.get(name)
    if fn is None:
        raise ValueError(f"unknown terminal {name!r}")
    return fn


def terminal_value(name: str, ctx: DecisionContext, pair: Pair) -> float:
    i, m = pair
    mo = ctx.instance.activities[i].modes[m]
    return float(_terminal(_PAIR_TERMINALS, name)(ctx, i, mo))


def group_terminal_value(name: str, ctx: DecisionContext,
                         group: Sequence[Pair]) -> float:
    if not group:
        raise ValueError("group must be non-empty")
    return float(_terminal(_GROUP_TERMINALS, name)(_GroupView(ctx, group)))


# ---------------------------------------------------------------------------
# compiled evaluation

# the names compiled rules read, shared by all of them
_RULE_GLOBALS = {"_clamp": _clamp, "protected_div": protected_div,
                 "min": min, "max": max, "abs": abs}

# (rule over a terminal row, pair terminals of the row, group terminals of the row)
_Compiled = tuple[Callable[[list], float], tuple[Callable, ...], tuple[Callable, ...]]


def _compile(tree: Node) -> _Compiled:
    """Compile a tree into a Python function of its terminal row.

    Each distinct terminal gets one row slot `r[k]`, so it is computed once
    per pair or group. Each function node becomes one local assignment built
    from `_TEMPLATES`, so deep trees never nest the generated source. Only
    templates, slot indices and local names enter the source: symbols are
    looked up in the tables, never pasted.
    """
    slots: dict[str, int] = {}
    lines: list[str] = []

    def emit(n: Node) -> str:
        if not n.children:
            _terminal(_PAIR_TERMINALS, n.op)
            return f"r[{slots.setdefault(n.op, len(slots))}]"
        template = _TEMPLATES.get(n.op)
        if template is None or FUNCTION_ARITY[n.op] != len(n.children):
            raise ValueError(f"bad function node {n.op!r} with {len(n.children)} children")
        value = template.format(*[emit(c) for c in n.children])
        lines.append(f"    v{len(lines)} = {value}\n")
        return f"v{len(lines) - 1}"

    result = emit(tree)
    local: dict = {}
    exec("def rule(r):\n" + "".join(lines) + f"    return {result}\n",
         _RULE_GLOBALS, local)
    return (local["rule"],
            tuple(_PAIR_TERMINALS[name] for name in slots),
            tuple(_GROUP_TERMINALS[name] for name in slots))


def eval_pair_priority(tree: Node, ctx: DecisionContext, pair: Pair) -> float:
    """Score one (activity, mode) pair; smaller means more urgent."""
    rule, terms, _ = tree._compiled
    i, m = pair
    mo = ctx.instance.activities[i].modes[m]
    return float(rule([t(ctx, i, mo) for t in terms]))


def eval_group_priority(tree: Node, ctx: DecisionContext,
                        group: Sequence[Pair]) -> float:
    """Score a candidate group; smaller wins the group comparison."""
    if not group:
        raise ValueError("group must be non-empty")
    rule, _, terms = tree._compiled
    view = _GroupView(ctx, group)
    return float(rule([t(view) for t in terms]))

