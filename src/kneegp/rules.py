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
from functools import cache, cached_property
from operator import sub
from pathlib import Path
from string import Formatter
from typing import Callable, Mapping, Sequence

from .model import InstanceAnalysis, ProjectInstance, byte_sum, byte_tables

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


# the functions' semantics, one source template each: plain Python arithmetic,
# so values keep its int/float types. They define the arity of each function.
# The compiled forms follow each of `_CLAMPED` with a range test and call
# `_clamp` only outside [-_HUGE, _HUGE] (NaN included), where it changes the
# value; division takes anything over zero as 1.
_FUNCTIONS: dict[str, str] = {
    "add": "{0} + {1}",
    "sub": "{0} - {1}",
    "mul": "{0} * {1}",
    "div": "1.0 if {1} == 0 else {0} / {1}",
    "min": "min({0}, {1})",
    "max": "max({0}, {1})",
    "abs": "abs({0})",
    "neg": "-{0}",
}
_CLAMPED = frozenset({"add", "sub", "mul", "div"})
FUNCTION_ARITY: dict[str, int] = {
    k: len({f for _, f, _, _ in Formatter().parse(t) if f}) for k, t in _FUNCTIONS.items()}

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

# the deepest tree a rule file or a GP run may hold, a leaf alone being
# depth 1: far above the paper's 8, and far enough below the depth where the
# recursive walks over a tree (pickling first, near 250) exhaust Python's stack
MAX_DEPTH = 64


@dataclass(frozen=True)
class Node:
    """Expression tree node; leaves carry a terminal name, no children.

    A node caches its hash and each of its three compiled forms (`_rank`
    over pairs, `_score` over a group, `_best` over a decision's feasible
    groups) on first use. None of them takes part in
    equality or in the pickled state: string hashes differ between
    processes, and generated functions do not pickle.
    """

    op: str
    children: tuple["Node", ...] = ()

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # hash the unhashed nodes below first, each after its children, so
        # no hash recurses however deep the tree
        stack, below = list(self.children), []
        while stack:
            n = stack.pop()
            if "_hash" not in vars(n):
                below.append(n)
                stack += n.children
        for n in reversed(below):
            n._hash
        return hash((self.op, self.children))

    @cached_property
    def _rank(self) -> Callable:
        return _compile_rank(self)

    @cached_property
    def _score(self) -> Callable:
        return _compile_score(self)

    @cached_property
    def _best(self) -> Callable:
        return _compile_best(self)

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

    def read(depth: int) -> Node:
        nonlocal pos
        if depth > MAX_DEPTH:
            raise ValueError(f"expression nests deeper than {MAX_DEPTH} levels")
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
            children.append(read(depth + 1))
        if pos >= len(tokens):
            raise ValueError("missing ')'")
        pos += 1
        return func(op, *children)

    node = read(1)
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
    """Rule file: one `ordering: <expr>` line, at most one `group: <expr>`."""
    trees: dict[str, Node] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, expr = line.partition(":")
        key = key.strip()
        if key not in ("ordering", "group"):
            raise ValueError(f"unknown rule line {line!r}")
        if key in trees:
            raise ValueError(f"rule file defines {key!r} twice")
        trees[key] = parse_sexpr(expr.strip())
    if "ordering" not in trees:
        raise ValueError("rule file must define an ordering tree")
    return RulePair(trees["ordering"], trees.get("group"))


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


# ---------------------------------------------------------------------------
# terminal semantics
#
# Each terminal is one entry of the tables below: a source expression for its
# value at one pair and one for its value at a group. A tree compiles them
# into three forms, each generated the first time it is used:
#
#   rank(ctx, pairs, rows)  -> the tree's value at every pair, in order;
#   score(ctx, group, rows) -> its value at one group;
#   best(ctx, slots, rows, maximal) -> (group, count): the lowest-scoring
#       feasible group of a decision and how many groups were scored, from
#       a walk that takes and tests whole resource vectors as packed ints.
#
# `rows` is `ctx.instance.analysis.rows`, one static row per (activity, mode)
# pair. `rank` and `score` return the tree's raw value, int or float as the
# arithmetic leaves it; the public wrappers convert it to float, and `best`
# compares the converted values. All three assign the clamped functions'
# plain values and call `_clamp` only out of range (`_CLAMPED`).

# resource terminals, over a demand vector {d} and an expected duration {e};
# `ra` is (mean, max, min) of the free capacity and `left` the capacity left
# after taking {d}. A pair takes its own demand and expected duration, a
# group its summed demand and its members' mean expected duration.
_RESOURCE: dict[str, str] = {
    "AvgRR": "sum({d}) / len({d})",
    "MaxRR": "max({d})",
    "MinRR": "min({d})",
    "AvgRA": "ra[0]",
    "MaxRA": "ra[1]",
    "MinRA": "ra[2]",
    "AvgRLA": "sum(left) / len(left)",
    "MaxRLA": "max(left)",
    "MinRLA": "min(left)",
    "RR": "sum({d})",
    "GRD": "{e} * max({d})",
}

# terminals that depend only on the instance and the pair: expressions over
# activity `a`, mode `mo`, the analysis `ana` and byte tables `work` of its
# `dmin_exp`, evaluated once per instance into the head of every row, in order
_STATIC: dict[str, str] = {
    "ExpDur": "mo.expected",
    "OptDur": "mo.min_duration",
    "PessDur": "mo.max_duration",
    "GRPW": "mo.expected + byte_sum(work, ana.direct_succ_mask[a.id])",
    "GRPW_all": "mo.expected + byte_sum(work, ana.trans_succ_mask[a.id])",
    "TPC": "ana.trans_pred_mask[a.id].bit_count()",
    "DPC": "len(a.predecessors)",
    "TSC": "ana.trans_succ_mask[a.id].bit_count()",
    "DSC": "len(a.successors)",
    **{name: _RESOURCE[name].format(d="mo.demand", e="mo.expected")
       for name in ("AvgRR", "MaxRR", "MinRR", "RR", "GRD")},
}
# the rest of a row: the mode's demand, its packed demand
# (`InstanceAnalysis.pack`), then the activity's direct successor, transitive
# successor, transitive predecessor and direct predecessor masks
_ROW_REST = ("mo.demand", "ana.pack(mo.demand)", "ana.direct_succ_mask[a.id]",
             "ana.trans_succ_mask[a.id]", "ana.trans_pred_mask[a.id]",
             "ana.direct_pred_mask[a.id]")
_DEMAND = len(_STATIC)
_PACKED = _DEMAND + 1
_static_row = eval("lambda ana, work, a, mo: (" + ", ".join([*_STATIC.values(), *_ROW_REST])
                   + ")", {"byte_sum": byte_sum})


def static_rows(ana: InstanceAnalysis) -> list[tuple[tuple, ...]]:
    """The static row of every (activity, mode) pair, indexed `[i][m]`.

    `InstanceAnalysis.rows` builds it once per instance, on first use. It
    keeps no byte tables: only a group form keeps them (`work_bytes`)."""
    work = byte_tables(ana.dmin_exp)
    return [tuple(_static_row(ana, work, a, mo) for mo in a.modes) for a in ana.activities]


# value at one pair: activity `i` with static row `r`
_PAIR: dict[str, str] = {
    "EST": "est(i)",
    "EFT": "est(i) + r[0]",
    "LFT": "H - tail[i]",
    "LST": "H - tail[i] - r[0]",
    **{name: f"r[{k}]" for k, name in enumerate(_STATIC)},
    **{name: t for name, t in _RESOURCE.items() if name not in _STATIC},
}

# value at a group of `n` members: time terminals average the members' pair
# values, summed into `s_<name>`; precedence terminals take the union `u_*`
# of the members' sets; resource terminals take the summed demand `D`
_GROUP: dict[str, str] = {
    **{name: f"s_{name} / n" for name in TIME_TERMINALS},
    "GRPW": "s_ExpDur + byte_sum(work, u_succ)",
    "GRPW_all": "s_ExpDur + byte_sum(work, u_tsucc)",
    "TPC": "u_tpred.bit_count()",
    "DPC": "u_pred.bit_count()",
    "TSC": "u_tsucc.bit_count()",
    "DSC": "u_succ.bit_count()",
    **{name: t.format(d="D", e="(s_ExpDur / n)") for name, t in _RESOURCE.items()},
}

# the aggregates a group carries over its members, taken in member order:
# name -> (value with no member, a member's share, how the share is added).
# A member is activity `i` with static row `r`; `free` is the capacity the
# members leave, as a tuple: the decision form carries it only for a tree
# that reads it, through `left` or `D`.
_AGGREGATE: dict[str, tuple[str, str, str]] = {
    **{f"s_{name}": ("0", _PAIR[name], "{} + {}") for name in TIME_TERMINALS},
    **{u: ("0", f"r[{k}]", "{} | {}") for k, u in
       enumerate(("u_succ", "u_tsucc", "u_tpred", "u_pred"), start=_PACKED + 1)},
    "free": ("av", f"r[{_DEMAND}]", "tuple(map(sub, {}, {}))"),
}

# what the group terminals read of the group besides the aggregates
_AT_GROUP: dict[str, str] = {
    "n": "len(group)",
    "D": "list(map(sub, av, free))",
    "left": "free",
}

# what the forms read once per decision
_DECISION: dict[str, str] = {
    "H": "ctx.horizon",
    "tail": "ctx.instance.analysis.tail",
    "work": "ctx.instance.analysis.work_bytes",
    "est": "ctx.earliest_start",
    "ra": "ctx._avail_stats",
    "av": "ctx.availability",
}


def _extendable(opts, skipped: tuple[int, ...], free: int, guard: int) -> bool:
    """Whether an option of a skipped slot still fits the free capacity.

    `opts[j]` holds slot `j`'s options, each with its packed demand second;
    `free` is the packed free capacity with every guard bit set, so a demand
    fits exactly when subtracting it keeps them all. Demands are
    non-negative, so a group is maximal exactly when none fits."""
    return any((free - o[1]) & guard == guard for j in skipped for o in opts[j])


def _precedes(group: tuple[Pair, ...], other: tuple[Pair, ...]) -> bool:
    """The tie-break between groups of equal score: sorted activity ids
    first, then the groups themselves."""
    return (sorted(i for i, _ in group), group) < (sorted(i for i, _ in other), other)


# the names generated code reads besides its locals, shared by all of it
_RULE_GLOBALS = {"_clamp": _clamp, "byte_sum": byte_sum, "_extendable": _extendable,
                 "_precedes": _precedes, "sub": sub,
                 "min": min, "max": max, "abs": abs, "sum": sum, "len": len,
                 "float": float, "list": list, "tuple": tuple, "map": map}


@cache
def _reads(src: str) -> frozenset[str]:
    """The names a statement of the tables reads or writes (the tables are
    fixed, so the cache stays small)."""
    return frozenset(compile(src, "<rule>", "exec").co_names)


def _names(sources: Sequence[str]) -> set[str]:
    return set().union(*map(_reads, sources))


def _body(tree: Node, table: dict[str, str]) -> tuple[list[str], list[str], str]:
    """How to evaluate `tree` with terminal values from `table`: the table
    entries it reads, then the statements, then the local holding the result.

    Each distinct terminal is computed once, into `t<k>`. Each function node
    becomes one assignment `v<k>` of its `_FUNCTIONS` value, so deep trees
    never nest the generated source; a clamped function's is followed by
    `_clamp` only if a range test fails. Only table entries, templates and
    local names enter the source: symbols are looked up, never pasted.
    """
    terms: dict[str, str] = {}
    lines: list[str] = []
    nodes = 0

    def emit(n: Node) -> str:
        nonlocal nodes
        if not n.children:
            if n.op not in table:
                raise ValueError(f"unknown terminal {n.op!r}")
            return terms.setdefault(n.op, f"t{len(terms)}")
        template = _FUNCTIONS.get(n.op)
        if template is None or FUNCTION_ARITY[n.op] != len(n.children):
            raise ValueError(f"bad function node {n.op!r} with {len(n.children)} children")
        args = [emit(c) for c in n.children]
        v = f"v{nodes}"
        nodes += 1
        lines.append(f"{v} = {template.format(*args)}")
        if n.op in _CLAMPED:
            lines.append(f"if not {-_HUGE!r} <= {v} <= {_HUGE!r}: {v} = _clamp({v})")
        return v

    result = emit(tree)
    exprs = [table[name] for name in terms]
    return exprs, [f"{t} = {e}" for t, e in zip(terms.values(), exprs)] + lines, result


def _define(name: str, head: list[str], loop: str, inner: list[str],
            tail: list[str]) -> Callable:
    """Compile `def name(...)`: `head`, then `inner` under `loop` if given,
    then `tail`."""
    src = [f"def {name}:"] + [f"    {s}" for s in head]
    if loop:
        src += [f"    {loop}"] + [f"        {s}" for s in inner]
    src += [f"    {s}" for s in tail]
    return _exec("\n".join(src) + "\n", name.partition("(")[0])


def _exec(src: str, name: str) -> Callable:
    """The function `name` that the source `src` defines."""
    local: dict = {}
    exec(src, _RULE_GLOBALS, local)
    return local[name]


def _decision_reads(used: set[str]) -> list[str]:
    return [f"{k} = {v}" for k, v in _DECISION.items() if k in used]


def _compile_rank(tree: Node) -> Callable[[DecisionContext, Sequence[Pair], list], list]:
    """The rank form: one loop over the pairs, the tree inlined in it."""
    exprs, lines, result = _body(tree, _PAIR)
    used = _names(exprs)
    left = [f"left = list(map(sub, av, r[{_DEMAND}]))"] if "left" in used else []
    return _define(
        "rank(ctx, pairs, rows)",
        _decision_reads(used | _names(left)) + ["out = []", "append = out.append"],
        "for i, m in pairs:", ["r = rows[i][m]", *left, *lines, f"append({result})"],
        ["return out"])


def _group_parts(tree: Node) -> tuple[dict[str, tuple[str, str, str]], list[str], str, set[str]]:
    """What scoring `tree` at a group takes: the aggregates it reads, the
    statements from them to its value, the local holding the value, and the
    names that the table entries involved read."""
    exprs, lines, result = _body(tree, _GROUP)
    at_group = [f"{k} = {v}" for k, v in _AT_GROUP.items() if k in _names(exprs)]
    used = _names(exprs + at_group)
    aggregates = {k: v for k, v in _AGGREGATE.items() if k in used}
    used |= _names([s for start, share, _ in aggregates.values() for s in (start, share)])
    return aggregates, at_group + lines, result, used


def _compile_score(tree: Node) -> Callable[[DecisionContext, Sequence[Pair], list], float]:
    """The one-group form: one pass over the members for the aggregates the
    tree reads, then the tree once."""
    aggregates, lines, result, used = _group_parts(tree)
    return _define(
        "score(ctx, group, rows)",
        _decision_reads(used) + [f"{k} = {start}" for k, (start, _, _) in aggregates.items()],
        "for i, m in group:" if aggregates else "",
        ["r = rows[i][m]",
         *(f"{k} = {add.format(k, share)}" for k, (_, share, add) in aggregates.items())],
        [*lines, f"return {result}"])


# the decision form; `{...}` marks what a tree fills in. A slot holds plain
# pairs, and each option carries its packed demand `pd` from its static row;
# `F` is the packed free capacity with every guard bit set
# (`InstanceAnalysis.pack_free`)
_BEST = """\
def best(ctx, slots, rows, maximal):
{reads}
    ana = ctx.instance.analysis
    G = ana.lanes[1]
    opts = []
    for slot in slots:
        row = []
        for pair in slot:
            i, m = pair
            r = rows[i][m]
            row.append((pair, r[{packed}]{shares}))
        opts.append(row)
    end = len(slots)
    chosen, low, count = (), None, 0
    stack = [(0, ana.pack_free(ctx.availability), (), (){starts})]
    pop, push = stack.pop, stack.append
    while stack:
        k, F, group, skipped{names} = pop()
        if k == end:
            if group and not (maximal and _extendable(opts, skipped, F, G)):
{leaf}
                value = float({result})
                count += 1
                if count == 1 or value < low or value == low and _precedes(group, chosen):
                    chosen, low = group, value
            continue
        for pair, pd{xs} in opts[k]:
            x = F - pd
            if x & G == G:
                push((k + 1, x, group + (pair,), skipped{sums}))
        push((k + 1, F, group, skipped + (k,){names}))
    return chosen, count
"""


def _compile_best(tree: Node) -> Callable[[DecisionContext, Sequence, list, bool],
                                          tuple[tuple[Pair, ...], int]]:
    """The decision form: the lowest-scoring feasible group of at most one
    option per slot, and how many groups were scored.

    A depth-first walk over skip-or-take choices in slot order, skip first;
    a branch stops as soon as it overdraws a resource. Each state carries
    the packed free capacity, one int, and the aggregates the tree reads,
    each option's shares taken once per decision, so a group is scored
    where the walk reaches it, without a pass over its members. A take is
    one subtraction and one mask test of the packed vectors; the `free`
    tuple is an aggregate like the others, carried only when the tree reads
    `left` or `D`. With `maximal`, a group is scored only if no option of a
    slot it skips still fits. Ties break on `_precedes`.
    """
    aggregates, lines, result, used = _group_parts(tree)
    xs = [f"x{j}" for j in range(len(aggregates))]

    def more(items) -> str:
        return "".join(f", {s}" for s in items)

    return _exec(_BEST.format(
        reads="\n".join(f"    {s}" for s in _decision_reads(used)), packed=_PACKED,
        shares=more(share for _, share, _ in aggregates.values()),
        starts=more(start for start, _, _ in aggregates.values()),
        names=more(aggregates), xs=more(xs),
        sums=more(add.format(k, x) for (k, (_, _, add)), x in zip(aggregates.items(), xs)),
        leaf="\n".join(f"                {s}" for s in lines), result=result), "best")


def rank_values(tree: Node, ctx: DecisionContext, pairs: Sequence[Pair]) -> list:
    """The tree's raw value at every pair, in order, from one compiled call."""
    return tree._rank(ctx, pairs, ctx.instance.analysis.rows)


def eval_pair_priority(tree: Node, ctx: DecisionContext, pair: Pair) -> float:
    """Score one (activity, mode) pair; smaller means more urgent."""
    return float(rank_values(tree, ctx, (pair,))[0])


def eval_group_priority(tree: Node, ctx: DecisionContext,
                        group: Sequence[Pair]) -> float:
    """Score a candidate group; smaller wins the group comparison."""
    if not group:
        raise ValueError("group must be non-empty")
    return float(tree._score(ctx, group, ctx.instance.analysis.rows))
