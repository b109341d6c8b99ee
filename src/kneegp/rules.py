"""Priority rule trees and the terminal set they are built from.

A rule is an expression tree over protected arithmetic whose leaves are
scheduling terminals. Every terminal has a value for one (activity, mode)
pair and a value for a whole group of pairs: time-like terminals are
defined for a pair and a group averages its members; every other terminal
is defined once over a subject, which a pair is to itself and which a group
supplies as its summed demand, its members' mean expected duration and
total expected work, and the unions of their precedence sets.

All time-like terminals are expressed relative to the decision clock, so
shifting an identical state along the time axis never changes a priority.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import attrgetter, sub
from pathlib import Path
from string import Formatter
from typing import Callable, Iterable, Mapping, Sequence

from .model import InstanceAnalysis, ProjectInstance, byte_sum, byte_tables, lazy

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
# `min` and `max` are the builtins' two-argument rule written out, which saves
# a call: the second argument only when strictly less (greater), as the same
# object, NaN and -0.0 included. `abs` stays the builtin: `abs(-0.0)` is 0.0.
# The compiled forms follow each of `_CLAMPED` with a range test and call
# `_clamp` only outside [-_HUGE, _HUGE] (NaN included), where it changes the
# value; division takes anything over zero as 1.
_FUNCTIONS: dict[str, str] = {
    "add": "{0} + {1}",
    "sub": "{0} - {1}",
    "mul": "{0} * {1}",
    "div": "1.0 if {1} == 0 else {0} / {1}",
    "min": "{1} if {1} < {0} else {0}",
    "max": "{1} if {1} > {0} else {0}",
    "abs": "abs({0})",
    "neg": "-{0}",
}
_CLAMPED = frozenset({"add", "sub", "mul", "div"})
FUNCTION_ARITY: dict[str, int] = {
    k: len({f for _, f, _, _ in Formatter().parse(t) if f}) for k, t in _FUNCTIONS.items()}

# short historical spellings accepted on input
_ALIASES = {"LF": "LFT", "LS": "LST", "ES": "EST", "EF": "EFT"}

# the deepest tree a `Node` may be, a leaf alone being depth 1: far above the
# paper's 8, and far below the depth where a walk that recurses once or a few
# times per level exhausts Python's stack, so every walk over a tree may recurse
MAX_DEPTH = 64


@dataclass(frozen=True, init=False)
class Node:
    """Expression tree node; leaves carry a terminal name, no children.

    A node knows its depth and refuses to be built deeper than
    `MAX_DEPTH`, so every walk over a tree may be a plain recursion. On
    first use it caches its hash and its size, each from its children's,
    and each of its four compiled forms (`_rank` and `_pick` over pairs,
    `_score` over a group, `_best` over a decision's feasible groups). None
    of them takes part in equality or in the pickled state: string hashes
    differ between processes, and generated functions do not pickle.
    """

    op: str
    children: tuple["Node", ...] = ()

    def __init__(self, op: str, children: tuple["Node", ...] = ()):
        depth = 1 + max(map(attrgetter("_depth"), children)) if children else 1
        if depth > MAX_DEPTH:
            raise ValueError(f"{op} would nest deeper than {MAX_DEPTH} levels")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_depth", depth)

    def __hash__(self) -> int:
        return self._hash

    @lazy
    def _hash(self) -> int:
        return hash((self.op, self.children))

    @lazy
    def _size(self) -> int:
        return 1 + sum(c._size for c in self.children)

    @lazy
    def _rank(self) -> Callable:
        return _compile_rank(self)

    @lazy
    def _pick(self) -> Callable:
        return _compile_pick(self)

    @lazy
    def _score(self) -> Callable:
        return _compile_score(self)

    @lazy
    def _best(self) -> Callable:
        return _compile_best(self)

    def __eq__(self, other) -> bool:
        # compare each pair of node objects once: two equal trees that each
        # share their subtrees compare in linear time, where a recursion
        # would take time exponential in their depth
        if other.__class__ is not Node:
            return NotImplemented
        stack, seen = [(self, other)], set()
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if a.op != b.op or len(a.children) != len(b.children):
                return False
            seen.add((id(a), id(b)))
            stack += zip(a.children, b.children)
        return True

    def __reduce__(self):
        # pickle's memo keeps a shared subtree shared
        return Node, (self.op, self.children)

    def size(self) -> int:
        """Node count, a shared subtree counted as often as it occurs."""
        return self._size

    def depth(self) -> int:
        return self._depth

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
    if not node.children:
        return node.op
    return f"({node.op} {' '.join(map(format_sexpr, node.children))})"


def parse_sexpr(text: str) -> Node:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    node, pos = _read(tokens, 0, 1)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens: {' '.join(tokens[pos:])}")
    return node


def _read(tokens: list[str], pos: int, depth: int) -> tuple[Node, int]:
    """The expression at `tokens[pos]`, `depth` levels deep, and the position after it."""
    if depth > MAX_DEPTH:
        raise ValueError(f"expression nests deeper than {MAX_DEPTH} levels")
    if pos >= len(tokens):
        raise ValueError("unexpected end of expression")
    tok = tokens[pos]
    pos += 1
    if tok == ")":
        raise ValueError("unexpected ')'")
    if tok != "(":
        return leaf(tok), pos
    if pos >= len(tokens):
        raise ValueError("unexpected end of expression")
    op = tokens[pos]
    pos += 1
    children = []
    while pos < len(tokens) and tokens[pos] != ")":
        child, pos = _read(tokens, pos, depth + 1)
        children.append(child)
    if pos >= len(tokens):
        raise ValueError("missing ')'")
    return func(op, *children), pos + 1


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
    """The simulation state at one decision point.

    `free` is the packed free capacity (`InstanceAnalysis.pack_free`) and
    `running` maps an activity id to its (mode index, start time). Remaining
    work of running activities is estimated from expected durations; realized
    durations of anything unfinished are deliberately not visible here.

    The constructor copies what it is handed, so the caller may go on
    changing its own state. `live`, which `sim.solve` uses, reads the
    caller's `completed` set and `running` dict without a copy: a live
    context is valid only until the caller next changes them, so a policy
    reads every `lazy` attribute inside its `decide` call.

    Every completed or running activity must have all its predecessors
    completed, as in any state `sim.solve` reaches. The time terminals rely
    on it: then no path from an unfinished activity to the sink passes
    through a completed or running one, so `horizon` takes no forward pass.
    The compiled forms take EST as 0.0 and EFT as the expected duration, their
    values at a ready pair (unstarted, predecessors completed), as every
    eligible pair of `sim.solve` is.
    """

    def __init__(self, instance: ProjectInstance, clock: int, free: int,
                 completed: Iterable[int], running: Mapping[int, tuple[int, int]]):
        self.instance = instance
        self.clock = clock
        self.free = free
        self.completed = frozenset(completed)
        self.running = dict(running)
        self._cursor = [0]

    @classmethod
    def live(cls, instance: ProjectInstance, clock: int, free: int,
             completed: set[int], running: dict[int, tuple[int, int]],
             cursor: list[int]) -> DecisionContext:
        """A context over the caller's own `completed` and `running`, which
        it does not copy. `cursor` is a one-item list that every context of
        one solve shares: `horizon` moves it past started activities, and
        the started set of a solve only grows."""
        ctx = cls.__new__(cls)
        ctx.instance = instance
        ctx.clock = clock
        ctx.free = free
        ctx.completed = completed
        ctx.running = running
        ctx._cursor = cursor
        return ctx

    @lazy
    def availability(self) -> tuple[int, ...]:
        return self.instance.analysis.unpack(self.free)

    @lazy
    def _avail_stats(self) -> tuple[float, int, int]:
        a = self.availability
        return (sum(a) / len(a), max(a), min(a))

    @lazy
    def horizon(self) -> float:
        """Projected completion of the whole project, relative to the clock,
        as a float in every state: the longest chain, `rem + tail` from a
        running activity with expected work `rem` left or `dmin + tail` from
        an unstarted one. The forward pass from the frontier, which these
        chains replace, reaches the sink no sooner than any of them ends and
        exactly when the longest does.

        The longest unstarted chain is that of the first activity of
        `horizon_order` that is neither completed nor running. The cursor
        keeps its position, and every activity before it has started."""
        ana = self.instance.analysis
        acts, tail, clock = ana.activities, ana.tail, self.clock
        done, running, cursor = self.completed, self.running, self._cursor
        chain = 0
        for i, (m, start) in running.items():
            c = start + acts[i].modes[m].expected - clock + tail[i]
            if c > chain:
                chain = c
        order = ana.horizon_order
        for k in range(cursor[0], len(order)):
            i = order[k]
            if i not in done and i not in running:
                cursor[0] = k
                if ana.dmin_exp[i] + tail[i] > chain:
                    chain = ana.dmin_exp[i] + tail[i]
                break
        return float(chain)


# ---------------------------------------------------------------------------
# terminal semantics
#
# Each terminal is one entry of the tables below, which give its value at
# one pair (`_PAIR`) and at a group (`_GROUP`). A tree compiles them into
# four forms, each generated the first time it is used:
#
#   rank(ctx, pairs)  -> the tree's value at every pair, in order;
#   pick(ctx, pairs)  -> the pair of lowest float value, ties to the lowest
#       pair, as `min(zip(map(float, rank(ctx, pairs)), pairs))[1]`;
#   score(ctx, group) -> its value at one group;
#   best(ctx, slots, maximal) -> (group, count): the lowest-scoring
#       feasible group of a decision and how many groups were scored, from
#       a walk that takes and tests whole resource vectors as packed ints
#       and carries a group's summed demand as one wide int.
#
# Each reads `ctx.instance.analysis.rows`, one static row per (activity,
# mode) pair. `rank` and `score` return the tree's raw value, int or float as
# the arithmetic leaves it (`EST EFT LFT LST` are floats); the public wrappers
# convert it to float, as `pick` and `best` do before comparing. All four
# assign the clamped functions' plain values and call `_clamp` only out of range.

@cache
def _reads(src: str) -> frozenset[str]:
    """The names a table statement reads or writes (cached: the tables are fixed)."""
    return frozenset(compile(src, "<rule>", "exec").co_names)


TIME_TERMINALS = ("EST", "EFT", "LST", "LFT", "ExpDur", "OptDur", "PessDur")
# the other terminals, each a template over a subject: its demand vector {d},
# expected duration {e}, expected work {w} and direct successor, transitive
# successor, transitive predecessor and direct predecessor masks. `ra` is
# (mean, max, min) of the free capacity and `left` the capacity left after
# taking {d}. A pair is its own subject; a group's is its summed demand, its
# members' mean expected duration and total expected work, and the unions of
# their masks. `random_tree` draws a terminal by its position: keep the order.
_SUBJECT: dict[str, str] = {
    "GRPW": "{w} + byte_sum(work, {succ})",
    "GRPW_all": "{w} + byte_sum(work, {tsucc})",
    "TPC": "{tpred}.bit_count()",
    "DPC": "{pred}.bit_count()",
    "TSC": "{tsucc}.bit_count()",
    "DSC": "{succ}.bit_count()",
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
ALL_TERMINALS = TIME_TERMINALS + tuple(_SUBJECT)

# a pair as the subject, over activity `a`, mode `mo` and the analysis `ana`
_MASKS = ("succ", "tsucc", "tpred", "pred")
_OWN = {"d": "mo.demand", "e": "mo.expected", "w": "mo.expected",
        "succ": "ana.direct_succ_mask[a.id]", "tsucc": "ana.trans_succ_mask[a.id]",
        "tpred": "ana.trans_pred_mask[a.id]", "pred": "ana.direct_pred_mask[a.id]"}

# terminals that depend only on the instance and the pair, over those and byte
# tables `work` of `dmin_exp`, evaluated once per instance into the head of
# every row, in order; among them every subject terminal reading neither `ra` nor `left`
_STATIC: dict[str, str] = {
    "ExpDur": "mo.expected",
    "OptDur": "mo.min_duration",
    "PessDur": "mo.max_duration",
    **{name: src for name, src in ((n, t.format(**_OWN)) for n, t in _SUBJECT.items())
       if not _reads(src) & {"ra", "left"}},
}
# the rest of a row: the mode's demand, then the pair's four masks
_ROW_REST = (_OWN["d"], *(_OWN[k] for k in _MASKS))
_DEMAND = len(_STATIC)
_static_row = eval("lambda ana, work, a, mo: (" + ", ".join([*_STATIC.values(), *_ROW_REST])
                   + ")", {"byte_sum": byte_sum})


def static_rows(ana: InstanceAnalysis) -> list[tuple[tuple, ...]]:
    """The static row of every (activity, mode) pair, indexed `[i][m]`.

    `InstanceAnalysis.rows` builds it once per instance, on first use. It
    keeps no byte tables: only a group form keeps them (`work_bytes`)."""
    work = byte_tables(ana.dmin_exp)
    return [tuple(_static_row(ana, work, a, mo) for mo in a.modes) for a in ana.activities]


# value at one ready pair: activity `i` with static row `r`
_PAIR: dict[str, str] = {
    "EST": "0.0",
    "EFT": "0.0 + r[0]",
    "LFT": "H - tail[i]",
    "LST": "H - tail[i] - r[0]",
    **{name: f"r[{k}]" for k, name in enumerate(_STATIC)},
    **{name: t for name, t in _SUBJECT.items() if name not in _STATIC},
}

# value at a group of `n` members: time terminals average the members' pair
# values, summed into `s_<name>`; the others take the group as their subject,
# with the summed demand `D` and the unions `u_<mask>` of the members' masks
_GROUP: dict[str, str] = {
    **{name: f"s_{name} / n" for name in TIME_TERMINALS},
    **{name: t.format(d="D", e="(s_ExpDur / n)", w="s_ExpDur",
                      **{k: f"u_{k}" for k in _MASKS}) for name, t in _SUBJECT.items()},
}

# the aggregates a group carries over its members, taken in member order:
# name -> (value with no member, a member's share, how the share is added).
# A member is pair `(i, m)` with static row `r`. `free` is the capacity the
# members leave, as a tuple, and `P` their summed demand as one int in the
# wide layout (`InstanceAnalysis.wide_width`); each form carries the one its
# `D` and `left` read, and only for a tree that reads them.
_AGGREGATE: dict[str, tuple[str, str, str]] = {
    **{f"s_{name}": ("0", _PAIR[name], "{} + {}") for name in TIME_TERMINALS},
    **{f"u_{k}": ("0", f"r[{j}]", "{} | {}") for j, k in enumerate(_MASKS, start=_DEMAND + 1)},
    "free": ("av", f"r[{_DEMAND}]", "tuple(map(sub, {}, {}))"),
    "P": ("0", "wide[i][m]", "{} + {}"),
}

# what the group terminals read of the group besides the aggregates: in the
# one-group form, which scores any group, overdrawn ones too, from tuples
_AT_GROUP: dict[str, str] = {
    "n": "len(group)",
    "D": "list(map(sub, av, free))",
    "left": "free",
}
# and in the decision form, from the lanes of `P` and of the wide-packed
# availability `A` less `P`: every group the walk reaches fits, so no lane
# of either leaves its range
_AT_BEST: dict[str, str] = {**_AT_GROUP, "D": "split(P)", "left": "split(A - P)"}

# what the forms read once per decision
_DECISION: dict[str, str] = {
    "rows": "ctx.instance.analysis.rows",
    "H": "ctx.horizon",
    "tail": "ctx.instance.analysis.tail",
    "work": "ctx.instance.analysis.work_bytes",
    "ra": "ctx._avail_stats",
    "av": "ctx.availability",
    "wide": "ctx.instance.analysis.wide_demands",
    "split": "ctx.instance.analysis.split",
    "A": "ctx.instance.analysis.pack_wide(ctx.availability)",
}


def _extendable(opts, skipped: int, free: int, guard: int) -> bool:
    """Whether an option of a skipped slot still fits the free capacity.

    `opts[j]` holds slot `j`'s options, each with its packed demand second,
    and bit `j` of `skipped` is set for each skipped slot `j`; `free` is
    the packed free capacity with every guard bit set, so a demand fits
    exactly when subtracting it keeps them all. Demands are non-negative,
    so a group is maximal exactly when none fits."""
    while skipped:
        bit = skipped & -skipped
        for o in opts[bit.bit_length() - 1]:
            if (free - o[1]) & guard == guard:
                return True
        skipped ^= bit
    return False


def _ids_before(a: int, b: int) -> bool:
    """Whether the activity ids of mask `a`, sorted, come before those of
    mask `b` as lists: the tie-break between groups of equal score.

    Both lists agree below `e`, the lowest id that only one of them holds.
    If `a` holds it, `a` comes first when `b` goes on past `e`; if `b`
    holds it, when `a` ends before `e`."""
    e = a ^ b
    e &= -e
    return b >= e << 1 if a & e else a < e


# the names generated code reads besides its locals, shared by all of it
_RULE_GLOBALS = {"_clamp": _clamp, "byte_sum": byte_sum, "_extendable": _extendable,
                 "_ids_before": _ids_before, "sub": sub,
                 "min": min, "max": max, "abs": abs, "sum": sum, "len": len,
                 "float": float, "list": list, "tuple": tuple, "map": map}


def _names(sources: Sequence[str]) -> set[str]:
    return set().union(*map(_reads, sources))


def _body(tree: Node, table: dict[str, str]) -> tuple[list[str], list[str], str]:
    """How to evaluate `tree` with terminal values from `table`: the table
    entries it reads, then the statements, then the local holding the result.

    Each distinct terminal is computed once, into `t<k>`, and each distinct
    function node object once, into `v<k>`, numbered in post-order, as one
    assignment of its `_FUNCTIONS` value, so the source never nests; a
    clamped function's is followed by `_clamp` only if a range test fails.
    Only table entries, templates and local names enter the source: symbols
    are looked up, never pasted.
    """
    terms: dict[str, str] = {}
    lines: list[str] = []
    result = _emit(tree, table, terms, lines, {})
    exprs = [table[name] for name in terms]
    return exprs, [f"{t} = {e}" for t, e in zip(terms.values(), exprs)] + lines, result


def _emit(n: Node, table: dict[str, str], terms: dict[str, str], lines: list[str],
          done: dict[int, str]) -> str:
    """The local holding `n`'s value, its statements appended on first visit."""
    if not n.children:
        if n.op not in table:
            raise ValueError(f"unknown terminal {n.op!r}")
        return terms.setdefault(n.op, f"t{len(terms)}")
    if id(n) in done:
        return done[id(n)]
    if n.op not in _FUNCTIONS or FUNCTION_ARITY[n.op] != len(n.children):
        raise ValueError(f"bad function node {n.op!r} with {len(n.children)} children")
    args = [_emit(c, table, terms, lines, done) for c in n.children]
    v = done[id(n)] = f"v{len(done)}"
    lines.append(f"{v} = {_FUNCTIONS[n.op].format(*args)}")
    if n.op in _CLAMPED:
        lines.append(f"if not {-_HUGE!r} <= {v} <= {_HUGE!r}: {v} = _clamp({v})")
    return v


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


def _pair_loop(tree: Node) -> tuple[list[str], list[str], str]:
    """What the pair forms share: the per-decision reads, the statements
    from a pair `i, m` to the tree's value, and the local holding it."""
    exprs, lines, result = _body(tree, _PAIR)
    used = _names(exprs)
    fetch = ["r = rows[i][m]"] + (
        [f"left = list(map(sub, av, r[{_DEMAND}]))"] if "left" in used else [])
    return _decision_reads(used | _names(fetch)), fetch + lines, result


def _compile_rank(tree: Node) -> Callable[[DecisionContext, Sequence[Pair]], list]:
    """The rank form: one loop over the pairs, the tree inlined in it."""
    reads, lines, result = _pair_loop(tree)
    return _define(
        "rank(ctx, pairs)", reads + ["out = []", "append = out.append"],
        "for i, m in pairs:", [*lines, f"append({result})"],
        ["return out"])


def _compile_pick(tree: Node) -> Callable[[DecisionContext, Sequence[Pair]], Pair]:
    """The pick form: the rank form's loop, keeping the best pair so far
    instead of a list. A pair replaces it on a lower float value, or on an
    equal one if the pair itself is lower, as a `min` over (value, pair)
    tuples does; it returns the eligible pair object itself."""
    reads, lines, result = _pair_loop(tree)
    return _define(
        "pick(ctx, pairs)", reads + ["best = None"],
        "for pair in pairs:", [
            "i, m = pair", *lines, f"value = float({result})",
            "if best is None or value < low or value == low and pair < best:",
            "    best, low = pair, value"],
        ["return best"])


def _group_parts(tree: Node, at: dict[str, str]) -> tuple[dict[str, tuple[str, str, str]],
                                                          list[str], str, set[str]]:
    """What scoring `tree` at a group takes, with `D`, `left` and `n` read
    as `at` gives them: the aggregates it reads, the statements from them
    to its value, the local holding the value, and the names that the table
    entries involved read."""
    exprs, lines, result = _body(tree, _GROUP)
    at_group = [f"{k} = {v}" for k, v in at.items() if k in _names(exprs)]
    used = _names(exprs + at_group)
    aggregates = {k: v for k, v in _AGGREGATE.items() if k in used}
    used |= _names([s for start, share, _ in aggregates.values() for s in (start, share)])
    return aggregates, at_group + lines, result, used


def _compile_score(tree: Node) -> Callable[[DecisionContext, Sequence[Pair]], float]:
    """The one-group form: one pass over the members for the aggregates the
    tree reads, then the tree once."""
    aggregates, lines, result, used = _group_parts(tree, _AT_GROUP)
    fetch = ["r = rows[i][m]"] if aggregates else []
    return _define(
        "score(ctx, group)",
        _decision_reads(used | _names(fetch))
        + [f"{k} = {start}" for k, (start, _, _) in aggregates.items()],
        "for i, m in group:" if aggregates else "",
        [*fetch, *(f"{k} = {add.format(k, share)}" for k, (_, share, add) in aggregates.items())],
        [*lines, f"return {result}"])


# the decision form; `{...}` marks what a tree fills in. A slot holds plain
# pairs, and each option carries its packed demand `pd` (`ana.options`) and
# its activity's bit; `F` is the packed free capacity the walk has left,
# `ctx.free` at its root, `skipped` has bit `k` set for each skipped slot
# `k`, and `ids` is the mask of the members' activity ids
_BEST = """\
def best(ctx, slots, maximal):
{reads}
    ana = ctx.instance.analysis
    rows, options = ana.rows, ana.options
    G = ana.lanes[1]
    opts = []
    for slot in slots:
        row = []
        for pair in slot:
            i, m = pair
            r = rows[i][m]
            row.append((pair, options[i][m][1]{shares}, 1 << i))
        opts.append(row)
    end = len(slots)
    chosen, low, mask, count = (), None, 0, 0
    stack = [(0, ctx.free, (), 0, 0{starts})]
    pop, push = stack.pop, stack.append
    while stack:
        k, F, group, skipped, ids{names} = pop()
        if k == end:
            if group and not (maximal and _extendable(opts, skipped, F, G)):
{leaf}
                value = float({result})
                count += 1
                if count == 1 or value < low or value == low and (
                        _ids_before(ids, mask) or ids == mask and group < chosen):
                    chosen, low, mask = group, value, ids
            continue
        for pair, pd{xs}, bit in opts[k]:
            x = F - pd
            if x & G == G:
                push((k + 1, x, group + (pair,), skipped, ids | bit{sums}))
        push((k + 1, F, group, skipped | 1 << k, ids{names}))
    return chosen, count
"""


def _compile_best(tree: Node) -> Callable[[DecisionContext, Sequence, bool],
                                          tuple[tuple[Pair, ...], int]]:
    """The decision form: the lowest-scoring feasible group of at most one
    option per slot, and how many groups were scored. The slots hold
    distinct activities.

    A depth-first walk over skip-or-take choices in slot order, skip first;
    a branch stops as soon as it overdraws a resource. Each state carries
    the packed free capacity, one int, and the aggregates the tree reads,
    each option's shares taken once per decision, so a group is scored
    where the walk reaches it, without a pass over its members. A take is
    one subtraction and one mask test of the packed vectors. A tree that
    reads `left` or `D` carries the summed demand `P` in the wide layout,
    one addition per take, and splits `P` and `A - P` into lanes only at a
    scored group. With `maximal`, a group is scored only if no option of a
    slot it skips still fits. Equal scores break on the sorted activity
    ids, compared as masks (`_ids_before`), then on the groups themselves.
    """
    aggregates, lines, result, used = _group_parts(tree, _AT_BEST)
    xs = [f"x{j}" for j in range(len(aggregates))]

    def more(items) -> str:
        return "".join(f", {s}" for s in items)

    return _exec(_BEST.format(
        reads="\n".join(f"    {s}" for s in _decision_reads(used)),
        shares=more(share for _, share, _ in aggregates.values()),
        starts=more(start for start, _, _ in aggregates.values()),
        names=more(aggregates), xs=more(xs),
        sums=more(add.format(k, x) for (k, (_, _, add)), x in zip(aggregates.items(), xs)),
        leaf="\n".join(f"                {s}" for s in lines), result=result), "best")


def eval_pair_priority(tree: Node, ctx: DecisionContext, pair: Pair) -> float:
    """Score one (activity, mode) pair; smaller means more urgent."""
    return float(tree._rank(ctx, (pair,))[0])


def eval_group_priority(tree: Node, ctx: DecisionContext,
                        group: Sequence[Pair]) -> float:
    """Score a candidate group; smaller wins the group comparison."""
    if not group:
        raise ValueError("group must be non-empty")
    return float(tree._score(ctx, group))
