"""Decision policies for the executor.

Three families:

* sequential: score every eligible (activity, mode) pair with the ordering
  tree and start the single best one;
* knee group: rank the pairs, keep one mode per activity, cut the ranking at
  its knee and let the group tree pick among the feasible groups of the
  surviving pairs;
* full enumeration: consider every skip-or-mode assignment of the eligible
  activities, which is exact and explodes combinatorially.

Pairs are ranked by one function, `rank_pairs`. Both group families choose
with one call to the group tree's compiled decision form, which walks the
feasible groups of the slots it is handed and scores each; they differ only
in the slots. Lower scores always win, for pairs and groups alike.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from math import prod
from operator import itemgetter
from typing import Callable, ClassVar, Sequence

from .rules import DecisionContext, Node, Pair, RulePair
# perfbench's tracer patches these names
from .rules import eval_group_priority, eval_pair_priority  # noqa: F401

POLICY_NAMES = ("sgp", "ggp", "kggp-max", "kggp-all")

DEFAULT_ENUMERATION_LIMIT = 1_000_000

# one slot per activity: its candidate pairs
Slot = Sequence[Pair]


class EnumerationOverflowError(RuntimeError):
    """Exhaustive enumeration would exceed the configured bound."""

    def __init__(self, count: int, limit: int):
        super().__init__(f"enumeration needs {count} candidates, limit is {limit}")
        self.count = count
        self.limit = limit


@dataclass(frozen=True)
class KneeConfig:
    """Tuning of the knee group policy.

    `cap` bounds how many promising pairs are enumerated, and
    `group_size_hard_limit` caps the subset count as a safety net. The knee
    cut always runs, and whether only maximal groups are scored is the
    policy's name, not a setting.
    """

    what: ClassVar[str] = "knee config"
    cap: int = 10
    group_size_hard_limit: int = DEFAULT_ENUMERATION_LIMIT

    def __post_init__(self):
        if not self.cap >= 1:
            raise ValueError("cap must be at least 1")
        if not self.group_size_hard_limit >= 1:
            raise ValueError("hard limit must be at least 1")


@dataclass(frozen=True)
class Decision:
    """The group a group policy starts, with what it looked at."""

    group: tuple[Pair, ...]
    filtered_size: int  # pairs kept for enumeration (knee: before the cap)
    count: int  # knee: groups scored; full: every skip-or-mode assignment


@dataclass(frozen=True)
class Policy:
    """What the executor calls: `decide(ctx, eligible) -> (group, filtered_size)`.

    The group is a jointly resource-feasible set of pairs drawn from the
    eligible set with at most one mode per activity, possibly empty;
    `filtered_size` is the number of pairs that survived the policy's own
    filtering, for the decision log.
    """

    decide: Callable[[DecisionContext, Sequence[Pair]], tuple[tuple[Pair, ...], int]]


def rank_pairs(ordering: Node, ctx: DecisionContext,
               eligible: Sequence[Pair]) -> list[tuple[float, Pair]]:
    """(priority, pair) for every eligible pair, best first: the one pair
    order, ties broken on (activity id, mode index). One compiled call
    scores the whole set. Priorities are never NaN (`_clamp`), so the tuples
    sort totally."""
    return sorted(zip(map(float, ordering._rank(ctx, eligible)), eligible))


def sequential_decide(ordering: Node, ctx: DecisionContext,
                      eligible: Sequence[Pair]) -> Pair:
    """Best single pair; ties break on (activity id, mode index). One
    compiled call (the pick form) scores the set and keeps the best pair."""
    if not eligible:
        raise ValueError("eligible set is empty")
    return ordering._pick(ctx, eligible)


def knee_cut(prios: Sequence[float]) -> int:
    """Length of the promising prefix of an ascending ranking.

    Points (k, prios[k]) are min-max normalized to the unit square; the knee
    is the point farthest from the straight line joining the endpoints, first
    one on ties. Everything scoring at or below the knee priority survives;
    degenerate rankings (two points or an all-equal plateau) survive whole.
    """
    n = len(prios)
    if n <= 2 or prios[0] == prios[-1]:
        return n
    lo, span = prios[0], prios[-1] - prios[0]
    knee, best_d = 0, -1.0
    for k in range(n):
        # distance to the (0,0)-(1,1) diagonal, up to a constant factor
        d = abs(k / (n - 1) - (prios[k] - lo) / span)
        if d > best_d:
            knee, best_d = k, d
    return bisect_right(prios, prios[knee])


def _best_group(tree: Node, ctx: DecisionContext, slots: Sequence[Slot],
                maximal: bool = False) -> tuple[tuple[Pair, ...], int]:
    """Lowest-scoring feasible group of at most one option per slot, and
    how many groups were scored: one call to the group tree's decision form.

    Ties break on the sorted activity ids, then on the group itself. A lone
    option that fits is the only feasible group, so it is taken unscored.
    """
    if len(slots) == 1 and len(slots[0]) == 1:
        i, m = pair = slots[0][0]
        ana = ctx.instance.analysis
        G = ana.lanes[1]
        if (ctx.free - ana.options[i][m][1]) & G == G:
            return (pair,), 1
    return tree._best(ctx, slots, maximal)


def knee_group_decide(rules: RulePair, ctx: DecisionContext,
                      eligible: Sequence[Pair],
                      cfg: KneeConfig = KneeConfig(),
                      maximal: bool = True) -> Decision:
    """Pick the group to start now. Total: never raises on valid input.

    The group is drawn from the pairs that survive the knee cut and the cap;
    if none of them fits the free capacity, nothing starts. With `maximal`
    (`kggp-max`) only groups that no further surviving pair can join are
    scored.
    """
    if rules.group is None:
        raise ValueError("knee group policy needs a group tree")

    # the best-ranked mode of each activity, in ranking order
    best: dict[int, tuple[float, Pair]] = {}
    for prio, pair in rank_pairs(rules.ordering, ctx, eligible):
        best.setdefault(pair[0], (prio, pair))
    ranked = list(best.values())

    filtered = knee_cut([p for p, _ in ranked])
    # never enumerate more subsets than the hard limit allows
    width = min(filtered, cfg.cap,
                max(1, (cfg.group_size_hard_limit + 1).bit_length() - 1))
    slots = [[pair] for _, pair in ranked[:width]]
    group, count = _best_group(rules.group, ctx, slots, maximal)
    return Decision(group, filtered, count)


def full_enumeration_decide(rules: RulePair, ctx: DecisionContext,
                            eligible: Sequence[Pair],
                            hard_limit: int = DEFAULT_ENUMERATION_LIMIT,
                            ) -> Decision:
    """Exact group choice over every skip-or-mode assignment.

    The candidate count is (modes + 1) per activity, combined, minus the
    all-skip assignment. Raises EnumerationOverflowError beyond the limit.
    """
    if rules.group is None:
        raise ValueError("full enumeration needs a group tree")

    slots = [list(pairs) for _, pairs in groupby(sorted(eligible), key=itemgetter(0))]
    count = prod(len(slot) + 1 for slot in slots) - 1
    if count > hard_limit:
        raise EnumerationOverflowError(count, hard_limit)

    group, _ = _best_group(rules.group, ctx, slots)
    return Decision(group, len(eligible), count)


def check_policy_name(name: str) -> None:
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}; pick one of {', '.join(POLICY_NAMES)}")


def build_policy(rules: RulePair, name: str, knee: KneeConfig | None = None,
                 hard_limit: int | None = None) -> Policy:
    """Instantiate a policy by its command-line name."""
    check_policy_name(name)
    limit = DEFAULT_ENUMERATION_LIMIT if hard_limit is None else hard_limit
    if not limit >= 1:
        raise ValueError("hard limit must be at least 1")
    if name == "sgp":
        def decide(ctx, eligible):
            return (sequential_decide(rules.ordering, ctx, eligible),), len(eligible)
        return Policy(decide)
    if rules.group is None:
        raise ValueError(f"policy {name} needs a group tree")
    if name == "ggp":
        def decide(ctx, eligible):
            d = full_enumeration_decide(rules, ctx, eligible, limit)
            return d.group, d.filtered_size
    else:
        cfg, maximal = knee or KneeConfig(), name == "kggp-max"

        def decide(ctx, eligible):
            d = knee_group_decide(rules, ctx, eligible, cfg, maximal)
            return d.group, d.filtered_size
    return Policy(decide)
