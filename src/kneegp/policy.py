"""Decision policies for the executor.

Three families:

* sequential: score every eligible (activity, mode) pair with the ordering
  tree and start the single best one;
* knee group: rank the pairs, keep one mode per activity, cut the ranking at
  its knee and let the group tree pick among the feasible groups of the
  surviving pairs;
* full enumeration: consider every skip-or-mode assignment of the eligible
  activities, which is exact and explodes combinatorially.

Pairs are ranked by one function, `rank_pairs`; both group families draw
their candidates from one enumerator, `feasible_groups`, and differ only in
the slots they hand it. Lower scores always win, for pairs and groups alike.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import groupby
from math import prod
from operator import itemgetter, le, sub
from typing import Callable, Iterator, Sequence

from .rules import DecisionContext, Node, Pair, RulePair, eval_group_priority, rank_values
from .rules import eval_pair_priority  # noqa: F401  perfbench's tracer patches this name

POLICY_NAMES = ("sgp", "ggp", "kggp-max", "kggp-all")

DEFAULT_ENUMERATION_LIMIT = 1_000_000

# one slot per activity: its candidate (pair, demand) options
Slot = Sequence[tuple[Pair, Sequence[int]]]


class EnumerationOverflowError(RuntimeError):
    """Exhaustive enumeration would exceed the configured bound."""

    def __init__(self, count: int, limit: int):
        super().__init__(f"enumeration needs {count} candidates, limit is {limit}")
        self.count = count
        self.limit = limit


@dataclass(frozen=True)
class KneeConfig:
    """Tuning of the knee group policy.

    `cap` bounds how many promising pairs are enumerated, `apply_knee` can
    switch the knee cut off for exhaustive comparisons, and
    `group_size_hard_limit` caps the subset count as a safety net.
    """

    cap: int = 10
    retain_maximal_only: bool = True
    group_size_hard_limit: int = DEFAULT_ENUMERATION_LIMIT
    apply_knee: bool = True

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError("cap must be at least 1")
        if self.group_size_hard_limit < 1:
            raise ValueError("hard limit must be at least 1")


@dataclass(frozen=True)
class Decision:
    """The group a group policy starts, with what it looked at."""

    group: tuple[Pair, ...]
    filtered_size: int  # pairs kept for enumeration (knee: before the cap)
    count: int  # knee: groups scored; full: every skip-or-mode assignment


@dataclass(frozen=True)
class Policy:
    """What the executor calls: `decide(ctx, eligible) -> (group, filtered_size)`."""

    decide: Callable[[DecisionContext, Sequence[Pair]], tuple[tuple[Pair, ...], int]]


def rank_pairs(ordering: Node, ctx: DecisionContext,
               eligible: Sequence[Pair]) -> list[tuple[float, Pair]]:
    """(priority, pair) for every eligible pair, best first: the one pair
    order, ties broken on (activity id, mode index). One compiled call
    scores the whole set. Priorities are never NaN (`_clamp`), so the tuples
    sort totally."""
    return sorted(zip(map(float, rank_values(ordering, ctx, eligible)), eligible))


def sequential_decide(ordering: Node, ctx: DecisionContext,
                      eligible: Sequence[Pair]) -> Pair:
    """Best single pair; ties break on (activity id, mode index)."""
    if not eligible:
        raise ValueError("eligible set is empty")
    return rank_pairs(ordering, ctx, eligible)[0][1]


def knee_index(values: Sequence[float]) -> int:
    """Index of the knee of an ascending curve.

    Points (k, values[k]) are min-max normalized to the unit square; the knee
    is the point farthest from the straight line joining the endpoints, first
    one on ties.
    """
    n = len(values)
    if n < 3:
        return n - 1
    lo, hi = values[0], values[-1]
    span = hi - lo
    if span == 0:
        return 0
    best, best_d = 0, -1.0
    for k in range(n):
        # distance to the (0,0)-(1,1) diagonal, up to a constant factor
        d = abs(k / (n - 1) - (values[k] - lo) / span)
        if d > best_d:
            best, best_d = k, d
    return best


def knee_cut(prios: Sequence[float]) -> int:
    """Length of the promising prefix of an ascending ranking.

    Everything scoring at or below the knee priority survives; degenerate
    rankings (two points or an all-equal plateau) survive whole.
    """
    n = len(prios)
    if n <= 2 or prios[0] == prios[-1]:
        return n
    return bisect_right(prios, prios[knee_index(prios)])


def feasible_groups(slots: Sequence[Slot], availability: Sequence[int],
                    maximal: bool = False) -> Iterator[tuple[Pair, ...]]:
    """Every non-empty group of at most one option per slot that fits.

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


def _best_group(tree: Node, ctx: DecisionContext, slots: Sequence[Slot],
                maximal: bool = False) -> tuple[tuple[Pair, ...], int]:
    """Lowest-scoring feasible group and how many groups were scored.

    Ties break on the sorted activity ids, then on the group itself.
    """
    best: tuple[Pair, ...] = ()
    best_key = None
    scored = 0
    for group in feasible_groups(slots, ctx.availability, maximal):
        key = (eval_group_priority(tree, ctx, group),
               sorted(i for i, _ in group), group)
        scored += 1
        if best_key is None or key < best_key:
            best, best_key = group, key
    return best, scored


def knee_group_decide(rules: RulePair, ctx: DecisionContext,
                      eligible: Sequence[Pair],
                      cfg: KneeConfig = KneeConfig()) -> Decision:
    """Pick the group to start now. Total: never raises on valid input.

    The group is drawn from the pairs that survive the knee cut and the cap;
    if none of them fits the free capacity, nothing starts.
    """
    if rules.group is None:
        raise ValueError("knee group policy needs a group tree")

    # the best-ranked mode of each activity, in ranking order
    best: dict[int, tuple[float, Pair]] = {}
    for prio, pair in rank_pairs(rules.ordering, ctx, eligible):
        best.setdefault(pair[0], (prio, pair))
    ranked = list(best.values())

    filtered = knee_cut([p for p, _ in ranked]) if cfg.apply_knee else len(ranked)
    # never enumerate more subsets than the hard limit allows
    width = min(filtered, cfg.cap,
                max(1, (cfg.group_size_hard_limit + 1).bit_length() - 1))
    acts = ctx.instance.activities
    slots = [[((i, m), acts[i].modes[m].demand)] for _, (i, m) in ranked[:width]]
    group, count = _best_group(rules.group, ctx, slots, cfg.retain_maximal_only)
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

    acts = ctx.instance.activities
    slots = [[((i, m), acts[i].modes[m].demand) for _, m in pairs]
             for i, pairs in groupby(sorted(eligible), key=itemgetter(0))]
    count = prod(len(slot) + 1 for slot in slots) - 1
    if count > hard_limit:
        raise EnumerationOverflowError(count, hard_limit)

    group, _ = _best_group(rules.group, ctx, slots)
    return Decision(group, len(eligible), count)


def build_policy(rules: RulePair, name: str, knee: KneeConfig | None = None,
                 hard_limit: int | None = None) -> Policy:
    """Instantiate a policy by its command-line name."""
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}; pick one of {', '.join(POLICY_NAMES)}")
    limit = DEFAULT_ENUMERATION_LIMIT if hard_limit is None else hard_limit
    if limit < 1:
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
        cfg = replace(knee or KneeConfig(), retain_maximal_only=name == "kggp-max")

        def decide(ctx, eligible):
            d = knee_group_decide(rules, ctx, eligible, cfg)
            return d.group, d.filtered_size
    return Policy(decide)
