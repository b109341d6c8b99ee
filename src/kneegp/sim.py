"""Discrete-time executor for the dynamic multi-mode scheduling problem.

Durations are uncertain: an activity's realized duration is drawn when it
starts in a mode, from an independent per-pair stream, so a table that draws
each pair on its first read gives the same runs as one drawn whole in advance.
Policies see a DecisionContext snapshot and never a realized duration of
anything unfinished.
"""
from __future__ import annotations

import hashlib
import random
from operator import le
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import ProjectInstance, Schedule, ScheduleEntry, make_schedule
from .policy import Policy
from .rules import DecisionContext, Pair


def derive_seed(*parts) -> int:
    """Stable 64-bit sub-seed from a tuple of ints and strings."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def realized_duration(inst: ProjectInstance, seed: int, i: int, m: int) -> int:
    """The duration pair (i, m) would take under this scenario seed."""
    mo = inst.activities[i].modes[m]
    if mo.min_duration == mo.max_duration:
        return mo.min_duration
    rng = random.Random(derive_seed(seed, i, m))
    return rng.randint(mo.min_duration, mo.max_duration)


class DurationTable:
    """One realization of every (activity, mode) duration, drawn on demand.

    `duration(i, m)` draws a pair on its first read and keeps the value, so
    a table shared by many solves draws each pair at most once. A table
    without a seed reads the expected durations."""

    def __init__(self, inst: ProjectInstance, seed: int | None = None):
        self.inst = inst
        self.seed = seed
        self._drawn: dict[Pair, int] = {}

    def duration(self, i: int, m: int) -> int:
        d = self._drawn.get((i, m))
        if d is None:
            if self.seed is None:
                d = self.inst.activities[i].modes[m].expected
            else:
                d = realized_duration(self.inst, self.seed, i, m)
            self._drawn[i, m] = d
        return d


def sample_durations(inst: ProjectInstance, seed: int) -> DurationTable:
    return DurationTable(inst, seed)


class PolicyContractError(RuntimeError):
    """The policy returned something the executor refuses to repair."""


@dataclass(frozen=True)
class DecisionRecord:
    clock: int
    eligible_size: int
    filtered_size: int
    group: tuple[Pair, ...]


@dataclass(frozen=True)
class SimResult:
    schedule: Schedule
    decisions: tuple[DecisionRecord, ...]

    @property
    def makespan(self) -> int:
        return self.schedule.makespan


def eligible_set(inst: ProjectInstance, ready: Iterable[int],
                 availability: Sequence[int]) -> list[Pair]:
    """Pairs of the ready activities whose demand fits the free capacity
    right now, ordered by (activity, mode)."""
    out = []
    for i in sorted(ready):
        for m, mo in enumerate(inst.activities[i].modes):
            if all(map(le, mo.demand, availability)):
                out.append((i, m))
    return out


def solve(inst: ProjectInstance, policy: Policy,
          durations: DurationTable) -> SimResult:
    """Run the parallel generation scheme to completion.

    When nothing more can start, the clock jumps to the next completion (one
    tick if nothing is running), so the schedule and decision log are those a
    tick-by-tick executor would produce. The ready set (unstarted activities
    whose predecessors are all complete) is kept up to date as activities
    start and complete, instead of being rescanned at every decision. Within
    one clock free capacity only shrinks, so after a start the next eligible
    list is the last one minus the started activities and the modes that no
    longer fit; the ready set is rescanned when the clock advances or a
    zero-duration start completes.
    """
    acts = inst.activities
    completed = {inst.dummy_start}
    running: dict[int, tuple[int, int, int]] = {}  # i -> (mode, start, end)
    avail = list(inst.capacities)
    entries: dict[int, ScheduleEntry] = {}
    decisions: list[DecisionRecord] = []
    end_preds = acts[inst.dummy_end].predecessors
    waiting = [len(a.predecessors) for a in acts]  # unfinished predecessors
    ready: set[int] = set()
    real = inst.non_dummy_ids()

    def complete(i: int) -> None:
        completed.add(i)
        for j in acts[i].successors:
            waiting[j] -= 1
            if not waiting[j] and j in real:
                ready.add(j)

    complete(inst.dummy_start)
    # any schedule finishes within the serial sum of worst-case durations
    guard = 1 + sum(max(mo.max_duration for mo in a.modes) for a in acts)
    t = 0

    while not end_preds <= completed:
        done_now = [i for i, (_, _, e) in running.items() if e <= t]
        for i in done_now:
            m, _, _ = running.pop(i)
            for r, k in enumerate(acts[i].modes[m].demand):
                avail[r] += k
            complete(i)

        elig = eligible_set(inst, ready, avail)
        while elig:
            ctx = DecisionContext(
                inst, t, tuple(avail), frozenset(completed),
                {i: (m, s) for i, (m, s, _) in running.items()},
            )
            group, filtered = policy.decide(ctx, elig)
            group = tuple(group)
            if not group:
                break
            _check_group(inst, group, elig, avail)
            decisions.append(DecisionRecord(t, len(elig), filtered, group))
            zero_start = False
            for i, m in group:
                ready.discard(i)
                d = durations.duration(i, m)
                entries[i] = ScheduleEntry(m, t, d)
                if d == 0:
                    complete(i)
                    zero_start = True
                else:
                    for r, k in enumerate(acts[i].modes[m].demand):
                        avail[r] -= k
                    running[i] = (m, t, t + d)
            if zero_start:  # a completion may have readied successors
                elig = eligible_set(inst, ready, avail)
            else:
                elig = [(i, m) for i, m in elig if i in ready
                        and all(map(le, acts[i].modes[m].demand, avail))]

        if end_preds <= completed:
            break
        if not running:
            t += 1
        else:
            t = min(e for (_, _, e) in running.values())
        if t > guard:
            raise RuntimeError(
                "executor stalled: the policy keeps declining to start work"
            )

    return SimResult(make_schedule(entries), tuple(decisions))


def _check_group(inst: ProjectInstance, group: tuple[Pair, ...],
                 eligible: list[Pair], avail: list[int]) -> None:
    elig = set(eligible)
    seen = set()
    need = [0] * inst.n_resources
    for i, m in group:
        if (i, m) not in elig:
            raise PolicyContractError(f"pair ({i}, {m}) is not eligible")
        if i in seen:
            raise PolicyContractError(f"activity {i} started in two modes")
        seen.add(i)
        for r, k in enumerate(inst.activities[i].modes[m].demand):
            need[r] += k
    for r, k in enumerate(need):
        if k > avail[r]:
            raise PolicyContractError(
                f"group demands {k} of resource {r}, only {avail[r]} free"
            )

