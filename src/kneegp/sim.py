"""Discrete-time executor for the dynamic multi-mode scheduling problem.

Durations are uncertain: an activity's realized duration is drawn when it
starts in a mode, from an independent per-pair stream, so a table that draws
each pair on its first read gives the same runs as one drawn whole in advance.
Policies see a DecisionContext over the executor's live state, valid for
one `decide` call, and never a realized duration of anything unfinished.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable

from .model import ProjectInstance, Schedule, ScheduleEntry
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
    """One solve: its makespan, each start as activity -> (mode, start,
    duration) and each decision as (clock, eligible size, filtered size,
    group). A training solve reads only the makespan, so `schedule` and
    `decisions` build their typed records on every read, not before."""

    makespan: int
    starts: dict[int, tuple[int, int, int]]
    log: tuple[tuple[int, int, int, tuple[Pair, ...]], ...]

    @property
    def schedule(self) -> Schedule:
        return Schedule({i: ScheduleEntry(*e) for i, e in self.starts.items()},
                        self.makespan)

    @property
    def decisions(self) -> tuple[DecisionRecord, ...]:
        return tuple(DecisionRecord(*d) for d in self.log)


def eligible_set(inst: ProjectInstance, ready: Iterable[int],
                 free: int) -> list[Pair]:
    """Pairs of the ready activities whose demand fits the packed free
    capacity `free` (`InstanceAnalysis.pack_free`), ordered by (activity,
    mode): one int test per pair."""
    ana = inst.analysis
    opts, guard = ana.options, ana.lanes[1]
    return [pair for i in sorted(ready) for pair, pd in opts[i]
            if (free - pd) & guard == guard]


def solve(inst: ProjectInstance, policy: Policy,
          durations: DurationTable) -> SimResult:
    """Run the parallel generation scheme to completion.

    The clock jumps from one completion to the next, so the schedule and
    decision log are those a tick-by-tick executor would produce. The ready
    set (unstarted activities whose predecessors are all complete) is kept up
    to date as activities start and complete, instead of being rescanned at
    every decision. Within one clock free capacity only shrinks, so after a
    start the next eligible list is the last one minus the started activities
    and the modes that no longer fit; the ready set is rescanned when the
    clock advances or a zero-duration start completes.

    Free capacity is one packed int (`InstanceAnalysis.pack_free`), which
    each `DecisionContext` holds: the rescan, the within-clock filter and
    `_check_group` test a pair with one int operation on its packed demand.
    Every pair of the eligible list fits the free capacity by construction,
    so a lone eligible pair needs only the membership test; any other group
    goes through `_check_group`.

    Each decision's context is `DecisionContext.live`: it reads the
    executor's own `completed` set and `running` dict, with no copy, so it
    is valid only until the executor next changes them, and a policy reads
    every `lazy` attribute inside `decide`. All contexts of one solve share
    one horizon cursor.

    A policy that starts nothing while nothing runs stalls the project: no
    completion can change what it sees, since everything it reads is relative
    to the clock, so `solve` raises RuntimeError at once.
    """
    acts = inst.activities
    ana = inst.analysis
    opts, guard = ana.options, ana.lanes[1]
    completed: set[int] = set()
    # the dummy source runs from 0 to 0, so the first step completes it
    running = {inst.dummy_start: (0, 0)}  # i -> (mode, start)
    ends = {inst.dummy_start: 0}  # i -> completion time
    free = ana.pack_free(inst.capacities)
    starts: dict[int, tuple[int, int, int]] = {}
    log: list[tuple[int, int, int, tuple[Pair, ...]]] = []
    waiting = [len(a.predecessors) for a in acts]  # unfinished predecessors, the sink's too
    ready: set[int] = set()
    real = inst.non_dummy_ids()
    live, cursor = DecisionContext.live, [0]
    sink = inst.dummy_end

    def complete(i: int) -> None:
        completed.add(i)
        for j in acts[i].successors:
            waiting[j] -= 1
            if not waiting[j] and j in real:
                ready.add(j)

    while waiting[sink]:
        if not ends:
            raise RuntimeError("executor stalled: the policy started nothing "
                               "while nothing runs")
        t = min(ends.values())
        for i in [i for i, e in ends.items() if e == t]:
            del ends[i]
            m, _ = running.pop(i)
            free += opts[i][m][1]
            complete(i)

        elig = eligible_set(inst, ready, free)
        while elig:
            ctx = live(inst, t, free, completed, running, cursor)
            group, filtered = policy.decide(ctx, elig)
            group = tuple(group)
            if not group:
                break
            if len(group) != 1 or group[0] not in elig:
                _check_group(inst, group, elig, free)
            log.append((t, len(elig), filtered, group))
            zero_start = False
            for i, m in group:
                ready.discard(i)
                d = durations.duration(i, m)
                starts[i] = (m, t, d)
                if d == 0:
                    complete(i)
                    zero_start = True
                else:
                    free -= opts[i][m][1]
                    running[i] = (m, t)
                    ends[i] = t + d
            if zero_start:  # a completion may have readied successors
                elig = eligible_set(inst, ready, free)
            else:
                elig = [p for p in elig if p[0] in ready
                        and (free - opts[p[0]][p[1]][1]) & guard == guard]

    makespan = max((s + d for _, s, d in starts.values()), default=0)
    return SimResult(makespan, starts, tuple(log))


def _check_group(inst: ProjectInstance, group: tuple[Pair, ...],
                 eligible: list[Pair], free: int) -> None:
    """Refuse a group with a pair that is not eligible, an activity in two
    modes, or more joint demand than the packed free capacity `free`. The
    members come off it one at a time, and only while every guard bit is
    set: packed demands added together can carry into the next lane, and a
    lane whose guard bit has cleared can borrow from it."""
    ana = inst.analysis
    opts, guard = ana.options, ana.lanes[1]
    # one lookup costs less as a list scan than as a set to build
    elig = eligible if len(group) == 1 else set(eligible)
    seen, left = set(), free
    for i, m in group:
        if (i, m) not in elig:
            raise PolicyContractError(f"pair ({i}, {m}) is not eligible")
        if i in seen:
            raise PolicyContractError(f"activity {i} started in two modes")
        seen.add(i)
        if left & guard == guard:
            left -= opts[i][m][1]
    if left & guard != guard:
        avail, need = ana.unpack(free), [sum(col) for col in zip(
            *(inst.activities[i].modes[m].demand for i, m in group))]
        r = next(r for r, k in enumerate(need) if k > avail[r])
        raise PolicyContractError(f"group demands {need[r]} of resource {r}, only {avail[r]} free")
