"""Discrete-time executor for the dynamic multi-mode scheduling problem.

Durations are uncertain: the executor fixes an activity's realized duration
only at the moment it starts, drawing from an independent per-pair stream, so
pre-sampling a whole table and lazy revelation produce identical runs.
Policies see a DecisionContext snapshot and never a realized duration of
anything unfinished.
"""
from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, Sequence

from .model import ProjectInstance, Schedule, ScheduleEntry, make_schedule
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


@dataclass(frozen=True)
class DurationTable:
    """One realization of every (activity, mode) duration."""

    realized: Mapping[Pair, int]
    seed: int | None = None

    def duration(self, i: int, m: int) -> int:
        return self.realized[(i, m)]


def sample_durations(inst: ProjectInstance, seed: int) -> DurationTable:
    table = {}
    for a in inst.activities:
        for m in range(a.n_modes):
            table[(a.id, m)] = realized_duration(inst, seed, a.id, m)
    return DurationTable(table, seed)


def expected_durations(inst: ProjectInstance) -> DurationTable:
    """Degenerate realization pinned at the expected values."""
    table = {}
    for a in inst.activities:
        for m, mo in enumerate(a.modes):
            table[(a.id, m)] = mo.expected
    return DurationTable(table, None)


class DecisionPolicy(Protocol):
    """A policy picks the next group to start.

    Returns (group, filtered_size): a jointly resource-feasible set of pairs
    drawn from the eligible set with at most one mode per activity (possibly
    empty), plus the number of pairs that survived the policy's own
    filtering, for the decision log.
    """

    def decide(self, ctx: DecisionContext,
               eligible: Sequence[Pair]) -> tuple[Sequence[Pair], int]:
        ...


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
    ticks: int

    @property
    def makespan(self) -> int:
        return self.schedule.makespan


def eligible_set(inst: ProjectInstance, completed: frozenset[int],
                 running: Mapping[int, object],
                 availability: Sequence[int]) -> list[Pair]:
    """Unstarted pairs whose predecessors are complete and whose demand fits
    the free capacity right now, ordered by (activity, mode)."""
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


def solve(inst: ProjectInstance, policy: DecisionPolicy,
          durations: DurationTable) -> SimResult:
    """Run the parallel generation scheme to completion.

    When nothing more can start, the clock jumps to the next completion (one
    tick if nothing is running), so the schedule and decision log are those a
    tick-by-tick executor would produce.
    """
    completed = {inst.dummy_start}
    running: dict[int, tuple[int, int, int]] = {}  # i -> (mode, start, end)
    avail = list(inst.capacities)
    entries: dict[int, ScheduleEntry] = {}
    decisions: list[DecisionRecord] = []
    end_preds = inst.activities[inst.dummy_end].predecessors
    # any schedule finishes within the serial sum of worst-case durations
    guard = 1 + sum(max(mo.max_duration for mo in a.modes) for a in inst.activities)
    t = 0
    ticks = 0

    while not end_preds <= completed:
        ticks += 1
        done_now = [i for i, (_, _, e) in running.items() if e <= t]
        for i in done_now:
            m, _, _ = running.pop(i)
            for r, k in enumerate(inst.activities[i].modes[m].demand):
                avail[r] += k
            completed.add(i)

        while True:
            elig = eligible_set(inst, frozenset(completed), running, avail)
            if not elig:
                break
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
            for i, m in group:
                d = durations.duration(i, m)
                entries[i] = ScheduleEntry(m, t, d)
                if d == 0:
                    completed.add(i)
                else:
                    for r, k in enumerate(inst.activities[i].modes[m].demand):
                        avail[r] -= k
                    running[i] = (m, t, t + d)

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

    return SimResult(make_schedule(entries), tuple(decisions), ticks)


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


def decision_log_to_csv(decisions: Iterable[DecisionRecord], fh) -> None:
    """Write one row per group start: clock, set sizes and the chosen pairs."""
    w = csv.writer(fh)
    w.writerow(["clock", "eligible_size", "filtered_size", "group_size", "pairs"])
    for d in decisions:
        w.writerow([
            d.clock, d.eligible_size, d.filtered_size, len(d.group),
            ";".join(f"{i}:{m}" for i, m in d.group),
        ])
