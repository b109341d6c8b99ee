"""Core problem model: activities, modes, instances and schedule validation.

Activity ids are dense and 0-based. Activity 0 is the dummy source and the
highest id is the dummy sink; both have a single zero-duration, zero-demand
mode. All durations are integers and resource checking happens on the
integer time grid.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import Iterable, Mapping

ResourceVector = tuple[int, ...]


class StructuralError(ValueError):
    """Malformed instance or schedule (bad ids, cycles, wrong shapes)."""


@dataclass(frozen=True)
class Mode:
    """One execution mode: expected/min/max duration and per-resource demand."""

    expected: int
    min_duration: int
    max_duration: int
    demand: ResourceVector

    def __post_init__(self):
        if not (0 <= self.min_duration <= self.expected <= self.max_duration):
            raise StructuralError(
                f"duration bounds must satisfy 0 <= min <= expected <= max, "
                f"got ({self.min_duration}, {self.expected}, {self.max_duration})"
            )
        if any(d < 0 for d in self.demand):
            raise StructuralError("negative resource demand")


@dataclass(frozen=True)
class Activity:
    id: int
    predecessors: frozenset[int]
    successors: frozenset[int]
    modes: tuple[Mode, ...]

    @property
    def n_modes(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class ProjectInstance:
    """Immutable project: activities (dummies included) and renewable
    capacities. The critical-path lower bound is derived from the analysis,
    not stored."""

    activities: tuple[Activity, ...]
    capacities: ResourceVector
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def n_activities(self) -> int:
        return len(self.activities)

    @property
    def n_resources(self) -> int:
        return len(self.capacities)

    @property
    def dummy_start(self) -> int:
        return 0

    @property
    def dummy_end(self) -> int:
        return len(self.activities) - 1

    def non_dummy_ids(self) -> range:
        return range(1, self.dummy_end)

    @cached_property
    def analysis(self) -> "InstanceAnalysis":
        return InstanceAnalysis(self)

    @property
    def lower_bound(self) -> int:
        """Critical-path bound using each activity's minimum expected duration.

        Resource limits are ignored, so any realized makespan with durations at
        their expected values is >= this bound. It is the source's tail.
        """
        return self.analysis.tail[self.dummy_start]


class InstanceAnalysis:
    """Static graph facts shared by the priority terminals and the simulator.

    Transitive closures are kept as integer bitmasks so group unions are a
    single `or`.
    """

    def __init__(self, inst: ProjectInstance):
        n = inst.n_activities
        self.activities = acts = inst.activities
        self.topo_order = _topological_order(acts)
        self.dmin_exp = [min(m.expected for m in a.modes) for a in acts]
        self.direct_succ_mask = [_mask(a.successors) for a in acts]
        self.direct_pred_mask = [_mask(a.predecessors) for a in acts]
        self.trans_succ_mask = [0] * n
        for i in reversed(self.topo_order):
            m = 0
            for j in acts[i].successors:
                m |= self.trans_succ_mask[j] | (1 << j)
            self.trans_succ_mask[i] = m
        self.trans_pred_mask = [0] * n
        for i in self.topo_order:
            m = 0
            for j in acts[i].predecessors:
                m |= self.trans_pred_mask[j] | (1 << j)
            self.trans_pred_mask[i] = m
        # downstream min-expected work, direct and transitive
        self.succ_work = [
            sum(self.dmin_exp[j] for j in acts[i].successors) for i in range(n)
        ]
        self.trans_succ_work = [
            _masked_sum(self.dmin_exp, self.trans_succ_mask[i]) for i in range(n)
        ]
        # longest min-expected path from an activity's finish to the sink's
        self.tail = tail = [0] * n
        dmin = self.dmin_exp
        for i in reversed(self.topo_order):
            for j in acts[i].successors:
                if dmin[j] + tail[j] > tail[i]:
                    tail[i] = dmin[j] + tail[j]

    @cached_property
    def rows(self) -> list[tuple[tuple, ...]]:
        """Static terminal row of every (activity, mode) pair, `rows[i][m]`.

        Built by the rule engine (`rules.static_rows`) the first time a rule
        is evaluated on the instance, never when the instance is built."""
        from .rules import static_rows  # rules imports this module

        return static_rows(self)


def _mask(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def _masked_sum(values, mask: int):
    total = 0
    while mask:
        low = mask & -mask
        total += values[low.bit_length() - 1]
        mask ^= low
    return total


def _topological_order(acts: tuple[Activity, ...]) -> list[int]:
    indeg = {a.id: len(a.predecessors) for a in acts}
    ready = [a.id for a in acts if indeg[a.id] == 0]
    order = []
    while ready:
        i = ready.pop()
        order.append(i)
        for j in acts[i].successors:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    if len(order) != len(acts):
        raise StructuralError("precedence graph contains a cycle")
    return order


def build_instance(
    activities: Iterable[Activity],
    capacities: Iterable[int],
    metadata: dict | None = None,
) -> ProjectInstance:
    """Validate the pieces and assemble an instance, analysing it once.

    The lower bound is derived from that analysis, not stored."""
    acts = tuple(sorted(activities, key=lambda a: a.id))
    caps = tuple(int(c) for c in capacities)
    if len(acts) < 2:
        raise StructuralError("an instance needs at least the two dummy activities")
    if [a.id for a in acts] != list(range(len(acts))):
        raise StructuralError("activity ids must be dense and 0-based")
    if any(c < 0 for c in caps):
        raise StructuralError("negative capacity")
    last = len(acts) - 1
    for a in acts:
        if not a.modes:
            raise StructuralError(f"activity {a.id} has no modes")
        for m in a.modes:
            if len(m.demand) != len(caps):
                raise StructuralError(
                    f"activity {a.id}: demand length {len(m.demand)} != |R| {len(caps)}"
                )
        for j in a.predecessors | a.successors:
            if not 0 <= j <= last:
                raise StructuralError(f"activity {a.id} references unknown id {j}")
        for j in a.predecessors:
            if a.id not in acts[j].successors:
                raise StructuralError(f"asymmetric edge {j} -> {a.id}")
        for j in a.successors:
            if a.id not in acts[j].predecessors:
                raise StructuralError(f"asymmetric edge {a.id} -> {j}")
    for d in (0, last):
        a = acts[d]
        if len(a.modes) != 1 or a.modes[0].max_duration != 0 or any(a.modes[0].demand):
            raise StructuralError(f"dummy activity {d} must have one idle mode")
    if acts[0].predecessors or acts[last].successors:
        raise StructuralError("dummy source/sink must be extremal")
    for a in acts:
        if 0 < a.id < last:
            if not a.predecessors or not a.successors:
                raise StructuralError(f"activity {a.id} is disconnected from the dummies")
            for m in a.modes:
                if any(d > c for d, c in zip(m.demand, caps)):
                    raise StructuralError(
                        f"activity {a.id} has a mode that can never run (demand > capacity)"
                    )
    inst = ProjectInstance(acts, caps, dict(metadata or {}))
    inst.analysis  # a precedence cycle raises here, at build time
    return inst


@dataclass(frozen=True)
class ScheduleEntry:
    mode: int
    start: int
    duration: int


@dataclass(frozen=True)
class Schedule:
    """Realized schedule: one entry per non-dummy activity."""

    entries: Mapping[int, ScheduleEntry]
    makespan: int


def make_schedule(entries: Mapping[int, ScheduleEntry]) -> Schedule:
    ms = max((e.start + e.duration for e in entries.values()), default=0)
    return Schedule(dict(entries), ms)


@dataclass(frozen=True)
class Violation:
    kind: str  # "precedence" | "resource" | "makespan"
    activity: int | None
    time: int | None
    resource: int | None
    message: str


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_schedule(inst: ProjectInstance, sched: Schedule) -> ValidationResult:
    """Check precedence and per-tick resource feasibility of a schedule.

    Structural problems (unknown activity, bad mode index, missing or dummy
    entries) raise StructuralError; constraint violations are returned.
    """
    non_dummy = set(inst.non_dummy_ids())
    ids = set(sched.entries)
    if ids != non_dummy:
        raise StructuralError(
            f"schedule must cover exactly the non-dummy activities; "
            f"missing {sorted(non_dummy - ids)}, unknown {sorted(ids - non_dummy)}"
        )
    for i, e in sched.entries.items():
        if not 0 <= e.mode < inst.activities[i].n_modes:
            raise StructuralError(f"activity {i}: mode index {e.mode} out of range")
        if e.start < 0 or e.duration < 0:
            raise StructuralError(f"activity {i}: negative start or duration")

    violations: list[Violation] = []
    end = {i: e.start + e.duration for i, e in sched.entries.items()}
    end[inst.dummy_start] = 0
    for i, e in sched.entries.items():
        for j in inst.activities[i].predecessors:
            if j in end and e.start < end[j]:
                violations.append(
                    Violation(
                        "precedence", i, e.start, None,
                        f"activity {i} starts at {e.start} before predecessor {j} ends at {end[j]}",
                    )
                )

    for r in range(inst.n_resources):
        # usage changes only at starts and ends, and the last end brings it to 0
        delta: dict[int, int] = {}
        for i, e in sched.entries.items():
            d = inst.activities[i].modes[e.mode].demand[r]
            if d and e.duration:
                delta[e.start] = delta.get(e.start, 0) + d
                delta[e.start + e.duration] = delta.get(e.start + e.duration, 0) - d
        usage, over_from = 0, None
        cap = inst.capacities[r]
        for t in sorted(delta):
            usage += delta[t]
            if usage > cap and over_from is None:
                over_from = t
            elif usage <= cap and over_from is not None:
                violations.append(_resource_violation(inst, sched, r, over_from, t))
                over_from = None

    true_ms = max((e.start + e.duration for e in sched.entries.values()), default=0)
    if sched.makespan != true_ms:
        violations.append(
            Violation("makespan", None, None, None,
                      f"recorded makespan {sched.makespan} != realized {true_ms}")
        )
    return ValidationResult(not violations, tuple(violations))


def _resource_violation(inst, sched, r, t_from, t_to) -> Violation:
    active = sorted(
        i for i, e in sched.entries.items()
        if e.start <= t_from < e.start + e.duration
        and inst.activities[i].modes[e.mode].demand[r]
    )
    usage = sum(inst.activities[i].modes[e.mode].demand[r]
                for i, e in sched.entries.items()
                if e.start <= t_from < e.start + e.duration)
    return Violation(
        "resource", None, t_from, r,
        f"resource {r} over capacity in [{t_from}, {t_to}): "
        f"usage {usage} > {inst.capacities[r]} (activities {active})",
    )


# ---------------------------------------------------------------------------
# JSON serialization

def check_keys(d: Mapping, cls: type, what: str) -> None:
    """Reject a JSON-style dict with keys that are not fields of dataclass
    `cls`, or without a field of `cls` that has no default."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {what} key(s): {', '.join(missing)}")


def instance_to_dict(inst: ProjectInstance) -> dict:
    return {
        "activities": [
            {
                "id": a.id,
                "predecessors": sorted(a.predecessors),
                "modes": [
                    {
                        "expected": m.expected,
                        "min": m.min_duration,
                        "max": m.max_duration,
                        "demand": list(m.demand),
                    }
                    for m in a.modes
                ],
            }
            for a in inst.activities
        ],
        "capacities": list(inst.capacities),
        "lower_bound": inst.lower_bound,
        "metadata": inst.metadata,
    }


def instance_from_dict(data: dict) -> ProjectInstance:
    raw = data["activities"]
    preds = {int(a["id"]): set(map(int, a["predecessors"])) for a in raw}
    succs: dict[int, set[int]] = {i: set() for i in preds}
    for i, ps in preds.items():
        for j in ps:
            if j not in succs:
                raise StructuralError(f"activity {i} references unknown id {j}")
            succs[j].add(i)
    acts = [
        Activity(
            id=int(a["id"]),
            predecessors=frozenset(preds[int(a["id"])]),
            successors=frozenset(succs[int(a["id"])]),
            modes=tuple(
                Mode(int(m["expected"]), int(m["min"]), int(m["max"]),
                     tuple(int(d) for d in m["demand"]))
                for m in a["modes"]
            ),
        )
        for a in raw
    ]
    inst = build_instance(acts, data["capacities"], data.get("metadata"))
    if "lower_bound" in data and int(data["lower_bound"]) != inst.lower_bound:
        raise StructuralError(
            f"stored lower bound {data['lower_bound']} != recomputed {inst.lower_bound}"
        )
    return inst


def save_instance(inst: ProjectInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def load_instance(path) -> ProjectInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def schedule_to_dict(sched: Schedule) -> dict:
    return {
        "entries": {
            str(i): {"mode": e.mode, "start": e.start, "duration": e.duration}
            for i, e in sorted(sched.entries.items())
        },
        "makespan": sched.makespan,
    }


def schedule_from_dict(data: dict) -> Schedule:
    entries = {
        int(i): ScheduleEntry(int(e["mode"]), int(e["start"]), int(e["duration"]))
        for i, e in data["entries"].items()
    }
    return Schedule(entries, int(data["makespan"]))
