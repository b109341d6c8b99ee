"""Core problem model: activities, modes, instances and schedule validation.

Activity ids are dense and 0-based. Activity 0 is the dummy source and the
highest id is the dummy sink; both have a single zero-duration, zero-demand
mode. All durations are integers and resource checking happens on the
integer time grid.
"""
from __future__ import annotations

import json
import reprlib
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cached_property
from operator import getitem, le, lshift
from typing import Iterable, Mapping, Sequence, get_args, get_origin, get_type_hints

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
    single `or`. What only the rule engine reads is built on its first read,
    never when the instance is built.
    """

    def __init__(self, inst: ProjectInstance):
        n = inst.n_activities
        self.activities = acts = inst.activities
        self.capacities = inst.capacities
        self.topo_order = topo = _topological_order(acts)
        self.dmin_exp = [min(m.expected for m in a.modes) for a in acts]
        self.direct_succ_mask = [_mask(a.successors) for a in acts]
        self.direct_pred_mask = [_mask(a.predecessors) for a in acts]
        self.trans_succ_mask = _closure(reversed(topo), [a.successors for a in acts])
        self.trans_pred_mask = _closure(topo, [a.predecessors for a in acts])
        # longest min-expected path from an activity's finish to the sink's
        self.tail = tail = [0] * n
        dmin = self.dmin_exp
        for i in reversed(topo):
            for j in acts[i].successors:
                if dmin[j] + tail[j] > tail[i]:
                    tail[i] = dmin[j] + tail[j]

    @cached_property
    def work_bytes(self) -> list[list[int]]:
        """`dmin_exp` as byte tables (`byte_tables`), for `byte_sum`: kept
        for the group forms that read the group work terminals."""
        return byte_tables(self.dmin_exp)

    @cached_property
    def lanes(self) -> tuple[int, int]:
        """The layout of a packed resource vector: (lane width, guard mask).

        Resource `r` takes bits `[r * width, (r + 1) * width)` of one int.
        The width is the bit length of the largest capacity or demand plus
        one guard bit, the top bit of each lane; the guard mask has every
        guard bit set. Built on its first read, like `work_bytes`."""
        top = max([*self.capacities, *(k for a in self.activities
                                      for mo in a.modes for k in mo.demand)])
        width = top.bit_length() + 1
        return width, sum(1 << (width * r - 1) for r in range(1, len(self.capacities) + 1))

    def pack(self, vector: Sequence[int]) -> int:
        """`vector`, one lane per resource, without guard bits."""
        width = self.lanes[0]
        return sum(map(lshift, vector, range(0, width * len(vector), width)))

    def pack_free(self, availability: Sequence[int]) -> int:
        """The free capacity `availability` packed, every guard bit set.

        Then for a packed demand `pd`, `x = F - pd` keeps every guard bit
        exactly when the demand fits, and `x` is what taking it leaves, also
        with every guard bit set. No lane borrows from the next only while
        no value reaches a guard bit, so an availability outside
        `[0, capacity]` raises ValueError."""
        caps = self.capacities
        if (len(availability) != len(caps) or min(availability) < 0
                or not all(map(le, availability, caps))):
            raise ValueError(f"availability {tuple(availability)} is outside "
                             f"[0, capacity {caps}]")
        return self.pack(availability) | self.lanes[1]

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


def _closure(order: Iterable[int], links: Sequence[Iterable[int]]) -> list[int]:
    """The mask of every id reachable from each id through `links`, built
    along `order`, in which each id comes after all of its links."""
    masks = [0] * len(links)
    for i in order:
        m = 0
        for j in links[i]:
            m |= masks[j] | (1 << j)
        masks[i] = m
    return masks


def byte_tables(values: Sequence[int]) -> list[list[int]]:
    """One table per 8 consecutive ids of `values`: entry `b` of table `k`
    is the sum of `values[8k + j]` over the set bits `j` of `b`.

    Each entry is one addition, to the entry without its highest bit. The
    last table has only the entries that bits below `len(values)` reach."""
    tables = []
    for start in range(0, len(values), 8):
        table = [0]
        for v in values[start:start + 8]:
            table += [s + v for s in table]
        tables.append(table)
    return tables


def byte_sum(tables: list[list[int]], mask: int) -> int:
    """The sum of the values over the set bits of `mask`, one lookup per
    byte. The values are integers, so it is exact in any order."""
    return sum(map(getitem, tables, mask.to_bytes(len(tables), "little")))


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
    if not caps:
        raise StructuralError("an instance needs at least one resource")
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
    running = [(i, inst.activities[i].modes[e.mode].demand[r])
               for i, e in sched.entries.items()
               if e.start <= t_from < e.start + e.duration]
    active = sorted(i for i, d in running if d)
    usage = sum(d for _, d in running)
    return Violation(
        "resource", None, t_from, r,
        f"resource {r} over capacity in [{t_from}, {t_to}): "
        f"usage {usage} > {inst.capacities[r]} (activities {active})",
    )


# ---------------------------------------------------------------------------
# JSON serialization

def from_dict(cls: type, raw):
    """Build config dataclass `cls` from a checked JSON-style dict: lists
    become tuples, objects nested dataclasses. Errors name `cls.what`."""
    if not isinstance(raw, Mapping):
        raise ValueError(f"{cls.what} must be an object, not {raw!r}")
    check_keys(raw, cls, cls.what)
    return cls(**check_types(raw, cls, cls.what))


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


def check_types(d: Mapping, cls: type, what: str) -> dict:
    """The fields of dataclass `cls` that a JSON-style dict holds, each as
    its field's type (`_convert`). A value that cannot stand for its field
    is an error; fields are checked in their order in `cls`."""
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if f.name in d:
            out[f.name] = _convert(d[f.name], hints[f.name])
            if out[f.name] is _MISFIT:
                raise ValueError(
                    f"{what} key {f.name} must be {f.type}, not {d[f.name]!r}")
    return out


_MISFIT = object()  # what `_convert` returns for a value that does not fit


def _convert(value, hint):
    """`value` as the type `hint` names, or `_MISFIT`: ints stand for
    floats, lists for tuples and objects for nested dataclasses (built by
    `from_dict`), and a bool is only a bool."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            return _MISFIT
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(value) != len(args):
            return _MISFIT
        out = tuple(map(_convert, value, args))
        return _MISFIT if _MISFIT in out else out
    if args:  # a union such as `float | None`: the first member that fits
        return next((v for v in (_convert(value, a) for a in args) if v is not _MISFIT),
                    _MISFIT)
    if isinstance(value, bool) or hint is bool:
        return value if hint is bool and isinstance(value, bool) else _MISFIT
    if is_dataclass(hint) and isinstance(value, Mapping):
        return from_dict(hint, value)
    return value if isinstance(value, (int, float) if hint is float else hint) else _MISFIT


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


# how `_checked` shows a wrong value: two levels deep and a few entries
# long, so a wrong activity does not print every activity of the file
_ABRIDGED = reprlib.Repr()
_ABRIDGED.maxlevel = 2


def _checked(value, hint, what: str):
    """`value` as `hint`: `int`, `tuple[int, ...]` or `tuple[dict, ...]`. A
    bool is not an integer and a string is not a list."""
    out = _convert(value, hint)
    if out is _MISFIT:
        kind = {int: "an integer", tuple[int, ...]: "a list of integers"}
        raise StructuralError(f"{what} must be {kind.get(hint, 'a list of objects')}, "
                              f"not {_ABRIDGED.repr(value)}")
    return out


def instance_from_dict(data: dict) -> ProjectInstance:
    if not isinstance(data, Mapping):
        raise StructuralError(f"instance must be an object, not {type(data).__name__}")
    try:
        raw = _checked(data["activities"], tuple[dict, ...], "activities")
        ids = [_checked(a["id"], int, "activity id") for a in raw]
        preds = {i: set(_checked(a["predecessors"], tuple[int, ...],
                                 f"activity {i} predecessors"))
                 for i, a in zip(ids, raw)}
        succs: dict[int, set[int]] = {i: set() for i in preds}
        for i, ps in preds.items():
            for j in ps:
                if j not in succs:
                    raise StructuralError(f"activity {i} references unknown id {j}")
                succs[j].add(i)
        acts = [
            Activity(
                id=i,
                predecessors=frozenset(preds[i]),
                successors=frozenset(succs[i]),
                modes=tuple(
                    Mode(*(_checked(m[k], int, f"activity {i} {k}")
                           for k in ("expected", "min", "max")),
                         _checked(m["demand"], tuple[int, ...], f"activity {i} demand"))
                    for m in _checked(a["modes"], tuple[dict, ...], f"activity {i} modes")
                ),
            )
            for i, a in zip(ids, raw)
        ]
        caps = _checked(data["capacities"], tuple[int, ...], "capacities")
    except KeyError as exc:
        raise StructuralError(f"instance is missing key {exc}") from None
    metadata = data.get("metadata")
    if not isinstance(metadata, (Mapping, type(None))):
        raise StructuralError(f"metadata must be an object, not {metadata!r}")
    inst = build_instance(acts, caps, metadata)
    stored = _checked(data.get("lower_bound", inst.lower_bound), int, "lower_bound")
    if stored != inst.lower_bound:
        raise StructuralError(
            f"stored lower bound {stored} != recomputed {inst.lower_bound}"
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
