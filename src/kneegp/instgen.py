"""Random project generator with a controlled precedence density.

The order strength (OS) of an instance is the fraction of non-dummy activity
pairs that are precedence-related, directly or transitively. The generator
climbs from the empty graph: each move draws an edge u -> v with u < v and
keeps it only if the count of related pairs stays within the tolerance's
slack above the target. A refused edge leaves the closure as it was, and
every draw spends one move of the budget, until the count lands in the band
or the budget runs out (GenerationError). A band that holds no whole count
is refused before the climb. It then samples modes and derives capacities
from the earliest-start resource profile.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar

from .model import Activity, Mode, ProjectInstance, build_instance


class GenerationError(RuntimeError):
    """Raised when the OS target cannot be met within the move budget."""

    def __init__(self, message: str, achieved_os: float):
        super().__init__(message)
        self.achieved_os = achieved_os


@dataclass(frozen=True)
class GenSpec:
    """Generator knobs. `n_activities` counts real activities; the two
    dummies are added on top."""

    what: ClassVar[str] = "generator spec"
    n_activities: int = 30
    n_modes: int = 3
    n_resources: int = 4
    duration_range: tuple[int, int] = (5, 10)
    fluctuation_range: tuple[int, int] = (1, 3)
    demand_range: tuple[int, int] = (1, 6)
    order_strength: float = 0.5
    os_tolerance: float = 0.02
    resource_factor: float = 1.0
    resource_strength: float = 0.25
    move_budget: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not (self.n_activities >= 1 and self.n_modes >= 1 and self.n_resources >= 1):
            raise ValueError("counts must be positive")
        for lo, hi in (self.duration_range, self.fluctuation_range, self.demand_range):
            if not 0 < lo <= hi:
                raise ValueError("ranges must satisfy 0 < lo <= hi")
        if not 0.0 <= self.order_strength <= 1.0:
            raise ValueError("order strength must lie in [0, 1]")
        if not 0.0 < self.resource_factor <= 1.0:
            raise ValueError("resource factor must lie in (0, 1]")
        if not 0.0 <= self.resource_strength <= 1.0:
            raise ValueError("resource strength must lie in [0, 1]")
        for key in ("os_tolerance", "move_budget"):
            if not (value := getattr(self, key)) >= 0:
                raise ValueError(f"{self.what} key {key} must be at least 0, not {value!r}")


def generate_instance(spec: GenSpec, seed: int) -> ProjectInstance:
    """Deterministically generate one instance for (spec, seed)."""
    rng = random.Random(seed)
    n = spec.n_activities
    edges, achieved = _grow_dag(rng, n, spec.order_strength, spec.os_tolerance, spec.move_budget)

    preds = {i: set() for i in range(1, n + 1)}
    succs = {i: set() for i in range(1, n + 1)}
    for u, v in edges:
        preds[v].add(u)
        succs[u].add(v)

    modes = {i: _draw_modes(rng, spec) for i in range(1, n + 1)}
    capacities = derive_capacities(modes, preds, spec.n_resources, spec.resource_strength)

    idle = Mode(0, 0, 0, (0,) * spec.n_resources)
    acts = [
        Activity(0, frozenset(),
                 frozenset(i for i in range(1, n + 1) if not preds[i]), (idle,))
    ]
    for i in range(1, n + 1):
        acts.append(Activity(
            i,
            frozenset(preds[i]) or frozenset({0}),
            frozenset(succs[i]) or frozenset({n + 1}),
            tuple(modes[i]),
        ))
    acts.append(Activity(n + 1,
                         frozenset(i for i in range(1, n + 1) if not succs[i]),
                         frozenset(), (idle,)))
    inst = build_instance(acts, capacities, metadata={
        "seed": seed,
        "os_target": spec.order_strength,
        "n_resources": spec.n_resources,
        "resource_factor": spec.resource_factor,
        "resource_strength": spec.resource_strength,
    })
    inst.metadata["os_achieved"] = achieved
    return inst


def _draw_modes(rng: random.Random, spec: GenSpec) -> list[Mode]:
    out = []
    n_demanded = min(spec.n_resources,
                     max(1, round(spec.resource_factor * spec.n_resources)))
    for _ in range(spec.n_modes):
        exp = rng.randint(*spec.duration_range)
        shrink = rng.randint(*spec.fluctuation_range)
        grow = rng.randint(*spec.fluctuation_range)
        kinds = rng.sample(range(spec.n_resources), n_demanded)
        demand = [0] * spec.n_resources
        for r in kinds:
            demand[r] = rng.randint(*spec.demand_range)
        out.append(Mode(exp, max(1, exp - shrink), exp + grow, tuple(demand)))
    out.sort(key=lambda m: m.expected)
    return out


def _grow_dag(rng: random.Random, n: int, target_os: float, tol: float,
              budget: int) -> tuple[list[tuple[int, int]], float]:
    """Edges (u, v) with u < v over ids 1..n whose transitive closure hits
    the OS target within tolerance, and the OS they reach: 1.0 below two
    activities. Raises GenerationError on exhaustion."""
    if n < 2:
        return [], 1.0
    total = n * (n - 1) // 2
    target = target_os * total
    slack = tol * total + 1e-9
    if int(target + slack) < target - slack:
        raise GenerationError(
            f"order strength {target_os} with tolerance {tol} needs "
            f"[{target - slack:.4f}, {target + slack:.4f}] of {total} pairs related, "
            f"and no whole count lies in that band", 0.0)

    reach = [0] * (n + 1)  # reach[i]: bitmask of ids reachable from i
    edges: list[tuple[int, int]] = []
    count = 0
    moves = 0
    # an edge is kept only if `count - target <= slack` after it, so the
    # loop ends exactly when `count` is in the band
    while target - count > slack:
        moves += 1
        if moves > budget:
            raise GenerationError(
                f"order strength {target_os} unreachable in {budget} moves "
                f"(achieved {count / total:.4f})",
                count / total,
            )
        u = rng.randint(1, n - 1)
        v = rng.randint(u + 1, n)
        if reach[u] >> v & 1:
            continue
        kept = reach[:u + 1]  # only ids up to u can reach u
        added = _add_edge(reach, u, v)
        if count + added - target > slack:
            reach[:u + 1] = kept  # overshoot: the closure is as it was
            continue
        edges.append((u, v))
        count += added
    return edges, count / total


def _add_edge(reach: list[int], u: int, v: int) -> int:
    """Insert u -> v into the closure; returns how many new pairs appeared.
    Edges run from lower to higher ids, so only ids up to u can reach u."""
    grown = reach[v] | (1 << v)
    added = 0
    for a in range(1, u + 1):
        if a == u or (reach[a] >> u & 1):
            new = reach[a] | grown
            if new != reach[a]:
                added += (new ^ reach[a]).bit_count()
                reach[a] = new
    return added


def derive_capacities(modes: dict[int, list[Mode]], preds: dict[int, set[int]],
                      n_resources: int, rs: float) -> list[int]:
    """Interpolate between the tightest workable capacity and the peak of the
    resource-unconstrained earliest-start schedule under reference modes.

    The reference mode of an activity is index 0 (shortest expected duration).
    The floor is the largest single-mode demand over all modes so every mode
    stays usable at any strength.
    """
    ids = sorted(modes)
    floor = [0] * n_resources
    for i in ids:
        for m in modes[i]:
            for r in range(n_resources):
                if m.demand[r] > floor[r]:
                    floor[r] = m.demand[r]

    est = {i: 0 for i in ids}
    for i in ids:  # ids are topological
        for p in preds[i]:
            done = est[p] + modes[p][0].expected
            if done > est[i]:
                est[i] = done
    peak = [0] * n_resources
    for r in range(n_resources):
        # usage changes only at starts and ends, as in `validate_schedule`
        delta: dict[int, int] = {}
        for i in ids:
            d, e = modes[i][0].demand[r], modes[i][0].expected
            if d and e:
                delta[est[i]] = delta.get(est[i], 0) + d
                delta[est[i] + e] = delta.get(est[i] + e, 0) - d
        usage = 0
        for t in sorted(delta):
            usage += delta[t]
            if usage > peak[r]:
                peak[r] = usage

    return [
        floor[r] + round(rs * (max(peak[r], floor[r]) - floor[r]))
        for r in range(n_resources)
    ]
