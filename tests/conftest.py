from __future__ import annotations

import random

import pytest

from kneegp.model import Activity, Mode, ProjectInstance, build_instance


def _act(i, preds, succs, modes):
    return Activity(
        id=i,
        predecessors=frozenset(preds),
        successors=frozenset(succs),
        modes=tuple(Mode(*m) for m in modes),
    )


IDLE = (0, 0, 0, (0,))


def demo_instance() -> ProjectInstance:
    """Seven-activity, single-resource project with two modes per real activity.

    Used as the hand-checked ground truth across the suite: critical path 12,
    order strength 0.5, capacity 12.
    """
    return build_instance(
        [
            _act(0, [], [1, 2], [IDLE]),
            _act(1, [0], [3, 4], [(5, 3, 7, (10,)), (6, 5, 8, (6,))]),
            _act(2, [0], [4], [(4, 3, 7, (7,)), (7, 6, 11, (5,))]),
            _act(3, [1], [5], [(4, 3, 6, (9,)), (8, 7, 10, (8,))]),
            _act(4, [1, 2], [6], [(4, 2, 5, (7,)), (6, 4, 8, (4,))]),
            _act(5, [3], [6], [(3, 2, 5, (9,)), (5, 4, 7, (6,))]),
            _act(6, [4, 5], [], [IDLE]),
        ],
        capacities=[12],
        metadata={"name": "demo"},
    )


def rescan_eligible(inst: ProjectInstance, completed, running,
                    availability) -> list[tuple[int, int]]:
    """Reference eligible set by full rescan: unstarted pairs whose
    predecessors are complete and whose demand fits, in (activity, mode)
    order. The executor keeps a ready set instead; tests compare the two."""
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


@pytest.fixture
def demo() -> ProjectInstance:
    return demo_instance()


def chain_instance(durations, demand=1, capacity=1) -> ProjectInstance:
    """Serial chain of single-mode activities."""
    n = len(durations)
    acts = [_act(0, [], [1], [(0, 0, 0, (0,))])]
    for k, d in enumerate(durations, start=1):
        acts.append(_act(k, [k - 1], [k + 1], [(d, d, d, (demand,))]))
    acts.append(_act(n + 1, [n], [], [(0, 0, 0, (0,))]))
    return build_instance(acts, [capacity])


def parallel_instance(durations, demand=1, capacity=None) -> ProjectInstance:
    """Antichain: every real activity depends only on the dummies."""
    n = len(durations)
    if capacity is None:
        capacity = n * demand
    acts = [_act(0, [], list(range(1, n + 1)), [(0, 0, 0, (0,))])]
    for k, d in enumerate(durations, start=1):
        acts.append(_act(k, [0], [n + 1], [(d, d, d, (demand,))]))
    acts.append(_act(n + 1, list(range(1, n + 1)), [], [(0, 0, 0, (0,))]))
    return build_instance(acts, [capacity])


def random_instance(rng: random.Random, n=8, n_modes=2, n_resources=2,
                    capacity=12, edge_prob=0.3, max_demand=None,
                    zero_prob=0.0) -> ProjectInstance:
    """Small random project for property sweeps; ids are topological.

    Each mode takes no time with probability `zero_prob`."""
    if max_demand is None:
        max_demand = max(1, capacity // 2)
    idle = (0, 0, 0, (0,) * n_resources)
    preds = {i: set() for i in range(1, n + 1)}
    for j in range(2, n + 1):
        for i in range(1, j):
            if rng.random() < edge_prob:
                preds[j].add(i)
    succs = {i: set() for i in range(1, n + 1)}
    for j, ps in preds.items():
        for i in ps:
            succs[i].add(j)
    sources = [i for i in range(1, n + 1) if not preds[i]]
    sinks = [i for i in range(1, n + 1) if not succs[i]]
    acts = [_act(0, [], sources, [idle])]
    for i in range(1, n + 1):
        modes = []
        for _ in range(n_modes):
            exp = rng.randint(2, 9)
            lo = max(1, exp - rng.randint(1, 3))
            hi = exp + rng.randint(1, 3)
            dem = tuple(rng.randint(1, max_demand) for _ in range(n_resources))
            if zero_prob and rng.random() < zero_prob:
                exp = lo = hi = 0
            modes.append((exp, lo, hi, dem))
        modes.sort(key=lambda m: m[0])
        acts.append(_act(i, sorted(preds[i]) or [0],
                         sorted(succs[i]) or [n + 1], modes))
    acts.append(_act(n + 1, sinks, [], [idle]))
    return build_instance(acts, [capacity] * n_resources)
