"""One benchmark run: set up, time passes, check outputs, report metrics.

An untraced run (trace off) sets the workload up several times and reports
the median set-up time. It then repeats the pass while the time budget lasts
and reports the median pass, in units of a reference loop timed between the
pieces of the pass (see `reference_s`); the plain seconds go beside it. Every
pass is checked, and every pass must reproduce the first pass's output digest
byte for byte.

A traced run sets up once under the tracer, runs one untraced pass and one
traced pass on the same inputs, and reports per-layer counts and self times
of the traced pass. Its tracing overhead is the difference between the two.
Both passes must give the same objective and digest.
"""
from __future__ import annotations

import hashlib
import json
import operator
import os
import platform
import random
import resource
import statistics
import time
from pathlib import Path

from .tracing import Tracer
from .workloads import WORKLOADS, Check

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
REFERENCE_ROUNDS = 30  # about 0.1 s on a 2-CPU x86 machine, Python 3.11

# layers whose calls and self time a traced pass reports
LAYERS = (
    "bench.run_one", "evolve.evolve", "bench.evaluate_on_tests",
    "evolve.evaluate_rules", "sim.solve", "sim.sample_durations",
    "sim.eligible_set", "policy.build_policy", "policy.decide",
    "policy.sequential_decide", "policy.knee_group_decide",
    "policy.full_enumeration_decide", "rules.eval_pair_priority",
    "rules.eval_group_priority", "instgen.generate_instance", "model.analysis",
    "model.validate_schedule",
)


class _Untraced:
    def frame(self, name, fn, *args, span=False):
        return fn(*args)


def environment(seed: int) -> dict:
    """Interpreter, CPUs, revision and program size behind a result."""
    src = ROOT / "src" / "kneegp"
    lines = 0
    for path in sorted(src.glob("*.py")):
        with path.open("rb") as fh:
            lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(ROOT),
        "seed": seed,
        "src_lines": lines,
    }


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q: int) -> float:
    """The q-th percentile, as `statistics.quantiles` cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def digest(check: Check) -> str:
    return hashlib.sha256("\n".join(check.digest).encode()).hexdigest()


def objective(check: Check) -> float:
    """Mean relative deviation of makespan from the CPM bound."""
    if not check.deviations:
        return float("nan")
    return sum(check.deviations) / len(check.deviations)


_OPS = (operator.add, operator.sub, operator.mul, max, min)


def _tree(rng: random.Random, depth: int):
    if depth == 1 or rng.random() < 0.2:
        return rng.randrange(8)
    return (rng.randrange(len(_OPS)), _tree(rng, depth - 1), _tree(rng, depth - 1))


def _evaluate(node, row) -> float:
    if type(node) is int:
        return row[node]
    return _OPS[node[0]](_evaluate(node[1], row), _evaluate(node[2], row))


def reference_s() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The loop evaluates small arithmetic trees over rows of numbers, the kind
    of work rule-tree evaluation does, but runs none of kneegp's code, so no
    change to kneegp can change it. A piece of the pass divided by the
    reference timed around it is in reference units: how fast the shared
    machine happens to be while it runs cancels out.
    """
    rng = random.Random(7)
    trees = [_tree(rng, 6) for _ in range(20)]
    rows = [tuple(rng.random() for _ in range(8)) for _ in range(40)]
    t0 = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        for tree in trees:
            min(_evaluate(tree, row) for row in rows)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(name: str, seed: int, seconds: float, trace: bool, workload=None) -> dict:
    """Run one workload; returns the result line plus what goes beside it."""
    wl = workload or WORKLOADS[name]
    return (_traced if trace else _untraced)(name, wl, seed, seconds)


def _untraced(name, wl, seed, seconds) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.setup(seed, _Untraced())
        setups.append(time.perf_counter() - t0)

    walls, costs, checks = [], [], []
    started = time.perf_counter()
    while True:
        parts, wall, cost = [], 0.0, 0.0
        before = reference_s()
        for unit in wl.units(inputs):
            t0 = time.perf_counter()
            parts.append(unit())
            dt = time.perf_counter() - t0
            after = reference_s()
            wall += dt
            cost += dt / ((before + after) / 2)
            before = after
        walls.append(wall)
        costs.append(cost)
        checks.append(wl.check(inputs, wl.combine(parts)))
        del parts
        spent = time.perf_counter() - started
        if spent + spent / len(walls) > seconds:
            break

    cost = statistics.median(costs)
    wall = statistics.median(walls)
    metrics = {
        "wall_ref": (cost, "ref"),
        "schedules_per_ref": (wl.requested() / cost, "1/ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    errors = [e for c in checks for e in c.errors]
    errors += [f"pass {k} digest differs from pass 0"
               for k, c in enumerate(checks) if digest(c) != digest(checks[0])]
    return _result(name, seed, checks, errors, metrics, {
        "passes": len(walls),
        "wall_s": wall,
        "schedules_per_s": wl.requested() / wall,
        "wall_s_each": walls,
        "wall_ref_each": costs,
        "setup_s_each": setups,
    })


def _traced(name, wl, seed, seconds) -> dict:
    at_setup = Tracer()
    with at_setup:
        t0 = time.perf_counter()
        inputs = at_setup.frame("setup", wl.setup, seed, at_setup, span=True)
        setup_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    plain_out = wl.run(inputs)
    plain_wall = time.perf_counter() - t0
    plain = wl.check(inputs, plain_out)
    del plain_out

    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        traced_out = tracer.frame("pass", wl.run, inputs, span=True)
        traced_wall = time.perf_counter() - t0
    traced = wl.check(inputs, traced_out)
    del traced_out

    errors = plain.errors + traced.errors
    if digest(plain) != digest(traced):
        errors.append("traced pass digest differs from the untraced pass")
    if objective(plain) != objective(traced):
        errors.append("traced pass objective differs from the untraced pass")

    calls, self_ns = dict(tracer.calls), dict(tracer.self_ns)
    for layer in ("instgen.generate_instance", "model.analysis"):
        calls[layer] = at_setup.calls[layer]
        self_ns[layer] = at_setup.self_ns[layer]
    calls["model.validate_schedule"] = len(traced.validate_ns)
    self_ns["model.validate_schedule"] = sum(traced.validate_ns)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = (self_ns.get(layer, 0) / 1e9, "s")
    evals = calls.get("evolve.evaluate_rules", 0)
    decides = calls.get("policy.decide", 0)
    groups = calls.get("rules.eval_group_priority", 0)
    decide_ms = [ns / 1e6 for ns in tracer.decide_ns]
    solve_ms = [ns / 1e6 for ns in plain.solve_ns]
    metrics.update({
        "sim.solve.p50_ms": (statistics.median(solve_ms), "ms"),
        "sim.solve.p90_ms": (percentile(solve_ms, 90), "ms"),
        "evolve.evaluate_rules.repeat_frac":
            (tracer.rule_repeats / evals if evals else 0.0, "ratio"),
        "policy.decide.p50_ms": (statistics.median(decide_ms), "ms"),
        "policy.decide.p90_ms": (percentile(decide_ms, 90), "ms"),
        "policy.groups_per_decision": (groups / decides, "groups/decision"),
        "policy.knee.filtered_mean": (tracer.filtered_sum / tracer.decisions, "pairs"),
        "policy.knee.reduction_pct": (100 * tracer.cut_sum / tracer.decisions, "%"),
        "policy.enum.scored_per_candidate":
            (groups / tracer.enum_candidates if tracer.enum_candidates else 0.0,
             "ratio"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.unattributed_s": (tracer.self_ns["pass"] / 1e9, "s"),
        "trace.overhead_pct": (100 * (traced_wall / plain_wall - 1), "%"),
    })
    return _result(name, seed, [plain, traced], errors, metrics, {
        "setup_s": setup_s,
        "untraced_wall_s": plain_wall,
        "decide_samples": len(decide_ms),
        "solve_samples": len(solve_ms),
        "spans": {"setup": at_setup.spans, "pass": tracer.spans},
        "calls": calls,
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
    })


def _result(name, seed, checks, errors, metrics, details) -> dict:
    first = checks[0]
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    return {
        "line": {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "workload": name,
        "env": environment(seed),
        "objective": objective(first),
        "failed_frac": failed / attempted,
        "digest": digest(first),
        "digest_lines": first.digest,
        "errors": errors,
        "details": details,
    }


def write(result: dict, out_dir: Path, trace: bool) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{result['workload']}-seed{result['env']['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path
