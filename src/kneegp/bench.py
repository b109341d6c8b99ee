"""Experiment harness: scenario orchestration, statistics and plot data.

An experiment is a grid of scenarios (generator settings) times algorithms
(policy kinds) times independent runs. Each run trains its own rule pair,
scores it on held-out test instances under fresh duration draws, and records
everything needed for tables and plots. All artifacts except the timing file
are byte-reproducible from the experiment seed.
"""
from __future__ import annotations

import csv
import json
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from operator import add
from pathlib import Path
from statistics import median
from typing import Sequence

from .evolve import (
    GenerationStat,
    GpConfig,
    TrainingTimeout,
    evolve,
    gp_config_from_dict,
    rule_size,
)
from .instgen import GenSpec, gen_spec_from_dict, generate_instance
from .model import ProjectInstance, check_keys
from .policy import EnumerationOverflowError, build_policy
from .rules import RulePair, format_sexpr, load_rules, parse_sexpr, save_rules
from .sim import DecisionRecord, derive_seed, sample_durations, solve


@dataclass(frozen=True)
class Scenario:
    """One cell of the experiment grid: a generator setting plus data sizes."""

    name: str
    gen: GenSpec
    n_train: int = 3
    n_test: int = 5

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("scenarios need at least one train and test instance")


@dataclass(frozen=True)
class Experiment:
    seed: int
    scenarios: tuple[Scenario, ...]
    algorithms: tuple[str, ...]
    n_runs: int
    gp: GpConfig
    test_realizations: int = 5
    wall_limit: float | None = None

    def __post_init__(self):
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError("scenario names must be unique")
        if not self.scenarios or not self.algorithms:
            raise ValueError("need at least one scenario and one algorithm")
        if self.n_runs < 1 or self.test_realizations < 1:
            raise ValueError("run and realization counts must be positive")


@dataclass(frozen=True)
class RunReport:
    scenario: str
    algorithm: str
    run_index: int
    seed: int
    status: str  # ok | timeout | overflow
    rules: RulePair | None
    test_objective: float | None
    # training fitness of the winner and of the generation-0 champion, both
    # under the shared final re-evaluation; final_fitness <= gen0_fitness
    final_fitness: float | None
    gen0_fitness: float | None
    ordering_size: int
    group_size: int
    best_generation: int
    history: tuple[GenerationStat, ...]
    eligible_mean: float | None
    filtered_mean: float | None
    reduction_pct: float | None
    train_seconds: float


# ---------------------------------------------------------------------------
# orchestration

def scenario_instances(exp: Experiment, scn: Scenario,
                       split: str) -> list[ProjectInstance]:
    """Deterministic train/test instances, shared by every algorithm and run."""
    count = scn.n_train if split == "train" else scn.n_test
    return [
        generate_instance(scn.gen, derive_seed(exp.seed, scn.name, split, j))
        for j in range(count)
    ]


def evaluate_on_tests(exp: Experiment, scn: Scenario, rules: RulePair,
                      algorithm: str,
                      tests: Sequence[ProjectInstance]) -> tuple[float, list[DecisionRecord]]:
    """Mean relative deviation over test instances x realizations.

    Realization seeds depend only on (experiment, scenario, instance,
    realization), so competing algorithms face identical futures.
    """
    policy = build_policy(rules, algorithm, exp.gp.knee, exp.gp.enumeration_limit)
    total, count = 0.0, 0
    decisions: list[DecisionRecord] = []
    for j, inst in enumerate(tests):
        for r in range(exp.test_realizations):
            table = sample_durations(
                inst, derive_seed(exp.seed, scn.name, "test-real", j, r))
            res = solve(inst, policy, table)
            total += (res.makespan - inst.lower_bound) / inst.lower_bound
            count += 1
            decisions.extend(res.decisions)
    return total / count, decisions


def run_one(exp: Experiment, scn: Scenario, algorithm: str, run_index: int,
            trains: Sequence[ProjectInstance],
            tests: Sequence[ProjectInstance]) -> RunReport:
    run_seed = derive_seed(exp.seed, scn.name, algorithm, run_index)
    cfg = replace(exp.gp, policy=algorithm, seed=run_seed)
    tick = time.perf_counter()
    try:
        trained = evolve(cfg, trains, wall_limit=exp.wall_limit)
    except TrainingTimeout as exc:
        return RunReport(scn.name, algorithm, run_index, run_seed, "timeout",
                         None, None, None, None, 0, 0, -1, exc.history,
                         None, None, None, time.perf_counter() - tick)
    except EnumerationOverflowError:
        return RunReport(scn.name, algorithm, run_index, run_seed, "overflow",
                         None, None, None, None, 0, 0, -1, (),
                         None, None, None, time.perf_counter() - tick)
    train_seconds = time.perf_counter() - tick

    try:
        objective, decisions = evaluate_on_tests(exp, scn, trained.best,
                                                 algorithm, tests)
    except EnumerationOverflowError:
        o_size, g_size = rule_size(trained.best)
        return RunReport(scn.name, algorithm, run_index, run_seed, "overflow",
                         trained.best, None, trained.best_fitness,
                         trained.candidates[0].final_fitness, o_size, g_size,
                         trained.best_generation, trained.history,
                         None, None, None, train_seconds)
    stats = reduction_report(decisions)
    o_size, g_size = rule_size(trained.best)
    return RunReport(
        scenario=scn.name,
        algorithm=algorithm,
        run_index=run_index,
        seed=run_seed,
        status="ok",
        rules=trained.best,
        test_objective=objective,
        final_fitness=trained.best_fitness,
        gen0_fitness=trained.candidates[0].final_fitness,
        ordering_size=o_size,
        group_size=g_size,
        best_generation=trained.best_generation,
        history=trained.history,
        eligible_mean=stats.mean_eligible,
        filtered_mean=stats.mean_filtered,
        reduction_pct=stats.reduction_pct,
        train_seconds=train_seconds,
    )


def run_experiment(exp: Experiment, progress=None,
                   workers: int = 1) -> list[RunReport]:
    """Every (scenario, algorithm, run) cell, in deterministic order.

    Runs are independent; `workers > 1` fans them out over processes without
    changing the result order or content.
    """
    cells = []
    for scn in exp.scenarios:
        trains = scenario_instances(exp, scn, "train")
        tests = scenario_instances(exp, scn, "test")
        for algorithm in exp.algorithms:
            for run_index in range(exp.n_runs):
                cells.append((scn, algorithm, run_index, trains, tests))

    reports: list[RunReport] = []
    if workers <= 1:
        for cell in cells:
            reports.append(run_one(exp, *cell))
            if progress is not None:
                progress(reports[-1])
        return reports

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_one, exp, *cell) for cell in cells]
        for f in futures:
            reports.append(f.result())
            if progress is not None:
                progress(reports[-1])
    return reports


# ---------------------------------------------------------------------------
# statistics

@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float  # Mann-Whitney U of the first sample
    p_value: float
    verdict: str      # better | worse | similar, lower values are better


def _rank(pooled: Sequence[float]) -> list[float]:
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        r = (i + j) / 2 + 1  # average rank, 1-based
        for k in range(i, j + 1):
            ranks[order[k]] = r
        i = j + 1
    return ranks


def _u_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    ranks = _rank(list(a) + list(b))
    ra = sum(ranks[: len(a)])
    return ra - len(a) * (len(a) + 1) / 2


def _exact_p(a: Sequence[float], b: Sequence[float], u_obs: float) -> float:
    """Exact two-sided p-value of U under the permutation null.

    Counts how many relabellings of the pooled ranks give each rank sum of
    the smaller sample (the Mann-Whitney recurrence, by dynamic programming)
    instead of enumerating them. Ranks are doubled so that tied half ranks
    stay integral, and the p-value is the same integer fraction that full
    enumeration counts.
    """
    ranks2 = [round(2 * r) for r in _rank(list(a) + list(b))]
    n, k = len(ranks2), min(len(a), len(b))
    # twice |U - E[U]|; labelling the other sample mirrors U about E[U]
    target = round(2 * abs(u_obs - len(a) * len(b) / 2))
    top = sum(sorted(ranks2)[n - k:])
    # counts[j][w]: j-subsets of the pooled ranks with doubled rank sum w
    counts = [[0] * (top + 1) for _ in range(k + 1)]
    counts[0][0] = 1
    for r in ranks2:
        for j in range(k, 0, -1):
            counts[j][r:] = map(add, counts[j][r:], counts[j - 1][:top + 1 - r])
    centre = k * (n + 1)
    hits = sum(c for w, c in enumerate(counts[k]) if abs(w - centre) >= target)
    return hits / math.comb(n, k)


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float],
                      alpha: float = 0.05) -> WilcoxonResult:
    """Two-sided rank-sum comparison of two independent samples.

    Small samples are scored by the exact permutation distribution of U;
    larger ones use the normal approximation with tie correction and
    continuity correction. Lower values count as better.
    """
    if len(a) < 2 or len(b) < 2:
        raise ValueError("both samples need at least two values")
    u = _u_statistic(a, b)
    n1, n2 = len(a), len(b)
    pooled = list(a) + list(b)
    if len(set(pooled)) == 1:
        return WilcoxonResult(u, 1.0, "similar")

    if n1 < 8 or n2 < 8:
        p = _exact_p(a, b, u)
    else:
        n = n1 + n2
        tie_term = 0.0
        for v in set(pooled):
            t = pooled.count(v)
            tie_term += t ** 3 - t
        var = n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1)))
        if var == 0:
            return WilcoxonResult(u, 1.0, "similar")
        mid = n1 * n2 / 2
        z = (abs(u - mid) - 0.5) / math.sqrt(var)
        z = max(z, 0.0)
        p = min(1.0, math.erfc(z / math.sqrt(2)))

    verdict = "similar"
    if p < alpha:
        ma, mb = median(a), median(b)
        if ma < mb:
            verdict = "better"
        elif ma > mb:
            verdict = "worse"
    return WilcoxonResult(u, p, verdict)


@dataclass(frozen=True)
class ReductionStats:
    mean_eligible: float
    mean_filtered: float
    reduction_pct: float


def reduction_report(decisions: Sequence[DecisionRecord]) -> ReductionStats:
    """Average pair-elimination achieved by the filter, decision by decision."""
    if not decisions:
        raise ValueError("no decisions to summarize")
    cut = 0.0
    for d in decisions:
        if d.eligible_size > 0:
            cut += 1 - d.filtered_size / d.eligible_size
    return ReductionStats(
        mean_eligible=sum(d.eligible_size for d in decisions) / len(decisions),
        mean_filtered=sum(d.filtered_size for d in decisions) / len(decisions),
        reduction_pct=100 * cut / len(decisions),
    )


def summarize(reports: Sequence[RunReport], alpha: float = 0.05,
              baseline: str | None = None) -> dict:
    """Mean(std) per cell plus rank-sum verdicts against the baseline."""
    scenarios = sorted({r.scenario for r in reports})
    algorithms = list(dict.fromkeys(r.algorithm for r in reports))
    if baseline is None:
        baseline = algorithms[0]
    table: dict = {"alpha": alpha, "baseline": baseline, "cells": {}}
    for scn in scenarios:
        row: dict = {}
        base_vals = [
            r.test_objective for r in reports
            if r.scenario == scn and r.algorithm == baseline and r.status == "ok"
        ]
        for alg in algorithms:
            runs = [r for r in reports if r.scenario == scn and r.algorithm == alg]
            vals = [r.test_objective for r in runs if r.status == "ok"]
            cell = {
                "runs": len(runs),
                "ok": len(vals),
                "mean": _mean(vals),
                "std": _std(vals),
            }
            if alg != baseline and len(vals) >= 2 and len(base_vals) >= 2:
                res = wilcoxon_rank_sum(vals, base_vals, alpha)
                cell["p_value"] = res.p_value
                cell["verdict"] = res.verdict
            row[alg] = cell
        table["cells"][scn] = row
    return table


def _mean(vals):
    return sum(vals) / len(vals) if vals else None


def _std(vals):
    if len(vals) < 2:
        return 0.0 if vals else None
    m = sum(vals) / len(vals)
    return math.sqrt(sum((v - m) ** 2 for v in vals) / (len(vals) - 1))


def format_table(table: dict) -> str:
    """Human-readable mean(std) grid with significance markers."""
    marks = {"better": "+", "worse": "-", "similar": "="}
    lines = [f"baseline: {table['baseline']}   alpha: {table['alpha']}"]
    for scn, row in table["cells"].items():
        parts = []
        for alg, cell in row.items():
            if cell["mean"] is None:
                parts.append(f"{alg}: no finished runs")
                continue
            mark = marks.get(cell.get("verdict", ""), "")
            parts.append(f"{alg}: {cell['mean']:.4f} ({cell['std']:.4f}){mark}")
        lines.append(f"{scn:>12}  " + "  ".join(parts))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# artifacts

def report_to_dict(r: RunReport) -> dict:
    """Deterministic view of a report: wall-clock fields are left out."""
    return {
        "scenario": r.scenario,
        "algorithm": r.algorithm,
        "run_index": r.run_index,
        "seed": r.seed,
        "status": r.status,
        "ordering": format_sexpr(r.rules.ordering) if r.rules else None,
        "group": (format_sexpr(r.rules.group)
                  if r.rules and r.rules.group else None),
        "test_objective": r.test_objective,
        "final_fitness": r.final_fitness,
        "gen0_fitness": r.gen0_fitness,
        "ordering_size": r.ordering_size,
        "group_size": r.group_size,
        "best_generation": r.best_generation,
        "eligible_mean": r.eligible_mean,
        "filtered_mean": r.filtered_mean,
        "reduction_pct": r.reduction_pct,
    }


def write_reports(reports: Sequence[RunReport], outdir: Path,
                  experiment: Experiment | None = None) -> dict[str, Path]:
    """Write report.json, history.csv and timings.csv under `outdir`.

    report.json and history.csv are byte-stable across reruns of the same
    experiment seed; timings.csv carries the wall-clock numbers and is not.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": outdir / "report.json",
        "history": outdir / "history.csv",
        "timings": outdir / "timings.csv",
    }
    payload = {"reports": [report_to_dict(r) for r in reports]}
    if experiment is not None:
        payload["experiment"] = experiment_to_dict(experiment)
    with paths["report"].open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    with paths["history"].open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "algorithm", "run", "generation",
                    "best_fitness", "mean_fitness", "ordering_size", "group_size"])
        for r in reports:
            for h in r.history:
                w.writerow([r.scenario, r.algorithm, r.run_index, h.generation,
                            repr(h.best_fitness), repr(h.mean_fitness),
                            repr(h.mean_ordering_size), repr(h.mean_group_size)])

    with paths["timings"].open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "algorithm", "run", "status",
                    "train_seconds", "censored"])
        for r in reports:
            w.writerow([r.scenario, r.algorithm, r.run_index, r.status,
                        f"{r.train_seconds:.3f}",
                        int(r.status != "ok")])
    return paths


def emit_plot_data(reports: Sequence[RunReport], outdir: Path) -> dict[str, Path]:
    """Plot-ready CSVs: convergence curves, size boxplot data, runtimes."""
    if not reports:
        raise ValueError("no reports to plot")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    conv_rows = [
        (r.scenario, r.algorithm, r.run_index, h.generation, repr(h.best_fitness))
        for r in reports for h in r.history
    ]
    if conv_rows:
        path = outdir / "convergence.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["scenario", "algorithm", "run", "generation", "best_fitness"])
            w.writerows(conv_rows)
        written["convergence"] = path
    else:
        warnings.warn("no history rows, skipping convergence.csv")

    ok = [r for r in reports if r.status == "ok"]
    if ok:
        path = outdir / "sizes.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["scenario", "algorithm", "run", "ordering_size",
                        "group_size", "eligible_mean", "filtered_mean",
                        "reduction_pct"])
            for r in ok:
                w.writerow([r.scenario, r.algorithm, r.run_index,
                            r.ordering_size, r.group_size,
                            repr(r.eligible_mean), repr(r.filtered_mean),
                            repr(r.reduction_pct)])
        written["sizes"] = path
    else:
        warnings.warn("no finished runs, skipping sizes.csv")

    path = outdir / "runtime.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "algorithm", "run", "train_seconds", "censored"])
        for r in reports:
            w.writerow([r.scenario, r.algorithm, r.run_index,
                        f"{r.train_seconds:.3f}", int(r.status != "ok")])
    written["runtime"] = path
    return written


# ---------------------------------------------------------------------------
# config files

def experiment_to_dict(exp: Experiment) -> dict:
    d = asdict(exp)
    d["scenarios"] = [asdict(s) for s in exp.scenarios]
    return d


def experiment_from_dict(d: dict) -> Experiment:
    """Experiment from a JSON-style dict; only `scenarios` and each
    scenario's `name` are required."""
    d = {"seed": 0, "algorithms": ("sgp", "kggp-max"), "n_runs": 1, "gp": {}, **d}
    check_keys(d, Experiment, "experiment")
    gp_raw = dict(d["gp"])
    gp_raw.pop("policy", None)  # the algorithm list decides this per run

    scenarios = []
    for s in d["scenarios"]:
        s = {"gen": {}, **s}
        check_keys(s, Scenario, "scenario")
        scenarios.append(Scenario(**dict(s, gen=gen_spec_from_dict(s["gen"]))))
    return Experiment(**dict(d, scenarios=tuple(scenarios),
                             algorithms=tuple(d["algorithms"]),
                             gp=gp_config_from_dict(gp_raw)))


def load_experiment(path: Path) -> Experiment:
    with Path(path).open() as fh:
        return experiment_from_dict(json.load(fh))


def read_reports(indir: Path) -> list[RunReport]:
    """Rebuild run reports from a result directory written by write_reports."""
    indir = Path(indir)
    payload = json.loads((indir / "report.json").read_text())

    hist: dict[tuple, list[GenerationStat]] = {}
    hist_path = indir / "history.csv"
    if hist_path.exists():
        with hist_path.open(newline="") as fh:
            for row in csv.DictReader(fh):
                key = (row["scenario"], row["algorithm"], int(row["run"]))
                hist.setdefault(key, []).append(GenerationStat(
                    generation=int(row["generation"]),
                    best_fitness=float(row["best_fitness"]),
                    mean_fitness=float(row["mean_fitness"]),
                    mean_ordering_size=float(row["ordering_size"]),
                    mean_group_size=float(row["group_size"]),
                    wall_seconds=0.0,
                ))

    seconds: dict[tuple, float] = {}
    timing_path = indir / "timings.csv"
    if timing_path.exists():
        with timing_path.open(newline="") as fh:
            for row in csv.DictReader(fh):
                key = (row["scenario"], row["algorithm"], int(row["run"]))
                seconds[key] = float(row["train_seconds"])

    reports = []
    for d in payload["reports"]:
        rules = None
        if d["ordering"] is not None:
            rules = RulePair(parse_sexpr(d["ordering"]),
                             parse_sexpr(d["group"]) if d["group"] else None)
        key = (d["scenario"], d["algorithm"], d["run_index"])
        reports.append(RunReport(
            scenario=d["scenario"],
            algorithm=d["algorithm"],
            run_index=d["run_index"],
            seed=d["seed"],
            status=d["status"],
            rules=rules,
            test_objective=d["test_objective"],
            final_fitness=d["final_fitness"],
            gen0_fitness=d["gen0_fitness"],
            ordering_size=d["ordering_size"],
            group_size=d["group_size"],
            best_generation=d["best_generation"],
            history=tuple(hist.get(key, ())),
            eligible_mean=d["eligible_mean"],
            filtered_mean=d["filtered_mean"],
            reduction_pct=d["reduction_pct"],
            train_seconds=seconds.get(key, 0.0),
        ))
    return reports
