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
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import repeat
from operator import add
from pathlib import Path
from statistics import median
from typing import ClassVar, Sequence

from .evolve import GenerationStat, GpConfig, TrainingTimeout, evolve, rule_size
from .instgen import GenSpec, generate_instance
from .model import ProjectInstance, check_types, from_dict
from .policy import EnumerationOverflowError, build_policy, check_policy_name
from .rules import RulePair, format_sexpr, parse_sexpr
from .sim import DecisionRecord, derive_seed, sample_durations, solve


@dataclass(frozen=True)
class Scenario:
    """One cell of the experiment grid: a generator setting plus data sizes."""

    what: ClassVar[str] = "scenario"
    name: str
    gen: GenSpec = field(default_factory=GenSpec)
    n_train: int = 3
    n_test: int = 5

    def __post_init__(self):
        if not (self.n_train >= 1 and self.n_test >= 1):
            raise ValueError("scenarios need at least one train and test instance")


@dataclass(frozen=True)
class Experiment:
    what: ClassVar[str] = "experiment"
    scenarios: tuple[Scenario, ...]
    seed: int = 0
    algorithms: tuple[str, ...] = ("sgp", "kggp-max")
    n_runs: int = 1
    gp: GpConfig = field(default_factory=GpConfig)
    test_realizations: int = 5
    wall_limit: float | None = None

    def __post_init__(self):
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError("scenario names must be unique")
        if not self.scenarios or not self.algorithms:
            raise ValueError("need at least one scenario and one algorithm")
        if not (self.n_runs >= 1 and self.test_realizations >= 1):
            raise ValueError("run and realization counts must be positive")
        for k, name in enumerate(self.algorithms):
            check_policy_name(name)
            if name in self.algorithms[:k]:
                raise ValueError(f"algorithm {name!r} is named more than once")


@dataclass(frozen=True)
class RunReport:
    """One cell of the grid. The defaulted fields mean "absent": a run keeps
    them when training or testing did not finish."""

    scenario: str
    algorithm: str
    run_index: int
    seed: int
    status: str  # ok | timeout | overflow
    train_seconds: float
    rules: RulePair | None = None
    test_objective: float | None = None
    # training fitness of the winner and of the generation-0 champion, both
    # under the shared final re-evaluation; final_fitness <= gen0_fitness
    final_fitness: float | None = None
    gen0_fitness: float | None = None
    ordering_size: int = 0
    group_size: int = 0
    best_generation: int = -1
    history: tuple[GenerationStat, ...] = ()
    eligible_mean: float | None = None
    filtered_mean: float | None = None
    reduction_pct: float | None = None


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
    head = dict(scenario=scn.name, algorithm=algorithm, run_index=run_index,
                seed=run_seed)
    tick = time.perf_counter()
    try:
        trained = evolve(cfg, trains, wall_limit=exp.wall_limit)
    except TrainingTimeout as exc:
        return RunReport(**head, status="timeout", history=exc.history,
                         train_seconds=time.perf_counter() - tick)
    except EnumerationOverflowError:
        return RunReport(**head, status="overflow",
                         train_seconds=time.perf_counter() - tick)
    head["train_seconds"] = time.perf_counter() - tick
    o_size, g_size = rule_size(trained.best)
    head.update(rules=trained.best, final_fitness=trained.best_fitness,
                gen0_fitness=trained.candidates[0].final_fitness,
                ordering_size=o_size, group_size=g_size,
                best_generation=trained.best_generation, history=trained.history)
    try:
        objective, decisions = evaluate_on_tests(exp, scn, trained.best,
                                                 algorithm, tests)
    except EnumerationOverflowError:
        return RunReport(**head, status="overflow")
    return RunReport(**head, status="ok", test_objective=objective,
                     **asdict(reduction_report(decisions)))


def run_experiment(exp: Experiment, progress=None,
                   workers: int = 1) -> list[RunReport]:
    """Every (scenario, algorithm, run) cell, in deterministic order.

    Runs are independent; `workers > 1` fans them out over processes without
    changing the result order or content.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    cells = []
    for scn in exp.scenarios:
        trains = scenario_instances(exp, scn, "train")
        tests = scenario_instances(exp, scn, "test")
        for algorithm in exp.algorithms:
            for run_index in range(exp.n_runs):
                cells.append((scn, algorithm, run_index, trains, tests))

    reports: list[RunReport] = []
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for report in (pool.map if pool else map)(run_one, repeat(exp), *zip(*cells)):
            reports.append(report)
            if progress is not None:
                progress(report)
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
    eligible_mean: float
    filtered_mean: float
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
        eligible_mean=sum(d.eligible_size for d in decisions) / len(decisions),
        filtered_mean=sum(d.filtered_size for d in decisions) / len(decisions),
        reduction_pct=100 * cut / len(decisions),
    )


def summarize(reports: Sequence[RunReport], alpha: float = 0.05) -> dict:
    """Mean(std) per cell plus rank-sum verdicts against the first algorithm."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), not {alpha}")
    if not reports:
        raise ValueError("no reports to summarize")
    scenarios = sorted({r.scenario for r in reports})
    algorithms = list(dict.fromkeys(r.algorithm for r in reports))
    baseline = algorithms[0]
    table: dict = {"alpha": alpha, "baseline": baseline, "cells": {}}
    for scn in scenarios:
        row: dict = {}
        for alg in algorithms:
            runs = [r for r in reports if r.scenario == scn and r.algorithm == alg]
            vals = [r.test_objective for r in runs if r.status == "ok"]
            cell = {
                "runs": len(runs),
                "ok": len(vals),
                "mean": _mean(vals),
                "std": _std(vals),
            }
            if alg == baseline:
                base_vals = vals
            elif len(vals) >= 2 and len(base_vals) >= 2:
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

# report.json keeps every field but the rule pair, which it holds as the
# `ordering` and `group` s-expressions, and what the CSV files hold
_JSON_FIELDS = tuple(f.name for f in fields(RunReport)
                     if f.name not in ("rules", "history", "train_seconds"))
_JSON_KEYS = frozenset(_JSON_FIELDS) | {"ordering", "group"}


def report_to_dict(r: RunReport) -> dict:
    """Deterministic view of a report: history and wall-clock time are left
    to history.csv and timings.csv."""
    return {
        **{name: getattr(r, name) for name in _JSON_FIELDS},
        "ordering": format_sexpr(r.rules.ordering) if r.rules else None,
        "group": format_sexpr(r.rules.group) if r.rules and r.rules.group else None,
    }


def _write_csv(path: Path, header: Sequence[str], rows) -> Path:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def write_reports(reports: Sequence[RunReport], outdir: Path,
                  experiment: Experiment) -> dict[str, Path]:
    """Write report.json, history.csv and timings.csv under `outdir`.

    report.json and history.csv are byte-stable across reruns of the same
    experiment seed; timings.csv carries the wall-clock numbers and is not.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {"reports": [report_to_dict(r) for r in reports],
               "experiment": asdict(experiment)}
    report = outdir / "report.json"
    report.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return {
        "report": report,
        "history": _write_csv(
            outdir / "history.csv",
            ["scenario", "algorithm", "run", "generation", "best_fitness",
             "mean_fitness", "ordering_size", "group_size"],
            ([r.scenario, r.algorithm, r.run_index, h.generation,
              repr(h.best_fitness), repr(h.mean_fitness),
              repr(h.mean_ordering_size), repr(h.mean_group_size)]
             for r in reports for h in r.history)),
        "timings": _write_csv(
            outdir / "timings.csv",
            ["scenario", "algorithm", "run", "status", "train_seconds", "censored"],
            ([r.scenario, r.algorithm, r.run_index, r.status,
              f"{r.train_seconds:.3f}", int(r.status != "ok")] for r in reports)),
    }


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
        written["convergence"] = _write_csv(
            outdir / "convergence.csv",
            ["scenario", "algorithm", "run", "generation", "best_fitness"], conv_rows)
    else:
        warnings.warn("no history rows, skipping convergence.csv")

    ok = [r for r in reports if r.status == "ok"]
    if ok:
        written["sizes"] = _write_csv(
            outdir / "sizes.csv",
            ["scenario", "algorithm", "run", "ordering_size", "group_size",
             "eligible_mean", "filtered_mean", "reduction_pct"],
            ([r.scenario, r.algorithm, r.run_index, r.ordering_size, r.group_size,
              repr(r.eligible_mean), repr(r.filtered_mean), repr(r.reduction_pct)]
             for r in ok))
    else:
        warnings.warn("no finished runs, skipping sizes.csv")

    written["runtime"] = _write_csv(
        outdir / "runtime.csv",
        ["scenario", "algorithm", "run", "train_seconds", "censored"],
        ([r.scenario, r.algorithm, r.run_index, f"{r.train_seconds:.3f}",
          int(r.status != "ok")] for r in reports))
    return written


# ---------------------------------------------------------------------------
# config files

def experiment_from_dict(d: dict) -> Experiment:
    """Experiment from a JSON-style dict; only `scenarios` and each
    scenario's `name` are required. `gp.policy` must name a policy but is
    ignored: the algorithm list decides it per run."""
    exp = from_dict(Experiment, d)
    return replace(exp, gp=replace(exp.gp, policy=GpConfig.policy))


def _read_csv(path: Path, **columns: type) -> dict[tuple, list[dict]]:
    """Rows of a result CSV by run (scenario, algorithm, run); none if absent.
    The header must name the run columns and `columns`, every row must have
    as many fields as the header, and a row holds `run` and `columns` parsed."""
    runs: dict[tuple, list[dict]] = {}
    types = {"run": int, **columns}
    if path.exists():
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in ("scenario", "algorithm", *types) if c not in header]
            if missing:
                raise ValueError(f"{path.name}: missing column(s) {', '.join(missing)}")
            for fields in filter(None, reader):  # blank lines hold no row
                where = f"{path.name}: line {reader.line_num}"
                if len(fields) != len(header):
                    raise ValueError(f"{where} has {len(fields)} fields, the header {len(header)}")
                row = dict(zip(header, fields))
                for c, kind in types.items():
                    try:
                        row[c] = kind(row[c])
                    except ValueError:
                        raise ValueError(f"{where}, column {c}: {row[c]!r} is not "
                                         f"{kind.__name__}") from None
                runs.setdefault((row["scenario"], row["algorithm"], row["run"]), []).append(row)
    return runs


def read_reports(indir: Path) -> list[RunReport]:
    """Rebuild run reports from a result directory written by write_reports."""
    indir = Path(indir)
    try:
        payload = json.loads((indir / "report.json").read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"report.json: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("reports"), list):
        raise ValueError("report.json must be an object with a 'reports' list")
    columns = dict(generation=int, best_fitness=float, mean_fitness=float,
                   ordering_size=float, group_size=float)  # `GenerationStat` order
    history = _read_csv(indir / "history.csv", **columns)
    seconds = {key: rows[-1]["train_seconds"]
               for key, rows in _read_csv(indir / "timings.csv", train_seconds=float).items()}

    reports = []
    for d in payload["reports"]:
        if not isinstance(d, dict):
            raise ValueError(f"report.json entry must be an object, not {d!r}")
        if set(d) != _JSON_KEYS:
            raise ValueError(
                f"report.json entry: missing key(s) {sorted(_JSON_KEYS - set(d))}, "
                f"unknown key(s) {sorted(set(d) - _JSON_KEYS)}")
        checked = check_types(d, RunReport, "report.json entry")
        if d["status"] not in ("ok", "timeout", "overflow"):
            raise ValueError(f"report.json entry: unknown status {d['status']!r}")
        if d["status"] == "ok" and d["test_objective"] is None:
            raise ValueError("report.json entry: an ok run needs a test_objective")
        for key in ("ordering", "group"):
            if not isinstance(d[key], (str, type(None))):
                raise ValueError(f"report.json entry key {key} must be str | None, "
                                 f"not {d[key]!r}")
        rules = None
        if d["ordering"] is not None:
            rules = RulePair(parse_sexpr(d["ordering"]),
                             parse_sexpr(d["group"]) if d["group"] else None)
        key = (d["scenario"], d["algorithm"], d["run_index"])
        reports.append(RunReport(
            **checked,
            rules=rules,
            history=tuple(GenerationStat(*map(row.get, columns), wall_seconds=0.0)
                          for row in history.get(key, ())),
            train_seconds=seconds.get(key, 0.0),
        ))
    return reports
