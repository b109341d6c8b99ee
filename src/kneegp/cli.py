"""Command line entry points.

Subcommands:

* gen       generate project instances from a JSON generator spec
* solve     run one policy on one instance and report the makespan
* evolve    train a rule pair from a JSON training config
* bench     experiment harness: run / stats / plots
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .bench import (
    _write_csv,
    emit_plot_data,
    experiment_from_dict,
    format_table,
    read_reports,
    run_experiment,
    summarize,
    write_reports,
)
from .evolve import GpConfig, TrainingRun, TrainingTimeout, evolve, rule_size
from .instgen import GenerationError, GenSpec, generate_instance
from .model import from_dict, load_instance, save_instance, schedule_to_dict, validate_schedule
from .policy import (DEFAULT_ENUMERATION_LIMIT, POLICY_NAMES, EnumerationOverflowError,
                     KneeConfig, build_policy)
from .rules import load_rules, save_rules
from .sim import DurationTable, solve


def cmd_gen(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, not {args.count}")
    spec = from_dict(GenSpec, json.loads(Path(args.spec).read_text()))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for k in range(args.count):
        inst = generate_instance(spec, spec.seed + k)
        path = outdir / f"instance_{k:04d}.json"
        save_instance(inst, path)
        print(f"{path}  activities={inst.n_activities}  "
              f"os={inst.metadata['os_achieved']:.4f}")
    return 0


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    rules = load_rules(args.rules)
    knee = KneeConfig(cap=args.knee_cap, group_size_hard_limit=args.group_limit)
    policy = build_policy(rules, args.policy, knee, args.group_limit)
    res = solve(inst, policy,
                DurationTable(inst, None if args.expected else args.duration_seed))
    check = validate_schedule(inst, res.schedule)
    if not check:
        for v in check.violations:
            print(f"violation: {v.message}", file=sys.stderr)
        return 1
    print(f"makespan {res.makespan}")
    print(f"decisions {len(res.decisions)}")
    if args.schedule_out:
        Path(args.schedule_out).write_text(
            json.dumps(schedule_to_dict(res.schedule), indent=2, sort_keys=True) + "\n")
    if args.log:  # one row per group start
        _write_csv(Path(args.log),
                   ["clock", "eligible_size", "filtered_size", "group_size", "pairs"],
                   ([d.clock, d.eligible_size, d.filtered_size, len(d.group),
                     ";".join(f"{i}:{m}" for i, m in d.group)] for d in res.decisions))
    return 0


def cmd_evolve(args) -> int:
    raw = json.loads(Path(args.config).read_text())
    gp = {}
    if isinstance(raw, dict):  # any other shape fails in from_dict below
        run_keys = {f.name for f in fields(TrainingRun)}
        gp = {k: raw.pop(k) for k in list(raw) if k not in run_keys}
    run = from_dict(TrainingRun, raw)
    if not run.instances:
        raise ValueError("training config needs a non-empty 'instances' list")
    cfg = from_dict(GpConfig, gp)

    base = Path(args.config).parent
    instances = []
    for p in run.instances:
        p = Path(p)
        instances.append(load_instance(p if p.is_absolute() else base / p))

    result = evolve(cfg, instances, wall_limit=run.wall_limit)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_rules(result.best, outdir / "best.rules")
    _write_csv(outdir / "history.csv",
               ["generation", "best_fitness", "mean_fitness",
                "ordering_size", "group_size", "wall_seconds"],
               ([h.generation, repr(h.best_fitness), repr(h.mean_fitness),
                 repr(h.mean_ordering_size), repr(h.mean_group_size),
                 f"{h.wall_seconds:.3f}"] for h in result.history))
    o_size, g_size = rule_size(result.best)
    summary = {
        "best_fitness": result.best_fitness,
        "best_generation": result.best_generation,
        "ordering_size": o_size,
        "group_size": g_size,
        "generations": len(result.history),
    }
    (outdir / "result.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"best fitness {result.best_fitness:.6f} "
          f"(generation {result.best_generation})")
    print(f"artifacts in {outdir}")
    return 0


def cmd_bench_run(args) -> int:
    exp = experiment_from_dict(json.loads(Path(args.experiment).read_text()))

    def progress(r):
        print(f"[{r.scenario}] {r.algorithm} run {r.run_index}: {r.status}",
              file=sys.stderr, flush=True)

    reports = run_experiment(exp, progress=progress, workers=args.workers)
    paths = write_reports(reports, Path(args.out), exp)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def cmd_bench_stats(args) -> int:
    reports = read_reports(Path(args.indir))
    table = summarize(reports, alpha=args.alpha)
    out = Path(args.indir) / "stats.json"
    out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(format_table(table))
    print(f"stats: {out}")
    return 0


def cmd_bench_plots(args) -> int:
    reports = read_reports(Path(args.indir))
    outdir = Path(args.out) if args.out else Path(args.indir) / "plots"
    written = emit_plot_data(reports, outdir)
    for name, path in written.items():
        print(f"{name}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kneegp",
        description="Evolve and run group-selection dispatching rules for "
                    "multi-mode project scheduling under duration uncertainty.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instances from a JSON spec")
    p.add_argument("--spec", required=True, help="generator spec JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=1, help="number of instances")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run one policy on one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--rules", required=True, help="rule file with ordering:/group: lines")
    p.add_argument("--policy", choices=POLICY_NAMES, default="kggp-max")
    p.add_argument("--knee-cap", type=int, default=KneeConfig.cap)
    p.add_argument("--group-limit", type=int, default=DEFAULT_ENUMERATION_LIMIT)
    p.add_argument("--duration-seed", type=int, default=0)
    p.add_argument("--expected", action="store_true",
                   help="pin durations to their expected values")
    p.add_argument("--schedule-out", help="write the schedule as JSON")
    p.add_argument("--log", help="write the decision log as CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evolve", help="train a rule pair")
    p.add_argument("--config", required=True, help="training config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("bench", help="experiment harness")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser("run", help="run an experiment grid")
    b.add_argument("--experiment", required=True, help="experiment JSON file")
    b.add_argument("--out", required=True, help="output directory")
    b.add_argument("--workers", type=int, default=1)
    b.set_defaults(func=cmd_bench_run)

    b = bench_sub.add_parser("stats", help="summary table with rank-sum tests")
    b.add_argument("--in", dest="indir", required=True, help="experiment output dir")
    b.add_argument("--alpha", type=float, default=0.05)
    b.set_defaults(func=cmd_bench_stats)

    b = bench_sub.add_parser("plots", help="emit plot-ready CSV files")
    b.add_argument("--in", dest="indir", required=True, help="experiment output dir")
    b.add_argument("--out", help="plot data directory (default: <in>/plots)")
    b.set_defaults(func=cmd_bench_plots)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, GenerationError, TrainingTimeout,
            EnumerationOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
