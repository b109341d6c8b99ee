"""Alternating A/B runs of one perfbench workload in two checkouts.

    python3 tools/ab.py PARENT CHANGE --workload NAME --pairs N [--seed S]

Runs `python3 perfbench/run.py --workload NAME --seed S --trace 0` (seed 1
unless given) in the parent and in the change checkout, one after the
other, N times; the side that goes first alternates from pair to pair. Each
run is a subprocess, and its last output line is its result. Prints, for each end-to-end metric the
change checkout's BENCHMARK.json names: the median on each side, the change,
the pairs the change won and the parent's interquartile range, whether
the change would hold a claimed gain (`claim`: it won at least 9 pairs in
10 and its median beats the parent's by more than that range) and whether
its median stays within the metric's `bound` (`in bound`: worse than the
parent's by at most that fraction); then the digests seen on each side and
every run that was not correct or had a failed operation. Standard library
only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """One run's result: the last line's JSON object, with the digest and
    objective the run printed before it (None if it printed none)."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    result["digest"] = result["objective"] = None
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key == "digest":
            result["digest"] = rest
        elif key == "objective":
            result["objective"] = rest.split(" failed_frac ")[0]
    return result


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(workload: str, pairs: list[tuple[dict, dict]],
              better: dict[str, str], bounds: dict[str, float] | None = None) -> str:
    """The report on (parent, change) result pairs, one metric a row;
    `better` maps each end-to-end metric to "lower" or "higher". With
    `bounds`, each metric's largest allowed relative worsening, a row also
    says whether a claimed gain holds and whether the change stays in bound."""
    out = [f"{workload}: {len(pairs)} alternating pairs",
           f"{'metric':<20}{'parent':>12}{'change':>12}{'delta':>9}{'won':>8}"
           f"{'parent IQR':>12}" + (f"{'claim':>7}{'in bound':>10}" if bounds else "")]
    for name, way in better.items():
        a = [p["metrics"][name]["value"] for p, _ in pairs]
        b = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if way == "lower" else -1
        won = sum(sign * (x - y) > 0 for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        delta = f"{100 * (mb - ma) / ma:+.1f}%" if ma else "-"
        row = (f"{name:<20}{ma:>12.4g}{mb:>12.4g}{delta:>9}"
               f"{f'{won}/{len(pairs)}':>8}{iqr(a):>12.4g}")
        if bounds:
            claim = 10 * won >= 9 * len(pairs) and sign * (ma - mb) > iqr(a)
            held = sign * (mb - ma) <= bounds[name] * abs(ma)
            row += f"{'yes' if claim else 'no':>7}{'yes' if held else 'no':>10}"
        out.append(row)
    for k, side in enumerate(SIDES):
        seen = sorted({(r[k]["digest"], r[k]["objective"]) for r in pairs},
                      key=str)
        out += [f"{side} digest {d} objective {o}" for d, o in seen]
    bad = [f"{side} run {n + 1}: correct {r[k]['correct']}, "
           f"failed {r[k]['failed']} of {r[k]['attempted']}"
           for n, r in enumerate(pairs) for k, side in enumerate(SIDES)
           if not r[k]["correct"] or r[k]["failed"]]
    out += bad or ["every run correct, none failed"]
    return "\n".join(out)


def run_once(checkout: Path, workload: str, seed: int = 1) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{checkout}: exit {done.returncode}\n{done.stderr}")
    return parse_run(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    pairs = []
    for n in range(args.pairs):
        order = SIDES if n % 2 == 0 else SIDES[::-1]
        got = {side: run_once(getattr(args, side), args.workload, args.seed)
               for side in order}
        pairs.append((got["parent"], got["change"]))
        first = next(iter(better))
        print(f"pair {n + 1} {first}: " + ", ".join(
            f"{side} {got[side]['metrics'][first]['value']:.4g}" for side in SIDES),
            file=sys.stderr)
    print(summarize(args.workload, pairs, better, bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
