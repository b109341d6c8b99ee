"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME [--seed 1] [--seconds 15] [--trace 0|1]

Run from the root of a source checkout; kneegp is imported from its `src/`.
Prints the environment, the output digest and the objective first, then as
the last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. Writes the full result, with the traced run's spans and
counters, under perfbench/out/. Exits with 2 if kneegp cannot be found.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kneegp" / "__init__.py").is_file():
        print(f"error: no kneegp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import kneegp
    if Path(kneegp.__file__).resolve().parent != (SRC / "kneegp").resolve():
        print(f"error: kneegp imported from {kneegp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = harness.write(result, ROOT / "perfbench" / "out", bool(args.trace))
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"digest {result['digest']}")
    print(f"objective {result['objective']!r} failed_frac {result['failed_frac']!r}")
    print("details " + json.dumps({k: v for k, v in result["details"].items()
                                   if isinstance(v, (int, float))}))
    for err in result["errors"]:
        print(f"error {err}")
    print(f"full result {path.relative_to(ROOT)}")
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
