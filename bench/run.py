"""Benchmark for ffplanar: scan throughput, verify latency and field set-up.

    python3 bench/run.py --workload q25-binomial-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; a table
for people goes to standard error, and a fuller record with the machine
description to .bench_out/.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def refuse(reason: str) -> None:
    print(f"bench: refusing to run: {reason}", file=sys.stderr)
    sys.exit(2)


def check_program() -> None:
    """Pin the program under test: assertions on, default table cap, and
    the package from this checkout's src/."""
    if sys.flags.optimize:
        refuse("python -O strips the library's witness re-check asserts")
    if "FFPLANAR_TABLE_CAP" in os.environ:
        refuse("FFPLANAR_TABLE_CAP is set; the benchmark uses the default cap")
    if not (SRC / "ffplanar" / "__init__.py").is_file():
        refuse(f"no ffplanar package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ffplanar

    if Path(ffplanar.__file__).resolve().parent != SRC / "ffplanar":
        refuse(f"ffplanar was imported from {ffplanar.__file__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_program()
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {list(WORKLOADS)} or 'all'")
    import measure

    result = measure.run_one(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(names: list[str], args) -> int:
    """Each workload in a process of its own, so that peak RSS and set-up
    are its own; prints one table and one combined JSON line."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"bench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    for key, m in final["metrics"].items():
        print(f"{key:<60} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_share':<60} {final['failed'] / final['attempted']:>14.6g} "
          f"ratio")
    print(json.dumps(final))
    return 0 if final["correct"] else 1

if __name__ == "__main__":
    sys.exit(main())
