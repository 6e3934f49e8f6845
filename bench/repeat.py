"""Repeatability: run the benchmark once per seed and report each metric's spread.

    python3 bench/repeat.py [--workload NAME|all]

Runs bench/run.py --trace 0 with seeds 1 to RUNS, one after another (never
two at once).  For
each end-to-end metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json, and the share of operations
that failed.  The raw results go to bench/out/repeat-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    args = parser.parse_args(argv)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    status = 0
    for name in names if args.workload == "all" else [args.workload]:
        results = []
        for seed in range(1, RUNS + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            results.append({"seed": seed, **json.loads(proc.stdout.strip().splitlines()[-1])})
            print(f"{name} seed {seed}: " + "  ".join(
                f"{m} {v['value']:.6g}" for m, v in results[-1]["metrics"].items()), flush=True)
        (out / f"repeat-{name}.json").write_text(json.dumps(results, indent=1))
        if len(results) < 2:
            continue
        failed = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{name}: {len(results)} runs, all correct: {all(r['correct'] for r in results)},"
              f" failed share: {failed}")
        print(f"  {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {m['name']:<14} {med:>10.5g} {q1:>10.5g} {q3:>10.5g}"
                  f" {(q3 - q1) / med:>7.3f} {m['bound']:>6}")
    return status


if __name__ == "__main__":
    sys.exit(main())
