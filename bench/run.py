"""Benchmark of the dormantops library, end to end and layer by layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Run from the root of a checkout: the library is imported from its src/.
The workloads, the metrics and the run length (run_seconds) are the ones
in BENCHMARK.json; --seconds is accepted only with that value.

A run first starts PROBES interpreters that only import the library, then
starts rounds while one more round, at the mean round length so far, brings
the end of the run nearer to run_seconds; there is always at least one.  A
round runs each part of the workload (WORKLOADS) in a fresh worker process
(bench/worker.py), which computes the part's answers with cold caches and
then checks them.  One worker runs at a time.

--trace 0 reports the end-to-end metrics:
  setup_s       interpreter start until dormantops and dormantops.cli are
                imported; the median over the probes and the workers
  wall_s        the workload's compute, summed over its parts, checks
                excluded; the mean over the rounds
  peak_rss_mib  peak resident memory of a worker during the compute,
                summed over the parts; the median over the rounds
--trace 1 alternates untraced and traced rounds.  It reports the per-layer
metrics, as medians over the traced rounds, the self time per layer, and the
tracing overhead: mean traced wall_s minus mean untraced wall_s.  The
spans are written to bench/out/ when the run ends.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  correct is false when a check finds a wrong answer.  Exit status 0
when every operation ran and every check passed, 1 when an operation failed
or a check found a wrong answer, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 5
WORKER_TIMEOUT_S = 150
# The parts of each workload, named in workloads.PARTS.  The tables, gluing
# and closed-form parts share one workload: with two workloads instead of
# four, each run can be twice as long in the same measuring time, and on a
# shared virtual machine speed drifts over tens of seconds.
WORKLOADS = {
    "kernel": ("kernel",),
    "fusion": ("tables", "gluing", "closed_form"),
}


# How a run sums up each end-to-end metric over its samples.  wall_s is the
# mean over the rounds: a shared virtual machine can switch for tens of
# seconds at a time between two speeds about 25% apart (bench/README.md), and
# the mean weighs both by the time spent in each, where the median of a run
# jumps to whichever dominated it.
SUMMARY = {"setup_s": statistics.median, "wall_s": statistics.fmean, "peak_rss_mib": statistics.median}


class BenchError(Exception):
    pass


def spawn(part: str, seed: int, mode: str) -> dict:
    """Run one worker; its result with setup_s, the time until its imports ended."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), part, str(seed), mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{part} {mode} worker ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{part} {mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def run_round(parts: tuple, seed: int, mode: str) -> dict:
    """One round: each part in its own worker, one after another, merged."""
    results = [spawn(part, seed, mode) for part in parts]
    merged = {
        "setups": [r["setup_s"] for r in results],
        "wall_s": sum(r["wall_s"] for r in results),
        # summed, so that a change in any part's memory shows
        "peak_rss_mib": sum(r["peak_rss_mib"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "errors": [e for r in results for e in r["errors"]],
        "problems": [p for r in results for p in r["problems"]],
        "counters": {k: v for r in results for k, v in r["counters"].items()},
    }
    if mode == "traced":
        self_s: dict[str, float] = {}
        max_s: dict[str, float] = {}
        for r in results:
            for name, s in r["self_s"].items():
                self_s[name] = self_s.get(name, 0.0) + s
            for name, s in r["max_s"].items():
                max_s[name] = max(max_s.get(name, 0.0), s)
        merged.update(self_s=self_s, max_s=max_s, spans={p: r["spans"] for p, r in zip(parts, results)})
    return merged


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def layer_metric(name: str, rounds: list[dict]) -> float:
    """Median over traced rounds of one per-layer metric.

    NAME_s is the self time of the spans called NAME, NAME_max_s the longest
    single one; any other name is a counter.  A workload that makes no such
    call reads 0.
    """
    if name.endswith("_max_s"):
        values = [r["max_s"].get(name[: -len("_max_s")], 0.0) for r in rounds]
    elif name.endswith("_s"):
        values = [r["self_s"].get(name[: -len("_s")], 0.0) for r in rounds]
    else:
        values = [r["counters"].get(name, 0) for r in rounds]
    return statistics.median(values)


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    probes = [spawn("", seed, "probe") for _ in range(PROBES)]
    setups = [r["setup_s"] for r in probes]
    parts = WORKLOADS[workload]
    plain, traced = [], []
    start = time.monotonic()
    while True:
        # a traced run alternates plain and traced rounds, starting plain
        use_trace = trace and len(traced) < len(plain)
        r = run_round(parts, seed, "traced" if use_trace else "plain")
        (traced if use_trace else plain).append(r)
        setups += r["setups"]
        elapsed = time.monotonic() - start
        # start another round only if, at the mean round length so far, that
        # brings the end of the run nearer to `seconds`
        if elapsed + elapsed / (len(plain) + len(traced)) / 2 >= seconds and (traced or not trace):
            break
    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    walls = [r["wall_s"] for r in plain]
    lines = [
        f"== {workload}  seed {seed}  parts {', '.join(parts)}"
        f"  rounds {len(plain)} plain, {len(traced)} traced",
        f"operations attempted {sum(r['attempted'] for r in rounds)}, failed {sum(r['failed'] for r in rounds)}",
    ]
    for r in rounds:
        lines += [f"  error: {e}" for e in r["errors"]]
    lines += [f"  WRONG: {p}" for p in problems[:20]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    measured = {
        "setup_s": setups,
        "wall_s": walls,
        "peak_rss_mib": [r["peak_rss_mib"] for r in plain],
    }
    summary = {name: SUMMARY[name](values) for name, values in measured.items()}
    for name, values in measured.items():
        q1, _, q3 = quartiles(values)
        lines.append(
            f"{name:<14} {summary[name]:.6g} {units[name]}   ({SUMMARY[name].__name__} of {len(values)};"
            f" quartiles {q1:.6g} .. {q3:.6g})"
        )
    lines.append(
        f"  peak_rss_mib of a probe that only imports the library: {statistics.median(r['peak_rss_mib'] for r in probes):.6g} MiB"
    )
    if trace:
        metrics = {m["name"]: layer_metric(m["name"], traced) for m in spec["per_layer"]}
        traced_wall = statistics.fmean(r["wall_s"] for r in traced)
        overhead = traced_wall - summary["wall_s"]
        by_layer: dict[str, float] = {}
        for r in traced:
            for name, s in r["self_s"].items():
                layer = name.split(".")[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + s / len(traced)
        lines.append("self time per layer (mean of traced rounds): " + ", ".join(
            f"{layer} {s:.4g} s" for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1])
        ))
        for name, value in metrics.items():
            lines.append(f"  {name:<26} {value:.6g} {units[name]}")
        lines.append(
            f"tracing overhead: traced wall_s {traced_wall:.6g} s - untraced {summary['wall_s']:.6g} s"
            f" = {overhead:.4g} s ({100 * overhead / summary['wall_s']:.2f}%)"
        )
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({
            "workload": workload,
            "seed": seed,
            "untraced_wall_s": walls,
            "overhead_s": overhead,
            "self_s_by_layer": by_layer,
            "rounds": [{"wall_s": r["wall_s"], "spans_by_part": r["spans"]} for r in traced],
        }))
        lines.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = summary
    return {
        "lines": lines,
        "ok": not problems and not sum(r["failed"] for r in rounds),
        "result": {
            "correct": not problems,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        },
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    # the run length is BENCHMARK.json's; the option exists because callers pass it
    parser.add_argument("--seconds", type=float, choices=[float(spec["run_seconds"])],
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dormantops" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'dormantops'}; run from a checkout", file=sys.stderr)
        return 2
    # what a command-line call finds after install: compiled modules.  The
    # benchmark's own modules too, so that no worker's peak memory includes
    # compiling them when the environment forbids writing bytecode.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    ok = True
    for name in names if args.workload == "all" else [args.workload]:
        try:
            done = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
        except BenchError as ex:
            print(f"error: {ex}", file=sys.stderr)
            return 2
        print("\n".join(done["lines"]), flush=True)
        print(json.dumps(done["result"]), flush=True)
        ok = ok and done["ok"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
