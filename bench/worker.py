"""One part of one round, in a fresh interpreter.

    python3 worker.py ROOT PART SEED MODE

ROOT is the checkout whose src/ holds the library, PART a name in
workloads.PARTS.  MODE is "probe" (import the library, read the memory and
stop), "plain" or "traced".  The library is imported before
anything else, so the clock read right after the imports, compared with the
clock read by the parent just before it started this process, gives the
set-up time a command-line call pays.  CLOCK_MONOTONIC is shared by every
process on the machine.

Prints one JSON line.  For a part it holds the timed compute, the peak
resident memory of the compute, the operations attempted and failed, the
problems the checks found, the part's counters, and in a traced round the
spans.  The memory is read right after the compute, before the checks and
the counters run.
"""

import os
import sys
import time

SRC = os.path.join(os.path.abspath(sys.argv[1]), "src")
sys.path.insert(0, SRC)
import dormantops  # noqa: E402
import dormantops.cli  # noqa: E402, F401

READY = time.monotonic()

import json  # noqa: E402
from collections import defaultdict  # noqa: E402

from workloads import PARTS, untraced  # noqa: E402


class Tracer:
    """Spans kept in memory, in start order: (name, parent index or -1, start, end)."""

    def __init__(self):
        self.spans = []
        self._open = []

    def call(self, name, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, self._open[-1] if self._open else -1, start, end)

    def summary(self) -> dict:
        """Self time summed per span name, and the longest single span per name.

        A span's self time is its duration minus the durations of its children;
        spans nest but never overlap, since the round runs on one thread.
        """
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        self_s, max_s = defaultdict(float), defaultdict(float)
        for (name, _, start, end), s in zip(self.spans, own):
            self_s[name] += s
            max_s[name] = max(max_s[name], end - start)
        return {"self_s": self_s, "max_s": max_s}


def peak_rss_mib() -> float:
    """High-water resident memory of this process since it started.

    Read from VmHWM, not from getrusage: Linux carries ru_maxrss over fork and
    exec, so there it is never below the parent's memory at spawn time.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM line in /proc/self/status")


def main() -> int:
    if not os.path.abspath(dormantops.__file__).startswith(SRC + os.sep):
        print(f"error: dormantops imported from {dormantops.__file__}, not {SRC}", file=sys.stderr)
        return 2
    part, seed, mode = sys.argv[2], int(sys.argv[3]), sys.argv[4]
    result = {"ready": READY}
    if mode == "probe":
        result["peak_rss_mib"] = peak_rss_mib()
    else:
        make_inputs, compute, check, counters = PARTS[part]
        inp = make_inputs(seed)
        tracer = Tracer() if mode == "traced" else None
        start = time.perf_counter()
        if tracer is None:
            ans = compute(inp, untraced)
        else:
            ans = tracer.call("bench." + part, compute, inp, tracer.call)
        wall = time.perf_counter() - start
        peak = peak_rss_mib()
        problems = check(inp, ans)
        result.update(
            wall_s=wall,
            peak_rss_mib=peak,
            attempted=ans.attempted,
            failed=ans.failed,
            errors=ans.errors,
            problems=[f"{part}: {p}" for p in problems[:20]],
            counters=counters(ans),
        )
        if tracer is not None:
            result.update(tracer.summary(), spans=tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
