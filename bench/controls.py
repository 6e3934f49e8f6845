"""Negative controls: each workload's checker must reject a deliberately wrong answer.

    python3 bench/controls.py

Run from the root of a checkout.  For each workload it computes the answers
to a small input, requires the checker to accept them, corrupts one answer,
and requires the checker to reject the result.  The wrong answers are a rank
plus one (kernel), a base table corrupted with BaseTable.with_value (tables),
a genus count off by one (gluing) and a non-integer closed-form value
(closed_form).  Exit status 0 when every control behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402
from dormantops import hyp_set  # noqa: E402


def kernel():
    inp = w.kernel_inputs(1)
    inp = inp[:60] + inp[-4:]
    ans = w.kernel_compute(inp, w.untraced)
    i = next(i for i, (_, a, b) in enumerate(inp) if None not in a + b and i > 10)
    values = list(ans.values)
    rank, oracle, basis = values[i]
    values[i] = (rank + 1, oracle, basis)
    return inp, ans, dataclasses.replace(ans, values=values)


def tables():
    inp = {"verify": [3], "tables": [(7, 3), (7, 4)], "axioms": []}
    ans = w.tables_compute(inp, w.untraced)
    table = ans.values["tables"][(7, 3)]
    triple = min(hyp_set(7, 3), key=lambda t: [c.elems for c in t])
    values = dict(ans.values, tables=dict(ans.values["tables"]))
    values["tables"][(7, 3)] = table.with_value(triple, 0)
    return inp, ans, dataclasses.replace(ans, values=values)


def gluing():
    inp = [(7, 3, 2, ()), (7, 3, 1, ((0, 1, 3), (0, 2, 4)))]
    ans = w.gluing_compute(inp, w.untraced)
    values = list(ans.values)
    value, memo, used = values[0]
    values[0] = (value + 1, memo, used)
    return inp, ans, dataclasses.replace(ans, values=values)


def closed_form():
    inp = [(11, 3, 2)]
    ans = w.closed_form_compute(inp, w.untraced)
    values = [ans.values[0] + Fraction(1, 2)]
    return inp, ans, dataclasses.replace(ans, values=values)


def main() -> int:
    ok = True
    for name, control in [("kernel", kernel), ("tables", tables), ("gluing", gluing),
                          ("closed_form", closed_form)]:
        check = getattr(w, f"{name}_check")
        inp, right, wrong = control()
        accepted = check(inp, right)
        rejected = check(inp, wrong)
        behaves = right.failed == 0 and not accepted and bool(rejected)
        ok = ok and behaves
        print(f"{name:<12} {'ok' if behaves else 'FAIL'}: right answers "
              f"{'accepted' if not accepted else 'rejected ' + accepted[0]}; wrong answer "
              f"{'rejected: ' + rejected[0] if rejected else 'ACCEPTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
