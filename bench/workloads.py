"""The workloads: seeded inputs, the library calls, and the output checks.

A workload is one or more parts, listed in run.py; each part runs in a
worker process of its own.  A part is four functions, collected in PARTS:

    inputs(seed)          plain Python data made from the seed alone; it calls
                          nothing in the library, so the timed part starts cold
    compute(inp, call)    makes every library call of the part through
                          call(span_name, fn, *args) and returns an Answers;
                          it keeps only the answers the checks need
    check(inp, answers)   the problems found in the answers, each one a string;
                          an empty list means every answer is right
    counters(answers)     the part's per-layer counts, taken after the timed
                          compute and the memory reading

The checks use an independent computation or a property the method must
have, never a snapshot of earlier output.  They skip the answers of failed
operations: a failure is counted, not checked.

When a public function calls another public function (BaseTable calls xi and
hyp_set), compute calls the inner one first, so that its cold cost lands in
its own span.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from dormantops import (
    BaseTable,
    FusionEngine,
    Generic,
    apply,
    canonical,
    check_axioms,
    comp_dual,
    has_full_solutions,
    hyp_set,
    kernel_rank,
    new_operator,
    oracle_rank,
    poly_n3_g2,
    published_counts,
    published_xi,
    root_basis,
    verlinde_sum,
    xi,
)
from dormantops import cli


@dataclass
class Answers:
    """What one round computed; a failed operation leaves None in its slot."""

    values: object
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def attempt(self, fn, *args):
        """Run one operation, counting it; an exception marks it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as ex:  # a failed operation is counted, and the round goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(repr(ex))
            return None


def untraced(name, fn, *args):
    """The call protocol without tracing: run fn, ignore the span name."""
    return fn(*args)


def _primes(lo: int, hi: int) -> list[int]:
    return [q for q in range(lo, hi + 1) if q > 1 and all(q % d for d in range(2, int(q**0.5) + 1))]


def _hyp_pairs(p: int, n: int) -> list[tuple[int, int]]:
    """The hyp_set arguments BaseTable(p, n) consults: its own rank and, for
    n >= 3, the complement-dual rank; none at top rank."""
    if n == p - 1:
        return []
    if n == 2:
        return [(p, 2)]
    return [(p, n), (p, p - n)]


def _build_table(call, p: int, n: int):
    call("radii.xi", xi, p, n)
    for q, m in _hyp_pairs(p, n):
        call("radii.hyp_set", hyp_set, q, m)
    return call("fusion.base_table", BaseTable, p, n)


# ---------------------------------------------------------------- kernel

# (p, largest multiset size): every pair of parameter multisets, as in the
# tier-1 exhaustive sweep; it is bound by per-call overhead
KERNEL_SWEEP = ((5, 3), (7, 3))
# dense elimination grows about as p^3 here
KERNEL_PRIMES = tuple(_primes(31, 211))


def _random_operator(rng: random.Random, p: int, generic: bool) -> tuple[int, tuple, tuple]:
    alpha = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
    beta = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
    if generic:
        side = alpha if rng.random() < 0.5 else beta
        side[rng.randrange(len(side))] = None
    return p, tuple(alpha), tuple(beta)


def kernel_inputs(seed: int) -> list[tuple[int, tuple, tuple]]:
    """(p, alpha, beta) triples of residues, in a seeded order; None stands
    for a generic parameter.

    Each large prime gets one all-F_p operator and one with a single generic
    parameter.  The seed draws the generic ones.  The all-F_p ones come from
    a fixed generator: their elimination cost depends on where the
    parameters put zeros in the matrix, from 0.01 s to 0.25 s at p = 211, so
    a seeded draw would move the round by 30% between seeds.
    """
    rng = random.Random(seed)
    fixed = random.Random("kernel")
    ops = []
    for p, top in KERNEL_SWEEP:
        sets = [m for size in range(1, top + 1) for m in itertools.combinations_with_replacement(range(p), size)]
        ops += [(p, a, b) for a in sets for b in sets]
    for p in KERNEL_PRIMES:
        ops.append(_random_operator(fixed, p, generic=False))
        ops.append(_random_operator(rng, p, generic=True))
    rng.shuffle(ops)
    return ops


def _params(values, tag: str) -> list:
    return [Generic(f"{tag}{i}") if v is None else v for i, v in enumerate(values)]


def _kernel_one(call, p, alpha, beta):
    """(rank, oracle rank, root basis); the last two are None for a generic operator."""
    op = call("hyperg.new_operator", new_operator, p, _params(alpha, "a"), _params(beta, "b"))
    rank = call("hyperg.kernel_rank", kernel_rank, op)
    if not op.all_fp():
        return rank, None, None
    oracle = call("hyperg.oracle_rank", oracle_rank, op)
    basis = call("hyperg.root_basis", root_basis, op)
    return rank, oracle, basis


def kernel_compute(inp, call) -> Answers:
    ans = Answers([])
    for p, alpha, beta in inp:
        ans.values.append(ans.attempt(_kernel_one, call, p, alpha, beta))
    return ans


def _lift(r: int, p: int) -> int:
    return r if r else p


def kernel_check(inp, ans: Answers) -> list[str]:
    problems = []
    for (p, alpha, beta), got in zip(inp, ans.values):
        if got is None:
            continue
        rank, oracle, basis = got
        where = f"p={p} alpha={alpha} beta={beta}"
        if None in alpha + beta:
            # The matrix is bidiagonal, so its rank depends only on which
            # entries vanish.  A generic alpha never vanishes (drop it); a
            # generic beta acts like beta = 1, whose factor vanishes only
            # outside the superdiagonal.
            a = [x for x in alpha if x is not None]
            b = [1 if x is None else x for x in beta]
            want = oracle_rank(new_operator(p, a, b)) if a else 0
            if rank != want:
                problems.append(f"{where}: rank {rank}, zero-pattern oracle {want}")
            continue
        op = new_operator(p, alpha, beta)
        if rank != oracle:
            problems.append(f"{where}: kernel_rank {rank} != oracle_rank {oracle}")
        if len(basis) != rank:
            problems.append(f"{where}: {len(basis)} basis vectors for rank {rank}")
        if any(any(apply(op, v)) for v in basis):
            problems.append(f"{where}: a basis vector is not annihilated")
        if len(alpha) == 2 and len(beta) == 1:
            a, b, c = (_lift(x, p) for x in (alpha[0], alpha[1], beta[0]))
            want = a < c <= b or b < c <= a
            if has_full_solutions(op) != want:
                problems.append(f"{where}: full solutions {not want}, separation criterion {want}")
    return problems


# ---------------------------------------------------------------- tables

VERIFY_PRIMES = (3, 5, 7)
# dual pairs (p, n), (p, p-n); the n >= 3 tables at p >= 11 hold unresolved
# entries, and the n = 2 ones are fully resolved, so check_axioms runs there
TABLE_PAIRS = ((11, 3), (11, 8), (11, 4), (11, 7), (13, 3), (13, 10))
AXIOM_PAIRS = ((11, 2), (11, 9), (13, 2), (13, 11))


def tables_inputs(seed: int) -> dict:
    """The primes and ranks are fixed; the seed sets only the order of calls.

    A seeded choice of (p, n) would change the work by up to 30x between
    seeds, since BaseTable costs about k^3 for k = C(p,n)/p classes.
    """
    rng = random.Random(seed)

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    return {
        "verify": shuffled(VERIFY_PRIMES),
        "tables": shuffled(TABLE_PAIRS),
        "axioms": shuffled(AXIOM_PAIRS),
    }


def _verify(p: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--p", str(p), "--json"])
    return code, json.loads(out.getvalue())


def tables_compute(inp, call) -> Answers:
    ans = Answers({"published": {}, "xi": {}, "hyp": {}, "verify": {}, "tables": {}, "axioms": {}})
    got = ans.values
    for p in inp["verify"]:
        for n in range(2, p):
            got["published"][(p, n)] = (
                ans.attempt(call, "tables.load", published_xi, p, n),
                ans.attempt(call, "tables.load", published_counts, p, n),
            )
    pairs = inp["axioms"] + inp["tables"]
    # the inner calls of verify and BaseTable first
    for p, n in [(p, n) for p in inp["verify"] for n in range(2, p)] + pairs:
        got["xi"][(p, n)] = ans.attempt(call, "radii.xi", xi, p, n)
        for pair in _hyp_pairs(p, n):
            got["hyp"][pair] = ans.attempt(call, "radii.hyp_set", hyp_set, *pair)
    for p in inp["verify"]:
        got["verify"][p] = ans.attempt(call, "cli.verify", _verify, p)
    for p, n in pairs:
        got["tables"][(p, n)] = ans.attempt(call, "fusion.base_table", BaseTable, p, n)
    for p, n in inp["axioms"]:
        table = got["tables"][(p, n)]
        if table is not None:
            got["axioms"][(p, n)] = ans.attempt(call, "fusion.check_axioms", check_axioms, p, n, table)
    return ans


def tables_counters(ans: Answers) -> dict:
    held = [t.entries() for t in ans.values["tables"].values() if t is not None]
    return {
        "fusion.entries": sum(len(e) for e in held),
        "fusion.entries_unknown": sum(v is None for e in held for v, _ in e.values()),
    }


def tables_check(inp, ans: Answers) -> list[str]:
    problems = []
    got = ans.values
    for p, res in got["verify"].items():
        if res is not None and (res[0] != 0 or not res[1].get("passed")):
            problems.append(f"verify --p {p}: exit {res[0]}, passed {res[1].get('passed')}")
    for (p, n), classes in got["xi"].items():
        if classes is not None and len(classes) != comb(p, n) // p:
            problems.append(f"xi({p},{n}) has {len(classes)} classes, not C(p,n)/p")
    for (p, n), (listed, counts) in got["published"].items():
        if listed is not None and got["xi"].get((p, n)) not in (None, listed):
            problems.append(f"xi({p},{n}) differs from the published list")
        if counts is not None and any(not isinstance(v, int) or v <= 0 for v in counts.values()):
            problems.append(f"published counts at ({p},{n}) hold a value that is not a positive integer")
    for (p, n), report in got["axioms"].items():
        if report is not None and not report.passed:
            problems.append(f"check_axioms({p},{n}) failed")
    tables = got["tables"]
    for (p, n), table in tables.items():
        if table is None:
            continue
        entries = table.entries()
        for t, (v, _) in entries.items():
            if v is None:
                continue
            if not isinstance(v, int) or v < 0:
                problems.append(f"({p},{n}) entry {v!r} is not a nonnegative integer")
            # two transpositions generate S3
            elif entries[(t[1], t[0], t[2])][0] != v or entries[(t[0], t[2], t[1])][0] != v:
                problems.append(f"({p},{n}) entry at {[c.elems for c in t]} is not S3-invariant")
        for t in got["hyp"].get((p, n)) or ():
            if table.value(t) != 1:
                problems.append(f"({p},{n}) hyp triple {[c.elems for c in t]} has value {table.value(t)}")
        dual = tables.get((p, p - n))
        # comp_dual is an involution, so checking the smaller rank covers the pair
        if dual is None or n > p - n:
            continue
        duals = {c: comp_dual(c) for c in table.basis}
        for t, (v, _) in entries.items():
            w = dual.value(tuple(duals[c] for c in t))
            if v is not None and w is not None and v != w:
                problems.append(f"({p},{n}) entry {v} != rank-dual entry {w} at {[c.elems for c in t]}")
    return problems


# ---------------------------------------------------------------- gluing

# fully resolved tables only; closed genera are fixed because the memo grows
# like g^(k-1), so a seeded genus would swing the work by orders of magnitude
GLUING_CLOSED = {(7, 3): (1, 3, 7, 14), (7, 4): (1, 3, 7, 12), (11, 2): (1, 3, 8), (13, 2): (1, 3, 7)}
# (genus, marked points) of the seeded queries, GLUING_REPEATS of each per table
GLUING_SHAPES = ((0, 12), (1, 9), (2, 7), (3, 5), (4, 4))
GLUING_REPEATS = 2


def gluing_inputs(seed: int) -> list[tuple[int, int, int, tuple]]:
    """(p, n, g, radii) queries; radii are raw n-subsets of Z/p, any translate."""
    rng = random.Random(seed)
    queries = []
    for (p, n), genera in GLUING_CLOSED.items():
        queries += [(p, n, g, ()) for g in genera]
        for g, r in GLUING_SHAPES:
            for _ in range(GLUING_REPEATS):
                radii = tuple(tuple(rng.sample(range(p), n)) for _ in range(r))
                queries.append((p, n, g, radii))
    return queries


def _gluing_one(call, table, p, n, g, radii):
    classes = [call("radii.canonical", canonical, p, r) for r in radii]
    # a fresh engine per query, as the count command makes
    engine = call("fusion.engine", FusionEngine, p, n, table)
    value = call("fusion.count", engine.count, g, classes)
    return value, len(engine.memo), len(engine.used)


def gluing_compute(inp, call) -> Answers:
    ans = Answers([])
    tables = {}
    for p, n, _, _ in inp:
        if (p, n) not in tables:
            tables[(p, n)] = ans.attempt(_build_table, call, p, n)
    for p, n, g, radii in inp:
        ans.values.append(ans.attempt(_gluing_one, call, tables[(p, n)], p, n, g, radii))
    return ans


def gluing_counters(ans: Answers) -> dict:
    done = [v for v in ans.values if v is not None]
    return {
        "fusion.memo_keys": sum(v[1] for v in done),
        "fusion.base_used": sum(v[2] for v in done),
    }


def gluing_check(inp, ans: Answers) -> list[str]:
    problems = []
    dual_tables = {}
    for (p, n, g, radii), got in zip(inp, ans.values):
        if got is None:
            continue
        value = got[0]
        if not radii:
            want = comb(p, n) // p if g == 1 else verlinde_sum(p, n, g)
            if value != want:
                problems.append(f"({p},{n}) closed genus {g}: {value}, closed form {want}")
            continue
        # rank duality: the same surface at (p, p-n) with complement-dual radii
        if (p, p - n) not in dual_tables:
            dual_tables[(p, p - n)] = BaseTable(p, p - n)
        dual = [comp_dual(canonical(p, r)) for r in radii]
        want = FusionEngine(p, p - n, dual_tables[(p, p - n)]).count(g, dual)
        if value != want:
            problems.append(f"({p},{n}) genus {g} radii {radii}: {value}, rank dual {want}")
    return problems


# ---------------------------------------------------------------- closed_form

# (p, n, g), each inside the validity window p > n*max(g-1, 2); together they
# cover p = 11..29, n = 3..5 and g = 2..4.  n = 5 stops at p = 13 because the
# subset sum grows like C(p, n): (17, 5, 2) alone takes about 3 s.
CLOSED_FORM = (
    (11, 3, 4), (11, 4, 3), (11, 5, 2), (13, 3, 2), (13, 4, 4), (13, 5, 3),
    (17, 3, 3), (17, 4, 2), (19, 3, 4), (23, 3, 3), (29, 3, 2),
)


def closed_form_inputs(seed: int) -> list[tuple[int, int, int]]:
    """The fixed (p, n, g) list in a seeded order.

    A seeded genus would change the work by up to 60% for the largest primes.
    """
    order = list(CLOSED_FORM)
    random.Random(seed).shuffle(order)
    return order


def closed_form_compute(inp, call) -> Answers:
    ans = Answers([])
    for p, n, g in inp:
        ans.values.append(ans.attempt(call, "verlinde.sum", verlinde_sum, p, n, g))
    return ans


def closed_form_check(inp, ans: Answers) -> list[str]:
    problems = []
    for (p, n, g), value in zip(inp, ans.values):
        if value is None:
            continue
        if Fraction(value).denominator != 1 or value < 0:
            problems.append(f"verlinde_sum({p},{n},{g}) = {value}, not a nonnegative integer")
        if n == 3 and g == 2 and value != poly_n3_g2(p):
            problems.append(f"verlinde_sum({p},3,2) = {value} != poly_n3_g2 = {poly_n3_g2(p)}")
        if p <= 13 and value != verlinde_sum(p, p - n, g):
            problems.append(f"verlinde_sum({p},{n},{g}) != verlinde_sum({p},{p - n},{g})")
    for p, n in sorted({(p, n) for p, n, _ in inp if p <= 13}):
        if verlinde_sum(p, n, 1) != comb(p, n) // p:
            problems.append(f"verlinde_sum({p},{n},1) != C(p,n)/p")
    return problems


# ---------------------------------------------------------------- workloads


def no_counters(ans: Answers) -> dict:
    return {}


PARTS = {
    "kernel": (kernel_inputs, kernel_compute, kernel_check, no_counters),
    "tables": (tables_inputs, tables_compute, tables_check, tables_counters),
    "gluing": (gluing_inputs, gluing_compute, gluing_check, gluing_counters),
    "closed_form": (closed_form_inputs, closed_form_compute, closed_form_check, no_counters),
}
