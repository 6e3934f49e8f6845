"""Command line front end.

Every command takes ``--json`` for machine-readable output on stdout; text
output is the default.  Radii triples are written as slash-separated classes
of comma-separated residues, e.g. ``0,2,4/0,2,4/0,2,4``, and any translate of
a class is accepted.

Exit codes: 0 success, 1 invalid input or input too large, 3 table or axiom
mismatch, or a failed self-check: a witness that disagrees with a computed
table, or a closed-form sum that fails one of its own checks, and 141
(128 + SIGPIPE) when the reader closes stdout early, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from .fp import Generic
from .fusion import BaseTable, FusionEngine, check_axioms
from .hyperg import (
    MAX_ORACLE_P,
    has_full_solutions,
    new_operator,
    oracle_rank,
    root_basis,
    t_set,
)
from .radii import RadiusClass, _check_pn, canonical, exponents, hyp_set, is_hyp_type, radii_triple, xi, xi_size
from .tables import published_counts, published_pairs, published_xi
from .verlinde import poly_n3_g2, verlinde_count, verlinde_sum

__all__ = ["main", "run_verify"]


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route usage problems through
    # exit 1 with every other invalid input instead
    def error(self, message):
        raise UsageError(message)


def _parse_params(text: str, tag: str) -> list:
    out = []
    for i, tok in enumerate(text.split(",")):
        tok = tok.strip()
        if tok == "generic":
            out.append(Generic(f"{tag}{i}"))
        else:
            try:
                out.append(int(tok))
            except ValueError:
                raise UsageError(f"bad parameter {tok!r} in --{tag}")
    return out


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"--{flag} needs comma-separated integers, got {text!r}")


def _parse_radii(text: str, p: int) -> list[RadiusClass]:
    return [canonical(p, _parse_ints(part, "radii")) for part in text.split("/")]


def _param_json(x):
    return "generic" if isinstance(x, Generic) else x


def _class_str(c: RadiusClass) -> str:
    return ",".join(str(e) for e in c.elems)


def _triple_str(t: Sequence[RadiusClass]) -> str:
    return " / ".join(_class_str(c) for c in t)


def _triple_json(t: Sequence[RadiusClass]) -> list[list[int]]:
    return [list(c.elems) for c in t]


def _dumps(obj) -> str:
    # json is imported on first use: a call that prints text never needs it
    import json

    return json.dumps(obj, sort_keys=True)


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(_dumps(payload))
    else:
        for line in lines:
            print(line)


def cmd_kernel(args) -> int:
    alpha = _parse_params(args.alpha, "alpha")
    beta = _parse_params(args.beta, "beta")
    op = new_operator(args.p, alpha, beta)
    t = sorted(t_set(op))
    rank = len(t)
    full = has_full_solutions(op)
    if not op.all_fp():
        skipped = "generic parameter"
    elif args.p > MAX_ORACLE_P:
        skipped = f"p above MAX_ORACLE_P = {MAX_ORACLE_P}"
    else:
        skipped = None
    oracle = oracle_rank(op) if skipped is None else None
    payload = {
        "p": args.p,
        "alpha": [_param_json(x) for x in op.alpha],
        "beta": [_param_json(x) for x in op.beta],
        "t_set": t,
        "rank": rank,
        "full_solutions": full,
        "oracle_rank": oracle,
    }
    lines = [
        f"p = {args.p}, alpha = {args.alpha}, beta = {args.beta}",
        "T = {" + ", ".join(str(j) for j in t) + "}",
        f"rank = {rank}",
        f"full solutions: {'yes' if full else 'no'}",
        "oracle rank = " + (str(oracle) if skipped is None else f"skipped ({skipped})"),
    ]
    if args.basis:
        # root_basis raises unless apply annihilates every vector it returns
        vectors = root_basis(op)
        payload["basis"] = [list(v) for v in vectors]
        payload["basis_verified"] = True
        lines.append(f"basis vectors: {len(vectors)}, verified: yes")
        for v in vectors:
            lines.append("  " + str(tuple(v)))
    _emit(args, payload, lines)
    return 0


def cmd_xi(args) -> int:
    # the library lists Xi_{p,1} too; the CLI keeps to the ranks of the tables
    _check_pn(args.p, args.n, least=2)
    classes = xi(args.p, args.n)
    payload = {
        "p": args.p,
        "n": args.n,
        "size": len(classes),
        "classes": [list(c.elems) for c in classes],
    }
    lines = [f"Xi({args.p},{args.n}): {len(classes)} classes"]
    lines += [_class_str(c) for c in classes]
    _emit(args, payload, lines)
    return 0


def cmd_hyp(args) -> int:
    triples = sorted(hyp_set(args.p, args.n), key=lambda t: tuple(c.elems for c in t))
    payload = {
        "p": args.p,
        "n": args.n,
        "size": len(triples),
        "triples": [_triple_json(t) for t in triples],
    }
    lines = [f"Hyp({args.p},{args.n}): {len(triples)} triples"]
    lines += [_triple_str(t) for t in triples]
    _emit(args, payload, lines)
    return 0


def cmd_exponents(args) -> int:
    alpha = _parse_ints(args.alpha, "alpha")
    beta = _parse_ints(args.beta, "beta")
    exps = exponents(args.p, alpha, beta)
    triple = radii_triple(args.p, alpha, beta)
    payload = {
        "p": args.p,
        "alpha": alpha,
        "beta": beta,
        "exponents": [list(e) for e in exps],
        "radii": _triple_json(triple),
        "in_xi": [c.in_xi for c in triple],
        "hyp_type": [c.in_xi and is_hyp_type(c) for c in triple],
    }
    lines = []
    for i, (e, c) in enumerate(zip(exps, triple)):
        flag = "in Xi" if c.in_xi else "repeated entries, outside Xi"
        lines.append(f"point {i}: exponents {tuple(e)} -> radius {_class_str(c)} ({flag})")
    _emit(args, payload, lines)
    return 0


def cmd_count(args) -> int:
    radii = _parse_radii(args.radii, args.p) if args.radii else []
    engine = FusionEngine(args.p, args.n)
    value = engine.count(args.g, radii)
    elems = [list(c.elems) for c in engine.basis]
    # the basis is lexicographic, so sorted index triples are sorted element lists
    rows = [([elems[i] for i in idx], v, src) for idx, (v, src) in sorted(engine.used.items())]
    payload = {
        "p": args.p,
        "n": args.n,
        "g": args.g,
        "radii": _triple_json(radii) if radii else [],
        "count": value,
    }
    lines = [f"count = {value}", f"base entries used: {len(rows)}"]
    if args.json:
        payload["trace"] = [{"triple": t, "N": v, "rule": src} for t, v, src in rows]
    else:
        lines += (f"  {' / '.join(','.join(map(str, c)) for c in t)} -> {v}  [{src}]" for t, v, src in rows)
    _emit(args, payload, lines)
    return 0


def cmd_verlinde(args) -> int:
    value = verlinde_count(args.p, args.n, args.g)
    payload = {"p": args.p, "n": args.n, "g": args.g, "count": value}
    _emit(args, payload, [f"count = {value}"])
    return 0


def cmd_axioms(args) -> int:
    report = check_axioms(args.p, args.n)
    lines = []
    for r in report.results:
        mark = "pass" if r.passed else f"FAIL ({r.witness})"
        lines.append(f"{r.name}: {mark}")
    lines.append("all axioms hold" if report.passed else "axiom failure")
    _emit(args, report.to_json(), lines)
    return 0 if report.passed else 3


def run_verify(p: int) -> dict:
    """Regenerate every listing and table the embedded data holds for p.

    Returns a deterministic report dict; report["passed"] is the overall flag.
    Raises ValueError for a p the embedded data does not cover.
    """
    pairs = published_pairs()
    ranks = [n for q, n in pairs if q == p]
    if not ranks:
        primes = ", ".join(str(q) for q in sorted({q for q, _ in pairs}))
        raise ValueError(f"verify covers p in {{{primes}}}, got {p}")
    checks = []

    def record(n, name, ok, detail=None):
        row = {"n": n, "check": name, "ok": bool(ok)}
        if detail is not None:
            row["detail"] = detail
        checks.append(row)

    for n in ranks:
        got_xi = xi(p, n)
        want_xi = published_xi(p, n)
        record(
            n,
            "xi-list",
            got_xi == want_xi,
            None if got_xi == want_xi else {
                "computed": [list(c.elems) for c in got_xi],
                "published": [list(c.elems) for c in want_xi],
            },
        )
        table = BaseTable(p, n)
        computed = {t: v for t, (v, _) in table.entries().items() if v}
        published = published_counts(p, n)
        diff = []
        for t in sorted(computed.keys() | published.keys(), key=_triple_json):
            a, b = computed.get(t, 0), published.get(t, 0)
            if a != b:
                diff.append({"triple": _triple_json(t), "computed": a, "published": b})
        record(n, "count-table", not diff, diff or None)

        report = check_axioms(p, n, table)
        record(
            n,
            "axioms",
            report.passed,
            None if report.passed else [r.name for r in report.results if not r.passed],
        )

        engine = FusionEngine(p, n, table)
        torus = engine.count(1, [])
        size = xi_size(p, n)
        ok = torus == size == verlinde_sum(p, n, 1)
        record(n, "genus-1", ok, None if ok else {"fusion": torus, "xi_size": size})

        closed2 = engine.count(2, [])
        # at p <= 7 verlinde_count refuses only for the validity window
        try:
            name, closed_form = "genus-2", verlinde_count(p, n, 2)
        except ValueError:
            name, closed_form = "genus-2 (outside validity window)", verlinde_sum(p, n, 2)
        ok = closed2 == closed_form
        record(n, name, ok, None if ok else {"fusion": closed2, "closed_form": str(closed_form)})
        if n == 3:
            poly = poly_n3_g2(p)
            ok = closed2 == poly
            record(n, "genus-2 polynomial", ok, None if ok else {"fusion": closed2, "poly": str(poly)})

    return {"p": p, "passed": all(row["ok"] for row in checks), "checks": checks}


def cmd_verify(args) -> int:
    report = run_verify(args.p)
    lines = []
    for row in report["checks"]:
        mark = "ok" if row["ok"] else "MISMATCH"
        lines.append(f"n={row['n']} {row['check']}: {mark}")
        if not row["ok"] and row.get("detail") is not None:
            lines.append("  " + _dumps(row["detail"]))
    lines.append("PASS" if report["passed"] else "FAIL")
    _emit(args, report, lines)
    return 0 if report["passed"] else 3


def _build_parser() -> _Parser:
    parser = _Parser(prog="dormantops", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--p", type=int, required=True, help="odd prime")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.set_defaults(func=func)
        return sp

    sp = add("kernel", cmd_kernel, "kernel rank and full-solutions test of an operator")
    sp.add_argument("--alpha", required=True, help="comma-separated residues, 'generic' allowed")
    sp.add_argument("--beta", required=True, help="comma-separated residues, 'generic' allowed")
    sp.add_argument("--basis", action="store_true", help=f"also print a kernel basis (p <= {MAX_ORACLE_P})")

    sp = add("xi", cmd_xi, "distinct-entry radius classes")
    sp.add_argument("--n", type=int, required=True)

    sp = add("hyp", cmd_hyp, "radii triples of hypergeometric-type dormant opers")
    sp.add_argument("--n", type=int, required=True)

    sp = add("exponents", cmd_exponents, "exponent multisets and radii of a parameter tuple")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)

    sp = add("count", cmd_count, "count dormant opers with prescribed radii")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--g", type=int, required=True, help="genus")
    sp.add_argument("--radii", help="slash-separated classes, e.g. 0,2,4/0,2,4/0,2,4")

    sp = add("verlinde", cmd_verlinde, "closed-form count on a closed surface")
    sp.add_argument("--n", type=int, required=True, help="rank, 1 <= n < p (count and axioms need n >= 2)")
    sp.add_argument("--g", type=int, required=True, help="genus")

    sp = add("axioms", cmd_axioms, "check the fusion-algebra axioms")
    sp.add_argument("--n", type=int, required=True)

    add("verify", cmd_verify, "reproduce every embedded table for this prime")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: the rest of the output, and the flush at exit, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except (AssertionError, ArithmeticError) as ex:
        # the self-checks raise exactly these; ZeroDivisionError and the other
        # subclasses of ArithmeticError are faults and keep their traceback
        if type(ex) not in (AssertionError, ArithmeticError):
            raise
        print(f"error: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
