"""Three-point counts of dormant-oper radii and the surface recursion.

The base table N(rho1, rho2, rho3) counts dormant opers on a three-marked
projective line with the given radii.  Entries are resolved in a fixed rule
order:

  1. top rank (n = p-1): 1 when every component is the unique full class;
  2. hypergeometric component: when some component admits a translate of the
     form {0, 1, ..., n-2, d}, the count is 1 if the triple arises from a
     full-solution parameter chain (hyp_set) and 0 otherwise;
  3. duality: resolve the componentwise negated-complement triple at
     (p, p-n) with rules 1, 2 and the override data;
  4. override data (shipped defaults cover the two known genus-2
     factorization values at p = 7);
  5. otherwise the entry is unknown, and using it raises loudly.

On top of the table, counts for arbitrary genus g and r marked points follow
the factorization recursion: a genus reduction glues in a handle (sum over a
class and its negation dual), a boundary reduction splits off a three-point
sphere.  The recursion runs on basis indices: values are memoized on
(g, sorted tuple of indices into Xi_{p,n}), and since Xi_{p,n} is sorted this
is the order of the radii themselves.  Every scalar is exact.

Rules 1-3 are invariant under permuting the triple (hyp_set is closed under
S_3), so the table resolves them once per S_3 orbit, with the per-class data
(complement dual, hypergeometric type on either side) computed once per class.

The same data is packaged as a commutative Frobenius algebra on the basis
Xi_{p,n} (unit [[0,...,n-1]], pairing delta(eta, neg_dual(lambda))) whose
axioms are machine-checked by check_axioms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .fp import check_odd_prime
from .radii import RadiusClass, canonical, comp_dual, hyp_set, is_hyp_type, neg_dual, xi
from .tables import default_overrides

__all__ = [
    "UnresolvedBaseError",
    "Cobordism",
    "BaseTable",
    "FusionAlgebra",
    "FusionEngine",
    "AxiomResult",
    "AxiomReport",
    "base_n",
    "algebra",
    "count",
    "evaluate",
    "check_axioms",
]

Triple = tuple[RadiusClass, RadiusClass, RadiusClass]


class UnresolvedBaseError(Exception):
    """An unknown base-table entry was needed."""

    def __init__(self, p: int, n: int, triple: Triple):
        self.p, self.n, self.triple = p, n, triple
        elems = ", ".join(str(list(c.elems)) for c in triple)
        super().__init__(f"no base value known for p={p}, n={n}, triple ({elems})")


@dataclass(frozen=True)
class Cobordism:
    """A connected surface of the given genus with r input and s output circles."""

    genus: int
    n_in: int
    n_out: int

    def __post_init__(self) -> None:
        if min(self.genus, self.n_in, self.n_out) < 0:
            raise ValueError("genus and boundary counts must be nonnegative")


class BaseTable:
    """Resolved three-point counts over all ordered triples from Xi_{p,n}."""

    def __init__(self, p: int, n: int, overrides=None):
        check_odd_prime(p)
        if not 1 < n < p:
            raise ValueError(f"need 1 < n < p, got n={n}, p={p}")
        self.p = p
        self.n = n
        self._overrides = default_overrides() if overrides is None else dict(overrides)
        self.basis = basis = xi(p, n)
        duals = [comp_dual(c) for c in basis]
        hyp = [is_hyp_type(c) for c in basis]
        dual_hyp = [is_hyp_type(c) for c in duals]
        by_orbit = {}
        for idx in itertools.combinations_with_replacement(range(len(basis)), 3):
            got = self._primary(p, n, tuple(basis[i] for i in idx), [hyp[i] for i in idx])
            if got is None:
                dual = tuple(duals[i] for i in idx)
                got = self._primary(p, p - n, dual, [dual_hyp[i] for i in idx])
                if got is not None:
                    got = got[0], "dual:" + got[1]
            by_orbit[idx] = got
        self._entries: dict[Triple, tuple[Optional[int], str]] = {}
        for idx in itertools.product(range(len(basis)), repeat=3):
            triple = tuple(basis[i] for i in idx)
            got = by_orbit[tuple(sorted(idx))]
            if got is None:
                # override data need not be closed under S_3, so look up each order
                got = self._override(triple, tuple(duals[i] for i in idx))
            self._entries[triple] = got

    @staticmethod
    def _primary(p: int, n: int, triple: Triple, hyp: Sequence[bool]) -> Optional[tuple[int, str]]:
        if n == p - 1:
            full = xi(p, n)[0]
            return (1 if all(c == full for c in triple) else 0, "top-rank")
        if any(hyp):
            return (1 if triple in hyp_set(p, n) else 0, "hyp")
        return None

    def _override(self, triple: Triple, dual: Triple) -> tuple[Optional[int], str]:
        key = (self.p, self.p - self.n, dual)
        if key in self._overrides:
            val, src = self._overrides[key]
            return val, "dual:override:" + src
        key = (self.p, self.n, triple)
        if key in self._overrides:
            val, src = self._overrides[key]
            return val, "override:" + src
        return None, "unknown"

    def _check(self, triple: Sequence[RadiusClass]) -> Triple:
        if len(triple) != 3:
            raise ValueError(f"need a triple, got {len(triple)} classes")
        for c in triple:
            if not isinstance(c, RadiusClass) or c.p != self.p:
                raise ValueError(f"component {c!r} does not live over p={self.p}")
            if c.n != self.n or not c.in_xi:
                raise ValueError(
                    f"component {list(c.elems)} is not a distinct-entry class of size {self.n}"
                )
        return tuple(triple)  # type: ignore[return-value]

    def value(self, triple: Sequence[RadiusClass]) -> Optional[int]:
        return self._entries[self._check(triple)][0]

    def source(self, triple: Sequence[RadiusClass]) -> str:
        return self._entries[self._check(triple)][1]

    def entries(self) -> dict[Triple, tuple[Optional[int], str]]:
        return dict(self._entries)

    def nonzero(self) -> dict[Triple, int]:
        return {t: v for t, (v, _) in self._entries.items() if v}

    def with_value(self, triple: Sequence[RadiusClass], value: int, symmetric: bool = True):
        """Copy of the table with one entry (by default its whole S_3 orbit) replaced."""
        t = self._check(triple)
        clone = object.__new__(BaseTable)
        clone.p, clone.n = self.p, self.n
        clone._overrides = self._overrides
        clone.basis = self.basis
        clone._entries = dict(self._entries)
        targets = set(itertools.permutations(t)) if symmetric else {t}
        for perm in targets:
            clone._entries[perm] = (value, "manual")
        return clone


def base_n(p: int, n: int, triple: Sequence[RadiusClass], overrides=None) -> Optional[int]:
    """Resolved base value for one triple, None when unknown."""
    return BaseTable(p, n, overrides=overrides).value(triple)


class FusionAlgebra:
    """The base table as a commutative Frobenius algebra over the rationals."""

    def __init__(self, table: BaseTable):
        self.p = table.p
        self.n = table.n
        self.table = table
        self.basis = table.basis
        self.index = {c: i for i, c in enumerate(self.basis)}
        self.unit = canonical(self.p, range(self.n))
        self.dual_perm = tuple(self.index[neg_dual(c)] for c in self.basis)
        k = len(self.basis)
        self.structure = [[[0] * k for _ in range(k)] for _ in range(k)]
        entries = table.entries()
        for i, a in enumerate(self.basis):
            for j, b in enumerate(self.basis):
                for t, d in enumerate(self.dual_perm):
                    triple = (a, b, self.basis[d])
                    v = entries[triple][0]
                    if v is None:
                        raise UnresolvedBaseError(self.p, self.n, triple)
                    self.structure[i][j][t] = v

    def multiply(self, va: Sequence, vb: Sequence) -> list:
        """Product of two coefficient vectors on the class basis."""
        k = len(self.basis)
        out = [0] * k
        for i, x in enumerate(va):
            if not x:
                continue
            row = self.structure[i]
            for j, y in enumerate(vb):
                if not y:
                    continue
                xy = x * y
                for t, c in enumerate(row[j]):
                    if c:
                        out[t] += xy * c
        return out

    def pairing(self, i: int, j: int) -> int:
        return 1 if self.dual_perm[i] == j else 0


def algebra(p: int, n: int, table: Optional[BaseTable] = None) -> FusionAlgebra:
    return FusionAlgebra(table if table is not None else BaseTable(p, n))


class FusionEngine:
    """Memoized counts over surfaces of arbitrary genus and marked points."""

    def __init__(self, p: int, n: int, table: Optional[BaseTable] = None):
        self.table = table if table is not None else BaseTable(p, n)
        self.p = self.table.p
        self.n = self.table.n
        self.basis = self.table.basis
        self.index = {c: i for i, c in enumerate(self.basis)}
        self.dual_perm = tuple(self.index[neg_dual(c)] for c in self.basis)
        # keyed by (g, sorted tuple of basis indices)
        self.memo: dict[tuple[int, tuple[int, ...]], int] = {}
        self.used: dict[Triple, tuple[int, str]] = {}
        self._base_values: dict[tuple[int, int, int], int] = {}

    def _base(self, idx: tuple[int, int, int]) -> int:
        v = self._base_values.get(idx)
        if v is None:
            triple = tuple(self.basis[i] for i in idx)
            v = self.table.value(triple)
            if v is None:
                raise UnresolvedBaseError(self.p, self.n, triple)
            self.used[triple] = (v, self.table.source(triple))
            self._base_values[idx] = v
        return v

    def _glue(self, g: int, idx: Sequence[int]) -> int:
        """The recursion on basis indices in any order, guarded against its depth."""
        try:
            return self._count(g, tuple(sorted(idx)))
        except RecursionError:
            raise ValueError(
                f"genus {g} with {len(idx)} marked points is too deep for the gluing recursion"
            ) from None

    def count(self, g: int, radii: Sequence[RadiusClass] = ()) -> int:
        """Number of dormant opers of the given radii on a genus-g surface.

        Valid for 2g - 2 + r > 0 and for the closed surfaces of genus 0 and 1,
        whose values are direct.
        """
        if not isinstance(g, int) or g < 0:
            raise ValueError(f"genus must be a nonnegative integer, got {g!r}")
        checked = []
        for c in radii:
            if not isinstance(c, RadiusClass) or c.p != self.p:
                raise ValueError(f"radius {c!r} does not live over p={self.p}")
            if c.n != self.n or not c.in_xi:
                raise ValueError(
                    f"radius {list(c.elems)} is not a distinct-entry class of size {self.n}"
                )
            checked.append(c)
        r = len(checked)
        if 2 * g - 2 + r <= 0 and not (r == 0 and g in (0, 1)):
            raise ValueError(f"no stable surface with genus {g} and {r} marked points")
        return self._glue(g, [self.index[c] for c in checked])

    def _count(self, g: int, key: tuple[int, ...]) -> int:
        memo_key = (g, key)
        got = self.memo.get(memo_key)
        if got is not None:
            return got
        r = len(key)
        if r == 0 and g == 0:
            v = 1
        elif r == 0 and g == 1:
            v = len(self.basis)
        elif g > 0:
            v = 0
            for c, d in enumerate(self.dual_perm):
                v += self._count(g - 1, tuple(sorted(key + (c, d))))
        elif r == 3:
            v = self._base(key)  # type: ignore[arg-type]
        else:
            v = 0
            a, b, rest = key[0], key[1], key[2:]
            for c, d in enumerate(self.dual_perm):
                w = self._base((a, b, c))
                if w:
                    v += w * self._count(0, tuple(sorted((d,) + rest)))
        self.memo[memo_key] = v
        return v

    def evaluate(self, cob: Cobordism, tensor: Mapping[tuple, object]) -> dict[tuple, object]:
        """Linear map of the surface on tensors over the class basis.

        Tensors are mappings from r-tuples of classes to exact scalars; the
        scalar slot of a rank-0 tensor is keyed by ().
        """
        g, r, s = cob.genus, cob.n_in, cob.n_out
        items = []
        for key, val in tensor.items():
            key = tuple(key)
            if len(key) != r:
                raise ValueError(f"tensor key {key} does not have arity {r}")
            for c in key:
                if not isinstance(c, RadiusClass) or c.p != self.p or c.n != self.n or not c.in_xi:
                    raise ValueError(f"tensor key component {c!r} is not a basis class")
            items.append((key, val))
        out: dict[tuple, object] = {}

        def add(key, val):
            if val:
                out[key] = out.get(key, 0) + val

        if (g, r, s) == (0, 1, 1):
            for key, val in items:
                add(key, val)
        elif (g, r, s) == (0, 0, 1):
            unit = canonical(self.p, range(self.n))
            for key, val in items:
                add((unit,), val)
        elif (g, r, s) == (0, 1, 0):
            unit = canonical(self.p, range(self.n))
            for (c,), val in items:
                add((), val if c == unit else 0)
        elif (g, r, s) == (0, 0, 2):
            for key, val in items:
                for c in self.basis:
                    add((c, neg_dual(c)), val)
        elif (g, r, s) == (0, 2, 0):
            for (c1, c2), val in items:
                add((), val if c2 == neg_dual(c1) else 0)
        elif 2 * g - 2 + r + s > 0 or (r + s == 0 and g in (0, 1)):
            for key, val in items:
                if not val:
                    continue
                idx = [self.index[c] for c in key]
                for lam in itertools.product(range(len(self.basis)), repeat=s):
                    glued = idx + [self.dual_perm[i] for i in lam]
                    add(tuple(self.basis[i] for i in lam), val * self._glue(g, glued))
        else:
            raise ValueError(f"surface ({g},{r},{s}) has no stable evaluation")
        return out


def count(p: int, n: int, g: int, radii: Sequence[RadiusClass] = (), overrides=None) -> int:
    return FusionEngine(p, n, BaseTable(p, n, overrides=overrides)).count(g, radii)


def evaluate(p: int, n: int, cob: Cobordism, tensor: Mapping, overrides=None) -> dict:
    return FusionEngine(p, n, BaseTable(p, n, overrides=overrides)).evaluate(cob, tensor)


@dataclass
class AxiomResult:
    name: str
    passed: bool
    witness: Optional[str] = None


@dataclass
class AxiomReport:
    p: int
    n: int
    results: list[AxiomResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "passed": self.passed,
            "results": [
                {"name": r.name, "passed": r.passed, "witness": r.witness}
                for r in self.results
            ],
        }


def check_axioms(p: int, n: int, table: Optional[BaseTable] = None) -> AxiomReport:
    """Machine check of the Frobenius-algebra axioms; failures become report rows."""
    if table is None:
        table = BaseTable(p, n)
    report = AxiomReport(p=table.p, n=table.n)
    alg = FusionAlgebra(table)
    basis = alg.basis
    k = len(basis)
    name_of = lambda i: str(list(basis[i].elems))

    def run(name, fail_witness):
        report.results.append(
            AxiomResult(name, fail_witness is None, fail_witness)
        )

    witness = None
    entries = table.entries()
    for t, (v, _) in entries.items():
        for perm in itertools.permutations(t):
            if entries[perm][0] != v:
                witness = f"{[list(c.elems) for c in t]} vs permutation"
                break
        if witness:
            break
    run("base-s3-symmetric", witness)

    witness = None
    for i in range(k):
        for j in range(k):
            if alg.structure[i][j] != alg.structure[j][i]:
                witness = f"{name_of(i)} * {name_of(j)}"
                break
        if witness:
            break
    run("commutative", witness)

    witness = None
    for i in range(k):
        for j in range(k):
            for l in range(k):
                lhs = [
                    sum(alg.structure[i][j][t] * alg.structure[t][l][m] for t in range(k))
                    for m in range(k)
                ]
                rhs = [
                    sum(alg.structure[j][l][t] * alg.structure[i][t][m] for t in range(k))
                    for m in range(k)
                ]
                if lhs != rhs:
                    witness = f"({name_of(i)} * {name_of(j)}) * {name_of(l)}"
                    break
            if witness:
                break
        if witness:
            break
    run("associative", witness)

    witness = None
    u = alg.index.get(alg.unit)
    if u is None:
        witness = f"unit class {list(alg.unit.elems)} not in basis"
    else:
        for j in range(k):
            expect = [1 if t == j else 0 for t in range(k)]
            if alg.structure[u][j] != expect:
                witness = f"unit * {name_of(j)}"
                break
    run("unit", witness)

    witness = None
    for i in range(k):
        for j in range(k):
            for l in range(k):
                lhs = sum(alg.structure[i][j][t] * alg.pairing(t, l) for t in range(k))
                rhs = sum(alg.structure[j][l][t] * alg.pairing(i, t) for t in range(k))
                if lhs != rhs:
                    witness = f"<{name_of(i)} * {name_of(j)}, {name_of(l)}>"
                    break
            if witness:
                break
        if witness:
            break
    run("frobenius", witness)

    witness = None
    if sorted(alg.dual_perm) != list(range(k)):
        witness = "pairing matrix is not a permutation"
    else:
        for i in range(k):
            if alg.dual_perm[alg.dual_perm[i]] != i:
                witness = f"negation dual not involutive at {name_of(i)}"
                break
    run("pairing-nondegenerate", witness)

    return report
