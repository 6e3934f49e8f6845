"""Three-point counts of dormant-oper radii and the surface counts built on them.

The base table N(rho1, rho2, rho3) counts dormant opers on a three-marked
projective line with the given radii.  Entries are resolved in a fixed rule
order:

  1. hypergeometric component: when some component admits a translate of the
     form {0, 1, ..., n-2, d}, the count is 1 if the triple arises from a
     full-solution parameter chain (hyp_set) and 0 otherwise (this covers
     n = p-1, whose only class {0, ..., p-2} is of this form);
  2. duality: resolve the componentwise negated-complement triple at
     (p, p-n) with rule 1 and the override data;
  3. override data (shipped defaults cover the two known genus-2
     factorization values at p = 7);
  4. otherwise the entry is unknown, and using it raises loudly.

The table stores one (value, source) per ordered triple of indices into
Xi_{p,n}.  Rules 1 and 2 are invariant under permuting the triple (hyp_set
is closed under S_3), so the table resolves them once per S_3 orbit, with the
per-class data (complement dual, hypergeometric type on either side) computed
once per class.

On top of the table, a genus-g surface with radii rho_1 <= ... <= rho_r (in
basis order) counts eps(e_rho_1 ... e_rho_r h^g), with the handle
h = sum_c e_c e_{dual c} and eps the coefficient of the unit.  FusionEngine
computes it as one chain on sparse vectors over basis indices: start from
e_rho_1 (the unit when r = 0), multiply by M_a, (v e_a)_t =
sum_s v_s N(s, a, dual t), for each further radius, and apply
v -> sum_c (v e_c) e_{dual c} for every handle but the last.  The last two
factors close by contraction: sum_s v_s N(s, a, b) at genus 0 and
sum_c sum_s v_s N(s, c, dual c) otherwise; one radius left reads v at its
dual, none reads v at the unit.  Only rows in the support of v are read, so
the cost is linear in g + r.  Every scalar is an exact integer, and every
cobordism, unit, counit, pairing and copairing included, goes through the chain.

The same data is packaged as a commutative Frobenius algebra on the basis
Xi_{p,n} (unit [[0,...,n-1]], pairing delta(eta, neg_dual(lambda))) whose
axioms are machine-checked by check_axioms.
"""

from __future__ import annotations

import copy
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
    """Resolved three-point counts over all ordered triples from Xi_{p,n}.

    Each ordered triple of basis indices holds one (value, source) cell; at()
    is the only reader of the cells.  The table also owns the basis data the
    algebra and the engine share: index maps a class to its position in
    basis, dual_perm[i] is the index of neg_dual(basis[i]), and unit is the
    index of the unit class [0, ..., n-1].
    """

    def __init__(self, p: int, n: int, overrides=None):
        check_odd_prime(p)
        if not 1 < n < p:
            raise ValueError(f"need 1 < n < p, got n={n}, p={p}")
        self.p = p
        self.n = n
        self.basis = basis = xi(p, n)
        self.index = {c: i for i, c in enumerate(basis)}
        self.dual_perm = tuple(self.index[neg_dual(c)] for c in basis)
        self.unit = self.index[canonical(p, range(n))]
        overrides = default_overrides() if overrides is None else overrides
        k = len(basis)
        duals = [comp_dual(c) for c in basis]
        hyp = [is_hyp_type(c) for c in basis]
        dual_hyp = [is_hyp_type(c) for c in duals]
        by_orbit = {}
        for idx in itertools.combinations_with_replacement(range(k), 3):
            if any(hyp[i] for i in idx):
                by_orbit[idx] = (int(tuple(basis[i] for i in idx) in hyp_set(p, n)), "hyp")
            elif any(dual_hyp[i] for i in idx):
                by_orbit[idx] = (int(tuple(duals[i] for i in idx) in hyp_set(p, p - n)), "dual:hyp")
        self._cells: list[tuple[Optional[int], str]] = [None] * k**3  # type: ignore[list-item]
        for idx in itertools.product(range(k), repeat=3):
            got = by_orbit.get(tuple(sorted(idx)))
            if got is None:
                # override data need not be closed under S_3, so look up each order
                triple = tuple(basis[i] for i in idx)
                got = self._override(overrides, triple, tuple(duals[i] for i in idx))
            self._cells[self._slot(idx)] = got

    def _override(self, overrides, triple: Triple, dual: Triple) -> tuple[Optional[int], str]:
        for key, tag in (((self.p, self.p - self.n, dual), "dual:override:"),
                         ((self.p, self.n, triple), "override:")):
            if key in overrides:
                val, src = overrides[key]
                return val, tag + src
        return None, "unknown"

    def _slot(self, idx: Sequence[int]) -> int:
        k = len(self.basis)
        i, j, l = idx
        return (i * k + j) * k + l

    def at(self, idx: Sequence[int]) -> tuple[Optional[int], str]:
        """(value, source) of an ordered triple of basis indices."""
        return self._cells[self._slot(idx)]

    def indices(self, classes: Sequence[RadiusClass]) -> tuple[int, ...]:
        """Basis indices of classes from Xi_{p,n}; ValueError for anything else."""
        out = []
        for c in classes:
            i = self.index.get(c) if isinstance(c, RadiusClass) else None
            if i is None:
                what = f"class {list(c.elems)} over p={c.p}" if isinstance(c, RadiusClass) else repr(c)
                raise ValueError(f"{what} is not in Xi_{{{self.p},{self.n}}}")
            out.append(i)
        return tuple(out)

    def _triple(self, triple: Sequence[RadiusClass]) -> tuple[int, ...]:
        idx = self.indices(triple)
        if len(idx) != 3:
            raise ValueError(f"need a triple, got {len(idx)} classes")
        return idx

    def value(self, triple: Sequence[RadiusClass]) -> Optional[int]:
        return self.at(self._triple(triple))[0]

    def source(self, triple: Sequence[RadiusClass]) -> str:
        return self.at(self._triple(triple))[1]

    def entries(self) -> dict[Triple, tuple[Optional[int], str]]:
        cube = itertools.product(range(len(self.basis)), repeat=3)
        return {tuple(self.basis[i] for i in idx): self.at(idx) for idx in cube}  # type: ignore[misc]

    def nonzero(self) -> dict[Triple, int]:
        return {t: v for t, (v, _) in self.entries().items() if v}

    def with_value(self, triple: Sequence[RadiusClass], value: int) -> "BaseTable":
        """Copy of the table with one entry's whole S_3 orbit replaced."""
        idx = self._triple(triple)
        clone = copy.copy(self)
        clone._cells = list(self._cells)
        for perm in itertools.permutations(idx):
            clone._cells[self._slot(perm)] = (value, "manual")
        return clone


def _table_for(p: int, n: int, table: Optional[BaseTable]) -> BaseTable:
    if table is None:
        return BaseTable(p, n)
    if (table.p, table.n) != (p, n):
        raise ValueError(f"table is for p={table.p}, n={table.n}, not p={p}, n={n}")
    return table


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
        self.index = table.index
        self.unit = table.unit
        self.dual_perm = table.dual_perm
        k = len(self.basis)
        self.structure = [[[0] * k for _ in range(k)] for _ in range(k)]
        for i in range(k):
            for j in range(k):
                for t, d in enumerate(self.dual_perm):
                    v = table.at((i, j, d))[0]
                    if v is None:
                        raise UnresolvedBaseError(self.p, self.n, tuple(self.basis[x] for x in (i, j, d)))
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
    return FusionAlgebra(_table_for(p, n, table))


class FusionEngine:
    """Counts over surfaces of arbitrary genus and marked points, one chain each.

    memo holds every answered count, keyed by (g, sorted tuple of basis
    indices); used holds every base entry the chains read, keyed by its
    ordered triple of classes, with the table's (value, source).
    """

    def __init__(self, p: int, n: int, table: Optional[BaseTable] = None):
        self.table = _table_for(p, n, table)
        self.p = p
        self.n = n
        self.basis = self.table.basis
        self.index = self.table.index
        self.dual_perm = self.table.dual_perm
        self.memo: dict[tuple[int, tuple[int, ...]], int] = {}
        # keyed by index triple: building class triples on every read cost more than the chain
        self._read: dict[tuple[int, int, int], tuple[int, str]] = {}

    @property
    def used(self) -> dict[Triple, tuple[int, str]]:
        return {tuple(self.basis[i] for i in idx): cell for idx, cell in self._read.items()}  # type: ignore[misc]

    def _entry(self, idx: tuple[int, int, int]) -> int:
        cell = self.table.at(idx)
        if cell[0] is None:
            raise UnresolvedBaseError(self.p, self.n, tuple(self.basis[i] for i in idx))
        self._read[idx] = cell  # type: ignore[assignment]
        return cell[0]

    def _times(self, v: dict[int, int], a: int) -> dict[int, int]:
        """The product v e_a, reading the rows of the support of v."""
        out: dict[int, int] = {}
        for s, x in v.items():
            for t, d in enumerate(self.dual_perm):
                w = self._entry((s, a, d))
                if w:
                    out[t] = out.get(t, 0) + x * w
        return out

    def _pair(self, v: dict[int, int], a: int, b: int) -> int:
        """eps(v e_a e_b) = sum_s v_s N(s, a, b)."""
        return sum(x * self._entry((s, a, b)) for s, x in v.items())

    def _chain(self, g: int, idx: Sequence[int]) -> int:
        """The chain on basis indices in any order; see the module docstring."""
        key = (g, tuple(sorted(idx)))
        got = self.memo.get(key)
        if got is not None:
            return got
        marks = key[1]
        v, rest = ({marks[0]: 1}, marks[1:]) if marks else ({self.table.unit: 1}, ())
        if g == 0:
            for a in rest[:-2]:
                v = self._times(v, a)
            if len(rest) >= 2:
                value = self._pair(v, rest[-2], rest[-1])
            else:
                value = v.get(self.dual_perm[rest[0]] if rest else self.table.unit, 0)
        else:
            for a in rest:
                v = self._times(v, a)
            for _ in range(g - 1):
                h: dict[int, int] = {}
                for c, d in enumerate(self.dual_perm):
                    for t, y in self._times(self._times(v, c), d).items():
                        h[t] = h.get(t, 0) + y
                v = h
            value = sum(self._pair(v, c, d) for c, d in enumerate(self.dual_perm))
        self.memo[key] = value
        return value

    def count(self, g: int, radii: Sequence[RadiusClass] = ()) -> int:
        """Number of dormant opers of the given radii on a genus-g surface, by one chain.

        Valid for 2g - 2 + r > 0 and for the closed surfaces of genus 0 and 1;
        the chain (module docstring) is linear in g + r, so any genus finishes.
        """
        if not isinstance(g, int) or g < 0:
            raise ValueError(f"genus must be a nonnegative integer, got {g!r}")
        idx = self.table.indices(radii)
        r = len(idx)
        if 2 * g - 2 + r <= 0 and not (r == 0 and g in (0, 1)):
            raise ValueError(f"no stable surface with genus {g} and {r} marked points")
        return self._chain(g, idx)

    def evaluate(self, cob: Cobordism, tensor: Mapping[tuple, object]) -> dict[tuple, object]:
        """Linear map of the surface on tensors over the class basis.

        Tensors are mappings from r-tuples of classes to exact scalars; the
        scalar slot of a rank-0 tensor is keyed by ().  The output coefficient
        at lambda is the count with the inputs and the duals of lambda marked,
        one chain of multiplication operators each, as in count.
        """
        g, r, s = cob.genus, cob.n_in, cob.n_out
        items = []
        for key, val in tensor.items():
            key = tuple(key)
            if len(key) != r:
                raise ValueError(f"tensor key {key} does not have arity {r}")
            items.append((self.table.indices(key), val))
        out: dict[tuple, object] = {}
        for idx, val in items:
            if not val:
                continue
            for lam in itertools.product(range(len(self.basis)), repeat=s):
                w = val * self._chain(g, idx + tuple(self.dual_perm[i] for i in lam))
                if w:
                    key = tuple(self.basis[i] for i in lam)
                    out[key] = out.get(key, 0) + w
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
    table = _table_for(p, n, table)
    report = AxiomReport(p=p, n=n)
    alg = FusionAlgebra(table)
    basis = alg.basis
    k = len(basis)
    name_of = lambda i: str(list(basis[i].elems))

    def run(name, fail_witness):
        report.results.append(
            AxiomResult(name, fail_witness is None, fail_witness)
        )

    witness = None
    for idx in itertools.product(range(k), repeat=3):
        v = table.at(idx)[0]
        if any(table.at(perm)[0] != v for perm in itertools.permutations(idx)):
            witness = f"{[list(basis[i].elems) for i in idx]} vs permutation"
            break
    run("base-s3-symmetric", witness)

    witness = None
    for i, j in itertools.product(range(k), repeat=2):
        if alg.structure[i][j] != alg.structure[j][i]:
            witness = f"{name_of(i)} * {name_of(j)}"
            break
    run("commutative", witness)

    witness = None
    for i, j, l in itertools.product(range(k), repeat=3):
        lhs = [sum(alg.structure[i][j][t] * alg.structure[t][l][m] for t in range(k)) for m in range(k)]
        rhs = [sum(alg.structure[j][l][t] * alg.structure[i][t][m] for t in range(k)) for m in range(k)]
        if lhs != rhs:
            witness = f"({name_of(i)} * {name_of(j)}) * {name_of(l)}"
            break
    run("associative", witness)

    witness = None
    for j in range(k):
        expect = [1 if t == j else 0 for t in range(k)]
        if alg.structure[alg.unit][j] != expect:
            witness = f"unit * {name_of(j)}"
            break
    run("unit", witness)

    witness = None
    for i, j, l in itertools.product(range(k), repeat=3):
        lhs = sum(alg.structure[i][j][t] * alg.pairing(t, l) for t in range(k))
        rhs = sum(alg.structure[j][l][t] * alg.pairing(i, t) for t in range(k))
        if lhs != rhs:
            witness = f"<{name_of(i)} * {name_of(j)}, {name_of(l)}>"
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
