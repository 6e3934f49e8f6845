"""Three-point counts of dormant-oper radii and the surface counts built on them.

The base table N(rho1, rho2, rho3) counts dormant opers on a three-marked
projective line with the given radii.  The counts are the structure constants
of the small quantum cohomology ring of the Grassmannian Gr(n, p) at q = 1,
modulo its cyclic symmetry, in the basis Xi_{p,n}.  A class with canonical
elements s_1 < ... < s_n is the partition lambda_i = s_{n+1-i} - (n-i) in the
n x (p-n) box, and the hypergeometric classes h_r = [0, ..., n-2, n-1+r],
r = 0, ..., p-n, are the one-row partitions (r).  Every entry comes from one
rule, with the paper's rigidity result as its input:

  * Pieri rows: H_r[c][b] = 1 when (h_r, b, neg_dual c) arises from a
    full-solution parameter chain (hyp_set, read as its index orbits), and 0
    otherwise;
  * Jacobi-Trudi: N(a, b, c) = M_lambda[neg_dual c][b] with lambda the
    partition of a and M_lambda = det(H_{lambda_i - i + j}), where H_r = 0
    outside 0 <= r <= p-n.  The H_r commute, so the determinant is expanded
    along its first row with a memo of minors.  A first-row minor is not the
    Jacobi-Trudi matrix of a smaller partition, so minors are keyed by
    (row, remaining columns, lambda tail).  Each row of a minor is one packed
    integer with a signed w-bit slot per column, so a product with H_r adds one
    integer per Pieri entry; w comes from a bound on every minor's entries,
    proved in the _closure docstring.

The source tag of a cell names its witness.  "hyp": some class is
hypergeometric, and the entry must be 1 exactly when the triple is in
hyp_set(p, n).  "dual:hyp": otherwise some complement dual is, and the
entry must be 1 exactly when the complement-dual triple is in
hyp_set(p, p-n).  "jacobi-trudi": neither applies.  The Pieri rows and both
witnesses read hyp_set as its cached index orbits (radii._hyp_orbits), the
dual witness through one map from the indices of Xi_{p,p-n} to those of their
complement duals in Xi_{p,n}.  Each packed row (a, c) is checked whole: its
slots are nonnegative when adding 2^(w-1) to each keeps every slot's top bit,
and its witnessed slots must equal a packed row with a 1 where the cell's own
witness holds.  A failing row is scanned cell by cell, and the first negative
entry or disagreeing witness raises AssertionError naming the triple and both
values; neither side is preferred.  Tables stop at MAX_TABLE_CLASSES classes.

On top of the table, a genus-g surface with radii rho_1 <= ... <= rho_r (in
basis order) counts eps(e_rho_1 ... e_rho_r h^g), with the handle
h = sum_c e_c e_{dual c} and eps the coefficient of the unit.  FusionEngine
computes it as one chain on sparse vectors over basis indices: start from
e_rho_1 (the unit when r = 0), multiply by M_a, (v e_a)_t =
sum_s v_s N(s, a, dual t), for each further radius, and apply
v -> sum_c (v e_c) e_{dual c} for every handle but the last.  The last two
factors close by contraction: sum_s v_s N(s, a, b) at genus 0 and
sum_c sum_s v_s N(s, c, dual c) otherwise.  A product reads the rows
N(s, a, .) of the support of v, each whole, so the cost is linear in g + r.
evaluate builds u = e_inputs h^g the same way and reads its output lambda as
w[lambda_s], w = u e_{dual lambda_1} ... e_{dual lambda_{s-1}}, since
eps(w e_{dual c}) = w[c].  Scalars are exact.
"""

from __future__ import annotations

import copy
import itertools
import sys
from collections.abc import Iterator, Mapping, Sequence

from .fp import _Frozen, _Record
from .radii import RadiusClass, _check_pn, _hyp_orbits, canonical, comp_dual, neg_dual, xi, xi_size

__all__ = [
    "Cobordism",
    "BaseTable",
    "FusionEngine",
    "AxiomResult",
    "AxiomReport",
    "count",
    "evaluate",
    "check_axioms",
]

Triple = tuple[RadiusClass, RadiusClass, RadiusClass]


class Cobordism(_Frozen):
    """A connected surface of the given genus with r input and s output circles."""

    __match_args__ = ("genus", "n_in", "n_out")

    def __init__(self, genus: int, n_in: int, n_out: int) -> None:
        if any(type(x) is not int or x < 0 for x in (genus, n_in, n_out)):
            raise ValueError("genus and boundary counts must be nonnegative")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "n_in", n_in)
        object.__setattr__(self, "n_out", n_out)


# Largest |Xi_{p,n}| a base table is built for: every (p, n) with p <= 13 fits
# (k <= 132), while (17, 5), with k = 364, would need 48 million cells.
# BaseTable(13, 6), 2.3 million cells, takes 0.25-0.30 s with xi and hyp_set
# warm on a shared 2-vCPU Intel Xeon under CPython 3.11 (six fresh processes).
# It also admits (p, 2) and (p, p - 2), k = (p - 1)/2, for every prime p <= 293,
# (p, 3) and (p, p - 3) up to p = 31, and (17, 13), and the (p, p - 2) tables
# are slow on the same machine: count --p 151 --n 149 --g 2 takes 14 s,
# --p 211 --n 209 42-49 s, and BaseTable(293, 291) about 157 s.
MAX_TABLE_CLASSES = 150
# Largest |Xi_{p,n}| check_axioms runs on: associativity takes k^3 pairs of
# sparse products, and k = 30, at (11, 4) or (61, 2), takes 0.7-1.2 s on a
# shared 2-vCPU Intel Xeon under CPython 3.11 (five fresh-process runs each).
MAX_AXIOM_CLASSES = 30

# source tags by cell kind; see the module docstring
_TAGS = ("hyp", "dual:hyp", "jacobi-trudi")


def _size(p: int, n: int, limit: int, what: str) -> int:
    """|Xi_{p,n}| for valid p and n, ValueError when it exceeds limit.

    With m = min(n, p - n) <= (p - 1)/2, |Xi_{p,n}| = C(p-1, m-1)/m >= C(2m, m-1)/m
    >= m.  So a limit below m is exceeded without computing C(p, m), and
    otherwise C(p, m) has at most limit log2(p) bits.
    """
    _check_pn(p, n, least=2)
    if limit < min(n, p - n):
        raise ValueError(f"Xi_{{{p},{n}}} has more than {limit} classes, the limit for {what}")
    k = xi_size(p, n)
    if k > limit:
        raise ValueError(f"Xi_{{{p},{n}}} has {k} classes, over the limit of {limit} for {what}")
    return k


def _permutations(orbits) -> Iterator[tuple[int, ...]]:
    """Each distinct ordered triple of each orbit once."""
    for t in orbits:
        yield from dict.fromkeys(itertools.permutations(t))


def _hyp_classes(p: int, n: int) -> list[RadiusClass]:
    """h_r = [0, ..., n-2, n-1+r] for r = 0, ..., p-n: the classes of Xi_{p,n}
    that is_hyp_type accepts."""
    return [canonical(p, (*range(n - 1), n - 1 + r)) for r in range(p - n + 1)]


def _pieri_rows(h: Sequence[int], dual, orbits) -> list[dict[int, list[int]]]:
    """H_r for r = 0, ..., p-n as rows {c: [b, ...]}: H_r[c][b] = 1 when the index
    triple (h[r], b, neg_dual c) is a permutation of one of orbits."""
    rows: dict[int, dict[int, list[int]]] = {i: {} for i in h}
    for i, b, l in _permutations(orbits):
        if i in rows:
            rows[i].setdefault(dual[l], []).append(b)
    return [rows[i] for i in h]


def _partition(c: RadiusClass) -> tuple[int, ...]:
    """The nonzero parts of the partition of c, largest first."""
    s, n = c.elems, c.n
    return tuple(part for i in range(n) if (part := s[n - 1 - i] - (n - 1 - i)))


def _minor_bound(basis, pieri) -> int:
    """A bound on |entry| of every minor _closure builds; see its docstring."""
    norm = [max(map(len, rows.values()), default=0) for rows in pieri]
    bound = 1
    for c in basis:
        lam, prod = _partition(c), 1
        for i in reversed(range(len(lam))):
            prod *= sum(norm[r] for j in range(len(lam)) if 0 <= (r := lam[i] - i + j) < len(norm))
            bound = max(bound, prod)
    return bound


def _closure(basis, pieri, w: int) -> Iterator[list[int]]:
    """Yield M_lambda for each class in basis order as packed rows: row c is the
    integer sum_b M_lambda[c][b] 2^(w b), one signed w-bit slot per column b.

    A product H_r S is then, for each c, the sum of the packed rows S[x] over x
    in pieri[r][c], so the expansion adds one integer per Pieri entry.  The sum
    is exact whatever the slots hold; a row decodes slot by slot when every
    entry lies in [-2^(w-1), 2^(w-1)).  The max absolute row sum ||.||, which
    bounds every entry, is subadditive and submultiplicative, and ||H_r|| is
    the longest list in pieri[r].  Expanding along the first row, a minor from
    row i down is sum_t +-H_{lambda_i - i + j_t} S_t with S_t a minor from row
    i + 1 down, so by induction every minor from row i down has
    ||.|| <= prod_{i' >= i} sum_j ||H_{lambda_i' - i' + j}||, j over all
    columns of M_lambda.  _minor_bound is the largest of these products, and
    BaseTable takes the least w = 8 2^e with the bound below 2^(w-1).  Every admitted table with
    p <= 61 has a bound of at most 58 bits, so w <= 64; the tables (p, p-2)
    from p = 67 on take w = 128, which _unpack decodes slot by slot.

    lambda from row r on depends only on the first n - r elements of a class; the
    basis is lexicographic, so each row keeps the minors of its latest tail only.
    """
    k = len(basis)
    ident = [1 << (w * x) for x in range(k)]
    memo: dict[int, tuple[tuple[int, ...], dict[tuple[int, ...], list[int]]]] = {}

    def minor(row: int, cols: tuple[int, ...], tail: tuple[int, ...]) -> list[int]:
        if not tail:
            return ident
        if row not in memo or memo[row][0] != tail:
            memo[row] = (tail, {})
        got = memo[row][1].get(cols)
        if got is not None:
            return got
        out = [0] * k
        for t, j in enumerate(cols):
            r = tail[0] - row + j
            if not 0 <= r < len(pieri):
                continue
            sub = minor(row + 1, cols[:t] + cols[t + 1:], tail[1:])
            for c, xs in pieri[r].items():
                if t % 2:
                    out[c] -= sum(map(sub.__getitem__, xs))
                else:
                    out[c] += sum(map(sub.__getitem__, xs))
        memo[row][1][cols] = out
        return out

    for c in basis:
        lam = _partition(c)
        yield minor(0, tuple(range(len(lam))), lam)
    memo.clear()  # minor refers to itself, so without this the memo waits for the cycle collector


def _unpack(row: int, w: int, k: int) -> Sequence[int]:
    """The k slots of a packed row whose slots all lie in [0, 2^w)."""
    data = row.to_bytes(k * w // 8, "little")
    if w <= 64 and sys.byteorder == "little":
        return memoryview(data).cast("BHIQ"[(w // 8).bit_length() - 1])
    step = w // 8
    return [int.from_bytes(data[i:i + step], "little") for i in range(0, len(data), step)]


class BaseTable:
    """Resolved three-point counts over all ordered triples from Xi_{p,n}.

    Each ordered triple of basis indices holds its count; at() reads one, _row()
    the k counts N(i, j, .) of a product e_i e_j, and source_at() derives a
    cell's source tag from the kinds of its three classes.  The table also owns
    the basis data the engine and check_axioms share: index maps a class to
    its position in basis, dual_perm[i] is the index of neg_dual(basis[i]), and
    unit is the index of the unit class [0, ..., n-1].
    """

    def __init__(self, p: int, n: int):
        k = _size(p, n, MAX_TABLE_CLASSES, "a base table")
        self.p = p
        self.n = n
        self.basis = basis = xi(p, n)
        self.index = index = {c: i for i, c in enumerate(basis)}
        self.dual_perm = dual = tuple(index[neg_dual(c)] for c in basis)
        self.unit = index[canonical(p, range(n))]
        orbits = _hyp_orbits(p, n)
        h = [index[c] for c in _hyp_classes(p, n)]
        pieri = _pieri_rows(h, dual, orbits)
        bound, w = _minor_bound(basis, pieri), 8
        while bound >> (w - 1):
            w *= 2
        # 0: a hypergeometric class, 1: one on the complement-dual side, 2: neither;
        # the kind of a cell is the least kind of its three classes
        kinds = [2] * k
        for c in _hyp_classes(p, p - n):
            kinds[index[comp_dual(c)]] = 1
        for i in h:
            kinds[i] = 0
        witnesses = [orbits]
        if 1 in kinds:
            # index in Xi_{p,p-n} -> index of its complement dual in basis
            comp = [index[comp_dual(c)] for c in xi(p, p - n)]
            witnesses.append([tuple(comp[i] for i in t) for t in _hyp_orbits(p, p - n)])
        # expect[a k + c]: a 1 in slot b for each (a, b, c) its own kind's witness holds
        expect: dict[int, int] = {}
        for kind, witness in enumerate(witnesses):
            for a, b, c in _permutations(t for t in witness if min(map(kinds.__getitem__, t)) == kind):
                expect[a * k + c] = expect.get(a * k + c, 0) | 1 << (w * b)
        # row (a, c) has cells of kind min(f, kinds[b]), f = min(kinds[a], kinds[c]);
        # witnessed[f] covers its slots of kind 0 or 1
        witnessed = [sum(((1 << w) - 1) << (w * b) for b, x in enumerate(kinds) if min(f, x) < 2) for f in range(3)]
        bias = sum(1 << (w * b + w - 1) for b in range(k))  # the top bit of every slot
        self._kinds = kinds
        # _tags[f][l]: the tag of a cell (i, j, l) with f = min(kinds[i], kinds[j])
        self._tags = [[_TAGS[min(f, x)] for x in kinds] for f in range(3)]
        self._manual: frozenset[tuple[int, int, int]] = frozenset()
        self._cells: list[int] = [0] * k**3
        for a, rows in enumerate(_closure(basis, pieri, w)):
            for c, d in enumerate(dual):
                row, f, want = rows[d], min(kinds[a], kinds[c]), expect.get(a * k + c, 0)
                if (row + bias) & bias != bias or row & witnessed[f] != want:
                    self._refuse(a, c, row + bias, want, [min(f, x) for x in kinds], w)
                self._cells[a * k * k + c:(a + 1) * k * k:k] = _unpack(row, w, k)

    def _refuse(self, a: int, c: int, biased: int, want: int, kinds: list[int], w: int) -> None:
        """Raise for the first cell (a, b, c), in b order, that is negative or
        disagrees with its witness: slot b of biased holds the value plus
        2^(w-1), slot b of want the witness, and kinds[b] the cell's kind."""
        half = 1 << (w - 1)
        for b, kind in enumerate(kinds):
            v = (biased >> (w * b) & (2 * half - 1)) - half
            given = want >> (w * b) & 1
            if v < 0 or kind < 2 and v != given:
                triple = ", ".join(str(list(self.basis[x].elems)) for x in (a, b, c))
                other = "a negative count" if kind == 2 else f"{_TAGS[kind]} gives {given}"
                raise AssertionError(f"p={self.p}, n={self.n}, triple ({triple}): Jacobi-Trudi gives {v}, {other}")

    def _slot(self, idx: Sequence[int]) -> int:
        k = len(self.basis)
        i, j, l = idx
        return (i * k + j) * k + l

    def _row(self, i: int, j: int) -> list[int]:
        """N(i, j, l) for l = 0, ..., k-1; e_i e_j has coefficient row[dual_perm[t]] at e_t."""
        k = len(self.basis)
        return self._cells[(i * k + j) * k:(i * k + j + 1) * k]

    def at(self, idx: Sequence[int]) -> int:
        """The count of an ordered triple of basis indices."""
        return self._cells[self._slot(idx)]

    def source_at(self, idx: Sequence[int]) -> str:
        """The source tag of an ordered triple of basis indices: "manual" for a
        cell set by with_value, else the tag of the least kind of its classes."""
        i, j, l = idx
        if (i, j, l) in self._manual:
            return "manual"
        return self._tags[min(self._kinds[i], self._kinds[j])][l]

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

    def value(self, triple: Sequence[RadiusClass]) -> int:
        return self.at(self._triple(triple))

    def source(self, triple: Sequence[RadiusClass]) -> str:
        return self.source_at(self._triple(triple))

    def entries(self) -> dict[Triple, tuple[int, str]]:
        # row by row in product order, tagged as in source_at; a manual cell keeps its place
        basis, kinds, out = self.basis, self._kinds, {}
        for (i, a), (j, b) in itertools.product(enumerate(basis), repeat=2):
            tags = self._tags[min(kinds[i], kinds[j])]
            out.update(zip(zip(itertools.repeat(a), itertools.repeat(b), basis), zip(self._row(i, j), tags)))
        out.update({tuple(map(basis.__getitem__, idx)): (self.at(idx), "manual") for idx in self._manual})
        return out

    def with_value(self, triple: Sequence[RadiusClass], value: int) -> "BaseTable":
        """Copy of the table with one entry's whole S_3 orbit replaced."""
        idx = self._triple(triple)
        clone = copy.copy(self)
        clone._cells = list(self._cells)
        perms = set(itertools.permutations(idx))
        clone._manual = self._manual | perms
        for perm in perms:
            clone._cells[self._slot(perm)] = value
        return clone


def _table_for(p: int, n: int, table: BaseTable | None) -> BaseTable:
    if table is None:
        return BaseTable(p, n)
    if (table.p, table.n) != (p, n):
        raise ValueError(f"table is for p={table.p}, n={table.n}, not p={p}, n={n}")
    return table


class FusionEngine:
    """Counts over surfaces of arbitrary genus and marked points, one chain each.

    memo holds every answer of count, keyed by (g, sorted tuple of basis
    indices).  The engine records the rows (s, a) that products read and the
    cells (s, a, b) that closing contractions read; used builds from them, on
    each read, the ordered index triple of every base entry that count and
    evaluate read, all k of each row.  The table gives their values and sources.
    """

    def __init__(self, p: int, n: int, table: BaseTable | None = None):
        self.table = _table_for(p, n, table)
        self.basis = self.table.basis
        self.memo: dict[tuple[int, tuple[int, ...]], int] = {}
        self._read_rows: set[tuple[int, int]] = set()
        self._read_cells: set[tuple[int, int, int]] = set()

    @property
    def used(self) -> set[tuple[int, int, int]]:
        """The index triples of the base entries read so far, a new set on each read."""
        cols = range(len(self.basis))
        used = {(s, a, l) for s, a in self._read_rows for l in cols}
        used.update(self._read_cells)
        return used

    def _times(self, v: dict[int, int], a: int) -> dict[int, int]:
        """The product v e_a, reading the rows of the support of v."""
        out: dict[int, int] = {}
        for s, x in v.items():
            row = self.table._row(s, a)
            self._read_rows.add((s, a))
            for t, d in enumerate(self.table.dual_perm):
                w = row[d]
                if w:
                    out[t] = out.get(t, 0) + x * w
        return out

    def _pair(self, v: dict[int, int], a: int, b: int) -> int:
        """eps(v e_a e_b) = sum_s v_s N(s, a, b)."""
        self._read_cells.update([(s, a, b) for s in v])
        return sum(x * self.table.at((s, a, b)) for s, x in v.items())

    def _product(self, idx: Sequence[int], handles: int) -> dict[int, int]:
        """e_idx h^handles, from e_idx[0] (the unit when idx is empty) on."""
        v = {idx[0]: 1} if idx else {self.table.unit: 1}
        for a in idx[1:]:
            v = self._times(v, a)
        for _ in range(handles):
            h: dict[int, int] = {}
            for c, d in enumerate(self.table.dual_perm):
                for t, y in self._times(self._times(v, c), d).items():
                    h[t] = h.get(t, 0) + y
            v = h
        return v

    def _chain(self, g: int, idx: Sequence[int]) -> int:
        """The chain (module docstring) on basis indices in any order, for the shapes count accepts."""
        key = (g, tuple(sorted(idx)))
        if key not in self.memo:
            marks = key[1]
            if g:
                v = self._product(marks, g - 1)
                self.memo[key] = sum(self._pair(v, c, d) for c, d in enumerate(self.table.dual_perm))
            else:
                self.memo[key] = self._pair(self._product(marks[:-2], 0), *marks[-2:]) if marks else 1
        return self.memo[key]

    def count(self, g: int, radii: Sequence[RadiusClass] = ()) -> int:
        """Number of dormant opers of the given radii on a genus-g surface, by one chain.

        Valid for 2g - 2 + r > 0 and for the closed surfaces of genus 0 and 1;
        the chain (module docstring) is linear in g + r, so any genus finishes.
        """
        if type(g) is not int or g < 0:
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
        eps(u e_{dual lambda_1} ... e_{dual lambda_s}) with u = e_inputs h^g,
        read as w[lambda_s] from w = u e_{dual lambda_1} ... e_{dual lambda_{s-1}}
        (eps(u) = u[unit] when s = 0).  Unlike count, it leaves memo unfilled.
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
            layer = {(): self._product(sorted(idx), g)}
            for _ in range(s - 1):
                layer = {lam + (c,): w for lam, v in layer.items()
                         for c, d in enumerate(self.table.dual_perm) if (w := self._times(v, d))}
            reads = ({lam + (c,): x for lam, v in layer.items() for c, x in v.items()} if s
                     else {(): layer[()].get(self.table.unit, 0)})
            for lam, x in reads.items():
                if x:
                    key = tuple(self.basis[i] for i in lam)
                    out[key] = out.get(key, 0) + val * x
        return out


def count(p: int, n: int, g: int, radii: Sequence[RadiusClass] = ()) -> int:
    return FusionEngine(p, n).count(g, radii)


def evaluate(p: int, n: int, cob: Cobordism, tensor: Mapping) -> dict:
    return FusionEngine(p, n).evaluate(cob, tensor)


class AxiomResult(_Record):
    """One checked axiom; witness describes a failure."""

    __match_args__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: str | None = None) -> None:
        self.name = name
        self.passed = passed
        self.witness = witness


class AxiomReport(_Record):
    """The results of check_axioms at (p, n); each report starts its own list."""

    __match_args__ = ("p", "n", "results")

    def __init__(self, p: int, n: int, results: list[AxiomResult] | None = None) -> None:
        self.p = p
        self.n = n
        self.results = [] if results is None else results

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


def check_axioms(p: int, n: int, table: BaseTable | None = None) -> AxiomReport:
    """Machine check of the Frobenius-algebra axioms; failures become report rows.

    The algebra has basis Xi_{p,n}, unit [0, ..., n-1], product
    e_i e_j = sum_t N(i, j, dual t) e_t and pairing <e_i, e_j> = 1 exactly when
    j = dual i.  Each product e_i e_j is the row BaseTable._row(i, j) read through
    the dual permutation, with no FusionEngine, so nothing keeps the k^3 cells
    read.  ValueError when |Xi_{p,n}| exceeds MAX_AXIOM_CLASSES.
    """
    _size(p, n, MAX_AXIOM_CLASSES, "check_axioms")
    table = _table_for(p, n, table)
    basis, dual = table.basis, table.dual_perm
    k = len(basis)
    # prod[i][j] = e_i e_j as a sparse vector; no stored coefficient is zero
    prod = [[{t: x for t, d in enumerate(dual) if (x := row[d])} for row in map(table._row, [i] * k, range(k))]
            for i in range(k)]
    name_of = lambda i: str(list(basis[i].elems))

    def combine(terms) -> dict[int, int]:
        """sum of x v over the pairs (x, v), with zero coefficients dropped."""
        out: dict[int, int] = {}
        for x, v in terms:
            for m, y in v.items():
                out[m] = out.get(m, 0) + x * y
        return {m: z for m, z in out.items() if z}

    cube = lambda: itertools.product(range(k), repeat=3)
    # each axiom's failures in search order; the first one found is its witness
    searches = {
        # each member of a failing orbit fails, so the first in product order is sorted
        "base-s3-symmetric": (f"{[list(basis[i].elems) for i in idx]} vs permutation"
                              for idx in itertools.combinations_with_replacement(range(k), 3)
                              if any(table.at(perm) != table.at(idx) for perm in itertools.permutations(idx))),
        "commutative": (f"{name_of(i)} * {name_of(j)}"
                        for i, j in itertools.product(range(k), repeat=2) if prod[i][j] != prod[j][i]),
        "associative": (f"({name_of(i)} * {name_of(j)}) * {name_of(l)}" for i, j, l in cube()
                        if combine((x, prod[t][l]) for t, x in prod[i][j].items())
                        != combine((y, prod[i][t]) for t, y in prod[j][l].items())),
        "unit": (f"unit * {name_of(j)}" for j in range(k) if prod[table.unit][j] != {j: 1}),
        "frobenius": (f"<{name_of(i)} * {name_of(j)}, {name_of(l)}>" for i, j, l in cube()
                      if sum(x for t, x in prod[i][j].items() if dual[t] == l) != prod[j][l].get(dual[i], 0)),
        "pairing-nondegenerate": (
            iter(["pairing matrix is not a permutation"]) if sorted(dual) != list(range(k))
            else (f"negation dual not involutive at {name_of(i)}" for i in range(k) if dual[dual[i]] != i)),
    }
    report = AxiomReport(p=p, n=n)
    for name, search in searches.items():
        witness = next(search, None)
        report.results.append(AxiomResult(name, witness is None, witness))
    return report
