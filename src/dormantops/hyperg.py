"""Generalized hypergeometric operators over a prime field.

An operator is determined by parameter tuples alpha (length n >= 1) and beta
(length m >= 1) over F_p.  Scaled by 1/x it acts on the span of
1, x, ..., x^{p-1} through the one-step recurrence

    x^s  |->  Q(s-1) x^{s-1} + P(s) x^s,

with P(X) = -prod_j (X + alpha_j) and Q(X) = (X+1) prod_j (X + beta_j), so its
matrix is upper bidiagonal of size p.  matrix(op) holds it as p sparse rows
{column: entry}, P(l) at column l and Q(l) at column l+1, with zero entries
left out.  The rank of the solution space inside the polynomial span has a
closed combinatorial form (t_set below) and an oracle by general sparse
forward elimination, independent of the closed form; the two are kept as
separate code paths on purpose and compared in tests.

The oracle brings these rows to row echelon form by forward elimination that
makes no use of the bidiagonal pattern, and root_basis reads null vectors off
it by back substitution.  There is one elimination per operator: oracle_rank
and root_basis share it through a cached property of the operator, as the
closed form and has_full_solutions share the sorted parameter lifts through
another.  The oracle reads nothing from the lifts.  Its cost grows about as
p^2, so it refuses p above MAX_ORACLE_P.
"""

from __future__ import annotations

from functools import cached_property
from collections.abc import Iterable, Sequence

from .fp import Generic, Parameter, _Frozen, check_odd_prime

__all__ = [
    "MAX_ORACLE_P",
    "GenericParameterError",
    "HGOperator",
    "new_operator",
    "gauss",
    "t_set",
    "kernel_rank",
    "has_full_solutions",
    "matrix",
    "oracle_rank",
    "root_basis",
    "apply",
]


MAX_ORACLE_P = 10_000
"""Largest p for which oracle_rank and root_basis run the elimination.

The elimination checks every row below each pivot, about p^2 / 2 row visits,
on sparse rows of at most two entries.  On a 2-vCPU Intel Xeon under CPython
3.11 a rank-4 operator took 0.34 s at p = 4001 and 1.9 s at p = 10007, with a
peak RSS of 22 MiB.  Above the bound both raise ValueError; the closed form
kernel_rank has no bound.
"""


class GenericParameterError(ValueError):
    """Raised when an operation needs every parameter inside the prime field."""


def _normalize(params: Iterable[object], p: int) -> tuple[Parameter, ...]:
    out: list[Parameter] = []
    for q in params:
        if isinstance(q, Generic):
            out.append(q)
        elif isinstance(q, int):
            out.append(q % p)
        else:
            raise TypeError(f"not a parameter: {q!r}")
    return tuple(out)


class HGOperator(_Frozen):
    """The operator with parameters alpha, beta over F_p, built by new_operator."""

    __match_args__ = ("p", "alpha", "beta")

    def __init__(self, p: int, alpha: tuple[Parameter, ...], beta: tuple[Parameter, ...]) -> None:
        # straight into the instance dict, which the cached properties below
        # create anyway; an object.__setattr__ per field costs twice as long
        d = self.__dict__
        d["p"] = p
        d["alpha"] = alpha
        d["beta"] = beta

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def m(self) -> int:
        return len(self.beta)

    def fp_lifts(self) -> tuple[list[int], list[int]]:
        """Sorted (weakly decreasing) canonical lifts of the F_p parameters.

        Fresh lists on every call, so a caller may mutate them.
        """
        a, b, _ = self._lifts
        return list(a), list(b)

    def all_fp(self) -> bool:
        return self._lifts[2]

    @cached_property
    def _lifts(self) -> tuple[list[int], list[int], bool]:
        """(alpha lifts, beta lifts, all-F_p flag), one sort per side.

        The lift of residue q is q or p, in {1, ..., p}; Generic tokens have
        none.  Stored in the instance dict like _row_echelon, so equality and
        hashing are unchanged.  Callers must not mutate the lists.
        """
        p = self.p
        a = sorted([q or p for q in self.alpha if not isinstance(q, Generic)], reverse=True)
        b = sorted([q or p for q in self.beta if not isinstance(q, Generic)], reverse=True)
        return a, b, len(a) + len(b) == len(self.alpha) + len(self.beta)

    @cached_property
    def _row_echelon(self) -> tuple[list[dict[int, int]], list[int]]:
        """(rows, pivots) of matrix(self) in row echelon form, eliminated once.

        Stored in the instance dict but not among the fields, so equality and
        hashing are unchanged.  Callers must not mutate the rows.  Raises
        ValueError for p above MAX_ORACLE_P, before any work.
        """
        if self.p > MAX_ORACLE_P:
            raise ValueError(
                f"p={self.p} is above MAX_ORACLE_P={MAX_ORACLE_P}, the bound of the elimination oracle"
            )
        return _echelon(matrix(self), self.p)


def new_operator(p: int, alpha: Iterable[object], beta: Iterable[object]) -> HGOperator:
    """Build an operator; ints are reduced mod p, Generic tokens pass through."""
    check_odd_prime(p)
    a = _normalize(alpha, p)
    b = _normalize(beta, p)
    if not a or not b:
        raise ValueError("alpha and beta must be nonempty")
    return HGOperator(p, a, b)


def gauss(p: int, a: object, b: object, c: object) -> HGOperator:
    """The classical one-variable operator with numerator (a, b) and denominator (c,)."""
    return new_operator(p, (a, b), (c,))


def t_set(op: HGOperator) -> frozenset[int]:
    """Indices of lift gaps holding at least one alpha lift.

    Gap j (for j = 0..m') collects lifts l with beta-lift_j > l >= beta-lift_{j+1},
    where the beta lifts are sorted weakly decreasing over the F_p entries and
    the sentinels are beta-lift_0 = p+1 and beta-lift_{m'+1} = 1.  The kernel
    rank equals the number of occupied gaps.
    """
    alpha_lifts, beta_lifts, _ = op._lifts
    hit = set()
    for a in alpha_lifts:
        # the beta lifts decrease, so a lies in gap j, the number of them above a
        j = 0
        for b in beta_lifts:
            if b <= a:
                break
            j += 1
        hit.add(j)
    return frozenset(hit)


def kernel_rank(op: HGOperator) -> int:
    """Dimension of the polynomial solution space, by the closed form."""
    return len(t_set(op))


def has_full_solutions(op: HGOperator) -> bool:
    """True when the solution space has the maximal possible rank n.

    Requires every parameter in F_p and m = n-1; then the closed form has n
    alpha lifts in m+1 = n gaps, so the rank is n exactly when each gap holds
    one lift.  With the lifts sorted, that is the interleaving chain
    a_1 >= b_1 > a_2 >= b_2 > ... > b_{n-1} > a_n.
    """
    return op.all_fp() and op.m == op.n - 1 and kernel_rank(op) == op.n


def _require_fp(op: HGOperator) -> tuple[list[int], list[int]]:
    # every parameter is a residue or a Generic; checked here, not read from
    # op.all_fp(), so the oracle shares nothing with the closed form's lifts
    avals = [q for q in op.alpha if not isinstance(q, Generic)]
    bvals = [q for q in op.beta if not isinstance(q, Generic)]
    if len(avals) + len(bvals) < len(op.alpha) + len(op.beta):
        raise GenericParameterError("operation needs all parameters in F_p")
    return avals, bvals


def matrix(op: HGOperator) -> list[dict[int, int]]:
    """The p x p upper bidiagonal matrix of an all-F_p operator, as sparse rows.

    Row l is {column: entry} over its nonzero entries: P(l) at column l and,
    for l < p-1, Q(l) at column l+1; column s is the image of x^s.  The rows
    are fresh on every call, so _echelon may eliminate them in place.
    """
    avals, bvals = _require_fp(op)
    p = op.p
    rows = []
    for l in range(p):
        row = {}
        prod = 1
        for a in avals:
            prod = prod * (l + a) % p
        if prod:
            row[l] = -prod % p
        if l < p - 1:
            prod = l + 1
            for b in bvals:
                prod = prod * (l + b) % p
            if prod:
                row[l + 1] = prod
        rows.append(row)
    return rows


def _echelon(rows: list[dict[int, int]], p: int) -> tuple[list[dict[int, int]], list[int]]:
    """Row echelon form over F_p by general sparse forward elimination, in place.

    Each row is a dict from column to nonzero residue, and the rows may have
    any shape; no pattern of the matrix is assumed.  Columns are visited in
    increasing order.  The pivot of column c is the first row from r down with
    a nonzero in c; it is swapped to row r and scaled by pow(pivot, -1, p) so
    its pivot is 1, and every row below it is checked and cleared in c.
    Entries that cancel are dropped, so every stored entry is nonzero.
    Returns (rows, pivots): rows 0..len(pivots)-1 are the pivot rows, the rest
    are empty.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    # fill-in lands only in columns of some pivot row, so no other column
    # can ever hold a pivot
    for c in sorted(set().union(*rows)):
        i = r
        while i < nrows and c not in rows[i]:
            i += 1
        if i == nrows:
            continue
        s = pow(rows[i][c], -1, p)
        pivot = {j: v * s % p for j, v in rows[i].items()}
        rows[i] = rows[r]
        rows[r] = pivot
        for row in rows[r + 1 :]:
            if c in row:
                f = row[c]
                for j, v in pivot.items():
                    x = (row.get(j, 0) - f * v) % p
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        pivots.append(c)
        r += 1
    return rows, pivots


def oracle_rank(op: HGOperator) -> int:
    """Kernel dimension measured by general sparse forward elimination,
    independent of the closed form.

    The p x p matrix, as sparse rows, is brought to row echelon form once per
    operator (shared with root_basis), and the rank is p minus the number of
    pivots.  The elimination ignores the bidiagonal block structure and
    reads nothing from t_set or the sorted lifts; this is the independent
    check against the closed form.  Raises ValueError for p above
    MAX_ORACLE_P.
    """
    _, pivots = op._row_echelon
    return op.p - len(pivots)


def apply(op: HGOperator, coeffs: Sequence[int]) -> tuple[int, ...]:
    """Image of sum_s coeffs[s] x^s under the scaled operator, via the recurrence.

    Independent of matrix(): P and Q are re-evaluated inline.  Output
    coefficient t is P(t) c_t + Q(t) c_{t+1}.
    """
    avals, bvals = _require_fp(op)
    p = op.p
    if len(coeffs) != p:
        raise ValueError(f"coefficient vector length must be {p}")
    out = []
    for t in range(p):
        prod = 1
        for a in avals:
            prod = prod * (t + a) % p
        v = -prod * coeffs[t]
        if t < p - 1:
            prod = t + 1
            for b in bvals:
                prod = prod * (t + b) % p
            v += prod * coeffs[t + 1]
        out.append(v % p)
    return tuple(out)


def root_basis(op: HGOperator) -> list[tuple[int, ...]]:
    """Basis of the polynomial solution space, each vector re-verified by apply.

    Uses the operator's row echelon form from general sparse forward
    elimination, independent of the closed form, computed once per operator
    (shared with oracle_rank).  There is one null vector per free column, in
    increasing column order: 1 at its own free column, 0 at the other free
    columns, and the pivot entries found by back substitution over each pivot
    row's nonzeros.  Raises ValueError for p above MAX_ORACLE_P.
    """
    rows, pivots = op._row_echelon
    p = op.p
    pivot_set = set(pivots)
    back = list(zip(pivots, rows))[::-1]
    basis = []
    for free in range(p):
        if free in pivot_set:
            continue
        vec = [0] * p
        vec[free] = 1
        for c, row in back:
            # the pivot entry is 1 and vec[c] is still 0, so the sum over the
            # whole row is the sum right of the pivot
            x = 0
            for j, v in row.items():
                x -= v * vec[j]
            vec[c] = x % p
        vec_t = tuple(vec)
        if any(apply(op, vec_t)):
            raise AssertionError(f"null vector {vec_t} not annihilated by operator")
        basis.append(vec_t)
    return basis
