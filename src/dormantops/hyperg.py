"""Generalized hypergeometric operators over a prime field.

An operator is determined by parameter tuples alpha (length n >= 1) and beta
(length m >= 1) over F_p.  Scaled by 1/x it acts on the span of
1, x, ..., x^{p-1} through the one-step recurrence

    x^s  |->  Q(s-1) x^{s-1} + P(s) x^s,

with P(X) = -prod_j (X + alpha_j) and Q(X) = (X+1) prod_j (X + beta_j), so its
matrix is upper bidiagonal of size p.  The rank of the solution space inside
the polynomial span has a closed combinatorial form (t_set below) and an
independent dense-elimination oracle; the two are kept as separate code paths
on purpose and compared in tests.

The oracle brings the full p x p matrix to row echelon form by forward
elimination, and root_basis reads null vectors off it by back substitution.
There is one elimination per operator: oracle_rank and root_basis share it
through a cached property of the operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from .fp import FpElem, Generic, Parameter, check_odd_prime, sort_params

__all__ = [
    "GenericParameterError",
    "HGOperator",
    "BidiagMatrix",
    "new_operator",
    "gauss",
    "t_set",
    "kernel_rank",
    "has_full_solutions",
    "matrix",
    "oracle_rank",
    "root_basis",
    "apply",
    "pcurvature_sum_test",
]


class GenericParameterError(ValueError):
    """Raised when an operation needs every parameter inside the prime field."""


def _normalize(params: Iterable[object], p: int) -> tuple[Parameter, ...]:
    out: list[Parameter] = []
    for q in params:
        if isinstance(q, Generic):
            out.append(q)
        elif isinstance(q, FpElem):
            if q.p != p:
                raise ValueError(f"parameter modulus {q.p} does not match p={p}")
            out.append(q)
        elif isinstance(q, int):
            out.append(FpElem(q % p, p))
        else:
            raise TypeError(f"not a parameter: {q!r}")
    return tuple(out)


@dataclass(frozen=True)
class HGOperator:
    p: int
    alpha: tuple[Parameter, ...]
    beta: tuple[Parameter, ...]

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def m(self) -> int:
        return len(self.beta)

    def fp_lifts(self) -> tuple[list[int], list[int]]:
        """Sorted (weakly decreasing) canonical lifts of the F_p parameters."""
        a, _ = sort_params(self.alpha, self.p)
        b, _ = sort_params(self.beta, self.p)
        return a, b

    def all_fp(self) -> bool:
        return not any(isinstance(q, Generic) for q in self.alpha + self.beta)

    @cached_property
    def _row_echelon(self) -> tuple[list[list[int]], list[int]]:
        """(rows, pivots) of matrix(self) in row echelon form, eliminated once.

        Stored in the instance dict, outside the dataclass fields, so equality
        and hashing are unchanged.  Callers must not mutate the rows.
        """
        return _echelon(matrix(self).rows(), self.p)


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
    alpha_lifts, _ = sort_params(op.alpha, op.p)
    beta_lifts, _ = sort_params(op.beta, op.p)
    bounds = [op.p + 1] + beta_lifts + [1]
    hit = set()
    for j in range(len(beta_lifts) + 1):
        hi, lo = bounds[j], bounds[j + 1]
        if any(hi > a >= lo for a in alpha_lifts):
            hit.add(j)
    return frozenset(hit)


def kernel_rank(op: HGOperator) -> int:
    """Dimension of the polynomial solution space, by the closed form."""
    return len(t_set(op))


def has_full_solutions(op: HGOperator) -> bool:
    """True when the solution space has the maximal possible rank n.

    Requires every parameter in F_p, m = n-1, and the interleaving chain
    a_1 >= b_1 > a_2 >= b_2 > ... > b_{n-1} > a_n on canonical lifts.
    """
    if not op.all_fp():
        return False
    if op.m != op.n - 1:
        return False
    a, b = op.fp_lifts()
    for i in range(op.m):
        if not (a[i] >= b[i] > a[i + 1]):
            return False
    return True


@dataclass(frozen=True)
class BidiagMatrix:
    """Upper bidiagonal matrix attached to an all-F_p operator.

    diag[l] = P(l) for l = 0..p-1 and superdiag[l] = Q(l) for l = 0..p-2;
    column s is the image of x^s.
    """

    p: int
    diag: tuple[int, ...]
    superdiag: tuple[int, ...]

    def rows(self) -> list[list[int]]:
        rows = [[0] * self.p for _ in range(self.p)]
        for i in range(self.p):
            rows[i][i] = self.diag[i]
            if i < self.p - 1:
                rows[i][i + 1] = self.superdiag[i]
        return rows

    def mat_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.p:
            raise ValueError(f"vector length must be {self.p}")
        out = []
        for i in range(self.p):
            v = self.diag[i] * vec[i]
            if i < self.p - 1:
                v += self.superdiag[i] * vec[i + 1]
            out.append(v % self.p)
        return tuple(out)


def _require_fp(op: HGOperator) -> tuple[list[int], list[int]]:
    if not op.all_fp():
        raise GenericParameterError("operation needs all parameters in F_p")
    avals = [q.value for q in op.alpha]  # type: ignore[union-attr]
    bvals = [q.value for q in op.beta]  # type: ignore[union-attr]
    return avals, bvals


def matrix(op: HGOperator) -> BidiagMatrix:
    avals, bvals = _require_fp(op)
    p = op.p
    diag = []
    for l in range(p):
        prod = 1
        for a in avals:
            prod = prod * (l + a) % p
        diag.append(-prod % p)
    superdiag = []
    for l in range(p - 1):
        prod = l + 1
        for b in bvals:
            prod = prod * (l + b) % p
        superdiag.append(prod % p)
    return BidiagMatrix(p, tuple(diag), tuple(superdiag))


def _echelon(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Row echelon form over F_p by forward elimination, in place.

    Entries are residues in 0..p-1.  Each pivot row is scaled so its pivot is
    1, and only the rows below it are cleared.  A pivot row is zero left of its
    pivot column c, so every row operation touches columns c: only.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        tail = [x * inv % p for x in rows[r][c:]]
        rows[r][c:] = tail
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                rows[i][c:] = [(x - f * y) % p for x, y in zip(rows[i][c:], tail)]
        pivots.append(c)
        r += 1
    return rows, pivots


def oracle_rank(op: HGOperator) -> int:
    """Kernel dimension measured by dense elimination on the full p x p matrix.

    The matrix is brought to row echelon form by forward elimination, once per
    operator (shared with root_basis), and the rank is p minus the number of
    pivots.  Deliberately ignores the bidiagonal block structure; this is the
    independent check against the closed form.
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

    Uses the operator's row echelon form from forward elimination, computed
    once per operator (shared with oracle_rank).  There is one null vector per
    free column, in increasing column order: 1 at its own free column, 0 at
    the other free columns, and the pivot entries found by back substitution.
    """
    rows, pivots = op._row_echelon
    p = op.p
    pivot_set = set(pivots)
    basis = []
    for free in range(p):
        if free in pivot_set:
            continue
        vec = [0] * p
        vec[free] = 1
        for r in reversed(range(len(pivots))):
            c = pivots[r]
            vec[c] = -sum(map(mul, rows[r][c + 1 :], vec[c + 1 :])) % p
        vec_t = tuple(vec)
        if any(apply(op, vec_t)):
            raise AssertionError(f"null vector {vec_t} not annihilated by operator")
        basis.append(vec_t)
    return basis


def pcurvature_sum_test(alpha: Iterable[Parameter], beta: Iterable[Parameter]) -> bool:
    """Whether both parameter sums land in F_p.

    A Generic token in either tuple keeps that sum outside the field: tokens
    are opaque and never cancel.
    """
    return not any(isinstance(q, Generic) for q in alpha) and not any(
        isinstance(q, Generic) for q in beta
    )
