"""Exact arithmetic in the p-th cyclotomic field and the closed-form count.

CycloElem represents elements of Q(zeta_p) as rational vectors in the power
basis 1, zeta, ..., zeta^{p-2}, with zeta^{p-1} rewritten through the minimal
polynomial 1 + x + ... + x^{p-1}.  Inversion runs the extended Euclidean
algorithm against that polynomial.

verlinde_sum evaluates, over subsets S of the p-th roots of unity of size n,

    p^{(n-1)(g-1)-1} * sum_S (prod S)^{(n-1)(g-1)} / prod_{i!=j in S} (z_i - z_j)^{g-1}

(the summand is symmetric, so summing over unordered subsets absorbs the 1/n!
that would accompany ordered tuples with distinct entries).  The inner loop
works in the
integer group ring Z[x]/(x^p - 1): within each summand the root powers cancel
against the denominator factors zeta^j, the sign (-1)^{n(n-1)} is +1, and each
factor inverse (1 - zeta^k)^{-1} becomes integral after scaling by p, so a
summand is an integer vector divided by a fixed power of p.  The summand
depends only on the differences within S, so it is constant on translation
orbits; each orbit has p members, n of which contain 0, and the sum runs over
the subsets that contain 0, scaled by p/n.  The Galois action is not used.

verlinde_count applies the validity window g >= 2, p > n * max(g-1, 2) and
checks the result is a nonnegative integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence, Union

from .fp import check_odd_prime

__all__ = [
    "CycloElem",
    "verlinde_sum",
    "verlinde_count",
    "poly_n3_g2",
]

Scalar = Union[int, Fraction]


def _reduce(p: int, raw: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Fold arbitrary powers of zeta into the power basis of length p-1."""
    folded = [Fraction(0)] * p
    for e, c in enumerate(raw):
        folded[e % p] += c
    top = folded[p - 1]
    return tuple(folded[i] - top for i in range(p - 1))


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    r = list(a)
    while len(r) >= len(b) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        f = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] += f
        for i, c in enumerate(b):
            r[i + shift] -= f * c
    while r and r[-1] == 0:
        r.pop()
    return q, r


@dataclass(frozen=True)
class CycloElem:
    """Element of Q(zeta_p) in the power basis, exact rational coefficients."""

    p: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        check_odd_prime(self.p)
        if len(self.coeffs) != self.p - 1:
            raise ValueError(f"need {self.p - 1} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @classmethod
    def zero(cls, p: int) -> "CycloElem":
        return cls(p, (Fraction(0),) * (p - 1))

    @classmethod
    def rational(cls, p: int, q: Scalar) -> "CycloElem":
        return cls(p, (Fraction(q),) + (Fraction(0),) * (p - 2))

    @classmethod
    def one(cls, p: int) -> "CycloElem":
        return cls.rational(p, 1)

    @classmethod
    def root(cls, p: int, k: int) -> "CycloElem":
        """zeta^k, already reduced."""
        raw = [Fraction(0)] * p
        raw[k % p] = Fraction(1)
        return cls(p, _reduce(p, raw))

    def _same_field(self, other: "CycloElem") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed fields p={self.p} and p={other.p}")

    def __add__(self, other: "CycloElem") -> "CycloElem":
        self._same_field(other)
        return CycloElem(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloElem") -> "CycloElem":
        self._same_field(other)
        return CycloElem(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloElem":
        return CycloElem(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other: Union["CycloElem", Scalar]) -> "CycloElem":
        if isinstance(other, (int, Fraction)):
            return CycloElem(self.p, tuple(a * other for a in self.coeffs))
        self._same_field(other)
        raw = [Fraction(0)] * (2 * self.p - 3)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        raw[i + j] += a * b
        return CycloElem(self.p, _reduce(self.p, raw))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CycloElem":
        if e < 0:
            return self.inv() ** (-e)
        out = CycloElem.one(self.p)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def inv(self) -> "CycloElem":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        phi = [Fraction(1)] * self.p
        a = list(self.coeffs)
        # invariants: s * self == r (mod phi)
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                break
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            prod = [Fraction(0)] * (len(q) + len(s1) - 1)
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(s1):
                        prod[i + j] += x * y
            new_s = [Fraction(0)] * max(len(s0), len(prod))
            for i, x in enumerate(s0):
                new_s[i] += x
            for i, x in enumerate(prod):
                new_s[i] -= x
            s0, s1 = s1, new_s
        g = r1[0]
        _, s_red = _poly_divmod([c / g for c in s1], phi)
        s_red += [Fraction(0)] * (self.p - len(s_red))
        return CycloElem(self.p, _reduce(self.p, s_red))

    def as_rational(self) -> Fraction:
        if any(self.coeffs[1:]):
            raise ValueError("element is not rational")
        return self.coeffs[0]


# integer group-ring helpers: vectors of length p indexed by zeta exponent

def _gr_mul(u: Sequence[int], v: Sequence[int], p: int) -> list[int]:
    out = [0] * p
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    k = i + j
                    out[k - p if k >= p else k] += a * b
    return out


def _gr_rational(v: Sequence[int]) -> int:
    """Value of a group-ring vector known to represent a rational number."""
    head = v[1]
    if any(x != head for x in v[2:]):
        raise ArithmeticError("group-ring vector is not rational")
    return v[0] - head


@lru_cache(maxsize=None)
def _scaled_inverses(p: int) -> tuple[tuple[int, ...], ...]:
    """Vectors of p * (1 - zeta^k)^{-1} for k = 1..p-1, checked integral."""
    out = []
    for k in range(1, p):
        inv = (CycloElem.one(p) - CycloElem.root(p, k)).inv() * p
        vec = []
        for c in inv.coeffs:
            if c.denominator != 1:
                raise ArithmeticError(f"p*(1-zeta^{k})^-1 not integral at p={p}")
            vec.append(c.numerator)
        vec.append(0)
        out.append(tuple(vec))
    return tuple(out)


def verlinde_sum(p: int, n: int, g: int) -> Fraction:
    """The bare closed-form sum, with no validity window applied."""
    check_odd_prime(p)
    if not 1 <= n < p:
        raise ValueError(f"need 1 <= n < p, got n={n}, p={p}")
    if g < 1:
        raise ValueError(f"need genus >= 1, got {g}")
    e = g - 1
    scaled = _scaled_inverses(p)
    # W[d] = (p^2 * (1-zeta^d)^{-1} (1-zeta^{p-d})^{-1})^(g-1) as an integer vector
    one = [0] * p
    one[0] = 1
    W = [None] * p
    for d in range(1, p):
        base = _gr_mul(scaled[d - 1], scaled[p - d - 1], p)
        acc = list(one)
        for _ in range(e):
            acc = _gr_mul(acc, base, p)
        W[d] = acc
    total = [0] * p
    for rest in combinations(range(1, p), n - 1):
        term = list(one)
        for a, b in combinations((0,) + rest, 2):
            term = _gr_mul(term, W[(a - b) % p], p)
        for i in range(p):
            total[i] += term[i]
    # the subsets with 0 hold n of the p members of each translation orbit
    value = Fraction(p, n) * _gr_rational(total)
    # undo the p^2 scale on each of the n(n-1)/2 * (g-1) pair factors
    value /= Fraction(p) ** (n * (n - 1) * e)
    return value * Fraction(p) ** ((n - 1) * e - 1)


def verlinde_count(p: int, n: int, g: int) -> int:
    """Closed-form count of dormant opers on a closed genus-g surface.

    Valid for g >= 2 and p > n * max(g-1, 2); the result is checked to be a
    nonnegative integer.
    """
    if g < 2:
        raise ValueError(f"need genus >= 2, got {g}")
    if p <= n * max(g - 1, 2):
        raise ValueError(
            f"validity window needs p > n*max(g-1,2), got p={p}, n={n}, g={g}"
        )
    value = verlinde_sum(p, n, g)
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(f"count came out as {value}, not a nonnegative integer")
    return int(value)


def poly_n3_g2(p: int) -> Fraction:
    """The degree-8 polynomial giving the rank-3 genus-2 count, evaluated exactly."""
    q = Fraction(p)
    return q**8 / 181440 + q**6 / 4320 - 11 * q**4 / 8640 + 47 * q**2 / 45360
