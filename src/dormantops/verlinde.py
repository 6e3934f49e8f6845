"""The closed-form count of dormant opers on closed surfaces.

verlinde_sum evaluates, over subsets S of the p-th roots of unity of size n,

    p^{(n-1)(g-1)-1} * sum_S (prod S)^{(n-1)(g-1)} / prod_{i!=j in S} (z_i - z_j)^{g-1}

(the summand is symmetric, so summing over unordered subsets absorbs the 1/n!
that would accompany ordered tuples with distinct entries).  The inner loop
works in the integer group ring R = Z[x]/(x^p - 1), where x stands for zeta
and the norm element N = 1 + x + ... + x^{p-1} stands for 0.  Within each
summand the root powers cancel against the denominator factors zeta^j, the
sign (-1)^{n(n-1)} is +1, and each factor inverse scaled by p is integral:

    p / (1 - zeta^k) = -sum_{j=0}^{p-1} j zeta^{jk},

because (1 - zeta^k) times the right side is p - sum_m zeta^m = p.  So a
summand is an integer vector divided by a fixed power of p.  The summand
depends only on the differences within S, so it is constant on translation
orbits; each orbit has p members, n of which contain 0, and the sum runs over
the subsets that contain 0, scaled by p/n.

The sum over those subsets runs over multiplicative orbits.  For d a unit mod
p, sigma_d: x -> x^d permutes the monomials of R, so it is a ring
automorphism, and it fixes N.  Since v N = (sum of the coefficients of v) N,
the multiples of N form the ideal Z N, and congruence mod Z N is kept by sums
and products.  The vector scaled(k) of p/(1-zeta^k) (scaled[k - 1] below) is
-sum_j j x^{jk} less a multiple of N, and sigma_d sends -sum_j j x^{jk} to
-sum_j j x^{jdk}, so, with indices mod p,

    sigma_d(scaled(k)) = scaled(dk)  mod Z N,

hence sigma_d(W[k]) = W[dk] for the pair factors W below, and the pair product
term(S) over a subset S satisfies term(d S) = sigma_d(term(S)) mod Z N.  The
map S -> d S keeps 0 in S, so it permutes the subsets with 0.  Each orbit
under it is visited once, at its representative: the subset, as a sorted
tuple, that is least among its images d S for d = 1..p-1, so an orbit needs
no set of visited members.  Its pair product is computed once, and
sigma_d(term) is added for one d per distinct image (the least such d), an
index permutation.

The total vector is still built in full.  It differs from the subset-by-subset
total only by an integer multiple of N, which changes neither the value
_gr_rational reads (v[0] - v[1]) nor its test that v[1] = ... = v[p-1], so
the rationality check gives the verdict and value of the direct sum.

verlinde_count applies the validity window g >= 2, p > n * max(g-1, 2) and
checks the result is a nonnegative integer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .fp import check_odd_prime

__all__ = [
    "verlinde_sum",
    "verlinde_count",
    "poly_n3_g2",
]


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
    """Vectors of p * (1 - zeta^k)^{-1} for k = 1..p-1, with zeta^{p-1} coefficient 0.

    Each is -sum_j j x^{jk} less a multiple of the norm element, and is checked
    by multiplying back: (1 - x^k) times it must read as p.
    """
    out = []
    for k in range(1, p):
        vec = [0] * p
        for j in range(p):
            vec[j * k % p] = -j
        top = vec[p - 1]
        vec = tuple(c - top for c in vec)
        factor = [0] * p
        factor[0], factor[k] = 1, -1
        if _gr_rational(_gr_mul(factor, vec, p)) != p:
            raise ArithmeticError(f"(1-zeta^{k}) * p*(1-zeta^{k})^-1 != p at p={p}")
        out.append(vec)
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
        subset = (0,) + rest
        # the distinct images d * subset, each with its least d; stop at a lesser one
        images = {}
        for d in range(1, p):
            image = tuple(sorted(d * s % p for s in subset))
            if image < subset:
                break
            images.setdefault(image, d)
        else:
            term = list(one)
            for a, b in combinations(subset, 2):
                term = _gr_mul(term, W[(a - b) % p], p)
            # term(d * subset) = sigma_d(term) modulo multiples of N
            for d in images.values():
                for i, c in enumerate(term):
                    total[d * i % p] += c
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
