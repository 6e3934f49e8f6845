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
orbits.  Each orbit has p members and, as gcd(n, p) = 1, exactly one in
T = {n-subsets S of Z/p with sum S = 0 mod p}, so the sum is p times the sum
over T.  T is walked by radii._zero_sum_subsets, as in radii.xi.

The sum over T runs over multiplicative orbits.  For d a unit mod p,
sigma_d: x -> x^d permutes the monomials of R, so it is a ring automorphism,
and it fixes N.  Since v N = (sum of the coefficients of v) N, the multiples
of N form the ideal Z N, and congruence mod Z N is kept by sums and products.
A vector scaled(k) of p/(1-zeta^k) is -sum_j j x^{jk} plus a multiple of
N, and sigma_d sends -sum_j j x^{jk} to -sum_j j x^{jdk}, so, with indices
mod p,

    sigma_d(scaled(k)) = scaled(dk)  mod Z N.

So every scaled(k) is sigma_k(scaled(1)) mod Z N, for the one vector
scaled(1) = (p-1, ..., 1, 0) that _scaled_inverse builds and checks.  The
pair factor W[d] = (scaled(d) scaled(-d))^{g-1} is therefore
sigma_d(W[1]) mod Z N, and W[-d] = W[d] mod Z N, since sigma_{-1} swaps the
two factors of W[1].  So the m pairs of S whose difference is +-d contribute
sigma_d(W[1]^m), an index permutation of a power of one vector: the pair
product term(S) takes one product per difference class present in S, not
one per pair, and term(d S) = sigma_d(term(S)) mod Z N.  The
map S -> d S keeps sum S = 0, so it permutes T.  Each orbit under it is
visited once, at its representative: the subset, as a sorted tuple, that is
least among its images d S for d = 1..p-1, so an orbit needs no set of
visited members.  Its pair product is computed once, and sigma_d(term) is
added for one d per distinct image (the least such d).

The total vector is still built in full.  It differs from the subset-by-subset
total only by an integer multiple of N, which changes neither the value
_gr_rational reads (v[0] - v[1]) nor its test that v[1] = ... = v[p-1], so
the rationality check gives the verdict and value of the direct sum.

Products in R are taken by Kronecker substitution: u and v are packed as the
integers sum_i u_i 2^(w i) and sum_i v_i 2^(w i), multiplied once, and the
2p - 1 signed w-bit slots of the result, the coefficients of u v in Z[x], are
folded mod x^p - 1.  The slot width w = bits(max|u|) + bits(max|v|) +
bits(p) + 1 holds every coefficient, because

    each coefficient of u v in Z[x] is a sum of at most p products u_i v_j,
    so its absolute value is at most p max|u| max|v| < 2^(w-1).

If anything is left above the last slot, the product has overflowed the
slots and ArithmeticError is raised.

verlinde_sum refuses p above MAX_SUM_P, p (g - 1) above
MAX_SUM_P (MAX_SUM_P - 1) and |T| = |Xi_{p,n}| above MAX_SUM_CLASSES before
any work.  verlinde_count applies the validity window g >= 2,
p > n * max(g-1, 2) and checks the result is a nonnegative integer.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import combinations

from .radii import _check_pn, _zero_sum_subsets, xi_size

__all__ = [
    "MAX_SUM_P",
    "MAX_SUM_CLASSES",
    "verlinde_sum",
    "verlinde_count",
    "poly_n3_g2",
]


# Largest p verlinde_sum runs at; it also bounds the genus.  The integers of
# each product grow as p (g - 1), so the sum refuses p (g - 1) above
# MAX_SUM_P (MAX_SUM_P - 1).  Inside the validity window g - 1 < p/n, so
# p (g - 1) <= p (p - 1) stays within that limit.  On a shared 2-vCPU Intel
# Xeon under CPython 3.11, whose speed varies about twofold, (257, 1, 257)
# and (257, 2, 257), both at the limit, take 1.0 s, and (257, 2, 129) 0.4 s,
# while (257, 2, 300) would take 1.4-2.1 s and (257, 2, 2000) 26 s.  A small
# genus stays cheap, (1009, 2, 2) in 0.14 s, but along the window's edge the
# work grows about as p^3: (509, 1, 509) takes 5.7-12 s.
MAX_SUM_P = 257
# Largest |T| = |Xi_{p,n}| verlinde_sum walks.  The slowest inputs inside the
# validity window have n = 3 and the largest genus: (113, 3, 38), with 2,072
# subsets, takes 0.95 s on the same machine, and (127, 3, 43), with 2,625,
# 1.4 s; (41, 4, 11), with 2,470, takes 0.27 s.
MAX_SUM_CLASSES = 2_500


# integer group-ring helpers: vectors of length p indexed by zeta exponent

def _pack(v: Sequence[int], w: int) -> int:
    """sum_i v_i 2^(w i), one signed w-bit slot per coefficient."""
    acc = 0
    for c in reversed(v):
        acc = (acc << w) + c
    return acc


def _unpack(prod: int, w: int, p: int) -> list[int]:
    """The 2p - 1 signed w-bit slots of prod, folded mod x^p - 1."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = [0] * p
    for k in range(2 * p - 1):
        c = prod & mask
        if c >= half:
            c -= 1 << w
        prod = (prod - c) >> w
        out[k - p if k >= p else k] += c
    if prod:
        raise ArithmeticError(f"packed product overflows {2 * p - 1} slots of {w} bits")
    return out


def _gr_mul(u: Sequence[int], v: Sequence[int], p: int) -> list[int]:
    """u v in Z[x]/(x^p - 1), by one product of packed integers (module docstring)."""
    w = max(map(abs, u)).bit_length() + max(map(abs, v)).bit_length() + p.bit_length() + 1
    return _unpack(_pack(u, w) * _pack(v, w), w, p)


def _sigma(v: Sequence[int], d: int, p: int) -> list[int]:
    """sigma_d(v): the coefficient of x^i moves to x^(d i)."""
    out = [0] * p
    for i, c in enumerate(v):
        out[d * i % p] = c
    return out


def _gr_rational(v: Sequence[int]) -> int:
    """Value of a group-ring vector known to represent a rational number."""
    head = v[1]
    if any(x != head for x in v[2:]):
        raise ArithmeticError("group-ring vector is not rational")
    return v[0] - head


def _scaled_inverse(p: int) -> list[int]:
    """The vector (p-1, ..., 1, 0) of p * (1 - zeta)^{-1}.

    It is -sum_j j x^j plus (p-1) N, and is checked by multiplying back:
    (1 - x) times it must read as p.  The check goes through the packed
    product, so it also tests _gr_mul at every prime.
    """
    vec = list(range(p - 1, -1, -1))
    factor = [1, -1] + [0] * (p - 2)
    if _gr_rational(_gr_mul(factor, vec, p)) != p:
        raise ArithmeticError(f"(1-zeta) * p*(1-zeta)^-1 != p at p={p}")
    return vec


def verlinde_sum(p: int, n: int, g: int) -> Fraction:
    """The bare closed-form sum, with no validity window applied.

    ValueError when p exceeds MAX_SUM_P, p (g - 1) exceeds
    MAX_SUM_P (MAX_SUM_P - 1), or |T| = |Xi_{p,n}| exceeds MAX_SUM_CLASSES,
    before any work.
    """
    _check_pn(p, n)
    if g < 1:
        raise ValueError(f"need genus >= 1, got {g}")
    if p > MAX_SUM_P:
        raise ValueError(f"p={p} is over the limit of {MAX_SUM_P} for the closed-form sum")
    if p * (g - 1) > MAX_SUM_P * (MAX_SUM_P - 1):
        raise ValueError(
            f"p*(g-1) = {p * (g - 1)} at p={p}, g={g} is over the limit of "
            f"{MAX_SUM_P * (MAX_SUM_P - 1)} for the closed-form sum"
        )
    k = xi_size(p, n)
    if k > MAX_SUM_CLASSES:
        raise ValueError(
            f"the closed-form sum at p={p}, n={n} walks {k} subsets, "
            f"over the limit of {MAX_SUM_CLASSES}"
        )
    e = g - 1
    scaled = _scaled_inverse(p)
    # W[1] = (p^2 * (1-zeta)^{-1} (1-zeta^{-1})^{-1})^(g-1); powers[m] = W[1]^m
    base = _gr_mul(scaled, _sigma(scaled, p - 1, p), p)
    one = [1] + [0] * (p - 1)
    w1 = one
    # square and multiply: about 2 log2(g) products, not g - 1
    for bit in bin(e)[2:]:
        w1 = _gr_mul(w1, w1, p)
        if bit == "1":
            w1 = _gr_mul(w1, base, p)
    powers = [one, w1]
    total = [0] * p
    for subset in _zero_sum_subsets(p, n):
        # the distinct images d * subset, each with its least d; stop at a lesser one
        images = {}
        for d in range(1, p):
            image = tuple(sorted(d * s % p for s in subset))
            if image < subset:
                break
            images.setdefault(image, d)
        else:
            # the m pairs at difference +-d contribute W[d]^m = sigma_d(W[1]^m)
            mult = Counter(min(b - a, p - b + a) for a, b in combinations(subset, 2))
            term = one
            for d, m in mult.items():
                while len(powers) <= m:
                    powers.append(_gr_mul(powers[-1], w1, p))
                term = _gr_mul(term, _sigma(powers[m], d, p), p)
            # term(d * subset) = sigma_d(term) modulo multiples of N
            for d in images.values():
                for i, c in enumerate(term):
                    total[d * i % p] += c
    # imported on first use, here and in poly_n3_g2: fractions loads decimal,
    # and only the closed-form sums need them
    from fractions import Fraction

    # p * (sum over T) * p^((n-1)(g-1)-1), with the p^2 scale undone on each
    # of the n(n-1)/2 * (g-1) pair factors
    return Fraction(_gr_rational(total), p ** ((n - 1) ** 2 * e))


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
    from fractions import Fraction

    q = Fraction(p)
    return q**8 / 181440 + q**6 / 4320 - 11 * q**4 / 8640 + 47 * q**2 / 45360
