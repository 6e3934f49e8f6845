"""The closed-form count of dormant opers on closed surfaces.

verlinde_sum evaluates, over subsets S of the p-th roots of unity of size n,

    p^{(n-1)(g-1)-1} * sum_S (prod S)^{(n-1)(g-1)} / prod_{i!=j in S} (z_i - z_j)^{g-1}

(the summand is symmetric, so summing over unordered subsets absorbs the 1/n!
that would accompany ordered tuples with distinct entries).  The summand
depends only on the differences within S, so it is constant on translation
orbits.  Each orbit has p members and, as gcd(n, p) = 1, exactly one in
T = {n-subsets S of Z/p with sum S = 0 mod p}, so the sum is p times the sum
over T.  T is walked by radii._zero_sum_subsets, as in radii.xi.

On T, with z_i = zeta^{s_i}, prod S = 1.  For each pair
(z_i - z_j)(z_j - z_i) = z_i z_j |z_i - z_j|^2, and the z_i z_j of all pairs
multiply to (prod S)^{n-1} = 1.  So with e = g - 1, the factor p of the
orbits cancelling the p^{-1},

    count = sum_{S in T} t(S),   t(S) = (p^{n-1} / prod_{i<j} D(s_j - s_i))^e,

where D(d) = (1 - zeta^d)(1 - zeta^{-d}) = 2 - zeta^d - zeta^{-d} = |1 - zeta^d|^2.
With V(S) = prod_{i<j} (z_j - z_i) and m = n(n-1)/2, the product of the D is
(-1)^m V(S)^2, so t(S) = ((-1)^m p^{n-1} V(S)^{-2})^e.

The count is an integer in (0, B], B = floor(|T| p^{(n^2-1)e} / 4^{n(n-1)e}):

- Integral.  Each 1 - zeta^k, k != 0 mod p, is a unit times pi = 1 - zeta,
  and p is a unit times pi^{p-1}.  So p^{n-1} / prod D is a unit times
  pi^{(n-1)(p-1) - n(n-1)}, an algebraic integer as n <= p - 1, and so is
  t(S).  The automorphism zeta -> zeta^a, a a unit mod p, sends t(S) to
  t(a S), and S -> a S permutes T, so the sum is Galois-stable: a rational
  algebraic integer, that is an integer.
- Bounded.  At zeta = exp(2 pi i/p), D(d) = 4 sin^2(pi d/p) > 0, and as
  sin x >= 2x/pi on [0, pi/2], D(d) >= 4 sin^2(pi/p) >= (4/p)^2.  So
  0 < t(S) <= (p^{n-1} (p/4)^{n(n-1)})^e = p^{(n^2-1)e} / 4^{n(n-1)e}.

The sum is taken in F_q for primes q = 1 mod 2p, walked down from 2^80 and
each proved prime by fp.is_odd_prime (2^80 < PRIME_TEST_BOUND).  An omega of
order p in F_q is a^{(q-1)/p} != 1, and zeta -> omega is a ring map
Z[zeta] -> F_q.  It sends pi to a unit, since p is one, so it sends t(S) to
p^{(n-1)e} prod_{i<j} D_omega(s_j - s_i)^{-e}, where D_omega(d) =
2 - omega^d - omega^{-d}.  Primes are added until their product M exceeds 2B,
and the residues are lifted by CRT to the symmetric residue mod M, which is
the count since 0 < count <= B < M/2.  A lift outside (0, B] contradicts
the proof and raises ArithmeticError.

verlinde_sum refuses p above MAX_SUM_P, |T| = |Xi_{p,n}| above MAX_SUM_CLASSES
and (n^2 - 1)(g - 1) bits(p) above its value at (MAX_SUM_P, 2, MAX_SUM_P)
before any work.  verlinde_count checks (p, n) first, then applies the validity
window g >= 2, p > n * max(g-1, 2).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations

from .fp import _check_int, is_odd_prime
from .radii import _check_pn, _zero_sum_subsets, xi_size

__all__ = [
    "MAX_SUM_P",
    "MAX_SUM_CLASSES",
    "verlinde_sum",
    "verlinde_count",
    "poly_n3_g2",
]


# Largest p verlinde_sum runs at; it also bounds the genus.  Each residue
# prime costs about p/2 modular powers, and the number of primes grows with
# the bits of B, at most (n^2 - 1)(g - 1) bits(p) plus those of |T|.  The sum
# refuses (n^2 - 1)(g - 1) p.bit_length() above its value at
# (MAX_SUM_P, 2, MAX_SUM_P), 3 * 256 * 9 = 6,912, without forming B.  Inside
# the validity window g - 1 < p/n, so the rule's left side stays below
# n p bits(p), at most 3,456 for the inputs MAX_SUM_CLASSES admits.  On a
# shared 2-vCPU Intel Xeon under CPython 3.11, whose speed varies about
# twofold, (257, 1, 257) takes 0.01 s and (257, 2, 257), at the limit, 0.2 s,
# and (257, 2, 129) 0.06 s; (257, 2, 300) is refused.  Along the window's edge
# the work grows about as p^2: (509, 2, 254) would take 0.3 s and
# (1009, 2, 504) 1.2 s.  Outside the window, which verlinde_count and so the
# CLI enforce, the rule refuses (113, 3, 583), which would take 0.6-0.9 s,
# (41, 4, 1605) 3.6-4.9 s, (13, 6, 5061) 5.9-6.0 s and (17, 8, 3871) 56-62 s.
MAX_SUM_P = 257
# Largest |T| = |Xi_{p,n}| verlinde_sum walks.  Each residue prime costs
# n(n-1)/2 products per subset.  The slowest inputs inside the validity window
# have n = 3 and the largest genus: (113, 3, 38), with 2,072 subsets, takes
# 0.07-0.1 s on the same machine, and (127, 3, 43), with 2,625, 0.09-0.11 s;
# (41, 4, 11), with 2,470, takes 0.06 s.
MAX_SUM_CLASSES = 2_500

# The residue primes are the primes q = 1 mod 2p at or below this.
_TOP = 1 << 80


def _bound(p: int, n: int, g: int) -> int:
    """B = floor(|T| p^{(n^2-1)(g-1)} / 4^{n(n-1)(g-1)}), the count's proved bound."""
    e = g - 1
    return xi_size(p, n) * p ** ((n * n - 1) * e) // 4 ** (n * (n - 1) * e)


def _primes(p: int) -> Iterator[int]:
    """The primes q = 1 mod 2p, downward from _TOP."""
    q = _TOP - (_TOP - 1) % (2 * p)
    while True:
        if is_odd_prime(q):
            yield q
        q -= 2 * p


def verlinde_sum(p: int, n: int, g: int) -> int:
    """The bare closed-form sum, an int, with no validity window applied.

    ValueError when p exceeds MAX_SUM_P, |T| = |Xi_{p,n}| exceeds
    MAX_SUM_CLASSES, or (n^2 - 1)(g - 1) p.bit_length() exceeds its value at
    (MAX_SUM_P, 2, MAX_SUM_P), before any work.  ArithmeticError when the
    lifted sum falls outside its proved range (module docstring).
    """
    _check_pn(p, n)
    if _check_int(g, "genus") < 1:
        raise ValueError(f"need genus >= 1, got {g}")
    if p > MAX_SUM_P:
        raise ValueError(f"p={p} is over the limit of {MAX_SUM_P} for the closed-form sum")
    k = xi_size(p, n)
    if k > MAX_SUM_CLASSES:
        raise ValueError(
            f"the closed-form sum at p={p}, n={n} walks {k} subsets, "
            f"over the limit of {MAX_SUM_CLASSES}"
        )
    bits = (n * n - 1) * (g - 1) * p.bit_length()
    limit = 3 * (MAX_SUM_P - 1) * MAX_SUM_P.bit_length()
    if bits > limit:
        raise ValueError(
            f"(n^2-1)*(g-1)*bits(p) = {bits} at p={p}, n={n}, g={g} is over the limit of "
            f"{limit} for the closed-form sum"
        )
    e = g - 1
    bound = _bound(p, n, g)
    # the pair differences s_j - s_i of each S in T, in 1..p-1
    diffs = [[b - a for a, b in combinations(s, 2)] for s in _zero_sum_subsets(p, n)]
    value, modulus = 0, 1
    for q in _primes(p):
        a = 2
        while (omega := pow(a, (q - 1) // p, q)) == 1:
            a += 1
        powers = [1]
        for _ in range(p - 1):
            powers.append(powers[-1] * omega % q)
        # inverse[d] = D_omega(d)^(-e), taken once for d and p - d, where D agrees
        half = [pow(2 - powers[d] - powers[-d], -e, q) for d in range(1, (p + 1) // 2)]
        inverse = [0] + half + half[::-1]
        total = 0
        for ds in diffs:
            t = 1
            for d in ds:
                t = t * inverse[d] % q
            total += t
        residue = total * pow(p, (n - 1) * e, q) % q
        # CRT: the least x >= 0 with x = value mod modulus and x = residue mod q
        value += modulus * ((residue - value) * pow(modulus, -1, q) % q)
        modulus *= q
        if modulus > 2 * bound:
            break
    if 2 * value > modulus:
        value -= modulus
    if not 0 < value <= bound:
        raise ArithmeticError(
            f"the closed-form sum at p={p}, n={n}, g={g} lifts to a value "
            f"outside its proved range (0, B], B of {bound.bit_length()} bits"
        )
    return value


def verlinde_count(p: int, n: int, g: int) -> int:
    """Closed-form count of dormant opers on a closed genus-g surface.

    Checks (p, n) first, then the validity window g >= 2 and
    p > n * max(g-1, 2).
    """
    _check_pn(p, n)
    if _check_int(g, "genus") < 2:
        raise ValueError(f"need genus >= 2, got {g}")
    if p <= n * max(g - 1, 2):
        raise ValueError(
            f"validity window needs p > n*max(g-1,2), got p={p}, n={n}, g={g}"
        )
    return verlinde_sum(p, n, g)


def poly_n3_g2(p: int) -> int:
    """The rank-3 genus-2 count (p^8 + 42 p^6 - 231 p^4 + 188 p^2) / 181440; ArithmeticError on a remainder."""
    _check_pn(p, 3)
    value, rest = divmod(p**8 + 42 * p**6 - 231 * p**4 + 188 * p**2, 181440)
    if rest:
        raise ArithmeticError(f"the rank-3 genus-2 polynomial at p={p} is not an integer")
    return value
