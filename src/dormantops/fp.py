"""Exact arithmetic helpers for odd prime moduli.

Residues live in {0, ..., p-1}; the canonical lift of a residue is the unique
representative in {1, ..., p}, so 0 lifts to p.  Parameters outside the prime
field are opaque Generic tokens: tokens with different names never coincide
and never cancel against field elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

__all__ = [
    "FpElem",
    "Generic",
    "Parameter",
    "PRIME_TEST_BOUND",
    "is_odd_prime",
    "check_odd_prime",
    "lift",
    "sort_params",
]


# Miller-Rabin on the 13 primes up to 41 decides primality for every
# n < PRIME_TEST_BOUND (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", 2015); the bound itself is the least strong pseudoprime to all
# 13 bases, so from it on no answer is given.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None)
def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for p >= PRIME_TEST_BOUND."""
    if p < 3 or p % 2 == 0:
        return False
    if p >= PRIME_TEST_BOUND:
        raise ValueError(
            f"cannot decide whether {p} is prime: the primality test covers p < PRIME_TEST_BOUND = {PRIME_TEST_BOUND}"
        )
    if p in _WITNESSES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_odd_prime(p: int) -> int:
    if not isinstance(p, int) or not is_odd_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p!r}")
    return p


@dataclass(frozen=True)
class FpElem:
    """A residue value in {0, ..., p-1} for an odd prime p."""

    value: int
    p: int

    def __post_init__(self) -> None:
        check_odd_prime(self.p)
        if not isinstance(self.value, int) or not 0 <= self.value < self.p:
            raise ValueError(f"residue {self.value!r} out of range for p={self.p}")

    @classmethod
    def reduce(cls, n: int, p: int) -> "FpElem":
        check_odd_prime(p)
        return cls(n % p, p)

    def lift(self) -> int:
        """Canonical lift: the congruent integer in {1, ..., p}."""
        return self.value if self.value != 0 else self.p


@dataclass(frozen=True)
class Generic:
    """Opaque scalar outside the prime field, identified by its token name."""

    name: str

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("Generic token needs a nonempty name")


Parameter = Union[FpElem, Generic]


def lift(x: FpElem) -> int:
    """Canonical lift of a residue, in {1, ..., p}."""
    return x.lift()


def sort_params(params: Iterable[Parameter], p: int) -> tuple[list[int], int]:
    """Split parameters into weakly decreasing canonical lifts plus a generic count.

    Every field element must carry modulus p.  Generic tokens are counted, not
    lifted.
    """
    check_odd_prime(p)
    lifts: list[int] = []
    generics = 0
    for q in params:
        if isinstance(q, Generic):
            generics += 1
        elif isinstance(q, FpElem):
            if q.p != p:
                raise ValueError(f"parameter modulus {q.p} does not match p={p}")
            lifts.append(q.lift())
        else:
            raise TypeError(f"not a parameter: {q!r}")
    lifts.sort(reverse=True)
    return lifts, generics
