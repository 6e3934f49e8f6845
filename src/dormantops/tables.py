"""Loaders for the embedded reference tables.

published_tables.json holds, per (p, n), the reference list of radii classes
("xi") and every ordered triple with a nonzero three-point count ("counts",
entries {"triple", "N"}).
"""

from __future__ import annotations

from functools import lru_cache

from .radii import RadiusClass, Triple, _check_pn, canonical

__all__ = [
    "published_pairs",
    "published_xi",
    "published_counts",
]


@lru_cache(maxsize=None)
def _records() -> dict[tuple[int, int], dict]:
    """The parsed records by (p, n), read once; callers must not mutate them.

    json and importlib.resources are imported here, on first use, since most
    commands never read the tables and every command pays for its imports.
    """
    import json
    from importlib import resources

    text = resources.files("dormantops.data").joinpath("published_tables.json").read_text()
    return {(r["p"], r["n"]): r for r in json.loads(text)["tables"]}


def published_pairs() -> list[tuple[int, int]]:
    return sorted(_records())


def _record(p: int, n: int) -> dict:
    """The record of (p, n); ValueError for an invalid or an uncovered pair."""
    _check_pn(p, n)
    rec = _records().get((p, n))
    if rec is None:
        pairs = ", ".join(f"({q}, {m})" for q, m in published_pairs())
        raise ValueError(f"the published tables cover (p, n) in {{{pairs}}}, got ({p}, {n})")
    return rec


def published_xi(p: int, n: int) -> tuple[RadiusClass, ...]:
    return tuple(canonical(p, e) for e in _record(p, n)["xi"])


def published_counts(p: int, n: int) -> dict[Triple, int]:
    """Reference map triple -> N, with zero entries omitted."""
    return {
        tuple(canonical(p, e) for e in entry["triple"]): entry["N"]
        for entry in _record(p, n)["counts"]
    }
