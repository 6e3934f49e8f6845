"""Loaders for the embedded reference tables.

published_tables.json holds, per (p, n), the reference list of radii classes
("xi") and every ordered triple with a nonzero three-point count ("counts",
entries {"triple", "N"}).
"""

from __future__ import annotations

from functools import lru_cache

from .radii import RadiusClass, canonical

__all__ = [
    "published_pairs",
    "published_xi",
    "published_counts",
]

Triple = tuple[RadiusClass, RadiusClass, RadiusClass]


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


def published_xi(p: int, n: int) -> tuple[RadiusClass, ...]:
    rec = _records()[(p, n)]
    return tuple(canonical(p, e) for e in rec["xi"])


def published_counts(p: int, n: int) -> dict[Triple, int]:
    """Reference map triple -> N, with zero entries omitted."""
    return {
        tuple(canonical(p, e) for e in entry["triple"]): entry["N"]
        for entry in _records()[(p, n)]["counts"]
    }
