"""Exact integer linear algebra: the rank over Q and unit-difference systems.

The rank is a sparse fraction-free elimination over the integers, so its cost
follows the nonzeros; with no modulus and no floats it is exact over Q.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from math import gcd

from .errors import InternalError


def rank_int(rows: Iterable[Sequence[int] | Mapping[int, int]]) -> int:
    """Rank over the rationals by sparse fraction-free row reduction on integers.

    Rows are dense sequences or {column: coefficient} mappings.  Pivot rows
    are kept by leading column; each incoming row is reduced against the
    pivot at its leading column (r <- a*r - b*pivot, then divided by its
    content) until it becomes a new pivot or vanishes.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        # The dict test is the cheap one; any other Mapping is still sparse.
        sparse = isinstance(row, dict) or isinstance(row, Mapping)
        items = row.items() if sparse else enumerate(row)
        r = {c: int(x) for c, x in items if x}
        while r:
            lead = min(r)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = r
                break
            g = gcd(pivot[lead], r[lead])
            a, b = pivot[lead] // g, r[lead] // g
            if a != 1:
                for c in r:
                    r[c] *= a
            for c, x in pivot.items():
                y = r.get(c, 0) - b * x
                if y:
                    r[c] = y
                else:
                    del r[c]
            content = gcd(*r.values())
            if content > 1:
                r = {c: x // content for c, x in r.items()}
    return len(pivots)


def solve_unit_differences(n: int, constraints: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """One integer solution of d_j - d_i = 1 for every constraint (i, j).

    Both endpoints are 1-based.  Each connected component is anchored at its
    smallest member, which gets 0.  Raises InternalError when the constraint
    graph is inconsistent.
    """
    adjacency: dict[int, list[tuple[int, int]]] = {k: [] for k in range(1, n + 1)}
    for i, j in constraints:
        adjacency[i].append((j, 1))
        adjacency[j].append((i, -1))
    values: dict[int, int] = {}
    for start in range(1, n + 1):
        if start in values:
            continue
        values[start] = 0
        queue = [start]
        while queue:
            k = queue.pop()
            for other, delta in adjacency[k]:
                target = values[k] + delta
                if other in values:
                    if values[other] != target:
                        raise InternalError("inconsistent unit-difference system")
                else:
                    values[other] = target
                    queue.append(other)
    return tuple(values[k] for k in range(1, n + 1))
