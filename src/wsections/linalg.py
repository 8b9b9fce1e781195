"""Exact integer linear algebra: the rank over Q and unit-difference systems.

The rank is a sparse fraction-free elimination over the integers, so its cost
follows the nonzeros; with no modulus and no floats it is exact over Q.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from math import gcd

from .errors import InternalError, InvalidInputError


def rank_int(rows: Iterable[Sequence[int] | Mapping[int, int]]) -> int:
    """Rank over the rationals by sparse fraction-free row reduction on integers.

    Rows are dense sequences or {column: coefficient} mappings of ints (else
    InvalidInputError, a bool too).  Each incoming row is reduced against the
    pivot at its leading column (r <- a*r - b*pivot, then divided by its
    content; neither for a pivot of +-1) until it becomes a new pivot or vanishes.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        # The dict test is the cheap one; any other Mapping is still sparse.
        r = dict(row) if isinstance(row, dict) or isinstance(row, Mapping) else dict(enumerate(row))
        values = r.values()
        if not set(map(type, values)) <= {int}:
            bad = next(x for x in values if type(x) is not int)
            raise InvalidInputError(f"rank_int takes int entries only, got {bad!r}")
        if 0 in values:
            r = {c: x for c, x in r.items() if x}
        while r:
            lead = min(r)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = r
                break
            p = pivot[lead]
            if p == 1 or p == -1:  # r - (r[lead]*p)*pivot clears the lead
                a, b = 1, r[lead] * p
            else:
                g = gcd(p, r[lead])
                a, b = p // g, r[lead] // g
            if a != 1:
                for c in r:
                    r[c] *= a
            for c, x in pivot.items():
                y = r.get(c, 0) - b * x
                if y:
                    r[c] = y
                else:
                    del r[c]
            if abs(p) != 1 and (content := gcd(*r.values())) > 1:
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
