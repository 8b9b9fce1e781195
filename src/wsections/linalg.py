"""Exact integer linear algebra: the rank over Q and unit-difference systems.

The rank is a sparse fraction-free elimination over the integers, on rows
given as {column: coefficient} dicts, so its cost follows the nonzeros; with
no modulus and no floats it is exact over Q.  A unit-difference system is
solved by walking its constraint graph; an inconsistent one has no
solution, which is an answer (None), not an error.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from math import gcd

from .errors import InvalidInputError


def rank_int(rows: Iterable[dict[int, int]]) -> int:
    """Rank over the rationals by sparse fraction-free row reduction on integers.

    Rows are an iterable of {column: coefficient} dicts whose columns and
    entries are ints (a bool is not).  Before any reduction the rows are
    checked to be iterable, each to be a dict, then every column and entry
    to be an int; the first failure in row order raises InvalidInputError.
    Each row is reduced, on a copy, against the pivot at its leading column
    (r <- a*r - b*pivot, then divided by its content; neither for a pivot
    of +-1) until it becomes a new pivot or vanishes.
    """
    if not isinstance(rows, Iterable):
        raise InvalidInputError(f"rank_int takes an iterable of dict rows, got {rows!r}")
    table = list(rows)
    for row in table:
        if not isinstance(row, dict):
            raise InvalidInputError(f"rank_int takes dict rows only, got {row!r}")
    columns, entries = chain.from_iterable(table), chain.from_iterable(map(dict.values, table))
    if not set(map(type, chain(columns, entries))) <= {int}:
        for c, x in chain.from_iterable(map(dict.items, table)):
            if type(c) is not int:
                raise InvalidInputError(f"rank_int takes int columns only, got {c!r}")
            if type(x) is not int:
                raise InvalidInputError(f"rank_int takes int entries only, got {x!r}")
    pivots: dict[int, dict[int, int]] = {}
    for row in table:
        r = {c: x for c, x in row.items() if x} if 0 in row.values() else row
        while r:
            lead = min(r)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = r
                break
            if r is row:  # reduce a copy, never the caller's row
                r = dict(r)
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


def solve_unit_differences(
    n: int, constraints: Sequence[tuple[int, int]]
) -> tuple[int, ...] | None:
    """One integer solution of d_j - d_i = 1 for every constraint (i, j), or None.

    Both endpoints are 1-based.  Each connected component is anchored at its
    smallest member, which gets 0.  None means the system is inconsistent:
    some cycle of the constraint graph does not sum to zero.
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
                        return None
                else:
                    values[other] = target
                    queue.append(other)
    return tuple(values[k] for k in range(1, n + 1))
