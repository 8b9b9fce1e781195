"""Compositions, diagrams and numbered tableaux.

A composition (n1, ..., nr) of n is drawn as r columns of boxes, column v
holding n_v boxes.  The boxes are numbered 1..n going down each column,
columns left to right, so the box in row u of column v holds u + n1 + ... +
n_{v-1}.  Entries therefore increase with the column index, and a matrix
position x[i,j] lies in the nilradical of the block upper-triangular algebra
cut out by the composition exactly when the column of i is strictly left of
the column of j.  Everything downstream (lines, minors, weights) speaks in
box entries, so this module is the single source of truth for the
entry <-> (row, column) correspondence, kept also as flat tuples indexed by
entry (column, row, last entry of the column) for the inner loops.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import InvalidInputError, ResourceLimitError


@dataclass(frozen=True, order=True)
class MatrixUnit:
    """Off-diagonal matrix position (i, j), 1-based."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i < 1 or self.j < 1 or self.i == self.j:
            raise InvalidInputError(f"bad matrix unit ({self.i}, {self.j})")

    @property
    def key(self) -> tuple[int, int]:
        return (self.i, self.j)

    def __str__(self) -> str:
        return f"x[{self.i},{self.j}]"


@dataclass(frozen=True)
class Composition:
    """Ordered sequence of positive integers; order matters and is kept."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise InvalidInputError("composition must have at least one part")
        for p in self.parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise InvalidInputError(f"composition parts must be positive integers, got {p!r}")
        object.__setattr__(self, "parts", tuple(self.parts))

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse comma-separated positive decimal integers, e.g. "2,1,1,2"."""
        pieces = [piece.strip() for piece in text.split(",")]
        if not all(piece.isascii() and piece.isdigit() for piece in pieces):
            raise InvalidInputError(f"cannot parse composition from {text!r}")
        return cls(tuple(int(piece) for piece in pieces))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def r(self) -> int:
        return len(self.parts)

    def prefix(self, v: int) -> int:
        """Sum of the parts strictly left of column v (1-based)."""
        return sum(self.parts[: v - 1])

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Box:
    """One box of the diagram: 1-based row, column and its entry."""

    row: int
    col: int
    entry: int


@dataclass(frozen=True)
class NeighborPair:
    """Columns v < v' of common height s with no height-s column between."""

    v: int
    v_prime: int
    s: int


MAX_N = 10_000


@dataclass(frozen=True)
class Tableau:
    """Numbered diagram of a composition of n <= MAX_N."""

    composition: Composition

    def __post_init__(self) -> None:
        if self.composition.n > MAX_N:
            raise ResourceLimitError(f"n = {self.composition.n} exceeds the limit {MAX_N}")

    @property
    def n(self) -> int:
        return self.composition.n

    @property
    def height(self) -> int:
        return max(self.composition.parts)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Entries of each column, top to bottom."""
        cols = []
        start = 1
        for h in self.composition.parts:
            cols.append(tuple(range(start, start + h)))
            start += h
        return tuple(cols)

    def boxes(self) -> tuple[Box, ...]:
        """Every box, in entry order."""
        row, col = self.entry_row, self.entry_col
        return tuple(Box(row=row[e], col=col[e], entry=e) for e in range(1, self.n + 1))

    def row_entries(self, u: int) -> tuple[int, ...]:
        """Entries in row u, left to right."""
        return tuple(col[u - 1] for col in self.columns if len(col) >= u)

    def col_entries(self, v: int) -> tuple[int, ...]:
        return self.columns[v - 1]

    def col_height(self, v: int) -> int:
        return self.composition.parts[v - 1]

    def entry_at(self, u: int, v: int) -> int:
        """Entry of the box in row u, column v."""
        return u + self.composition.prefix(v)

    # Flat tables indexed by entry (index 0 unused), built once for the inner loops.
    @cached_property
    def entry_col(self) -> tuple[int, ...]:
        return (0,) + tuple(v for v, col in enumerate(self.columns, start=1) for _ in col)

    @cached_property
    def entry_row(self) -> tuple[int, ...]:
        return (0,) + tuple(u for col in self.columns for u in range(1, len(col) + 1))

    @cached_property
    def column_end(self) -> tuple[int, ...]:
        """Last entry of each entry's column: x[i,j] lies in m exactly when j > column_end[i]."""
        return (0,) + tuple(col[-1] for col in self.columns for _ in col)

    @cached_property
    def nilradical_keys(self) -> tuple[tuple[int, int], ...]:
        """The nilradical's (i, j) in order: j runs past the last entry of i's column."""
        n = self.n
        return tuple((i, j) for col in self.columns for i in col for j in range(col[-1] + 1, n + 1))

    @cached_property
    def nilradical(self) -> tuple[MatrixUnit, ...]:
        """All matrix units of the nilradical, ordered by (i, j); built once."""
        return tuple(MatrixUnit(i, j) for i, j in self.nilradical_keys)

    @cached_property
    def neighboring_pairs(self) -> tuple[NeighborPair, ...]:
        """All pairs of equal-height columns with no column of that height
        between, ordered by (height, left column); built once."""
        by_height: dict[int, list[int]] = {}
        for v, h in enumerate(self.composition.parts, start=1):
            by_height.setdefault(h, []).append(v)
        return tuple(
            NeighborPair(v, v_prime, s)
            for s, cols in sorted(by_height.items())
            for v, v_prime in zip(cols, cols[1:])
        )


def build_tableau(c: Composition) -> Tableau:
    """Number the diagram of c down the columns, left to right."""
    return Tableau(c)


def neighboring_pairs(t: Tableau) -> tuple[NeighborPair, ...]:
    """All pairs of equal-height columns with no column of that height between.

    Columns of other heights (taller ones included) may separate the members
    of a pair.  Ordered by (height, left column); the tableau computes them
    once, so every call returns the same tuple.
    """
    return t.neighboring_pairs


def require_neighboring(t: Tableau, p: NeighborPair) -> None:
    parts = t.composition.parts
    if not (
        1 <= p.v < p.v_prime <= len(parts)
        and parts[p.v - 1] == parts[p.v_prime - 1] == p.s
        and all(parts[w - 1] != p.s for w in range(p.v + 1, p.v_prime))
    ):
        raise InvalidInputError(f"({p.v}, {p.v_prime}) is not a neighboring pair of height {p.s}")


def nilradical_basis(t: Tableau) -> tuple[MatrixUnit, ...]:
    """All matrix units of the nilradical, ordered by (i, j)."""
    return t.nilradical


def bs_degree(t: Tableau, p: NeighborPair) -> int:
    """Degree of the top term of the translated block minor for the pair.

    Equals sum(min(s, n_i) for i in (v, v']); bounded by the minor size
    sum(n_i), with equality exactly when no column between the pair is
    taller than s.
    """
    require_neighboring(t, p)
    parts = t.composition.parts
    return sum(min(p.s, parts[i - 1]) for i in range(p.v + 1, p.v_prime + 1))


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^(n-1) compositions of n in lexicographic order."""
    if n < 0:
        raise InvalidInputError("n must be non-negative")
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first, *rest)
