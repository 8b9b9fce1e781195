"""Compositions, diagrams and numbered tableaux.

A composition (n1, ..., nr) of n is drawn as r columns of boxes, column v
holding n_v boxes.  The boxes are numbered 1..n going down each column,
columns left to right, so the box in row u of column v holds u + n1 + ... +
n_{v-1}.  Entries therefore increase with the column index, and a matrix
position x[i,j] lies in the nilradical of the block upper-triangular algebra
cut out by the composition exactly when the column of i is strictly left of
the column of j.  Everything downstream (lines, minors, weights) speaks in
box entries, so this module is the single source of truth for the
entry <-> (row, column) correspondence.  A Tableau states it once, as its
columns of entries and as flat tuples indexed by entry (column, row, last
entry of the column); callers read those tables, nothing else.
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
        i, j = self.i, self.j
        if not (i.__class__ is j.__class__ is int) or i < 1 or j < 1 or i == j:
            raise InvalidInputError(f"bad matrix unit ({i!r}, {j!r})")

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
        try:
            parts = tuple(self.parts)
        except TypeError:
            raise InvalidInputError(f"composition is not iterable: {self.parts!r}") from None
        if not parts:
            raise InvalidInputError("composition must have at least one part")
        for p in parts:
            if p.__class__ is not int or p < 1:
                raise InvalidInputError(f"composition parts must be positive integers, got {p!r}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse comma-separated positive decimal integers, e.g. "2,1,1,2".

        A part with more digits than MAX_N raises ResourceLimitError without
        being converted: no tableau holds it, and a long enough digit string
        cannot be converted to an int at all.
        """
        if not isinstance(text, str):
            raise InvalidInputError(f"cannot parse composition from {text!r}")
        pieces = [piece.strip() for piece in text.split(",")]
        if not all(piece.isascii() and piece.isdigit() for piece in pieces):
            raise InvalidInputError(f"cannot parse composition from {text!r}")
        pieces = [piece.lstrip("0") or "0" for piece in pieces]
        digits = max(map(len, pieces))
        if digits > len(str(MAX_N)):
            raise ResourceLimitError(
                f"n = a number of at least {digits} digits exceeds the limit {MAX_N}"
            )
        return cls(tuple(map(int, pieces)))

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
        n = self.composition.n
        if n > MAX_N:
            # Past Python's int-to-str digit limit n cannot be formatted; name its size.
            shown = n if n.bit_length() <= 64 else f"a number of {n.bit_length()} bits"
            raise ResourceLimitError(f"n = {shown} exceeds the limit {MAX_N}")

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

    def row_entries(self, u: int) -> tuple[int, ...]:
        """Entries in row u, left to right."""
        return tuple(col[u - 1] for col in self.columns if len(col) >= u)

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
        between, ordered by (height, left column); built once.  Columns of
        other heights (taller ones included) may separate a pair."""
        by_height: dict[int, list[int]] = {}
        for v, h in enumerate(self.composition.parts, start=1):
            by_height.setdefault(h, []).append(v)
        return tuple(
            NeighborPair(v, v_prime, s)
            for s, cols in sorted(by_height.items())
            for v, v_prime in zip(cols, cols[1:])
        )


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
    """All 2^(n-1) compositions of n in lexicographic order, without recursion.

    Each follows from the one before by the lexicographic successor: the last
    two parts p, l become p + 1 followed by l - 1 ones.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidInputError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise InvalidInputError("n must be non-negative")
    parts = [1] * n
    yield tuple(parts)
    while len(parts) > 1:
        last = parts.pop()
        parts[-1] += 1
        parts.extend([1] * (last - 1))
        yield tuple(parts)
