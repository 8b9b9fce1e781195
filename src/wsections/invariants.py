"""Block minors attached to neighboring column pairs, and their evaluations.

For a pair of height-s columns v < v' the minor takes the rows indexed by the
entries of columns v..v'-1 shifted past column v's block and the columns
shifted s further; writing m for its size, the matrix is evaluated on the
identity translate of a generic nilradical point, so position (a, b) holds
the variable x[a,b] when that coordinate lives in the nilradical, 1 when
a == b, and 0 otherwise.  The entries of boxes lying strictly between the
pair in rows below s index the diagonal ones that are forced into every top
monomial; their count is size - degree.

Three evaluations matter: the fully generic determinant (whose top term is
the invariant attached to the pair), the restriction to a section (1 on e,
coordinates of V kept), and the restriction to the candidate nilfibre point
(1 on e, 0 on V), which must vanish.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from .construction import Section
from .errors import (
    InternalError,
    InvalidInputError,
    NilfibreViolationError,
    ResourceLimitError,
    SectionDefectError,
)
from .poly import Polynomial, SymbolicMatrix, det
from .tableau import (
    MatrixUnit,
    NeighborPair,
    Tableau,
    bs_degree,
    require_neighboring,
)

DEFAULT_DET_BOUND = 8
_DET_BOUND_ENV = "WS_DET_BOUND"


def det_size_bound(override: int | None = None) -> int:
    """Size guard for fully generic determinants; WS_DET_BOUND wins.

    Raises InvalidInputError for a non-integer bound or one below 1.
    """
    env = os.environ.get(_DET_BOUND_ENV)
    if env is not None:
        try:
            bound = int(env)
        except ValueError:
            raise InvalidInputError(
                f"{_DET_BOUND_ENV} must be an integer, got {env!r}"
            ) from None
    elif override is not None:
        bound = override
    else:
        bound = DEFAULT_DET_BOUND
    if bound < 1:
        raise InvalidInputError(f"determinant size bound must be at least 1, got {bound}")
    return bound


@dataclass(frozen=True)
class MinorSpec:
    """A pair's minor: index sets, translated diagonal, symbolic matrix."""

    pair: NeighborPair
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    size: int
    translated: tuple[int, ...]  # entries whose diagonal 1 every top monomial uses
    degree: int
    matrix: SymbolicMatrix


def _raw_minor_matrix(t: Tableau, v: int, v_prime: int, s: int) -> SymbolicMatrix:
    """The translated minor between any two height-s columns, unvalidated."""
    lo, hi = t.composition.prefix(v), t.composition.prefix(v_prime)
    body = []
    for a in range(lo + 1, hi + 1):
        row = []
        for b in range(s + lo + 1, s + hi + 1):
            if a == b:
                row.append(1)
            elif t.col_of(a) < t.col_of(b):
                row.append((a, b))
            else:
                row.append(0)
        body.append(tuple(row))
    return SymbolicMatrix(tuple(body))


def build_minor(t: Tableau, pair: NeighborPair) -> MinorSpec:
    """Identity-translated symbolic minor for a neighboring pair."""
    require_neighboring(t, pair)
    v, vp, s = pair.v, pair.v_prime, pair.s
    lo, hi = t.composition.prefix(v), t.composition.prefix(vp)
    rows = tuple(range(lo + 1, hi + 1))
    cols = tuple(range(s + lo + 1, s + hi + 1))
    size = hi - lo
    translated = tuple(
        entry
        for w in range(v + 1, vp)
        for entry in t.col_entries(w)[s:]
    )
    degree = bs_degree(t, pair)
    if len(translated) != size - degree:
        raise InternalError("translated diagonal does not match size - degree")
    return MinorSpec(
        pair=pair,
        rows=rows,
        cols=cols,
        size=size,
        translated=translated,
        degree=degree,
        matrix=_raw_minor_matrix(t, v, vp, s),
    )


def _specialise(ms: MinorSpec, ones: set, kept: set) -> Polynomial:
    """Determinant with 1 on the cells in ones, those in kept symbolic, 0 elsewhere."""
    rows = tuple(
        tuple(
            cell if isinstance(cell, int) or cell in kept else int(cell in ones)
            for cell in row
        )
        for row in ms.matrix.rows
    )
    return det(SymbolicMatrix(rows))


def restrict_to_section(ms: MinorSpec, sec: Section) -> Polynomial:
    """Determinant with 1 on the e-coordinates, V kept symbolic, 0 elsewhere."""
    return _specialise(ms, {u.key for u in sec.e}, {u.key for u in sec.v})


def section_coordinate(ms: MinorSpec, sec: Section) -> tuple[int, MatrixUnit]:
    """The (sign, coordinate) a well-formed section restriction collapses to."""
    p = restrict_to_section(ms, sec)
    terms = p.sorted_terms()
    if len(terms) != 1:
        raise SectionDefectError(
            f"pair ({ms.pair.v}, {ms.pair.v_prime}) restricts to {p}, not one coordinate"
        )
    mono, coeff = terms[0]
    if coeff not in (1, -1) or len(mono) != 1 or mono[0][1] != 1:
        raise SectionDefectError(
            f"pair ({ms.pair.v}, {ms.pair.v_prime}) restricts to {p}, not one coordinate"
        )
    (i, j), _ = mono[0]
    unit = MatrixUnit(i, j)
    if unit not in set(sec.v):
        raise SectionDefectError(f"restriction {p} is not a coordinate of V")
    return coeff, unit


def restrict_to_E(ms: MinorSpec, sec: Section) -> Polynomial:
    """Determinant with 1 on e and 0 on everything else; must be zero."""
    result = _specialise(ms, {u.key for u in sec.e}, set())
    if not result.is_zero():
        raise NilfibreViolationError(
            f"pair ({ms.pair.v}, {ms.pair.v_prime}) does not vanish on e: {result}"
        )
    return result


def generic_invariant(ms: MinorSpec, bound: int | None = None) -> Polynomial:
    """Top term of the fully generic translated minor determinant.

    The determinant is expanded in det's top mode, which keeps only the
    cofactors of highest degree.  bound is a resolved size bound; None
    resolves it with det_size_bound().
    """
    if bound is None:
        bound = det_size_bound()
    if ms.size > bound:
        raise ResourceLimitError(
            f"minor size {ms.size} exceeds determinant bound {bound}"
        )
    # Top mode already yields the top term; the top_term call stays while
    # bench/tracer.py times it as a layer of its own.
    return det(ms.matrix, top=True).top_term()
