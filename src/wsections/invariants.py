"""Block minors attached to neighboring column pairs, and their evaluations.

For a pair of height-s columns v < v' the minor takes the rows indexed by the
entries of columns v..v'-1 shifted past column v's block and the columns
shifted s further; writing m for its size, the matrix is evaluated on the
identity translate of a generic nilradical point, so position (a, b) holds
the variable x[a,b] when that coordinate lives in the nilradical, 1 when
a == b, and 0 otherwise: a variable exactly when b > t.column_end[a], as
entries grow with the column.  The entries of boxes lying strictly between the
pair in rows below s make up translated.  Only their count, size - degree,
holds: each top monomial uses that many diagonal ones, but not always these
(pair (1,3) of 1,2,1 has translated (3,), and x[1,3]*x[3,4] uses the 1 at (2,2)).

Three evaluations matter: the fully generic determinant (whose top term is
the invariant attached to the pair), the restriction to a section (1 on e,
coordinates of V kept), and the restriction to the candidate nilfibre point
(1 on e, 0 on V), which must vanish.  Both set only the variable cells
their keys name, so they cost the size plus the section's lines, not m^2.
"""
from __future__ import annotations

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


def det_size_bound(bound: int | None = None) -> int:
    """Size guard for fully generic determinants: bound, or DEFAULT_DET_BOUND.

    Raises InvalidInputError for a non-integer bound (a bool included) or
    one below 1.
    """
    if bound is None:
        return DEFAULT_DET_BOUND
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
        raise InvalidInputError(
            f"determinant size bound must be an integer of at least 1, got {bound!r}"
        )
    return bound


@dataclass(frozen=True)
class MinorSpec:
    """A pair's minor: size, translated diagonal, degree, symbolic matrix."""

    pair: NeighborPair
    size: int
    translated: tuple[int, ...]  # size - degree entries; only the count is meaningful
    degree: int
    matrix: SymbolicMatrix
    offset: int  # rows are entries offset+1 .. offset+size, columns pair.s further on


def _raw_minor_matrix(t: Tableau, v: int, v_prime: int, s: int) -> SymbolicMatrix:
    """The translated minor between any two height-s columns, unvalidated."""
    lo, hi = t.composition.prefix(v), t.composition.prefix(v_prime)
    cols = range(s + lo + 1, s + hi + 1)
    body = []
    for a in range(lo + 1, hi + 1):
        end = t.column_end[a]
        body.append(tuple([(a, b) if b > end else int(a == b) for b in cols]))
    return SymbolicMatrix(tuple(body))


def build_minor(t: Tableau, pair: NeighborPair) -> MinorSpec:
    """Identity-translated symbolic minor for a neighboring pair."""
    require_neighboring(t, pair)
    v, vp, s = pair.v, pair.v_prime, pair.s
    lo, hi = t.composition.prefix(v), t.composition.prefix(vp)
    size = hi - lo
    translated = tuple(entry for col in t.columns[v : vp - 1] for entry in col[s:])
    degree = bs_degree(t, pair)
    if len(translated) != size - degree:
        raise InternalError("translated diagonal does not match size - degree")
    return MinorSpec(
        pair=pair,
        size=size,
        translated=translated,
        degree=degree,
        matrix=_raw_minor_matrix(t, v, vp, s),
        offset=lo,
    )


def _specialise(ms: MinorSpec, ones: set, kept: set) -> Polynomial:
    """Determinant with 1 on the cells in ones, those in kept symbolic, 0 elsewhere.

    From the diagonal ones, only the minor's variable cells that ones and
    then kept name are set, so kept wins.
    """
    m, s, lo = ms.size, ms.pair.s, ms.offset
    generic = ms.matrix.rows
    body = [[0] * m for _ in range(m)]
    for r in range(s, m):
        body[r][r - s] = 1
    for keys, symbolic in ((ones, False), (kept, True)):
        for a, b in keys:
            r, c = a - lo - 1, b - lo - s - 1
            if 0 <= r < m and 0 <= c < m and type(cell := generic[r][c]) is tuple:
                body[r][c] = cell if symbolic else 1
    return det(SymbolicMatrix(tuple(map(tuple, body))))


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

    The determinant is expanded in det's top mode, which builds only the
    monomials of highest degree.  bound is a resolved size bound; None
    resolves it with det_size_bound().
    """
    if bound is None:
        bound = det_size_bound()
    if ms.size > bound:
        raise ResourceLimitError(
            f"minor size {ms.size} exceeds determinant bound {bound}"
        )
    # Top mode already yields the top term with its degree recorded, so
    # top_term() is a constant-time read of the value det returns.
    return det(ms.matrix, top=True).top_term()
