"""Block minors attached to neighboring column pairs, and their evaluations.

For a pair of height-s columns v < v' the minor takes the rows indexed by the
entries of columns v..v'-1 shifted past column v's block and the columns
shifted s further; writing m for its size, the matrix is evaluated on the
identity translate of a generic nilradical point, so position (a, b) holds
the variable x[a,b] when that coordinate lives in the nilradical, 1 when
a == b, and 0 otherwise: a variable exactly when b > t.column_end[a], as
entries grow with the column.  Each top monomial uses size - degree of the
diagonal ones, as many as the columns strictly between the pair have boxes
below row s, but not always the ones in those boxes' rows (pair (1,3) of
1,2,1: x[1,3]*x[3,4] uses the 1 at (2,2), not the one in box 3's row).

Three evaluations matter: the fully generic determinant (whose top term is
the invariant attached to the pair), the restriction to a section (1 on e,
coordinates of V kept), and the restriction to the candidate nilfibre point
(1 on e, 0 on V), which must vanish.  Both read each of the minor's m^2
cells once: a constant stays, and a variable, which is its own key (a, b),
stays when V names it and becomes 1 or 0 as e names it or not.
"""
from __future__ import annotations

from dataclasses import dataclass

from .construction import Section
from .errors import (
    InvalidInputError, NilfibreViolationError, ResourceLimitError, SectionDefectError,
)
from .poly import Polynomial, SymbolicMatrix, det
from .tableau import MatrixUnit, NeighborPair, Tableau, bs_degree

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
    """A pair's minor: size, degree of its invariant, symbolic matrix."""

    pair: NeighborPair
    size: int
    degree: int
    matrix: SymbolicMatrix


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
    degree = bs_degree(t, pair)  # raises InvalidInputError unless the pair is neighboring
    matrix = _raw_minor_matrix(t, pair.v, pair.v_prime, pair.s)
    return MinorSpec(pair=pair, size=matrix.size, degree=degree, matrix=matrix)


def _specialise(ms: MinorSpec, ones: frozenset, kept: frozenset) -> Polynomial:
    """Determinant of the minor with its variable cells specialised by key.

    A constant cell stays; a variable cell stays symbolic when kept names
    it, and otherwise becomes 1 when ones names it and 0 when not.
    """
    body = [
        tuple([
            cell if cell.__class__ is int or cell in kept else 1 if cell in ones else 0
            for cell in row
        ])
        for row in ms.matrix.rows
    ]
    return det(SymbolicMatrix(tuple(body)))


def restrict_to_section(ms: MinorSpec, sec: Section) -> Polynomial:
    """Determinant with 1 on the e-coordinates, V kept symbolic, 0 elsewhere."""
    return _specialise(ms, sec.e_keys, sec.v_keys)


def section_coordinate(ms: MinorSpec, sec: Section) -> tuple[int, MatrixUnit]:
    """The (sign, coordinate) a well-formed section restriction collapses to:
    one term of degree 1 (det's values are squarefree), coefficient +-1.  Only
    V's cells stay symbolic, so that variable is a coordinate of V."""
    p = restrict_to_section(ms, sec)
    terms = list(p.terms.items())
    if len(terms) != 1 or len(terms[0][0]) != 1 or terms[0][1] not in (1, -1):
        raise SectionDefectError(
            f"pair ({ms.pair.v}, {ms.pair.v_prime}) restricts to {p}, not one coordinate"
        )
    (((i, j), _),), coeff = terms[0]
    return coeff, MatrixUnit(i, j)


def restrict_to_E(ms: MinorSpec, sec: Section) -> Polynomial:
    """Determinant with 1 on e and 0 on everything else; must be zero."""
    result = _specialise(ms, sec.e_keys, frozenset())
    if not result.is_zero():
        raise NilfibreViolationError(
            f"pair ({ms.pair.v}, {ms.pair.v_prime}) does not vanish on e: {result}"
        )
    return result


def generic_invariant(ms: MinorSpec, bound: int | None = None) -> Polynomial:
    """Top term of the fully generic translated minor determinant.

    The determinant is expanded in det's top mode, which builds only the
    monomials of highest degree.  bound is resolved by det_size_bound(), so
    None means the default and a non-integer or one below 1 raises
    InvalidInputError.
    """
    bound = det_size_bound(bound)
    if ms.size > bound:
        raise ResourceLimitError(
            f"minor size {ms.size} exceeds determinant bound {bound}"
        )
    # Top mode already yields the top term with its degree recorded, so
    # top_term() is a constant-time read of the value det returns.
    return det(ms.matrix, top=True).top_term()
