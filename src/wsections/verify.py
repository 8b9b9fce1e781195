"""Root-lattice checks: weights, separation, grading, orbit dimensions.

Weights live over the simple roots a_1 .. a_{n-1}; the line from entry i to
entry j has weight a_i + ... + a_{j-1}.  Separation asks for the weights of
the 1-labelled horizontal lines to stay independent when paired against the
coroots indexed by the tableau minus the lowest box of every column.  The
orbit computations (density included) run the adjoint action of a basis of
the relevant algebra on an explicit point and hand the brackets, as sparse
rows over the nilradical coordinates, to the exact integer rank; nothing is
floated.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .construction import Line, LineSet
from .errors import InternalError, InvalidInputError, InvalidStateError
from .linalg import rank_int, solve_unit_differences
from .tableau import MatrixUnit, Tableau, nilradical_basis

Weight = tuple[int, ...]

GROUP_FULL = "P"
GROUP_DERIVED = "P'"


def line_weight(t: Tableau, line: "Line | tuple[int, int]") -> Weight:
    """Sum of consecutive simple roots a_i .. a_{j-1} as a 0/1 vector."""
    i, j = (line.i, line.j) if isinstance(line, Line) else line
    if not (1 <= i < j <= t.n):
        raise InvalidInputError(f"line ({i}, {j}) outside the tableau")
    return tuple(1 if i <= k <= j - 1 else 0 for k in range(1, t.n))


def coroot_pairing(w: Weight, k: int) -> int:
    """Evaluate a weight on the k-th simple coroot (type-A Cartan pairing)."""
    n1 = len(w)
    left = w[k - 2] if k >= 2 else 0
    right = w[k] if k < n1 else 0
    return 2 * w[k - 1] - left - right


def weight_inner(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Cartan inner product of two line weights via their endpoints."""
    (i, j), (k, l) = a, b
    return (
        (1 if i == k else 0)
        - (1 if i == l else 0)
        - (1 if j == k else 0)
        + (1 if j == l else 0)
    )


@dataclass(frozen=True)
class SeparationMatrix:
    """Pairings of the 1-line weights against the reduced-tableau coroots."""

    lines: tuple[Line, ...]
    entries: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]


def _require_step2(ls: LineSet) -> None:
    if ls.step != 2:
        raise InvalidStateError("this check reads the horizontal step-2 labelling")


def reduced_entries(t: Tableau) -> tuple[int, ...]:
    """Entries left after dropping the lowest box of every column."""
    return tuple(
        entry for col in t.columns for entry in col[:-1]
    )


def separation_matrix(t: Tableau, ls: LineSet) -> SeparationMatrix:
    _require_step2(ls)
    lines = ls.one_lines()
    entries = tuple(sorted(reduced_entries(t)))
    rows = []
    for ln in lines:
        w = line_weight(t, ln)
        rows.append(tuple(coroot_pairing(w, k) for k in entries))
    return SeparationMatrix(lines=lines, entries=entries, rows=tuple(rows))


def separation_rank(t: Tableau, ls: LineSet) -> int:
    """Exact rank of the separation matrix; the contract is rank == #1-lines."""
    return rank_int(separation_matrix(t, ls).rows)


def root_system_type(ls: LineSet) -> tuple[int, ...]:
    """Ranks of the type-A components spanned by the horizontal line weights.

    Row u with m boxes contributes a component of rank m - 1.  The claimed
    block structure is re-derived from the Cartan gram matrix and an exact
    independence check before being returned.
    """
    _require_step2(ls)
    t = ls.tableau
    expected = sorted(
        (len(t.row_entries(u)) - 1 for u in range(1, t.height + 1) if len(t.row_entries(u)) >= 2),
        reverse=True,
    )
    lines = ls.lines
    for a in range(len(lines)):
        for b in range(a + 1, len(lines)):
            la, lb = lines[a], lines[b]
            inner = weight_inner(la.key, lb.key)
            shares = len({la.i, la.j} & {lb.i, lb.j})
            want = -1 if shares == 1 else 0
            if inner != want:
                raise InternalError("horizontal line weights have unexpected pairings")
    weights = [line_weight(t, ln) for ln in lines]
    if weights and rank_int(weights) != len(weights):
        raise InternalError("horizontal line weights are not independent")
    return tuple(expected)


@dataclass(frozen=True)
class GradingElement:
    """Diagonal vector d with d_i - d_j = -1 along every horizontal line."""

    values: tuple[int, ...]

    def on_line(self, i: int, j: int) -> int:
        return self.values[i - 1] - self.values[j - 1]


def grading_element(ls: LineSet) -> GradingElement:
    """Solve d_i - d_j = -1 over all horizontal lines, anchored per component."""
    _require_step2(ls)
    t = ls.tableau
    values = solve_unit_differences(t.n, [ln.key for ln in ls.lines])
    return GradingElement(values=values)


def _block_ranges(t: Tableau) -> list[range]:
    out = []
    start = 1
    for h in t.composition.parts:
        out.append(range(start, start + h))
        start += h
    return out


def _bracket_with_point(
    x: Mapping[tuple[int, int], int], point: Mapping[tuple[int, int], int]
) -> dict[tuple[int, int], int]:
    """[x, point] for sparse matrices given as {(a, b): coeff}."""
    out: dict[tuple[int, int], int] = {}
    for (a, b), ca in x.items():
        for (c, d), cb in point.items():
            coeff = ca * cb
            if b == c:
                out[(a, d)] = out.get((a, d), 0) + coeff
            if d == a:
                out[(c, b)] = out.get((c, b), 0) - coeff
    return {k: v for k, v in out.items() if v}


def _algebra_basis(t: Tableau, group: str) -> list[dict[tuple[int, int], int]]:
    """Basis of p (group "P") or of its derived algebra p' (group "P'")."""
    if group not in (GROUP_FULL, GROUP_DERIVED):
        raise InvalidInputError(f"unknown group {group!r}")
    basis: list[dict[tuple[int, int], int]] = [
        {u.key: 1} for u in nilradical_basis(t)
    ]
    for block in _block_ranges(t):
        for a in block:
            for b in block:
                if a != b:
                    basis.append({(a, b): 1})
        members = list(block)
        if group == GROUP_FULL:
            for a in members:
                basis.append({(a, a): 1})
        else:
            for a, b in zip(members, members[1:]):
                basis.append({(a, a): 1, (b, b): -1})
    return basis


def _span_dimension(
    t: Tableau,
    vectors: Iterable[Mapping[tuple[int, int], int]],
) -> int:
    index = {u.key: pos for pos, u in enumerate(nilradical_basis(t))}
    rows = []
    for vec in vectors:
        row = {}
        for key, coeff in vec.items():
            if coeff == 0:
                continue
            if key not in index:
                raise InvalidInputError(f"vector leaves the nilradical at {key}")
            row[index[key]] = coeff
        rows.append(row)
    return rank_int(rows)


def _as_point(point: "Mapping[MatrixUnit, int] | Iterable[MatrixUnit]") -> dict[tuple[int, int], int]:
    if isinstance(point, Mapping):
        return {u.key: int(c) for u, c in point.items() if c}
    return {u.key: 1 for u in point}


def density_check(t: Tableau, ls: LineSet) -> tuple[bool, int]:
    """Does the derived algebra move e+v (all units, coefficient 1) plus V onto all of m?"""
    _require_step2(ls)
    point = {ln.key: 1 for ln in ls.lines}
    vectors = [
        _bracket_with_point(x, point) for x in _algebra_basis(t, GROUP_DERIVED)
    ]
    vectors.extend({ln.key: 1} for ln in ls.zero_lines())
    dim = _span_dimension(t, vectors)
    return dim == len(nilradical_basis(t)), dim


def codim_orbit(
    t: Tableau,
    point: "Mapping[MatrixUnit, int] | Iterable[MatrixUnit]",
    group: str = GROUP_FULL,
) -> int:
    """Codimension in the nilradical of the orbit of a point under P or P'."""
    pt = _as_point(point)
    vectors = [_bracket_with_point(x, pt) for x in _algebra_basis(t, group)]
    dim_m = len(nilradical_basis(t))
    return dim_m - _span_dimension(t, vectors)
