"""The check battery, and the root-lattice checks it runs.

verify_composition runs every check for one composition on the step-3
section e + V (and on the step-2 labelling it comes from) and returns its
ws-report/2 document.  Weights live over the simple roots a_1 .. a_{n-1};
the line from entry i to entry j has weight a_i + ... + a_{j-1}.  Separation
asks for the weights of the 1-labelled horizontal lines to stay independent
when paired against the coroots indexed by the tableau minus the lowest box
of every column.  Each pairing is read off the line's endpoints,
<a_i + ... + a_{j-1}, a_k^v> = [k=i] + [k=j-1] - [k=i-1] - [k=j] (the two
positive terms add up to 2 when j = i+1), so a row holds at most four
nonzeros and no weight vector is built.  The orbit computations (density
included) read the tangent space [p', point] straight off the point's line
graph, transposed: one sparse row per nilradical coordinate (i, j), at index
base[i] + j, holding that coordinate of [y, point] for every basis element y
of p' an arrow of the point reaches.  The transpose has the same rank,
about two nonzeros per row and almost no reductions; the rows go to the
exact integer rank.
"""
from __future__ import annotations

from typing import Iterable, Mapping

from . import construction, invariants
from .construction import LineSet, extract_section, step1, step2, step3
from .errors import (
    InvalidInputError,
    InvalidStateError,
    NilfibreViolationError,
    P1ViolationError,
    ResourceLimitError,
    SectionDefectError,
)
from .linalg import rank_int, solve_unit_differences
from .tableau import Composition, MatrixUnit, Tableau, nilradical_basis

REPORT_SCHEMA = "ws-report/2"


def _require_step2(ls: LineSet) -> None:
    if ls.step != 2:
        raise InvalidStateError("this check reads the horizontal step-2 labelling")


def reduced_entries(t: Tableau) -> tuple[int, ...]:
    """Entries left after dropping the lowest box of every column."""
    return tuple(
        entry for col in t.columns for entry in col[:-1]
    )


def separation_matrix(ls: LineSet) -> tuple[dict[int, int], ...]:
    """One sparse {column: coeff} row per 1-line, its weight paired against the
    coroots of ls's reduced tableau, read off the line's endpoints."""
    _require_step2(ls)
    column = {k: c for c, k in enumerate(sorted(reduced_entries(ls.tableau)))}
    rows = []
    for ln in ls.one_lines():
        row: dict[int, int] = {}
        for k, x in ((ln.i, 1), (ln.j - 1, 1), (ln.i - 1, -1), (ln.j, -1)):
            if k in column:
                row[column[k]] = row.get(column[k], 0) + x
        rows.append(row)
    return tuple(rows)


def separation_rank(ls: LineSet) -> int:
    """Exact rank of the separation matrix; the contract is rank == #1-lines."""
    return rank_int(separation_matrix(ls))


def grading_element(ls: LineSet) -> tuple[int, ...] | None:
    """The diagonal d with d_i - d_j = -1 along every horizontal line, anchored
    per component, or None when no such d exists."""
    _require_step2(ls)
    return solve_unit_differences(ls.tableau.n, [ln.key for ln in ls.lines])


def _orbit_rows(
    t: Tableau, point: dict[tuple[int, int], int]
) -> tuple[list[int], list[dict[int, int]]]:
    """Each entry's row base, and one row per nilradical coordinate (i, j)
    holding its coefficient in [y, point] for a basis y of p': the transpose
    of the tangent-space matrix, same rank.

    Rows follow t.nilradical_keys, so coordinate (i, j) is row base[i] + j.
    Column a*(n+1) + b stands for E_ab, and column a*(n+1) + a for
    h_a = E_aa - E_{a+1,a+1}.  An arrow b -> j of the point with coefficient
    c puts +c at E_ib into row (i, j) for every i with col(i) <= col(b), and
    -c at E_jk into row (b, k) for every k with col(j) <= col(k); the Cartan
    coefficients +c on E_bb and -c on E_jj then move onto the h_a.  The
    point has no arrow inside one column, so no two of these share a row and
    a column: rows are plain unions, with no zeros.  Every key of the point
    must lie in m: a LineSet line does by construction, and _as_point checks
    codim_orbit's points.
    """
    n, end, row_of = t.n, t.column_end, t.entry_row
    base, start = [0] * (n + 1), 0
    for i in range(1, n + 1):
        base[i] = start - end[i] - 1
        start += n - end[i]
    stride = n + 1
    rows: list[dict[int, int]] = [{} for _ in t.nilradical_keys]
    for (b, j), c in point.items():
        for i in range(1, end[b] + 1):
            rows[base[i] + j][i * stride + b] = c
        for k in range(j - row_of[j] + 1, n + 1):
            rows[base[b] + k][j * stride + k] = -c
        # Row (b, j) holds E_bb at +c and E_jj at -c; a Cartan coefficient
        # on E_aa counts +1 on h_a and -1 on h_{a-1}, where these exist.
        row = rows[base[b] + j]
        for a, g in ((b, c), (j, -c)):
            if a == end[a]:
                del row[a * stride + a]
            if row_of[a] > 1:
                row[(a - 1) * stride + a - 1] = -g
    return base, rows


def _as_point(
    t: Tableau, point: "Mapping[MatrixUnit, int] | Iterable[MatrixUnit]"
) -> dict[tuple[int, int], int]:
    if not isinstance(point, Iterable):
        raise InvalidInputError(f"point {point!r} is neither a mapping nor an iterable")
    items = point.items() if isinstance(point, Mapping) else [(u, 1) for u in point]
    for u, c in items:
        if not isinstance(u, MatrixUnit):
            raise InvalidInputError(f"point unit {u!r} is not a MatrixUnit")
        if isinstance(c, bool) or not isinstance(c, int):
            raise InvalidInputError(f"coefficient {c!r} at {u.key} is not an integer")
    keyed = {u.key: c for u, c in items if c}
    for i, j in keyed:
        if not (i <= t.n and t.column_end[i] < j <= t.n):
            raise InvalidInputError(f"vector leaves the nilradical at {(i, j)}")
    return keyed


def density_check(ls: LineSet) -> tuple[bool, int]:
    """Does [p', e+v] + V fill m, every line of e+v at coefficient 1?

    The rows are the coordinate rows of p''s brackets, read off the step-2
    line graph over ls's tableau; each 0-line's V singleton is one more
    column, nonzero only in that line's coordinate row.  Returns (full, rank).
    """
    _require_step2(ls)
    t = ls.tableau
    base, rows = _orbit_rows(t, {ln.key: 1 for ln in ls.lines})
    for k, ln in enumerate(ls.zero_lines(), start=1):
        rows[base[ln.i] + ln.j][-k] = 1
    dim = rank_int(rows)
    return dim == len(t.nilradical_keys), dim


def codim_orbit(t: Tableau, point: "Mapping[MatrixUnit, int] | Iterable[MatrixUnit]") -> int:
    """Codimension in m of the orbit of a point under P'.

    A mapping gives each unit its coefficient, an iterable coefficient 1.
    The codimension is dim m minus the rank of the coordinate rows of
    [p', point].  A point that is neither, a key that is not a MatrixUnit, a
    coefficient that is not an int, or a unit outside m raises
    InvalidInputError.
    """
    _, rows = _orbit_rows(t, _as_point(t, point))
    return len(t.nilradical_keys) - rank_int(rows)


def _gap_count(parts: tuple[int, ...]) -> int:
    heights = sorted(set(parts))
    return heights[-1] - len(heights)


def _extremal_profile(ls: LineSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    has_left = {ln.j for ln in ls.lines}
    has_right = {ln.i for ln in ls.lines}
    entries = range(1, ls.tableau.n + 1)
    return (
        tuple(e for e in entries if e not in has_left),
        tuple(e for e in entries if e not in has_right),
    )


def verify_composition(parts: tuple[int, ...], det_bound: int | None = None) -> dict:
    """Run every check for one composition; return its ws-report/2 document.

    Pure and deterministic.  A generic determinant above the size bound is
    recorded under "skipped", never as a failure.
    """
    comp = Composition(parts)
    t = Tableau(comp)
    pairs = t.neighboring_pairs
    g = len(pairs)
    dim_m = len(nilradical_basis(t))
    bound = invariants.det_size_bound(det_bound)

    ls1 = step1(t)
    ls2 = step2(ls1, construction.RIGHTMOST)
    ls3 = step3(ls2)
    sec = extract_section(ls3)

    checks: dict[str, bool] = {}
    checks["step1_count"] = len(ls1.lines) == comp.n - max(comp.parts)
    checks["zero_count_is_g"] = len(ls2.zero_lines()) == g
    checks["one_count"] = len(ls2.one_lines()) == (comp.n - comp.r) - _gap_count(comp.parts)
    checks["zero_count_stable"] = len(ls3.zero_lines()) == g
    checks["extremal_boxes"] = _extremal_profile(ls1) == _extremal_profile(ls3)

    pair_reports = []
    skipped: list[str] = []
    coords = []
    for pair in pairs:
        ms = invariants.build_minor(t, pair)
        entry: dict = {
            "pair": [pair.v, pair.v_prime],
            "height": pair.s,
            "size": ms.size,
            "degree_formula": ms.degree,
        }
        try:
            entry["p2"] = construction.verify_P2(ls3, construction.verify_P1(ls3, pair))
            entry["p1"] = True
        except P1ViolationError:
            entry["p1"] = entry["p2"] = False
        try:
            entry["sign"], unit = invariants.section_coordinate(ms, sec)
            entry["restriction"] = str(unit)
            coords.append(unit)
        except SectionDefectError:
            entry["sign"] = entry["restriction"] = None
        try:
            invariants.restrict_to_E(ms, sec)
            entry["nilfibre_zero"] = True
        except NilfibreViolationError:
            entry["nilfibre_zero"] = False
        try:
            invariant = invariants.generic_invariant(ms, bound)
            entry["invariant"] = invariant.to_string()
            entry["degree_observed"] = invariant.degree()
        except ResourceLimitError:
            entry["invariant"] = entry["degree_observed"] = None
            skipped.append(f"pair ({pair.v},{pair.v_prime}) size {ms.size}")
        pair_reports.append(entry)

    checks["p1_all"] = all(p["p1"] for p in pair_reports)
    checks["p2_all"] = all(p["p2"] for p in pair_reports)
    checks["restrictions_distinct_exhaust_v"] = (
        len(coords) == len(set(coords)) == g and set(coords) == set(sec.v)
    )
    checks["nilfibre_vanishing"] = all(p["nilfibre_zero"] for p in pair_reports)
    checks["degrees_match"] = all(
        p["degree_observed"] in (None, p["degree_formula"]) for p in pair_reports
    )

    separation = {}
    for mode in (construction.RIGHTMOST, construction.LEFTMOST):
        ls_mode = ls2 if mode == construction.RIGHTMOST else step2(ls1, mode)
        rank = separation_rank(ls_mode)
        expected = len(ls_mode.one_lines())
        separation[mode] = {"rank": rank, "expected": expected, "pass": rank == expected}
    checks["separation_both_modes"] = all(m["pass"] for m in separation.values())

    dense, dim = density_check(ls2)
    checks["density"] = dense

    checks["grading"] = grading_element(ls2) is not None

    return {
        "schema": REPORT_SCHEMA,
        "composition": list(comp.parts),
        "n": comp.n,
        "g": g,
        "dim_m": dim_m,
        "lines": {
            "step1": len(ls1.lines),
            "zeros": len(ls2.zero_lines()),
            "ones": len(ls2.one_lines()),
        },
        "pairs": pair_reports,
        "separation": separation,
        "density": {"dim": dim, "pass": dense},
        "checks": checks,
        "skipped": skipped,
        "pass": all(checks.values()),
    }
