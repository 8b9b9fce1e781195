"""Independent oracles and small utilities shared by the test modules.

Everything here recomputes expected values by a different route than the
package: determinants by full permutation expansion and by fraction-free
(Bareiss) elimination over the polynomial ring, ranks by Gaussian
elimination over fractions (on dense rows and on sparse dict rows),
composite-line covers by recursive backtracking, perfect matchings of a
matrix's support by a count over covered column sets, restrictions by
substituting into the expanded polynomial, compositions by recursion on the
first part, orbit tangent spaces by bracketing every basis matrix of p with
every unit of the point, the nilradical by testing all n^2 positions, minors
and their specialisations cell by cell from column_of, polynomial strings by
one f-string per factor.  The package's Polynomial is a value only, built by
det; Ring is a polynomial of its own, on a plain dict, with the arithmetic
these oracles and the tests need.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from wsections.construction import Line
from wsections.errors import InternalError, InvalidInputError, UndefinedGradingError
from wsections.poly import Monomial, SymbolicMatrix


def _degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


class Ring:
    """A polynomial as a plain {monomial: nonzero coefficient} dict, with ring
    arithmetic and the readings the oracles compare: terms, is_zero, degree
    and top_term.  Its monomials may carry exponents.  It equals an int
    constant, or anything whose terms dict is the same, a det value included.
    """

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max(map(_degree, self.terms), default=-1)

    def top_term(self) -> "Ring":
        if not self.terms:
            raise UndefinedGradingError("the zero polynomial has no top term")
        best = self.degree()
        return Ring({m: c for m, c in self.terms.items() if _degree(m) == best})

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == ({(): other} if other else {})
        terms = getattr(other, "terms", None)
        return NotImplemented if terms is None else self.terms == terms

    def __repr__(self) -> str:
        return f"Ring({to_string_fstrings(self)})"

    def __neg__(self) -> "Ring":
        return Ring({m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "Ring":
        out = dict(self.terms)
        for m, c in lift(other).terms.items():
            out[m] = out.get(m, 0) + c
        return Ring(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Ring":
        return self + -lift(other)

    def __mul__(self, other) -> "Ring":
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in lift(other).terms.items():
                powers = dict(m1)
                for v, e in m2:
                    powers[v] = powers.get(v, 0) + e
                m = tuple(sorted(powers.items()))
                out[m] = out.get(m, 0) + c1 * c2
        return Ring(out)

    __rmul__ = __mul__


def lift(p) -> Ring:
    """p as a Ring element: an int is a constant, a Ring stays, anything else
    with a terms dict (a det value) is copied."""
    if isinstance(p, Ring):
        return p
    return Ring({(): p}) if isinstance(p, int) else Ring(p.terms)


def X(i: int, j: int) -> Ring:
    """The coordinate polynomial x[i,j]."""
    return Ring({(((i, j), 1),): 1})


def _entry(cell) -> Ring:
    return lift(cell) if isinstance(cell, int) else X(*cell)


def det_permutation_expansion(matrix: SymbolicMatrix) -> Ring:
    """Sum over all permutations of signed entry products, each product one
    coefficient and one monomial, counting a variable's occurrences."""
    terms: dict[Monomial, int] = {}
    for perm in permutations(range(matrix.size)):
        cells = [row[c] for row, c in zip(matrix.rows, perm)]
        if 0 in cells:
            continue
        coeff, powers = _perm_sign(perm), {}
        for cell in cells:
            if isinstance(cell, int):
                coeff *= cell
            else:
                powers[cell] = powers.get(cell, 0) + 1
        mono = tuple(sorted(powers.items()))
        terms[mono] = terms.get(mono, 0) + coeff
    return Ring(terms)


def _perm_sign(perm) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def det_fraction_free(matrix: SymbolicMatrix) -> Ring:
    """Bareiss elimination over the polynomial ring.

    Pivots prefer integer entries, then short polynomials; every division is
    exact by construction, and divexact checks it.
    """
    m = matrix.size
    a = [[_entry(cell) for cell in row] for row in matrix.rows]
    sign = 1
    prev = lift(1)
    for k in range(m - 1):
        pivot_row = _pick_pivot(a, k)
        if pivot_row is None:
            return lift(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, m):
            row_i = a[i]
            if all(row_i[j].is_zero() for j in range(k, m)):
                continue
            lead = row_i[k]
            for j in range(k + 1, m):
                row_i[j] = divexact(pivot * row_i[j] - lead * a[k][j], prev)
            row_i[k] = lift(0)
        prev = pivot
    result = a[m - 1][m - 1]
    return result if sign == 1 else -result


def _pick_pivot(a: list[list[Ring]], k: int) -> int | None:
    best = None
    best_key = None
    for i in range(k, len(a)):
        cell = a[i][k]
        if cell.is_zero():
            continue
        key = (0 if cell.degree() == 0 else 1, len(cell.terms), i)
        if best_key is None or key < best_key:
            best, best_key = i, key
    return best


def _mono_lex_key_cmp(a: Monomial, b: Monomial) -> int:
    """Lexicographic monomial order: lower variables weigh more."""
    da, db = dict(a), dict(b)
    for v in sorted(set(da) | set(db)):
        ea, eb = da.get(v, 0), db.get(v, 0)
        if ea != eb:
            return 1 if ea > eb else -1
    return 0


def _leading(terms: dict[Monomial, int]) -> tuple[Monomial, int]:
    lead = None
    for m in terms:
        if lead is None or _mono_lex_key_cmp(m, lead) > 0:
            lead = m
    assert lead is not None
    return lead, terms[lead]


def divexact(f, g) -> Ring:
    """Exact quotient f / g; raises InternalError when g does not divide f."""
    if g.is_zero():
        raise InternalError("division by the zero polynomial")
    quotient: dict[Monomial, int] = {}
    rem = dict(lift(f).terms)  # reduced in place
    mg, cg = _leading(g.terms)
    dg = dict(mg)
    while rem:
        mf, cf = _leading(rem)
        df = dict(mf)
        if cf % cg != 0 or any(df.get(v, 0) < e for v, e in dg.items()):
            raise InternalError("inexact polynomial division")
        qc = cf // cg
        qm = tuple(sorted((v, e - dg.get(v, 0)) for v, e in df.items() if e != dg.get(v, 0)))
        quotient[qm] = quotient.get(qm, 0) + qc
        for m, c in (Ring({qm: qc}) * g).terms.items():
            left = rem.get(m, 0) - c
            if left:
                rem[m] = left
            else:
                del rem[m]
    return Ring(quotient)


def to_string_fstrings(p) -> str:
    """The renderer's reference: one f-string per factor, no name reuse."""
    if not p.terms:
        return "0"
    pieces = []
    for mono, coeff in sorted(p.terms.items()):
        factors = [f"x[{i},{j}]" + (f"^{e}" if e > 1 else "") for (i, j), e in mono]
        if not factors:
            body = str(abs(coeff))
        else:
            body = "*".join(factors)
            if abs(coeff) != 1:
                body = f"{abs(coeff)}*{body}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def rank_fractions(rows) -> int:
    """Gaussian elimination over Fraction, an independent rank oracle."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    col = 0
    ncols = len(work[0]) if work else 0
    while rank < len(work) and col < ncols:
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
        col += 1
    return rank


def rank_sparse_fractions(rows) -> int:
    """Rank of {column: entry} rows by elimination over Fraction, with each
    pivot row kept monic under its least column; shares no code with
    wsections.linalg."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        work = {c: Fraction(x) for c, x in row.items() if x}
        while work:
            lead = min(work)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = 1 / work[lead]
                pivots[lead] = {c: x * inv for c, x in work.items()}
                break
            f = work[lead]
            for c, x in pivot.items():
                y = work.get(c, 0) - f * x
                if y:
                    work[c] = y
                else:
                    del work[c]
    return len(pivots)


def dict_rows(m) -> list[dict[int, int]]:
    """Dense rows as the {column: entry} dicts rank_int takes, zeros kept."""
    return [dict(enumerate(row)) for row in m]


def random_symbolic_matrix(
    rng: random.Random, size: int, max_vars_per_row: int | None = None
) -> SymbolicMatrix:
    rows = []
    counter = 0
    for r in range(size):
        vars_left = size if max_vars_per_row is None else max_vars_per_row
        row = []
        for c in range(size):
            roll = rng.random()
            if roll < 0.35 and vars_left > 0:
                counter += 1
                row.append((rng.randint(1, 9), 10 + counter))
                vars_left -= 1
            elif roll < 0.6:
                row.append(0)
            else:
                row.append(rng.randint(-4, 4))
        rows.append(tuple(row))
    return SymbolicMatrix(tuple(rows))


# Five large compositions (dim m up to 1350) whose substituted minors reach
# size 22; the benchmark's verify-heavy set.
HEAVY_COMPOSITIONS = (
    (15, 15, 15, 15),
    (10, 10, 10, 10),
    (3,) + (2,) * 8 + (3,),
    (1,) + (2,) * 10 + (1,),
    (2,) + (1,) * 20 + (2,),
)


def compositions_by_recursion(n: int):
    """Compositions of n in lexicographic order: each first part, then every
    composition of the rest.  Recursion depth n, so for small n only."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions_by_recursion(n - first):
            yield (first, *rest)


def compositions_upto(n_max: int):
    from wsections.tableau import compositions

    for n in range(1, n_max + 1):
        yield from compositions(n)


def column_of(t, entry: int) -> int:
    """The column holding an entry, counted off the composition's parts."""
    for v, h in enumerate(t.composition.parts, start=1):
        if entry <= h:
            return v
        entry -= h
    raise InvalidInputError(f"entry outside the tableau of {t.composition}")


def in_nilradical(t, u) -> bool:
    """True iff the column of entry i is strictly left of the column of j."""
    return column_of(t, u.i) < column_of(t, u.j)


def nilradical_by_definition(t):
    """Every matrix unit (i, j) with in_nilradical, testing all n^2 positions."""
    from wsections.tableau import MatrixUnit

    return tuple(
        MatrixUnit(i, j)
        for i in range(1, t.n + 1)
        for j in range(1, t.n + 1)
        if i != j and in_nilradical(t, MatrixUnit(i, j))
    )


def dense_minor_matrix(t, v: int, v_prime: int, s: int) -> SymbolicMatrix:
    """The translated minor between two height-s columns, every cell decided by column_of."""
    lo, hi = t.composition.prefix(v), t.composition.prefix(v_prime)
    body = []
    for a in range(lo + 1, hi + 1):
        row = []
        for b in range(s + lo + 1, s + hi + 1):
            if a == b:
                row.append(1)
            elif column_of(t, a) < column_of(t, b):
                row.append((a, b))
            else:
                row.append(0)
        body.append(tuple(row))
    return SymbolicMatrix(tuple(body))


def dense_specialised_rows(matrix: SymbolicMatrix, ones, kept) -> tuple:
    """Rows of a minor with 1 on the variables in ones, those in kept kept, 0 on
    the others, substituted into all m^2 cells; constants stay."""
    return tuple(
        tuple(
            cell if isinstance(cell, int) or cell in kept else int(cell in ones)
            for cell in row
        )
        for row in matrix.rows
    )


def bracket_with_point(x, point):
    """[x, point] for sparse matrices given as {(a, b): coeff}, unit by unit."""
    out = {}
    for (a, b), ca in x.items():
        for (c, d), cb in point.items():
            coeff = ca * cb
            if b == c:
                out[(a, d)] = out.get((a, d), 0) + coeff
            if d == a:
                out[(c, b)] = out.get((c, b), 0) - coeff
    return {k: v for k, v in out.items() if v}


def algebra_basis(t, group):
    """Basis of p (group "P") or of its derived algebra p' (group "P'")."""
    assert group in ("P", "P'")
    basis = [{u.key: 1} for u in nilradical_by_definition(t)]
    for block in t.columns:
        basis += [{(a, b): 1} for a in block for b in block if a != b]
        if group == "P":
            basis += [{(a, a): 1} for a in block]
        else:
            basis += [{(a, a): 1, (b, b): -1} for a, b in zip(block, block[1:])]
    return basis


def orbit_span_dimension(t, point, group, extra=()):
    """dim of [p, point] + span(extra) in m, bracketing every basis matrix.

    The point is {(i, j): coeff}; the rank is taken by rank_sparse_fractions,
    checked against the dense rank_fractions.
    """
    index = {u.key: pos for pos, u in enumerate(nilradical_by_definition(t))}
    vectors = [bracket_with_point(x, point) for x in algebra_basis(t, group)]
    vectors += list(extra)
    return rank_sparse_fractions([{index[k]: c for k, c in vec.items()} for vec in vectors])


def ungated_zero_lines(ls):
    return tuple(ln for ln in ls.lines if ln.label == 0 and not ln.gated)


def substitute(p, assignment) -> Ring:
    """Exact substitution of integers or variables into p; others persist."""
    out = lift(0)
    for mono, coeff in p.terms.items():
        term = lift(coeff)
        for var, exp in mono:
            for _ in range(exp):
                term = term * _entry(assignment.get(var, var))
        out = out + term
    return out


def backtracking_cover(starts, targets_of):
    """(number of covers, capped at 2, and one cover) by recursive backtracking.

    The reference for construction's matching: every start picks a distinct
    target, tried sparsest start first.
    """
    order = sorted(starts, key=lambda b: (len(targets_of[b]), b))
    used: set[int] = set()
    chosen: dict[int, int] = {}
    found: list[dict[int, int]] = []

    def rec(k: int) -> None:
        if k == len(order):
            found.append(dict(chosen))
            return
        b = order[k]
        for tgt in targets_of[b]:
            if tgt not in used and len(found) < 2:
                used.add(tgt)
                chosen[b] = tgt
                rec(k + 1)
                used.remove(tgt)
                del chosen[b]

    rec(0)
    return len(found), (found[0] if found else {})


def count_section_permutations(ms, sec) -> int:
    """Permutations contributing a nonzero monomial to the restricted minor.

    Brute force over all permutations; only sensible for small sizes.
    """
    allowed = {u.key for u in sec.e} | {u.key for u in sec.v}
    ok = [[c != 0 if isinstance(c, int) else c in allowed for c in row] for row in ms.matrix.rows]
    return sum(all(ok[r][c] for r, c in enumerate(p)) for p in permutations(range(ms.size)))


def count_perfect_matchings(rows) -> int:
    """Perfect matchings of the support (the nonzero cells) of a square matrix.

    A count over the sets of columns the rows taken so far cover, one row at
    a time; no determinant is expanded.
    """
    covers = {0: 1}
    for row in rows:
        nxt: dict[int, int] = {}
        for used, k in covers.items():
            for c, cell in enumerate(row):
                if cell != 0 and not used >> c & 1:
                    nxt[used | 1 << c] = nxt.get(used | 1 << c, 0) + k
        covers = nxt
    return sum(covers.values())


def triangular_unimodular_witness(rows):
    """Row/column pairing making a full-row-rank minor triangular with +-1 diagonal.

    Repeatedly peel a column whose support among the remaining rows is a
    single +-1 entry; backtrack over peeling choices when the greedy order
    stalls.  Returns the (row, column) diagonal in peeling order, or None.
    """
    if not rows:
        return []

    def peel(alive_rows: frozenset[int], alive_cols: frozenset[int]):
        if not alive_rows:
            return []
        for c in alive_cols:
            support = [r for r in alive_rows if rows[r][c] != 0]
            if len(support) == 1 and rows[support[0]][c] in (1, -1):
                rest = peel(alive_rows - {support[0]}, alive_cols - {c})
                if rest is not None:
                    return [(support[0], c)] + rest
        return None

    return peel(frozenset(range(len(rows))), frozenset(range(len(rows[0]))))


def line_weight(t, line: "Line | tuple[int, int]") -> tuple[int, ...]:
    """Sum of consecutive simple roots a_i .. a_{j-1} as a 0/1 vector."""
    i, j = (line.i, line.j) if isinstance(line, Line) else line
    if not (1 <= i < j <= t.n):
        raise InvalidInputError(f"line ({i}, {j}) outside the tableau")
    return tuple(1 if i <= k <= j - 1 else 0 for k in range(1, t.n))


def coroot_pairing(w: tuple[int, ...], k: int) -> int:
    """Evaluate a weight on the k-th simple coroot (type-A Cartan pairing)."""
    n1 = len(w)
    left = w[k - 2] if k >= 2 else 0
    right = w[k] if k < n1 else 0
    return 2 * w[k - 1] - left - right


def weight_inner(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Cartan inner product of two line weights via their endpoints."""
    (i, j), (k, l) = a, b
    return (i == k) - (i == l) - (j == k) + (j == l)


def root_system_type(ls) -> tuple[int, ...]:
    """Ranks of the type-A components spanned by the horizontal line weights.

    Row u with m boxes contributes a component of rank m - 1.  The claimed
    block structure is re-derived from the Cartan gram matrix and an exact
    independence check before being returned.
    """
    assert ls.step == 2
    t = ls.tableau
    lines = ls.lines
    for a in range(len(lines)):
        for b in range(a + 1, len(lines)):
            la, lb = lines[a], lines[b]
            shares = len({la.i, la.j} & {lb.i, lb.j})
            assert weight_inner(la.key, lb.key) == (-1 if shares == 1 else 0)
    weights = [line_weight(t, ln) for ln in lines]
    assert rank_fractions(weights) == len(weights)
    rows = (len(t.row_entries(u)) for u in range(1, t.height + 1))
    return tuple(sorted((m - 1 for m in rows if m >= 2), reverse=True))
