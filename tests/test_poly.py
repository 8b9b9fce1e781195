import gc
import random
import time

from hypothesis import given, settings, strategies as st
import pytest

from helpers import (
    Ring,
    X,
    compositions_upto,
    count_perfect_matchings,
    det_fraction_free,
    det_permutation_expansion,
    divexact,
    lift,
    random_symbolic_matrix,
    substitute,
    to_string_fstrings,
)
from wsections.errors import (
    InternalError,
    InvalidInputError,
    ResourceLimitError,
    UndefinedGradingError,
)
from wsections.construction import extract_section, step1, step2, step3
from wsections.invariants import build_minor, restrict_to_E, restrict_to_section
from wsections.poly import Polynomial, SymbolicMatrix, det
from wsections.tableau import Composition, Tableau


def sparse_symbolic_matrix(rng: random.Random, size: int) -> SymbolicMatrix:
    """Diagonal entries plus at most two off-diagonal nonzeros per row."""
    rows = []
    for r in range(size):
        row: list = [0] * size
        for c in [r] + rng.sample(range(size), 2):
            roll = rng.random()
            row[c] = (r + 1, size + c + 1) if roll < 0.3 else rng.choice((-3, -2, -1, 1, 2, 3))
        rows.append(tuple(row))
    return SymbolicMatrix(tuple(rows))


def small_guarded_matrices() -> list[SymbolicMatrix]:
    """300 seeded matrices of sizes 1 to 6 that top mode accepts: distinct
    variables and at most one nonzero constant per row, so no two
    permutations share a monomial."""
    rng = random.Random(2718)
    out = []
    for _ in range(300):
        size = rng.randint(1, 6)
        rows = []
        for r in range(size):
            row: list = [0] * size
            cols = rng.sample(range(size), rng.randint(1, size))
            for k, c in enumerate(cols):
                constant = k == 0 and rng.random() < 0.5
                row[c] = rng.choice((-2, -1, 1, 3)) if constant else (r + 1, c + 1)
            rows.append(tuple(row))
        out.append(SymbolicMatrix(tuple(rows)))
    return out


LARGE_GUARDED_SIZES = [7] * 24 + [8] * 10 + [9] * 4


def large_guarded_matrices() -> list[SymbolicMatrix]:
    """Seeded guarded matrices of sizes 7 to 9.  Variable names are drawn at
    random, so a variable's first index is not its row and a leaf must sort
    its variables; constants include negative and non-unit ones; a third of
    the matrices give two rows the same single column, so no permutation
    survives and det is 0."""
    rng = random.Random(7919)
    names = [(i, j) for i in range(1, 30) for j in range(1, 30)]
    out = []
    for size in LARGE_GUARDED_SIZES:
        pool = rng.sample(names, size * size)
        rows = []
        for _ in range(size):
            row: list = [0] * size
            for k, c in enumerate(rng.sample(range(size), rng.randint(2, 4))):
                constant = k == 0 and rng.random() < 0.6
                row[c] = rng.choice((-3, -2, -1, 1, 2, 5)) if constant else pool.pop()
            rows.append(row)
        if rng.random() < 1 / 3:
            a, b = rng.sample(range(size), 2)
            c = rng.randrange(size)
            rows[a], rows[b] = [0] * size, [0] * size
            rows[a][c], rows[b][c] = pool.pop(), pool.pop()
        out.append(SymbolicMatrix(tuple(map(tuple, rows))))
    return out


def row_monotone_matrices() -> list[tuple[SymbolicMatrix, str]]:
    """Seeded guarded matrices of sizes 1 to 8, each with where its rows put
    their constant.  Read row by row from the left, the variables are
    sorted, as in a generic minor, so top mode's walk emits its leaves in
    order; the variables' first index is not the row.  A row's constant
    lies left of, right of or between its variables ("left", "right",
    "between"), one in seven rows is zero ("zero"), and a fifth of the
    matrices give two rows the same single column ("unmatched"), so no
    permutation survives."""
    rng = random.Random(6173)
    out = []
    for _ in range(240):
        size = rng.randint(1, 8)
        kinds, rows = set(), []
        for _ in range(size):
            row: list = [0] * size  # None marks a variable, named below
            if rng.random() < 1 / 7:
                kinds.add("zero")
                rows.append(row)
                continue
            cols = sorted(rng.sample(range(size), rng.randint(1, min(size, 4))))
            if rng.random() < 0.6:
                k = rng.randrange(len(cols))
                if len(cols) > 1:
                    kinds.add("left" if k == 0 else "right" if k == len(cols) - 1 else "between")
                row[cols.pop(k)] = rng.choice((-3, -2, -1, 1, 2, 5))
            for c in cols:
                row[c] = None
            rows.append(row)
        if size > 1 and rng.random() < 1 / 5:
            kinds.add("unmatched")
            a, b = rng.sample(range(size), 2)
            c = rng.randrange(size)
            rows[a], rows[b] = [0] * size, [0] * size
            rows[a][c] = rows[b][c] = None
        name = 0
        for row in rows:
            for c, cell in enumerate(row):
                if cell is None:
                    name += rng.randint(1, 3)
                    row[c] = divmod(name, 7)
        out.append((SymbolicMatrix(tuple(map(tuple, rows))), ",".join(sorted(kinds))))
    return out


def merging_matrices() -> list[SymbolicMatrix]:
    """Seeded sparse matrices of sizes 2 to 7 whose rows hold several
    constants, with distinct variables drawn at random, so that permutations
    through the constants share monomials: full mode's leaves merge, add up
    and cancel."""
    rng = random.Random(31337)
    names = [(i, j) for i in range(1, 8) for j in range(1, 8)]
    out = []
    for _ in range(150):
        size = rng.randint(2, 7)
        pool = rng.sample(names, size * size)
        rows = []
        for _ in range(size):
            row: list = [0] * size
            for c in rng.sample(range(size), rng.randint(2, min(size, 4))):
                row[c] = pool.pop() if rng.random() < 0.4 else rng.choice((-2, -1, 1, 1, 2, 3))
            rows.append(tuple(row))
        out.append(SymbolicMatrix(tuple(rows)))
    return out


@st.composite
def distinct_variable_matrices(draw, max_size=6):
    """Matrices of sizes 1 to max_size whose variables are distinct and named
    apart from their rows, with zeros and several constants per row."""
    size = draw(st.integers(1, max_size))
    names = draw(st.permutations([(i, j) for i in range(1, 7) for j in range(1, 7)]))
    cells = draw(st.lists(st.integers(-3, 7), min_size=size * size, max_size=size * size))
    # 4 to 7 stand for a variable, -3 to 3 for that constant.
    flat = [names[k] if x > 3 else x for k, x in enumerate(cells)]
    return SymbolicMatrix(tuple(tuple(flat[r * size:(r + 1) * size]) for r in range(size)))


def det_of(*rows) -> "Polynomial":
    return det(SymbolicMatrix(rows))


@st.composite
def polynomials(draw, max_terms=4, max_vars=3, max_exp=2, max_coeff=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = {}
        for _ in range(draw(st.integers(0, max_vars))):
            var = (draw(st.integers(1, 3)), draw(st.integers(4, 6)))
            mono[var] = draw(st.integers(1, max_exp))
        key = tuple(sorted(mono.items()))
        terms[key] = draw(st.integers(-max_coeff, max_coeff))
    return Ring(terms)


def top_values():
    """det's top mode on every generic minor with n <= 8 and on the seeded
    guarded matrices."""
    for parts in compositions_upto(8):
        t = Tableau(Composition(parts))
        for pair in t.neighboring_pairs:
            yield det(build_minor(t, pair).matrix, top=True)
    for m in [*small_guarded_matrices(), *large_guarded_matrices()]:
        yield det(m, top=True)


def full_values():
    """det's full mode on every restriction and nilfibre minor with n <= 8,
    specialised on the step-3 section."""
    for parts in compositions_upto(8):
        t = Tableau(Composition(parts))
        sec = extract_section(step3(step2(step1(t))))
        for pair in t.neighboring_pairs:
            ms = build_minor(t, pair)
            yield restrict_to_section(ms, sec)
            yield restrict_to_E(ms, sec)


class TestArithmetic:
    def test_zero_and_const(self):
        assert det_of((0,)).is_zero() and det_of((0,)).terms == {}
        assert lift(0).is_zero()
        assert lift(5) == 5 and det_of((5,)).terms == {(): 5}
        assert X(1, 2) - X(1, 2) == 0

    def test_values_compare_and_hash_by_identity(self):
        # A det value has no __eq__: equal readings are compared by terms.
        p, q = det_of(((1, 2),)), det_of(((1, 2),))
        assert p.terms == q.terms and p != q and p == p
        assert len({p, q, p}) == 2

    @given(polynomials(), polynomials(), polynomials())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polynomials())
    def test_additive_inverse(self, a):
        assert (a + (-a)).is_zero()

    def test_scalar_ops(self):
        p = 2 * X(1, 2) + 3
        assert p - 3 == 2 * X(1, 2)
        assert p * 0 == 0


class TestSubstitute:
    def test_to_one(self):
        p = X(3, 4) * X(2, 6)
        assert substitute(p, {(3, 4): 1}) == X(2, 6)

    def test_to_zero(self):
        p = X(2, 4) * X(3, 5) - X(2, 5) * X(3, 4)
        assert substitute(p, {(2, 5): 0, (3, 4): 0}) == X(2, 4) * X(3, 5)

    def test_variable_renaming_merges_exponents(self):
        p = X(1, 2) * X(3, 4)
        q = substitute(p, {(3, 4): (1, 2)})
        assert q == X(1, 2) * X(1, 2)

    def test_unassigned_variables_persist(self):
        p = X(1, 2) + X(3, 4)
        assert substitute(p, {(1, 2): 2}) == X(3, 4) + 2

    @given(polynomials(), st.integers(0, 3), st.integers(0, 3))
    def test_disjoint_composition_commutes(self, p, a, b):
        s1 = {(1, 4): a}
        s2 = {(2, 5): b}
        assert substitute(substitute(p, s1), s2) == substitute(substitute(p, s2), s1)

    def test_cubic_collapses_to_single_coordinate(self):
        cubic = (
            X(1, 2) * X(2, 4) * X(4, 6)
            + X(1, 3) * X(3, 4) * X(4, 6)
            + X(1, 2) * X(2, 5) * X(5, 6)
            + X(1, 3) * X(3, 5) * X(5, 6)
        )
        on_e = {(1, 2): 1, (2, 4): 1}
        off = {(1, 3): 0, (3, 4): 0, (2, 5): 0, (5, 6): 0}
        assert substitute(substitute(cubic, on_e), off) == X(4, 6)


class TestTopTerm:
    def test_golden(self):
        x, y, z, w = (1, 2), (2, 3), (3, 4), (4, 5)
        p = det_of((x, -1), (1, y))
        assert p == 1 + X(1, 2) * X(2, 3) and p.top_term() == X(1, 2) * X(2, 3)
        continuant = det_of((x, -1, 0), (1, y, -1), (0, 1, z))
        assert continuant == X(1, 2) * X(2, 3) * X(3, 4) + X(1, 2) + X(3, 4)
        assert continuant.top_term() == X(1, 2) * X(2, 3) * X(3, 4)
        quadratic = X(1, 2) * X(3, 4) - X(2, 3) * X(4, 5)
        assert det_of((x, y, 0), (w, z, -1), (0, 1, 1)) == quadratic + X(1, 2)
        assert det_of((x, y, 0), (w, z, -1), (0, 1, 1)).top_term() == quadratic
        assert det_of((5,)).top_term().terms == {(): 5}

    def test_zero_rejected(self):
        with pytest.raises(UndefinedGradingError):
            det_of((0,)).top_term()

    def test_degrees(self):
        assert det_of((0,)).degree() == -1
        assert det_of((7,)).degree() == 0
        p = det_of(((1, 2), 1), (-1, (3, 4)))
        assert p.degree() == 2 and p.top_term().degree() == 2

    @given(distinct_variable_matrices())
    @settings(max_examples=150, deadline=None)
    def test_readings_match_an_oracle_over_det_values(self, m):
        # Full mode against permutation expansion, and the numbered form's
        # readings against ones computed from the oracle's terms.
        p, oracle = det(m), det_permutation_expansion(m)
        assert p == oracle and oracle == p
        assert all(e == 1 for mono in oracle.terms for _, e in mono)
        assert list(p.terms.items()) == sorted(oracle.terms.items())
        assert p.is_zero() == oracle.is_zero()
        assert p.degree() == oracle.degree()
        assert p.to_string() == to_string_fstrings(oracle)
        if oracle.is_zero():
            with pytest.raises(UndefinedGradingError):
                p.top_term()
            return
        top = p.top_term()
        assert top == oracle.top_term() and top.degree() == oracle.degree()
        assert list(top.terms.items()) == sorted(oracle.top_term().terms.items())
        assert top.to_string() == to_string_fstrings(oracle.top_term())
        if all(sum(x.__class__ is int and x != 0 for x in row) <= 1 for row in m.rows):
            assert det(m, top=True) == oracle.top_term()


class TestToString:
    def test_golden(self):
        p = det_of(((2, 4), (2, 5)), ((3, 4), (3, 5)))
        assert p.to_string() == "x[2,4]*x[3,5] - x[2,5]*x[3,4]"
        assert det_of((0,)).to_string() == "0"
        assert det_of((0, (1, 2), 0), ((3, 4), 0, 0), (0, 0, 3)).to_string() == "-3*x[1,2]*x[3,4]"

    def test_deterministic(self):
        # A matrix and its transpose have one value, whose string does not
        # depend on the order the walk met its terms in.
        for m in merging_matrices():
            transpose = SymbolicMatrix(tuple(zip(*m.rows)))
            assert det(m).to_string() == det(transpose).to_string()

    @given(distinct_variable_matrices())
    @settings(max_examples=100, deadline=None)
    def test_matches_fstring_oracle(self, m):
        p = det(m)
        assert p.to_string() == to_string_fstrings(p)
        if not p.is_zero():
            assert p.top_term().to_string() == to_string_fstrings(p.top_term())


class TestSymbolicMatrix:
    @pytest.mark.parametrize(
        "rows",
        [
            ((1.5,),),
            (("ab",),),
            (((1, 2, 3),),),
            (((1.0, 2.0),),),
            ((True,),),
            (((True, 2),),),
            (((1,),),),
            ((1, 0), (0, (2, "3"))),
            ((1, 2), (3,)),
            (),
            (5,),
        ],
    )
    def test_malformed_rejected(self, rows):
        with pytest.raises(InvalidInputError):
            SymbolicMatrix(rows)

    def test_cells_are_checked_not_rebuilt(self):
        rows = (((1, 2), 0), (1, (2, 3)))
        m = SymbolicMatrix(rows)
        assert m.rows == rows and all(a is b for a, b in zip(m.rows, rows))
        assert SymbolicMatrix([[(1, 2), 0], [1, (2, 3)]]).rows == rows


class TestDet:
    def test_cofactor_2x2(self):
        m = SymbolicMatrix((((1, 2), (1, 3)), ((2, 2), (2, 3))))
        assert det(m) == X(1, 2) * X(2, 3) - X(1, 3) * X(2, 2)

    def test_identity(self):
        for size in (1, 2, 5):
            m = SymbolicMatrix(
                tuple(tuple(1 if r == c else 0 for c in range(size)) for r in range(size))
            )
            assert det(m).terms == {(): 1}

    def test_singular(self):
        # A repeated variable is rejected, so singular matrices with
        # variables are singular by their support or their constants.
        with pytest.raises(InvalidInputError):
            det(SymbolicMatrix((((1, 2), (1, 2)), ((1, 2), (1, 2)))))
        assert det_of((1, 2), (2, 4)).terms == {}
        assert det_of(((1, 2), 0), ((2, 1), 0)).terms == {}
        assert det_of(((1, 2), 1, 2), ((1, 3), 2, 4), ((1, 4), 3, 6)).terms == {}

    def test_matches_permutation_expansion_randomized(self):
        rng = random.Random(90125)
        for _ in range(1000):
            size = rng.randint(1, 5)
            m = random_symbolic_matrix(rng, size, max_vars_per_row=2)
            assert det(m) == det_permutation_expansion(m)

    def test_block_triangular_multiplicative(self):
        a = SymbolicMatrix((((1, 2), 2), (3, (3, 4))))
        d = SymbolicMatrix((((5, 6), 1), (0, (7, 8))))
        block = SymbolicMatrix(
            (
                ((1, 2), 2, (9, 1), -3),
                (3, (3, 4), 0, (9, 2)),
                (0, 0, (5, 6), 1),
                (0, 0, 0, (7, 8)),
            )
        )
        assert det(block) == lift(det(a)) * det(d)

    def test_fraction_free_agrees_with_expansion(self):
        rng = random.Random(5150)
        for _ in range(60):
            size = rng.randint(2, 6)
            m = random_symbolic_matrix(rng, size, max_vars_per_row=2)
            assert det_fraction_free(m) == det(m)

    def test_large_sparse_constant_matrix(self):
        size = 14
        rows = [[0] * size for _ in range(size)]
        for k in range(size):
            rows[k][k] = 1
        rows[0][size - 1] = (1, size)
        rows[3][7] = (4, 8)
        m = SymbolicMatrix(tuple(tuple(r) for r in rows))
        assert det(m).terms == {(): 1}

    def test_large_sparse_matrices_match_fraction_free(self):
        # Sizes the permutation oracle cannot reach: every row holds its
        # diagonal entry and at most two more nonzeros.
        rng = random.Random(1313)
        for _ in range(20):
            m = sparse_symbolic_matrix(rng, rng.randint(13, 18))
            assert det(m) == det_fraction_free(m)

    def test_repeated_variables_rejected(self):
        # Every value is squarefree: a variable may sit in one cell only.
        x, y = (1, 2), (3, 4)
        for rows in (
            ((x, 1, 0), (0, x, 1), (1, 0, x)),
            ((x, 0, 0, 0), (0, y, 0, 0), (0, 0, x, 0), (0, 0, 0, x)),
            ((x, y), (-1, x)),
            ((x, 0), (0, x)),
        ):
            for top in (False, True):
                with pytest.raises(InvalidInputError, match="repeats"):
                    det(SymbolicMatrix(rows), top=top)

    def test_leaves_that_cancel_or_add_up(self):
        x, y, z, w = (1, 2), (3, 4), (5, 6), (7, 8)
        for rows, expected in (
            (((1, 1), (1, 1)), lift(0)),
            (((1, -1), (1, 1)), lift(2)),
            (((x, 1, 1), (y, 1, 1), (z, 1, 1)), lift(0)),
            (((x, 1, 1), (0, 1, -1), (0, 1, 1)), 2 * X(1, 2)),
            (((x, 2), (3, y)), X(1, 2) * X(3, 4) - 6),
            (((x, y, 0), (0, z, w), (1, 0, 1)), X(1, 2) * X(5, 6) + X(3, 4) * X(7, 8)),
            (((x, 1, 1), (1, y, 1), (1, 1, z)), lift(2) + X(1, 2) * X(3, 4) * X(5, 6) - X(1, 2) - X(3, 4) - X(5, 6)),
            (((1, 1, 0), (1, 1, 0), (0, 0, x)), lift(0)),
        ):
            m = SymbolicMatrix(rows)
            assert count_perfect_matchings(rows) >= 2
            assert det(m) == expected == det_permutation_expansion(m)

    def test_merging_leaves_match_permutation_expansion(self):
        merged = cancelled = 0
        for m in merging_matrices():
            got = det(m)
            assert got == det_permutation_expansion(m)
            assert all(c != 0 for c in got.terms.values())
            merged += len(got.terms) < count_perfect_matchings(m.rows)
            cancelled += got.is_zero() and count_perfect_matchings(m.rows) > 0
        assert merged > 20 and cancelled > 0

    def test_dense_integer_matrix_of_size_10_exceeds_memo_budget(self):
        # Full mode counts permutations: the 10! completions of this
        # Vandermonde matrix are past the budget, though its determinant is
        # one constant.
        rows = tuple(tuple((r + 1) ** c for c in range(10)) for r in range(10))
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            det(SymbolicMatrix(rows))
        assert time.perf_counter() - start < 5

    def test_top_mode_matches_permutation_expansion(self):
        for m in small_guarded_matrices():
            full = det_permutation_expansion(m)
            assert det(m, top=True) == (full if full.is_zero() else full.top_term())

    def test_top_mode_matches_permutation_expansion_sizes_7_to_9(self):
        zeros = 0
        for m in large_guarded_matrices():
            full = det_permutation_expansion(m)
            zeros += full.is_zero()
            assert det(m, top=True) == (full if full.is_zero() else full.top_term())
        assert 0 < zeros < len(LARGE_GUARDED_SIZES)

    def test_top_mode_terms_come_sorted(self):
        for m in [*small_guarded_matrices(), *large_guarded_matrices()]:
            p = det(m, top=True)
            assert list(p.terms.items()) == sorted(p.terms.items())

    def test_top_mode_sorted_walk_matches_permutation_expansion(self):
        # Matrices whose variables follow their rows take top mode's sorted
        # walk: each value's terms, order and string match the oracle's.
        seen = {"left": 0, "right": 0, "between": 0, "zero": 0, "unmatched": 0, "nonzero": 0}
        for m, kind in row_monotone_matrices():
            variables = [cell for row in m.rows for cell in row if isinstance(cell, tuple)]
            assert variables == sorted(variables)
            full = det_permutation_expansion(m)
            expected = full if full.is_zero() else full.top_term()
            p = det(m, top=True)
            assert p == expected
            assert list(p.terms.items()) == sorted(expected.terms.items())
            assert p.to_string() == to_string_fstrings(expected)
            for name in kind.split(",") if kind else ():
                seen[name] += 1
            seen["nonzero"] += not p.is_zero()
        assert min(seen.values()) >= 10, seen

    def test_top_mode_degree_and_top_term_match_a_fresh_value(self):
        # A value of either mode renders and grades from its numbered form;
        # only reading terms builds the monomial dict.
        for p in [*top_values(), *full_values()]:
            text, degree, zero = p.to_string(), p.degree(), p.is_zero()
            top = None if zero else p.top_term()
            assert p._terms is None  # no read above built the monomial dict
            fresh = Ring(p.terms)
            assert text == to_string_fstrings(fresh)
            assert p.terms == fresh.terms
            assert list(p.terms.items()) == sorted(fresh.terms.items())
            assert (degree, zero) == (fresh.degree(), fresh.is_zero())
            assert p == fresh and fresh == p
            if zero:
                with pytest.raises(UndefinedGradingError):
                    p.top_term()
            else:
                assert top == fresh.top_term()

    def test_top_mode_renders_constants_and_coefficients(self):
        for rows, text in (
            (((2,),), "2"),
            (((0, 1), (1, 0)), "-1"),
            (((0, -3), (1, 0)), "3"),
            (((2, (1, 2)), (0, (2, 2))), "2*x[2,2]"),
            (((0, (1, 2)), (-1, (2, 2))), "x[1,2]"),
        ):
            p = det(SymbolicMatrix(rows), top=True)
            assert p.to_string() == text == to_string_fstrings(Ring(p.terms))

    def test_top_mode_without_perfect_matching_is_zero(self):
        empty_column = SymbolicMatrix((((1, 1), 0), ((2, 1), 0)))
        shared_column = SymbolicMatrix((((1, 1), 0, 0), ((2, 1), 0, 0), (3, (3, 2), (3, 3))))
        for m in (empty_column, shared_column):
            p = det(m, top=True)
            assert p.is_zero() and p.degree() == -1 and p.to_string() == "0"
            with pytest.raises(UndefinedGradingError):
                p.top_term()
            assert p.terms == {}

    def test_top_mode_rejects_shared_monomials(self):
        # A repeated variable is invalid input in either mode; two constants
        # in a row are fine in full mode only.
        repeated = SymbolicMatrix((((1, 2), 0), (0, (1, 2))))
        two_constants = SymbolicMatrix(((1, 1), ((2, 1), (2, 2))))
        for top in (False, True):
            with pytest.raises(InvalidInputError):
                det(repeated, top=top)
        with pytest.raises(InvalidInputError):
            det(two_constants, top=True)
        assert det(two_constants) == X(2, 2) - X(2, 1)

    def test_values_come_only_from_det(self):
        for args in ((), ({},), ({(): 5},)):
            with pytest.raises(TypeError):
                Polynomial(*args)

    def test_dense_matrix_exceeds_memo_budget(self):
        size = 12
        m = SymbolicMatrix(
            tuple(tuple((r + 1, size + c + 1) for c in range(size)) for r in range(size))
        )
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            det(m)
        assert time.perf_counter() - start < 30

    def test_expansion_leaves_no_cyclic_garbage(self):
        # The expansion's memo must be freed when det returns, not whenever
        # the cyclic collector next runs.
        m = random_symbolic_matrix(random.Random(4242), 6, max_vars_per_row=3)
        gc.collect()
        gc.disable()
        try:
            det(m)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDivexact:
    @given(polynomials(), polynomials())
    @settings(max_examples=60)
    def test_roundtrip(self, f, g):
        if g.is_zero():
            return
        assert divexact(f * g, g) == f

    def test_inexact_rejected(self):
        with pytest.raises(InternalError):
            divexact(X(1, 2), X(3, 4))
        with pytest.raises(InternalError):
            divexact(lift(3), lift(2))
