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
from wsections.invariants import build_minor
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


def merging_matrices() -> list[SymbolicMatrix]:
    """Seeded sparse matrices of sizes 2 to 7 whose rows hold several
    constants and draw their variables from a pool of three, so that
    permutations share monomials: full mode's leaves merge, add up, cancel
    and raise powers."""
    rng = random.Random(31337)
    pool = [(1, 2), (1, 3), (2, 3)]
    out = []
    for _ in range(150):
        size = rng.randint(2, 7)
        rows = []
        for _ in range(size):
            row: list = [0] * size
            for c in rng.sample(range(size), rng.randint(2, min(size, 4))):
                row[c] = rng.choice(pool) if rng.random() < 0.4 else rng.choice((-2, -1, 1, 1, 2, 3))
            rows.append(tuple(row))
        out.append(SymbolicMatrix(tuple(rows)))
    return out


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


class TestArithmetic:
    def test_zero_and_const(self):
        assert Polynomial().is_zero() and Polynomial() == 0
        assert lift(0).is_zero()
        assert lift(5) == 5 and Polynomial({(): 5}) == 5
        assert X(1, 2) - X(1, 2) == 0

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
        p = 1 + X(1, 2) + X(1, 2) * X(2, 3)
        assert p.top_term() == X(1, 2) * X(2, 3)
        cubic = X(3, 4) * X(4, 5) * X(4, 5) - X(1, 5) * X(5, 6) * X(6, 7)
        assert (X(1, 2) * X(2, 3) + 2 - X(3, 4) + cubic).top_term() == cubic
        assert lift(5).top_term() == 5

    def test_zero_rejected(self):
        with pytest.raises(UndefinedGradingError):
            Polynomial().top_term()

    def test_degrees(self):
        assert Polynomial().degree() == -1
        assert lift(7).degree() == 0
        assert (X(1, 2) * X(1, 2) + X(3, 4)).degree() == 2


class TestToString:
    def test_golden(self):
        p = X(2, 4) * X(3, 5) - X(2, 5) * X(3, 4)
        assert p.to_string() == "x[2,4]*x[3,5] - x[2,5]*x[3,4]"
        assert Polynomial().to_string() == "0"
        assert (-3 * X(1, 2) * X(1, 2)).to_string() == "-3*x[1,2]^2"

    def test_deterministic(self):
        p = X(1, 5) + X(1, 4) + X(2, 3) - 7
        assert p.to_string() == Polynomial(dict(reversed(p.sorted_terms()))).to_string()

    @given(polynomials(max_terms=6, max_vars=4, max_exp=3, max_coeff=9))
    @settings(max_examples=200)
    def test_matches_fstring_oracle(self, p):
        assert p.to_string() == to_string_fstrings(p)


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
            assert det(m) == 1

    def test_singular(self):
        m = SymbolicMatrix((((1, 2), (1, 2)), ((1, 2), (1, 2))))
        assert det(m) == 0

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
        assert det(m) == 1

    def test_large_sparse_matrices_match_fraction_free(self):
        # Sizes the permutation oracle cannot reach: every row holds its
        # diagonal entry and at most two more nonzeros.
        rng = random.Random(1313)
        for _ in range(20):
            m = sparse_symbolic_matrix(rng, rng.randint(13, 18))
            assert det(m) == det_fraction_free(m)

    def test_repeated_variables_stay_exact(self):
        v = (1, 2)
        m = SymbolicMatrix(((v, 1, 0), (0, v, 1), (1, 0, v)))
        assert det(m) == X(1, 2) * X(1, 2) * X(1, 2) + 1
        assert det(m) == det_permutation_expansion(m)
        x, y = v, (3, 4)
        diagonal = SymbolicMatrix(((x, 0, 0, 0), (0, y, 0, 0), (0, 0, x, 0), (0, 0, 0, x)))
        assert det(diagonal).terms == {((x, 3), (y, 1)): 1}
        squares = SymbolicMatrix(((x, y), (-1, x)))
        assert det(squares).terms == {((x, 2),): 1, ((y, 1),): 1}
        assert det(squares).to_string() == "x[1,2]^2 + x[3,4]"

    def test_leaves_that_cancel_or_add_up(self):
        x, y = (1, 2), (3, 4)
        for rows, expected in (
            (((1, 1), (1, 1)), lift(0)),
            (((1, -1), (1, 1)), lift(2)),
            (((x, y), (x, y)), lift(0)),
            (((x, x), (-1, 1)), 2 * X(1, 2)),
            (((x, 2), (3, x)), X(1, 2) * X(1, 2) - 6),
            (((x, y, 0), (0, x, y), (y, 0, x)), X(1, 2) * X(1, 2) * X(1, 2) + X(3, 4) * X(3, 4) * X(3, 4)),
            (((x, 1, 1), (1, x, 1), (1, 1, x)), lift(2) + X(1, 2) * X(1, 2) * X(1, 2) - 3 * X(1, 2)),
            (((1, 1, 0), (1, 1, 0), (0, 0, x)), lift(0)),
        ):
            m = SymbolicMatrix(rows)
            assert count_perfect_matchings(rows) >= 2
            assert det(m) == expected == det_permutation_expansion(m)

    def test_merging_leaves_match_permutation_expansion(self):
        merged = cancelled = powers = 0
        for m in merging_matrices():
            got = det(m)
            assert got == det_permutation_expansion(m)
            assert all(c != 0 for c in got.terms.values())
            merged += len(got.terms) < count_perfect_matchings(m.rows)
            cancelled += got.is_zero() and count_perfect_matchings(m.rows) > 0
            powers += any(e > 1 for mono in got.terms for _, e in mono)
        assert merged > 20 and cancelled > 0 and powers > 20

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
            assert list(p.terms.items()) == p.sorted_terms()

    def test_top_mode_degree_and_top_term_match_a_fresh_value(self):
        # A top-mode value renders and grades from its variable numbers; only
        # reading terms builds the monomial dict.
        for p in top_values():
            text, degree, zero = p.to_string(), p.degree(), p.is_zero()
            top = None if zero else p.top_term()
            assert p._terms is None  # no read above built the monomial dict
            fresh = Polynomial(p.terms)
            assert text == to_string_fstrings(fresh)
            assert p.terms == fresh.terms
            assert p.sorted_terms() == fresh.sorted_terms()
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
            assert p.to_string() == text == to_string_fstrings(Polynomial(p.terms))

    def test_top_mode_without_perfect_matching_is_zero(self):
        empty_column = SymbolicMatrix((((1, 1), 0), ((2, 1), 0)))
        shared_column = SymbolicMatrix((((1, 1), 0, 0), ((2, 1), 0, 0), (3, (3, 2), (3, 3))))
        for m in (empty_column, shared_column):
            p = det(m, top=True)
            assert p.is_zero() and p.degree() == -1 and p.to_string() == "0"
            with pytest.raises(UndefinedGradingError):
                p.top_term()
            assert p.terms == {} and p == 0

    def test_top_mode_rejects_shared_monomials(self):
        repeated = SymbolicMatrix((((1, 2), 0), (0, (1, 2))))
        two_constants = SymbolicMatrix(((1, 1), ((2, 1), (2, 2))))
        for m in (repeated, two_constants):
            with pytest.raises(InternalError):
                det(m, top=True)
            det(m)

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
