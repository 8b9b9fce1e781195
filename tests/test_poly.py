import gc
import random
import time

from hypothesis import given, settings, strategies as st
import pytest

from helpers import (
    X,
    det_fraction_free,
    det_permutation_expansion,
    divexact,
    random_symbolic_matrix,
    substitute,
)
from wsections.errors import InternalError, ResourceLimitError, UndefinedGradingError
from wsections.poly import Polynomial, SymbolicMatrix, det


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
    return Polynomial(terms)


class TestArithmetic:
    def test_zero_and_const(self):
        assert Polynomial.zero().is_zero()
        assert Polynomial.const(0).is_zero()
        assert Polynomial.const(5) == 5
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
        assert Polynomial.const(5).top_term() == 5

    def test_zero_rejected(self):
        with pytest.raises(UndefinedGradingError):
            Polynomial.zero().top_term()

    def test_degrees(self):
        assert Polynomial.zero().degree() == -1
        assert Polynomial.const(7).degree() == 0
        assert (X(1, 2) * X(1, 2) + X(3, 4)).degree() == 2


class TestToString:
    def test_golden(self):
        p = X(2, 4) * X(3, 5) - X(2, 5) * X(3, 4)
        assert p.to_string() == "x[2,4]*x[3,5] - x[2,5]*x[3,4]"
        assert Polynomial.zero().to_string() == "0"
        assert (-3 * X(1, 2) * X(1, 2)).to_string() == "-3*x[1,2]^2"

    def test_deterministic(self):
        p = X(1, 5) + X(1, 4) + X(2, 3) - 7
        assert p.to_string() == Polynomial(dict(reversed(p.sorted_terms()))).to_string()


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
        assert det(block) == det(a) * det(d)

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

    def test_top_mode_matches_permutation_expansion(self):
        # Distinct variables and at most one nonzero constant per row, so
        # no two permutations share a monomial.
        rng = random.Random(2718)
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
            m = SymbolicMatrix(tuple(rows))
            full = det_permutation_expansion(m)
            assert det(m, top=True) == (full.top_term() if full else full)

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
            divexact(Polynomial.const(3), Polynomial.const(2))
