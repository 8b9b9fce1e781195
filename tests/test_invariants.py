import pytest

from helpers import (
    HEAVY_COMPOSITIONS,
    X,
    compositions_upto,
    count_section_permutations,
    det_fraction_free,
    det_permutation_expansion,
    substitute,
)
from wsections import invariants
from wsections.construction import Section, extract_section, step1, step2, step3
from wsections.errors import (
    InvalidInputError,
    NilfibreViolationError,
    ResourceLimitError,
    SectionDefectError,
)
from wsections.invariants import (
    build_minor,
    det_size_bound,
    generic_invariant,
    restrict_to_E,
    restrict_to_section,
    section_coordinate,
)
from wsections.poly import det
from wsections.tableau import (
    Composition,
    MatrixUnit,
    NeighborPair,
    bs_degree,
    build_tableau,
    neighboring_pairs,
)


def T(*parts):
    return build_tableau(Composition(tuple(parts)))


def section_of(t):
    return extract_section(step3(step2(step1(t))))


def plus_minus(p, q):
    return p == q or p == -q


class TestBuildMinor:
    def test_inner_pair_2112_is_1x1(self):
        ms = build_minor(T(2, 1, 1, 2), NeighborPair(2, 3, 1))
        assert ms.size == 1 and ms.degree == 1 and ms.translated == ()
        assert det(ms.matrix) == X(3, 4)

    def test_quadratic_pair_1221(self):
        ms = build_minor(T(1, 2, 2, 1), NeighborPair(2, 3, 2))
        assert ms.matrix.rows == (((2, 4), (2, 5)), ((3, 4), (3, 5)))
        assert ms.translated == ()

    def test_outer_pair_2112(self):
        ms = build_minor(T(2, 1, 1, 2), NeighborPair(1, 4, 2))
        assert ms.size == 4 and ms.degree == 4 and ms.translated == ()
        assert ms.rows == (1, 2, 3, 4) and ms.cols == (3, 4, 5, 6)

    def test_translated_diagonal_131(self):
        ms = build_minor(T(1, 3, 1), NeighborPair(1, 3, 1))
        assert ms.size == 4 and ms.degree == 2
        assert ms.translated == (3, 4)
        # diagonal ones at every shared row/column index, variables in m, 0 below
        assert ms.matrix.rows[1][0] == 1  # position (2, 2)
        assert ms.matrix.rows[2][1] == 1  # position (3, 3)
        assert ms.matrix.rows[3][2] == 1  # position (4, 4)
        assert ms.matrix.rows[2][0] == 0  # x[3,2] not in the nilradical

    def test_bookkeeping_size_minus_degree(self):
        for parts in compositions_upto(7):
            t = T(*parts)
            for pair in neighboring_pairs(t):
                ms = build_minor(t, pair)
                assert len(ms.translated) == ms.size - ms.degree

    def test_rejects_non_neighboring(self):
        with pytest.raises(InvalidInputError):
            build_minor(T(1, 1, 1), NeighborPair(1, 3, 1))


class TestRestrictToSection:
    def test_2112_post_step3(self):
        t = T(2, 1, 1, 2)
        sec = section_of(t)
        outer = restrict_to_section(build_minor(t, NeighborPair(1, 4, 2)), sec)
        inner = restrict_to_section(build_minor(t, NeighborPair(2, 3, 1)), sec)
        assert plus_minus(outer, X(3, 6))
        assert plus_minus(inner, X(3, 4))

    def test_2112_step2_gives_product(self):
        t = T(2, 1, 1, 2)
        sec2 = extract_section(step2(step1(t)))
        p = restrict_to_section(build_minor(t, NeighborPair(1, 4, 2)), sec2)
        assert plus_minus(p, X(3, 4) * X(2, 6))

    def test_1221(self):
        t = T(1, 2, 2, 1)
        sec = section_of(t)
        assert plus_minus(
            restrict_to_section(build_minor(t, NeighborPair(2, 3, 2)), sec), X(3, 5)
        )
        assert plus_minus(
            restrict_to_section(build_minor(t, NeighborPair(1, 4, 1)), sec), X(4, 6)
        )

    def test_section_coordinate_reports_sign_and_unit(self):
        t = T(2, 1, 1, 2)
        sec = section_of(t)
        sign, unit = section_coordinate(build_minor(t, NeighborPair(2, 3, 1)), sec)
        assert (sign, unit) == (1, MatrixUnit(3, 4))
        sign, unit = section_coordinate(build_minor(t, NeighborPair(1, 4, 2)), sec)
        assert abs(sign) == 1 and unit == MatrixUnit(3, 6)

    def test_section_coordinate_rejects_step2_product(self):
        t = T(2, 1, 1, 2)
        sec2 = extract_section(step2(step1(t)))
        with pytest.raises(SectionDefectError):
            section_coordinate(build_minor(t, NeighborPair(1, 4, 2)), sec2)

    def test_distinct_coordinates_exhaust_v(self):
        for parts in compositions_upto(7):
            t = T(*parts)
            pairs = neighboring_pairs(t)
            sec = section_of(t)
            coords = {section_coordinate(build_minor(t, p), sec)[1] for p in pairs}
            assert coords == set(sec.v)
            assert len(coords) == len(pairs)

    def test_matches_substitution_into_expanded_determinant(self):
        # Substituting after a permutation expansion is an independent route
        # to the restriction (step 2 and step 3) and to the nilfibre value.
        for parts in compositions_upto(6):
            t = T(*parts)
            sec2, sec3 = extract_section(step2(step1(t))), section_of(t)
            for pair in neighboring_pairs(t):
                ms = build_minor(t, pair)
                generic = det_permutation_expansion(ms.matrix)
                cells = {c for row in ms.matrix.rows for c in row if not isinstance(c, int)}
                for sec in (sec2, sec3):
                    e_keys, v_keys = {u.key for u in sec.e}, {u.key for u in sec.v}
                    on_e = {x: int(x in e_keys) for x in cells}
                    kept = {x: c for x, c in on_e.items() if x not in v_keys}
                    assert restrict_to_section(ms, sec) == substitute(generic, kept)
                assert restrict_to_E(ms, sec3) == substitute(generic, on_e) == 0

    def test_heavy_substituted_minors_match_fraction_free(self, monkeypatch):
        # The restriction and nilfibre minors of the heavy compositions reach
        # size 22, beyond the permutation oracle.
        sizes = []

        def checked_det(matrix):
            sizes.append(matrix.size)
            got = det(matrix)
            assert got == det_fraction_free(matrix)
            return got

        monkeypatch.setattr(invariants, "det", checked_det)
        for parts in HEAVY_COMPOSITIONS:
            t = T(*parts)
            sec = section_of(t)
            for pair in neighboring_pairs(t):
                ms = build_minor(t, pair)
                section_coordinate(ms, sec)
                restrict_to_E(ms, sec)
        assert len(sizes) == 88 and max(sizes) == 22

    def test_unique_contributing_permutation(self):
        for parts in compositions_upto(6):
            t = T(*parts)
            sec = section_of(t)
            for pair in neighboring_pairs(t):
                ms = build_minor(t, pair)
                if ms.size <= 6:
                    assert count_section_permutations(ms, sec) == 1


class TestRestrictToE:
    def test_golden_vanishing(self):
        for parts in [(2, 1, 1, 2), (1, 2, 2, 1)]:
            t = T(*parts)
            sec = section_of(t)
            for pair in neighboring_pairs(t):
                assert restrict_to_E(build_minor(t, pair), sec).is_zero()

    def test_vanishing_exhaustive(self):
        for parts in compositions_upto(7):
            t = T(*parts)
            sec = section_of(t)
            for pair in neighboring_pairs(t):
                restrict_to_E(build_minor(t, pair), sec)

    def test_augmented_nilfibre_point_1221(self):
        # e + x[5,6] still kills both invariants even though e alone is not dense
        t = T(1, 2, 2, 1)
        aug = Section(e=(MatrixUnit(1, 2), MatrixUnit(2, 4), MatrixUnit(5, 6)), v=())
        for pair in neighboring_pairs(t):
            assert restrict_to_E(build_minor(t, pair), aug).is_zero()

    def test_violation_raises(self):
        t = T(1, 1)
        broken = Section(e=(MatrixUnit(1, 2),), v=())
        with pytest.raises(NilfibreViolationError):
            restrict_to_E(build_minor(t, NeighborPair(1, 2, 1)), broken)


class TestGenericInvariant:
    def test_1221_displayed_polynomials(self):
        t = T(1, 2, 2, 1)
        quadratic = X(2, 4) * X(3, 5) - X(2, 5) * X(3, 4)
        cubic = (
            X(1, 2) * X(2, 4) * X(4, 6)
            + X(1, 3) * X(3, 4) * X(4, 6)
            + X(1, 2) * X(2, 5) * X(5, 6)
            + X(1, 3) * X(3, 5) * X(5, 6)
        )
        assert plus_minus(generic_invariant(build_minor(t, NeighborPair(2, 3, 2))), quadratic)
        assert plus_minus(generic_invariant(build_minor(t, NeighborPair(1, 4, 1))), cubic)

    def test_trivial_1x1(self):
        assert generic_invariant(build_minor(T(1, 1), NeighborPair(1, 2, 1))) == X(1, 2)

    def test_degree_matches_formula(self):
        for parts in compositions_upto(6):
            t = T(*parts)
            for pair in neighboring_pairs(t):
                inv = generic_invariant(build_minor(t, pair))
                assert inv.degree() == bs_degree(t, pair)

    def test_top_mode_matches_full_expansion(self):
        for parts in compositions_upto(9):
            t = T(*parts)
            for pair in neighboring_pairs(t):
                m = build_minor(t, pair).matrix
                assert det(m, top=True) == det(m).top_term()

    def test_top_mode_matches_full_expansion_at_size_14(self):
        # Beyond the fraction-free oracle's reach; the full Laplace expansion
        # of this minor tabulates about 280,000 entries.
        ms = build_minor(T(2, 3, 3, 3, 3, 2), NeighborPair(1, 6, 2))
        assert ms.size == 14
        assert det(ms.matrix, top=True) == det(ms.matrix).top_term()

    def test_size_guard(self):
        t = T(1, 7, 1)
        with pytest.raises(ResourceLimitError):
            generic_invariant(build_minor(t, NeighborPair(1, 3, 1)), 4)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("WS_DET_BOUND", "2")
        assert det_size_bound(9) == 2
        t = T(2, 1, 1, 2)
        with pytest.raises(ResourceLimitError):
            generic_invariant(build_minor(t, NeighborPair(1, 4, 2)))
        monkeypatch.delenv("WS_DET_BOUND")
        assert det_size_bound() == 8

    def test_bound_must_be_positive_integer(self, monkeypatch):
        for value in ("abc", "2.5", "0", "-1"):
            monkeypatch.setenv("WS_DET_BOUND", value)
            with pytest.raises(InvalidInputError):
                det_size_bound()
        monkeypatch.delenv("WS_DET_BOUND")
        for override in (0, -1):
            with pytest.raises(InvalidInputError):
                det_size_bound(override)
        assert det_size_bound(1) == 1

    def test_matches_permutation_oracle(self):
        for parts in [(2, 1, 1, 2), (1, 2, 2, 1), (2, 3, 2)]:
            t = T(*parts)
            for pair in neighboring_pairs(t):
                ms = build_minor(t, pair)
                if ms.size <= 5:
                    assert det(ms.matrix) == det_permutation_expansion(ms.matrix)

    def test_non_neighboring_same_height_gives_product(self):
        # Columns of equal height that are not neighboring: the wide minor's
        # top term factors as the product of the successive invariants.
        from wsections.invariants import _raw_minor_matrix

        t = T(1, 1, 1)
        far = det(_raw_minor_matrix(t, 1, 3, 1)).top_term()
        assert far == X(1, 2) * X(2, 3)
        assert far == generic_invariant(build_minor(t, NeighborPair(1, 2, 1))) * generic_invariant(
            build_minor(t, NeighborPair(2, 3, 1))
        )

        t = T(2, 2, 2)
        wide = det(_raw_minor_matrix(t, 1, 3, 2)).top_term()
        product = generic_invariant(build_minor(t, NeighborPair(1, 2, 2))) * generic_invariant(
            build_minor(t, NeighborPair(2, 3, 2))
        )
        assert plus_minus(wide, product)
