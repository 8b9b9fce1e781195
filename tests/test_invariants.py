import random

import pytest

from helpers import (
    HEAVY_COMPOSITIONS,
    Ring,
    X,
    backtracking_cover,
    compositions_upto,
    count_perfect_matchings,
    count_section_permutations,
    dense_minor_matrix,
    dense_specialised_rows,
    det_fraction_free,
    det_permutation_expansion,
    lift,
    substitute,
    to_string_fstrings,
)
from wsections import construction, invariants, poly
from wsections.construction import Section, extract_section, step1, step2, step3, verify_P1
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
from wsections.poly import SymbolicMatrix, det
from wsections.tableau import (
    Composition,
    MatrixUnit,
    NeighborPair,
    Tableau,
    bs_degree,
)


def T(*parts):
    return Tableau(Composition(tuple(parts)))


def section_of(t):
    return extract_section(step3(step2(step1(t))))


def plus_minus(p, q):
    return p == q or p == -lift(q)


class TestBuildMinor:
    def test_inner_pair_2112_is_1x1(self):
        ms = build_minor(T(2, 1, 1, 2), NeighborPair(2, 3, 1))
        assert ms.size == 1 and ms.degree == 1
        assert det(ms.matrix) == X(3, 4)

    def test_quadratic_pair_1221(self):
        ms = build_minor(T(1, 2, 2, 1), NeighborPair(2, 3, 2))
        assert ms.matrix.rows == (((2, 4), (2, 5)), ((3, 4), (3, 5)))

    def test_outer_pair_2112(self):
        ms = build_minor(T(2, 1, 1, 2), NeighborPair(1, 4, 2))
        assert ms.size == 4 and ms.degree == 4
        assert ms.matrix.rows[0] == ((1, 3), (1, 4), (1, 5), (1, 6))

    def test_translated_diagonal_131(self):
        ms = build_minor(T(1, 3, 1), NeighborPair(1, 3, 1))
        assert ms.size == 4 and ms.degree == 2
        # diagonal ones at every shared row/column index, variables in m, 0 below
        assert ms.matrix.rows[1][0] == 1  # position (2, 2)
        assert ms.matrix.rows[2][1] == 1  # position (3, 3)
        assert ms.matrix.rows[3][2] == 1  # position (4, 4)
        assert ms.matrix.rows[2][0] == 0  # x[3,2] not in the nilradical

    def test_translated_is_a_count_not_a_set_121(self):
        ms = build_minor(T(1, 2, 1), NeighborPair(1, 3, 1))
        assert ms.size - ms.degree == 1
        assert generic_invariant(ms).to_string() == "-x[1,2]*x[2,4] - x[1,3]*x[3,4]"
        # x[1,3]*x[3,4] takes the 1 at (2,2), not the 1 at (3,3) in the row of box 3,
        # the one box between the pair below row 1.
        assert ms.matrix.rows[1][0] == ms.matrix.rows[2][1] == 1

    def test_bookkeeping_size_minus_degree(self):
        # Every top monomial takes size - degree diagonal ones.
        for parts in compositions_upto(8):
            t = T(*parts)
            for pair in t.neighboring_pairs:
                ms = build_minor(t, pair)
                observed = generic_invariant(ms, ms.size).degree()
                assert ms.size - ms.degree == ms.size - observed

    def test_rejects_non_neighboring(self):
        with pytest.raises(InvalidInputError):
            build_minor(T(1, 1, 1), NeighborPair(1, 3, 1))


class TestMinorsAgainstDenseOracles:
    # The minor reads each row off column_end, and _specialise sets only the
    # variable cells a section's keys name; the oracles in helpers decide all
    # m^2 cells, from col_of and by substitution.
    INPUTS = list(compositions_upto(8)) + list(HEAVY_COMPOSITIONS)

    @staticmethod
    def specialised(monkeypatch):
        """_specialise with det replaced by the rows it is handed."""
        monkeypatch.setattr(invariants, "det", lambda matrix: matrix.rows)
        return invariants._specialise

    def test_raw_minor_for_every_same_height_column_pair(self):
        far = 0
        for parts in self.INPUTS:
            t = T(*parts)
            for v in range(1, len(parts)):
                for vp in range(v + 1, len(parts) + 1):
                    s = parts[v - 1]
                    if parts[vp - 1] == s:
                        got = invariants._raw_minor_matrix(t, v, vp, s).rows
                        assert got == dense_minor_matrix(t, v, vp, s).rows, (parts, v, vp)
                        far += any(parts[w - 1] == s for w in range(v + 1, vp))
        assert far > 500  # pairs that are not neighboring are covered too

    def test_build_minor_offset(self):
        for parts in self.INPUTS:
            t = T(*parts)
            for pair in t.neighboring_pairs:
                ms = build_minor(t, pair)
                assert ms.matrix.rows == dense_minor_matrix(t, pair.v, pair.v_prime, pair.s).rows

    def test_step2_and_step3_sections(self, monkeypatch):
        specialise = self.specialised(monkeypatch)
        for parts in self.INPUTS:
            t = T(*parts)
            for sec in (extract_section(step2(step1(t))), section_of(t)):
                e, v = {u.key for u in sec.e}, {u.key for u in sec.v}
                assert (sec.e_keys, sec.v_keys) == (e, v)
                assert sec.e_keys is sec.e_keys and sec.v_keys is sec.v_keys  # built once
                for pair in t.neighboring_pairs:
                    ms = build_minor(t, pair)
                    assert specialise(ms, e, v) == dense_specialised_rows(ms.matrix, e, v)
                    assert specialise(ms, e, set()) == dense_specialised_rows(ms.matrix, e, set())
                    assert restrict_to_section(ms, sec) == dense_specialised_rows(ms.matrix, e, v)

    def test_sections_with_one_v_unit_moved_into_e(self, monkeypatch):
        specialise = self.specialised(monkeypatch)
        for parts in self.INPUTS:
            t = T(*parts)
            sec = section_of(t)
            minors = [build_minor(t, pair) for pair in t.neighboring_pairs]
            for u in sec.v:
                e = {w.key for w in sec.e} | {u.key}
                v = {w.key for w in sec.v} - {u.key}
                for ms in minors:
                    assert specialise(ms, e, v) == dense_specialised_rows(ms.matrix, e, v)
                    assert specialise(ms, e, set()) == dense_specialised_rows(ms.matrix, e, set())

    def test_keys_outside_the_minor_and_on_constant_cells(self, monkeypatch):
        # Every nilradical key (most lie outside any one minor), keys below the
        # diagonal or beyond the tableau, and kept overlapping ones.
        specialise = self.specialised(monkeypatch)
        rng = random.Random(20261019)
        for parts in [(2, 1, 1, 2), (1, 2, 2, 1), (3, 2, 1, 1, 2, 3), (2, 3, 3, 2), (15, 15, 15, 15)]:
            t = T(*parts)
            stray = {(0, 1), (1, 0), (t.n + 1, t.n + 2), (-3, 4), (3, -4)}
            stray |= {(j, i) for i, j in t.nilradical_keys}
            ones = set(t.nilradical_keys) | stray
            for pair in t.neighboring_pairs:
                ms = build_minor(t, pair)
                for _ in range(5):
                    kept = set(rng.sample(sorted(ones), len(ones) // 3))
                    for e, v in ((ones, kept), (kept, ones), (stray, kept), (set(), kept)):
                        assert specialise(ms, e, v) == dense_specialised_rows(ms.matrix, e, v)


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
            pairs = t.neighboring_pairs
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
            for pair in t.neighboring_pairs:
                ms = build_minor(t, pair)
                generic = det_permutation_expansion(ms.matrix)
                cells = {c for row in ms.matrix.rows for c in row if not isinstance(c, int)}
                for sec in (sec2, sec3):
                    e_keys, v_keys = {u.key for u in sec.e}, {u.key for u in sec.v}
                    on_e = {x: int(x in e_keys) for x in cells}
                    kept = {x: c for x, c in on_e.items() if x not in v_keys}
                    assert restrict_to_section(ms, sec) == substitute(generic, kept)
                assert restrict_to_E(ms, sec3) == substitute(generic, on_e) == 0

    def test_every_battery_matrix_has_distinct_variables(self, monkeypatch):
        # det's values are squarefree only because no matrix the battery
        # builds repeats a variable: read the cells of every generic,
        # restriction and nilfibre matrix with n <= 10 and of the heavy set.
        matrices = []
        zero = det(SymbolicMatrix(((0,),)))

        def record(matrix, *, top=False):
            matrices.append(matrix)
            return zero

        monkeypatch.setattr(invariants, "det", record)
        for parts in [*compositions_upto(10), *HEAVY_COMPOSITIONS]:
            t = T(*parts)
            sec = section_of(t)
            for pair in t.neighboring_pairs:
                ms = build_minor(t, pair)
                matrices.append(ms.matrix)
                restrict_to_section(ms, sec)
                restrict_to_E(ms, sec)
        for matrix in matrices:
            cells = [cell for row in matrix.rows for cell in row if cell.__class__ is tuple]
            assert len(set(cells)) == len(cells)
        assert len(matrices) == 3 * sum(
            len(T(*parts).neighboring_pairs) for parts in [*compositions_upto(10), *HEAVY_COMPOSITIONS]
        )

    def test_heavy_substituted_minors_match_fraction_free(self, monkeypatch):
        # The restriction and nilfibre minors of the heavy compositions reach
        # size 22, beyond the permutation oracle.  det hands its own dict to
        # the value it returns, with no zero-filtering copy, so every
        # coefficient must be nonzero already.
        sizes = []

        def checked_det(matrix):
            sizes.append(matrix.size)
            got = det(matrix)
            assert got == det_fraction_free(matrix)
            assert all(c != 0 for c in got.terms.values())
            return got

        monkeypatch.setattr(invariants, "det", checked_det)
        for parts in HEAVY_COMPOSITIONS:
            t = T(*parts)
            sec = section_of(t)
            for pair in t.neighboring_pairs:
                ms = build_minor(t, pair)
                section_coordinate(ms, sec)
                restrict_to_E(ms, sec)
        assert len(sizes) == 88 and max(sizes) == 22

    def test_unique_contributing_permutation(self):
        for parts in compositions_upto(6):
            t = T(*parts)
            sec = section_of(t)
            for pair in t.neighboring_pairs:
                ms = build_minor(t, pair)
                if ms.size <= 6:
                    assert count_section_permutations(ms, sec) == 1

    def test_one_matching_on_every_restriction_support_none_on_nilfibre(self):
        # The traffic det serves: each restriction walks to exactly one leaf
        # and each nilfibre determinant to none (P1 on the matrix side).
        inputs = [*compositions_upto(10), *HEAVY_COMPOSITIONS]
        pairs = 0
        for parts in inputs:
            t = T(*parts)
            sec = section_of(t)
            e, v = {u.key for u in sec.e}, {u.key for u in sec.v}
            for pair in t.neighboring_pairs:
                matrix = build_minor(t, pair).matrix
                assert count_perfect_matchings(dense_specialised_rows(matrix, e, v)) == 1, (parts, pair)
                assert count_perfect_matchings(dense_specialised_rows(matrix, e, set())) == 0, (parts, pair)
                pairs += 1
        assert pairs == 2559

    def test_restriction_matching_is_the_composite_family(self):
        # The unique perfect matching of each restriction's support, found by
        # backtracking with no determinant, uses as its variable cells
        # exactly the lines of the pair's composite family.
        inputs = [*compositions_upto(10), *HEAVY_COMPOSITIONS]
        pairs = 0
        for parts in inputs:
            t = T(*parts)
            ls3 = step3(step2(step1(t)))
            sec = extract_section(ls3)
            e, v = {u.key for u in sec.e}, {u.key for u in sec.v}
            for pair in t.neighboring_pairs:
                matrix = build_minor(t, pair).matrix
                rows = dense_specialised_rows(matrix, e, v)
                targets_of = {r: [c for c, x in enumerate(row) if x != 0] for r, row in enumerate(rows)}
                count, matching = backtracking_cover(list(targets_of), targets_of)
                assert count == 1, (parts, pair)
                cells = [matrix.rows[r][c] for r, c in matching.items()]
                variables = {cell for cell in cells if isinstance(cell, tuple)}
                edges = verify_P1(ls3, pair).edges()
                assert variables == set(edges) and len(edges) == len(set(edges)), (parts, pair)
                pairs += 1
        assert pairs == 2559


class TestRestrictToE:
    def test_golden_vanishing(self):
        for parts in [(2, 1, 1, 2), (1, 2, 2, 1)]:
            t = T(*parts)
            sec = section_of(t)
            for pair in t.neighboring_pairs:
                assert restrict_to_E(build_minor(t, pair), sec).is_zero()

    def test_vanishing_exhaustive(self):
        for parts in compositions_upto(7):
            t = T(*parts)
            sec = section_of(t)
            for pair in t.neighboring_pairs:
                restrict_to_E(build_minor(t, pair), sec)

    def test_augmented_nilfibre_point_1221(self):
        # e + x[5,6] still kills both invariants even though e alone is not dense
        t = T(1, 2, 2, 1)
        aug = Section(e=(MatrixUnit(1, 2), MatrixUnit(2, 4), MatrixUnit(5, 6)), v=())
        for pair in t.neighboring_pairs:
            assert restrict_to_E(build_minor(t, pair), aug).is_zero()

    def test_violation_raises(self):
        t = T(1, 1)
        broken = Section(e=(MatrixUnit(1, 2),), v=())
        with pytest.raises(NilfibreViolationError):
            restrict_to_E(build_minor(t, NeighborPair(1, 2, 1)), broken)


class TestNilfibreIsConstantTerm:
    # The nilfibre evaluation is the section restriction with V set to 0.
    @staticmethod
    def nonzero_nilfibre_values(t, sec):
        e_keys = {u.key for u in sec.e}
        count = 0
        for pair in t.neighboring_pairs:
            ms = build_minor(t, pair)
            value = invariants._specialise(ms, e_keys, set())
            assert lift(restrict_to_section(ms, sec).terms.get((), 0)) == value
            count += not value.is_zero()
        return count

    def test_step3_sections(self):
        for parts in compositions_upto(8):
            t = T(*parts)
            assert self.nonzero_nilfibre_values(t, section_of(t)) == 0

    def test_sections_with_one_v_unit_moved_into_e(self):
        nonzero = 0
        for parts in compositions_upto(8):
            t = T(*parts)
            sec = section_of(t)
            for u in sec.v:
                rest = tuple(w for w in sec.v if w != u)
                nonzero += self.nonzero_nilfibre_values(t, Section(e=sec.e + (u,), v=rest))
        assert nonzero > 0


class TestRowOrderRegime:
    def test_restrictions_nilfibres_and_p1_match_oracles(self, monkeypatch):
        # Mid-size compositions, n uniform in [13, 30] and parts 1..4, drawn
        # here without the package: restriction and nilfibre minors of size
        # 13 and up, most of whose rows are not sparsest first, so a sign or
        # a completion lost to the row order shows against the oracles.
        rng = random.Random(20261022)
        sizes, unsorted = [], 0

        def checked_det(matrix):
            nonlocal unsorted
            lengths = [sum(1 for cell in row if cell) for row in matrix.rows]
            sizes.append(matrix.size)
            unsorted += lengths != sorted(lengths)
            got = det(matrix)
            assert got == det_fraction_free(matrix), matrix.rows
            return got

        monkeypatch.setattr(invariants, "det", checked_det)
        families = []
        for _ in range(100):
            parts, left = [], rng.randint(13, 30)
            while left:
                parts.append(rng.randint(1, min(4, left)))
                left -= parts[-1]
            t = T(*parts)
            ls3 = step3(step2(step1(t)))
            sec = extract_section(ls3)
            for pair in t.neighboring_pairs:
                ms = build_minor(t, pair)
                section_coordinate(ms, sec)
                restrict_to_E(ms, sec)
                families.append((parts, ls3, pair, verify_P1(ls3, pair)))
        monkeypatch.setattr(construction, "_cover", backtracking_cover)
        for parts, ls3, pair, family in families:
            assert verify_P1(ls3, pair) == family, (parts, pair)
        assert len(sizes) == 1180 and max(sizes) == 26
        assert sum(size >= 13 for size in sizes) == 84 and unsorted == 714


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
            for pair in t.neighboring_pairs:
                inv = generic_invariant(build_minor(t, pair))
                assert inv.degree() == bs_degree(t, pair)

    def test_top_mode_matches_full_expansion(self):
        for parts in compositions_upto(9):
            t = T(*parts)
            for pair in t.neighboring_pairs:
                m = build_minor(t, pair).matrix
                assert det(m, top=True).terms == det(m).top_term().terms

    def test_top_mode_values_are_sorted_and_graded(self):
        # Top mode emits its terms in sorted_terms() order and records the
        # degree, so nothing downstream re-sorts or re-grades them.
        for parts in compositions_upto(8):
            t = T(*parts)
            for pair in t.neighboring_pairs:
                p = det(build_minor(t, pair).matrix, top=True)
                assert p.sorted_terms() == sorted(p.terms.items())
                fresh = Ring(p.terms)
                assert p.degree() == fresh.degree() == bs_degree(t, pair)
                assert p.top_term() == fresh.top_term()

    def test_top_mode_matches_full_expansion_at_size_14(self):
        # Beyond the fraction-free oracle's reach; the full Laplace expansion
        # of this minor tabulates about 185,000 entries.
        ms = build_minor(T(2, 3, 3, 3, 3, 2), NeighborPair(1, 6, 2))
        assert ms.size == 14
        assert det(ms.matrix, top=True).terms == det(ms.matrix).top_term().terms

    def test_top_mode_budget_thresholds(self, monkeypatch):
        # The least MEMO_BUDGET each top-degree expansion fits: column sets
        # plus the terms of every top-degree table.
        for parts, pair, threshold in (
            ((1, 2, 2, 1), NeighborPair(1, 4, 1), 36),
            ((2, 3, 3, 3, 3, 2), NeighborPair(1, 6, 2), 18_333),
        ):
            matrix = build_minor(T(*parts), pair).matrix
            monkeypatch.setattr(poly, "MEMO_BUDGET", threshold)
            det(matrix, top=True)
            monkeypatch.setattr(poly, "MEMO_BUDGET", threshold - 1)
            with pytest.raises(ResourceLimitError, match="more than"):
                det(matrix, top=True)

    def test_full_mode_budget_thresholds(self, monkeypatch):
        # The least MEMO_BUDGET each full expansion of pair (1,4) of 1,2,2,1
        # fits, rows in index order: forward column sets plus completions.
        t = T(1, 2, 2, 1)
        ms, sec = build_minor(t, NeighborPair(1, 4, 1)), section_of(t)
        for evaluate, threshold in ((restrict_to_section, 12), (restrict_to_E, 4)):
            monkeypatch.setattr(poly, "MEMO_BUDGET", threshold)
            evaluate(ms, sec)
            monkeypatch.setattr(poly, "MEMO_BUDGET", threshold - 1)
            with pytest.raises(ResourceLimitError, match="more than"):
                evaluate(ms, sec)

    def test_renderer_matches_fstring_oracle(self):
        for parts in compositions_upto(8):
            t = T(*parts)
            for pair in t.neighboring_pairs:
                inv = generic_invariant(build_minor(t, pair), 8)
                assert inv.to_string() == to_string_fstrings(inv)

    def test_size_guard(self):
        t = T(1, 7, 1)
        with pytest.raises(ResourceLimitError):
            generic_invariant(build_minor(t, NeighborPair(1, 3, 1)), 4)

    def test_bound_argument_replaces_default(self):
        assert det_size_bound() == 8
        assert det_size_bound(2) == 2
        ms = build_minor(T(2, 1, 1, 2), NeighborPair(1, 4, 2))
        with pytest.raises(ResourceLimitError):
            generic_invariant(ms, det_size_bound(2))
        assert generic_invariant(ms).degree() == ms.degree

    def test_bound_must_be_positive_integer(self):
        for bound in ("abc", "3", 2.5, 0, -1, True, False):
            with pytest.raises(InvalidInputError):
                det_size_bound(bound)
        assert det_size_bound(1) == 1

    def test_generic_invariant_resolves_its_bound(self):
        ms = build_minor(T(2, 1, 1, 2), NeighborPair(2, 3, 1))
        for bound in ("8", True, 1.5, 0, -3):
            with pytest.raises(InvalidInputError):
                generic_invariant(ms, bound)
        assert generic_invariant(ms, 1).terms == generic_invariant(ms, None).terms == X(3, 4).terms

    def test_matches_permutation_oracle(self):
        for parts in [(2, 1, 1, 2), (1, 2, 2, 1), (2, 3, 2)]:
            t = T(*parts)
            for pair in t.neighboring_pairs:
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
        left = generic_invariant(build_minor(t, NeighborPair(1, 2, 1)))
        right = generic_invariant(build_minor(t, NeighborPair(2, 3, 1)))
        assert far == lift(left) * right

        t = T(2, 2, 2)
        wide = det(_raw_minor_matrix(t, 1, 3, 2)).top_term()
        left = generic_invariant(build_minor(t, NeighborPair(1, 2, 2)))
        right = generic_invariant(build_minor(t, NeighborPair(2, 3, 2)))
        product = lift(left) * right
        assert plus_minus(wide, product)
