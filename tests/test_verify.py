import hashlib
import json
import random
import time

import pytest

from helpers import (
    HEAVY_COMPOSITIONS,
    compositions_upto,
    rank_fractions,
    root_system_type,
    triangular_unimodular_witness,
    weight_inner,
)
from wsections import poly
from wsections.construction import LEFTMOST, RIGHTMOST, step1, step2
from wsections.errors import InternalError, InvalidStateError
from wsections.linalg import rank_int, solve_unit_differences
from wsections.tableau import (
    Composition,
    MatrixUnit,
    build_tableau,
    neighboring_pairs,
    nilradical_basis,
)
from wsections.verify import (
    codim_orbit,
    coroot_pairing,
    density_check,
    grading_element,
    line_weight,
    separation_matrix,
    separation_rank,
    verify_composition,
)


def T(*parts):
    return build_tableau(Composition(tuple(parts)))


def LS2(t, mode=RIGHTMOST):
    return step2(step1(t), mode)


class TestLinalg:
    def test_rank_against_fraction_oracle(self):
        rng = random.Random(20260808)
        for _ in range(300):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            assert rank_int(m) == rank_fractions(m)

    def test_rank_needs_no_bounded_width(self):
        # Entries engineered so cross-multiplication grows fast; exactness holds.
        m = [[10**9, 1, 0], [1, 10**9, 1], [0, 1, 10**9]]
        assert rank_int(m) == 3

    def test_mapping_rows_match_dense_rows(self):
        rng = random.Random(20261017)
        for _ in range(200):
            cols = rng.randint(1, 8)
            m = [
                [rng.choice((0, 0, 0, rng.randint(-6, 6))) for _ in range(cols)]
                for _ in range(rng.randint(1, 8))
            ]
            sparse = [{c: x for c, x in enumerate(row) if x} for row in m]
            assert rank_int(sparse) == rank_int(m) == rank_fractions(m)

    def test_rank_shapes_against_fraction_oracle(self):
        rng = random.Random(7)
        tall = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(40)]
        wide = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(4)]
        zeros = [[0] * 5 for _ in range(3)]
        basis = [[rng.randint(-4, 4) for _ in range(9)] for _ in range(3)]
        weights = [[rng.randint(-2, 2) for _ in basis] for _ in range(12)]
        deficient = [
            [sum(w * b[c] for w, b in zip(ws, basis)) for c in range(9)] for ws in weights
        ]
        for m in (tall, wide, zeros, deficient):
            assert rank_int(m) == rank_fractions(m)
        assert rank_int(deficient) <= 3
        assert rank_int(zeros) == 0
        assert rank_int([]) == 0
        assert rank_int([{}, {3: 0}]) == 0

    def test_coefficient_growth_as_mapping_rows(self):
        m = [[10**9, 1, 0], [1, 10**9, 1], [0, 1, 10**9], [1, 1, 1]]
        sparse = [{c: x for c, x in enumerate(row) if x} for row in m]
        assert rank_int(sparse) == rank_fractions(m) == 3

    def test_unit_differences_inconsistent(self):
        with pytest.raises(InternalError):
            solve_unit_differences(3, [(1, 2), (2, 3), (1, 3)])


class TestWeights:
    def test_line_weight_goldens(self):
        t = T(2, 1, 1, 2)
        assert line_weight(t, (1, 3)) == (1, 1, 0, 0, 0)
        assert line_weight(t, (2, 6)) == (0, 1, 1, 1, 1)
        assert line_weight(t, (4, 5)) == (0, 0, 0, 1, 0)

    def test_coroot_pairing_interval_rules(self):
        t = T(1, 1, 1, 1, 1)
        w = line_weight(t, (2, 4))  # a2 + a3
        assert [coroot_pairing(w, k) for k in range(1, 5)] == [-1, 1, 1, -1]

    def test_inner_products_across_rows_vanish(self):
        for parts in compositions_upto(7):
            t = T(*parts)
            lines = step1(t).lines
            for a in range(len(lines)):
                for b in range(a + 1, len(lines)):
                    la, lb = lines[a], lines[b]
                    inner = weight_inner(la.key, lb.key)
                    if t.row_of(la.i) != t.row_of(lb.i):
                        assert inner == 0
                    elif {la.i, la.j} & {lb.i, lb.j}:
                        assert inner == -1


class TestSeparation:
    def test_paper_rank_3(self):
        t = T(3, 3, 1)
        assert separation_rank(t, LS2(t)) == 3

    def test_derived_rank_1332(self):
        t = T(1, 3, 3, 2)
        ls = LS2(t)
        assert len(ls.one_lines()) == 5
        assert separation_rank(t, ls) == 5

    def test_borel_rank_zero(self):
        t = T(1, 1, 1, 1)
        assert separation_rank(t, LS2(t)) == 0

    def test_rank_equals_line_count_exhaustive_both_modes(self):
        for parts in compositions_upto(9):
            t = T(*parts)
            for mode in (RIGHTMOST, LEFTMOST):
                ls = LS2(t, mode)
                assert separation_rank(t, ls) == len(ls.one_lines())

    def test_reduced_entry_count_is_derived_cartan_dimension(self):
        for parts in compositions_upto(8):
            t = T(*parts)
            sm = separation_matrix(t, LS2(t))
            assert len(sm.entries) == t.n - len(parts)

    def test_triangular_unimodular_witness(self):
        for parts in compositions_upto(7):
            t = T(*parts)
            for mode in (RIGHTMOST, LEFTMOST):
                sm = separation_matrix(t, LS2(t, mode))
                if not sm.rows:
                    continue
                witness = triangular_unimodular_witness(sm.rows)
                assert witness is not None
                assert len(witness) == len(sm.rows)
                for a, (ra, ca) in enumerate(witness):
                    assert sm.rows[ra][ca] in (1, -1)
                    for rb, _ in witness[a + 1 :]:
                        assert sm.rows[rb][ca] == 0

    def test_rejects_wrong_stage(self):
        t = T(2, 2)
        with pytest.raises(InvalidStateError):
            separation_rank(t, step1(t))


class TestRootSystemType:
    def test_goldens(self):
        assert root_system_type(LS2(T(2, 1, 1, 2))) == (3, 1)
        assert root_system_type(LS2(T(3, 2, 1, 1, 2, 3))) == (5, 3, 1)
        assert root_system_type(LS2(T(6))) == ()

    def test_ranks_sum_to_line_count(self):
        for parts in compositions_upto(8):
            t = T(*parts)
            ls = LS2(t)
            assert sum(root_system_type(ls)) == len(ls.lines)


class TestGrading:
    def test_two_boxes(self):
        assert grading_element(LS2(T(1, 1))).values == (0, 1)

    def test_2112_constraints(self):
        d = grading_element(LS2(T(2, 1, 1, 2))).values
        assert d[2] - d[0] == 1 and d[3] - d[2] == 1 and d[4] - d[3] == 1
        assert d[5] - d[1] == 1

    def test_single_column_all_zero(self):
        assert grading_element(LS2(T(4))).values == (0, 0, 0, 0)

    def test_value_minus_one_on_every_line(self):
        for parts in compositions_upto(8):
            t = T(*parts)
            ls = LS2(t)
            h = grading_element(ls)
            for ln in ls.lines:
                assert h.on_line(ln.i, ln.j) == -1
            for ln in ls.zero_lines():
                assert h.on_line(ln.i, ln.j) == -1


class TestDensity:
    def test_goldens(self):
        t = T(2, 1, 1, 2)
        assert density_check(t, LS2(t)) == (True, 13)
        t = T(1, 2, 2, 1)
        ok, dim = density_check(t, LS2(t))
        assert ok and dim == len(nilradical_basis(t))

    def test_single_column_vacuous(self):
        assert density_check(T(5), LS2(T(5))) == (True, 0)

    def test_exhaustive_small(self):
        for parts in compositions_upto(7):
            t = T(*parts)
            ok, dim = density_check(t, LS2(t))
            assert ok, (parts, dim)


def _derived_bracket_rows(t, ls):
    """Dense rows of [p', e+v] + V over the nilradical, by n x n matrix products."""
    n = t.n

    def unit(a, b):
        m = [[0] * n for _ in range(n)]
        m[a - 1][b - 1] = 1
        return m

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    point = [[0] * n for _ in range(n)]
    for ln in ls.lines:
        point[ln.i - 1][ln.j - 1] = 1
    derived = [unit(u.i, u.j) for u in nilradical_basis(t)]
    for col in t.columns:
        derived += [unit(a, b) for a in col for b in col if a != b]
        for a, b in zip(col, col[1:]):
            h = unit(a, a)
            h[b - 1][b - 1] = -1
            derived.append(h)
    coords = [(u.i - 1, u.j - 1) for u in nilradical_basis(t)]
    rows = []
    for x in derived:
        xp, px = mul(x, point), mul(point, x)
        bracket = [[xp[i][j] - px[i][j] for j in range(n)] for i in range(n)]
        rows.append([bracket[i][j] for i, j in coords])
    for ln in ls.zero_lines():
        rows.append([1 if (i + 1, j + 1) == ln.key else 0 for i, j in coords])
    return rows


class TestDensityRank:
    def test_dim_matches_fraction_oracle_4444(self):
        t = T(4, 4, 4, 4)
        ls = LS2(t)
        ok, dim = density_check(t, ls)
        assert len(nilradical_basis(t)) == 96
        assert dim == rank_fractions(_derived_bracket_rows(t, ls))
        assert ok and dim == 96


class TestCodimOrbit:
    def test_2112_paper_values(self):
        t = T(2, 1, 1, 2)
        e = [MatrixUnit(1, 3), MatrixUnit(2, 4), MatrixUnit(4, 5)]
        assert codim_orbit(t, e, "P'") == 3
        assert codim_orbit(t, e, "P") == 2

    def test_1221_paper_values(self):
        t = T(1, 2, 2, 1)
        e = [MatrixUnit(1, 2), MatrixUnit(2, 4)]
        assert codim_orbit(t, e, "P") > 2
        regular = e + [MatrixUnit(3, 5)]
        assert codim_orbit(t, regular, "P") == 2

    def test_full_point_is_dense_for_p(self):
        for parts in compositions_upto(6):
            t = T(*parts)
            point = [ln.unit for ln in step1(t).lines]
            assert codim_orbit(t, point, "P") == 0

    def test_weighted_mapping_accepted(self):
        t = T(1, 1)
        assert codim_orbit(t, {MatrixUnit(1, 2): 3}, "P") == 0
        assert codim_orbit(t, {MatrixUnit(1, 2): 0}, "P") == 1


class TestBattery:
    # SHA-256 of the sorted-key JSON list of the reports for every
    # composition with n <= 8, then the heavy compositions, all at bound 8.
    # A deliberate report change (a schema bump) updates it in the same commit.
    GOLDEN_DIGEST = "a9f5dffa53dc81c24c25a785cef309b8ce58ba9aaa384c529f1d44824e31ee48"

    def test_golden_report_digest(self, monkeypatch):
        monkeypatch.delenv("WS_DET_BOUND", raising=False)
        inputs = list(compositions_upto(8)) + list(HEAVY_COMPOSITIONS)
        reports = [verify_composition(parts, 8) for parts in inputs]
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN_DIGEST

    def test_size_14_generic_minor_is_checked(self, monkeypatch):
        monkeypatch.delenv("WS_DET_BOUND", raising=False)
        start = time.perf_counter()
        report = verify_composition((2, 3, 3, 3, 3, 2), 16)
        assert time.perf_counter() - start < 60
        assert report["pass"] is True and report["skipped"] == []
        (outer,) = [p for p in report["pairs"] if p["pair"] == [1, 6]]
        assert outer["size"] == 14
        assert outer["degree_observed"] == outer["degree_formula"]

    def test_size_17_generic_minor_fits_the_memo_budget(self, monkeypatch):
        # The full expansion of pair (1,7)'s generic minor exceeds
        # MEMO_BUDGET; its top-degree expansion does not.
        monkeypatch.delenv("WS_DET_BOUND", raising=False)
        start = time.perf_counter()
        report = verify_composition((2, 3, 3, 3, 3, 3, 2), 17)
        assert time.perf_counter() - start < 60
        assert report["pass"] is True and report["skipped"] == []
        (outer,) = [p for p in report["pairs"] if p["pair"] == [1, 7]]
        assert outer["size"] == 17
        assert outer["degree_observed"] == outer["degree_formula"] == 12

    def test_memo_budget_records_skip(self, monkeypatch):
        # Pair (1,4) of 1,2,2,1 tabulates 38 entries for the top-degree
        # expansion of its generic minor (54 in full), its restriction 10,
        # its nilfibre 5, and pair (2,3) at most 7.
        monkeypatch.delenv("WS_DET_BOUND", raising=False)
        monkeypatch.setattr(poly, "MEMO_BUDGET", 20)
        report = verify_composition((1, 2, 2, 1), 8)
        assert report["skipped"] == ["pair (1,4) size 5"]
        outer, inner = report["pairs"]
        assert outer["invariant"] is None and outer["degree_observed"] is None
        assert outer["restriction"] is not None and outer["nilfibre_zero"] is True
        assert inner["degree_observed"] == inner["degree_formula"] == 2
