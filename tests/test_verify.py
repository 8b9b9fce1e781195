import hashlib
import json
import random
import time
from fractions import Fraction
from types import MappingProxyType

import pytest

from helpers import (
    HEAVY_COMPOSITIONS,
    compositions_upto,
    coroot_pairing,
    dict_rows,
    line_weight,
    orbit_span_dimension,
    rank_fractions,
    rank_sparse_fractions,
    root_system_type,
    triangular_unimodular_witness,
    weight_inner,
)
from wsections import cli, poly, verify
from wsections.construction import LEFTMOST, RIGHTMOST, Line, LineSet, step1, step2, step3
from wsections.errors import InvalidInputError, InvalidStateError
from wsections.linalg import rank_int, solve_unit_differences
from wsections.tableau import (
    Composition,
    MatrixUnit,
    Tableau,
    nilradical_basis,
)
from wsections.verify import (
    codim_orbit,
    density_check,
    grading_element,
    reduced_entries,
    separation_matrix,
    separation_rank,
    verify_composition,
)


def T(*parts):
    return Tableau(Composition(tuple(parts)))


def LS2(t, mode=RIGHTMOST):
    return step2(step1(t), mode)


class TestLinalg:
    def test_rank_against_fraction_oracle(self):
        rng = random.Random(20260808)
        for _ in range(300):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            assert rank_int(dict_rows(m)) == rank_fractions(m)

    def test_rank_needs_no_bounded_width(self):
        # Entries engineered so cross-multiplication grows fast; exactness holds.
        m = [[10**9, 1, 0], [1, 10**9, 1], [0, 1, 10**9]]
        assert rank_int(dict_rows(m)) == 3

    def test_mapping_rows_match_dense_rows(self):
        rng = random.Random(20261017)
        for _ in range(200):
            cols = rng.randint(1, 8)
            m = [
                [rng.choice((0, 0, 0, rng.randint(-6, 6))) for _ in range(cols)]
                for _ in range(rng.randint(1, 8))
            ]
            sparse = [{c: x for c, x in enumerate(row) if x} for row in m]
            assert rank_int(sparse) == rank_int(dict_rows(m)) == rank_fractions(m)

    def test_sparse_fraction_oracle_matches_dense_one(self):
        # The orbit oracle's rank, against rank_fractions alone: sparse and
        # rank-deficient rows, rows given out of column order.
        rng = random.Random(20261020)
        for _ in range(300):
            cols = rng.randint(1, 9)
            m = [
                [rng.choice((0, 0, 0, rng.randint(-6, 6))) for _ in range(cols)]
                for _ in range(rng.randint(1, 9))
            ]
            m += [[a - 2 * b for a, b in zip(m[0], m[-1])]]
            rows = [dict(reversed([(c, x) for c, x in enumerate(row) if x])) for row in m]
            assert rank_sparse_fractions(rows) == rank_fractions(m)
        assert rank_sparse_fractions([]) == 0

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
            assert rank_int(dict_rows(m)) == rank_fractions(m)
        assert rank_int(dict_rows(deficient)) <= 3
        assert rank_int(dict_rows(zeros)) == 0
        assert rank_int([]) == 0
        assert rank_int([{}, {3: 0}]) == 0

    def test_rank_rejects_non_integer_entries(self):
        # Nothing is truncated: a float, a Fraction, a string or a bool is
        # refused, zero or not.
        for rows in (
            dict_rows([[1.5, 1], [3, 2]]),
            dict_rows([["a", 2]]),
            dict_rows([[True, 0], [0, 1]]),
            dict_rows([[0.0, 1]]),
            [{0: 1, 2: Fraction(1, 2)}],
            [{1: 2.0}],
            dict_rows([[1, 0], [0, False]]),
        ):
            with pytest.raises(InvalidInputError, match="int entries only"):
                rank_int(rows)

    def test_rank_rejects_malformed_rows_and_columns(self):
        # Rows are dicts only: a dense sequence or another mapping is
        # refused like a number or None; a str column beside an int one used
        # to end in TypeError, and a float or bool column passed.
        for rows in ([5], [None], [{0: 1}, 7], [[1, 2]], [(0, 1)], [MappingProxyType({0: 1})]):
            with pytest.raises(InvalidInputError, match="dict rows only"):
                rank_int(rows)
        for rows in (None, 5):  # used to end in TypeError
            with pytest.raises(InvalidInputError, match="an iterable of dict rows"):
                rank_int(rows)
        for rows in (
            [{"a": 1, 1: 2}],
            [{True: 1}],
            [{0: 1}, {1.0: 2}],
            [{(0, 1): 1}],
        ):
            with pytest.raises(InvalidInputError, match="int columns only"):
                rank_int(rows)

    def test_first_bad_entry_in_row_order_is_named(self):
        for rows, bad in (
            ([{0: 1, 1: 2}, {0: 3, 1: 1.5}, {0: "a"}], "1.5"),
            ([{0: 1}, {"c": 2.5}, {0: 0.5}], "'c'"),
            ([{0: 1, 1: 0}, {0: 0, 1: None}, {0: False}], "None"),
        ):
            with pytest.raises(InvalidInputError, match=f"got {bad}$"):
                rank_int(rows)

    def test_rows_are_left_unchanged(self):
        # Rows are reduced on copies: unit and non-unit pivots, zeros inside.
        rng = random.Random(20261020)
        for _ in range(200):
            cols = rng.randint(1, 6)
            rows = [
                {c: rng.choice((0, -1, 1, rng.randint(-7, 7))) for c in range(cols) if rng.random() < 0.7}
                for _ in range(rng.randint(1, 7))
            ]
            before = [dict(r) for r in rows]
            dense = [[r.get(c, 0) for c in range(cols)] for r in rows]
            assert rank_int(rows) == rank_fractions(dense)
            assert rows == before

    def test_unit_pivots_skip_content_and_stay_exact(self):
        # Pivots of +-1 reduce with no gcd and no content division.
        rng = random.Random(20261019)
        for _ in range(300):
            cols = rng.randint(1, 7)
            m = [
                [rng.choice((-1, 0, 0, 1, rng.randint(-9, 9))) for _ in range(cols)]
                for _ in range(rng.randint(1, 8))
            ]
            assert rank_int(dict_rows(m)) == rank_fractions(m)
        m = [[-1, 2, 4], [3, 0, 6], [2, 2, 10]]
        assert rank_int(dict_rows(m)) == rank_fractions(m) == 2

    def test_coefficient_growth_as_mapping_rows(self):
        m = [[10**9, 1, 0], [1, 10**9, 1], [0, 1, 10**9], [1, 1, 1]]
        sparse = [{c: x for c, x in enumerate(row) if x} for row in m]
        assert rank_int(sparse) == rank_fractions(m) == 3

    def test_unit_differences_inconsistent(self):
        assert solve_unit_differences(3, [(1, 2), (2, 3), (1, 3)]) is None


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
                    if t.entry_row[la.i] != t.entry_row[lb.i]:
                        assert inner == 0
                    elif {la.i, la.j} & {lb.i, lb.j}:
                        assert inner == -1


class TestSeparation:
    def test_paper_rank_3(self):
        t = T(3, 3, 1)
        assert separation_rank(LS2(t)) == 3

    def test_derived_rank_1332(self):
        t = T(1, 3, 3, 2)
        ls = LS2(t)
        assert len(ls.one_lines()) == 5
        assert separation_rank(ls) == 5

    def test_borel_rank_zero(self):
        t = T(1, 1, 1, 1)
        assert separation_rank(LS2(t)) == 0

    def test_rank_equals_line_count_exhaustive_both_modes(self):
        for parts in compositions_upto(9):
            t = T(*parts)
            for mode in (RIGHTMOST, LEFTMOST):
                ls = LS2(t, mode)
                assert separation_rank(ls) == len(ls.one_lines())

    def test_reduced_entry_count_is_derived_cartan_dimension(self):
        for parts in compositions_upto(8):
            t = T(*parts)
            assert len(reduced_entries(t)) == t.n - len(parts)

    def test_sparse_rows_match_dense_weight_pairings(self):
        # The endpoint formula against whole weight vectors paired against
        # every reduced-tableau coroot, row by row and in rank.
        for parts in compositions_upto(10):
            t = T(*parts)
            entries = sorted(reduced_entries(t))
            for mode in (RIGHTMOST, LEFTMOST):
                ls = LS2(t, mode)
                dense = [
                    [coroot_pairing(line_weight(t, ln), k) for k in entries] for ln in ls.one_lines()
                ]
                rows = separation_matrix(ls)
                assert [{c: x for c, x in enumerate(row) if x} for row in dense] == list(rows)
                assert rank_int(rows) == rank_fractions(dense)

    def test_triangular_unimodular_witness(self):
        for parts in compositions_upto(7):
            t = T(*parts)
            for mode in (RIGHTMOST, LEFTMOST):
                sparse = separation_matrix(LS2(t, mode))
                if not sparse:
                    continue
                width = len(reduced_entries(t))
                rows = [[row.get(c, 0) for c in range(width)] for row in sparse]
                witness = triangular_unimodular_witness(rows)
                assert witness is not None
                assert len(witness) == len(rows)
                for a, (ra, ca) in enumerate(witness):
                    assert rows[ra][ca] in (1, -1)
                    for rb, _ in witness[a + 1 :]:
                        assert rows[rb][ca] == 0

    def test_checks_read_the_line_sets_tableau(self):
        # The checks take no tableau of their own.  A mismatched one used to
        # be accepted: with all-ones it gave rank 0, with 3,1,2 density
        # raised "vector leaves the nilradical".
        ls = LS2(T(2, 1, 1, 2))
        assert separation_rank(ls) == 2 and density_check(ls) == (True, 13)
        for check, t in ((separation_rank, T(1, 1, 1, 1, 1, 1)), (density_check, T(3, 1, 2))):
            with pytest.raises(TypeError):
                check(t, ls)

    def test_rejects_wrong_stage(self):
        t = T(2, 2)
        with pytest.raises(InvalidStateError):
            separation_rank(step1(t))


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
        assert grading_element(LS2(T(1, 1))) == (0, 1)

    def test_2112_constraints(self):
        d = grading_element(LS2(T(2, 1, 1, 2)))
        assert d[2] - d[0] == 1 and d[3] - d[2] == 1 and d[4] - d[3] == 1
        assert d[5] - d[1] == 1

    def test_single_column_all_zero(self):
        assert grading_element(LS2(T(4))) == (0, 0, 0, 0)

    def test_value_minus_one_on_every_line(self):
        for parts in compositions_upto(8):
            ls = LS2(T(*parts))
            d = grading_element(ls)
            for ln in ls.lines:
                assert d[ln.i - 1] - d[ln.j - 1] == -1

    def test_inconsistent_lines_have_no_grading(self):
        # Around the triangle 1 -> 2 -> 3 and 1 -> 3, d_3 - d_1 is both 2 and 1.
        lines = (Line(1, 2), Line(1, 3), Line(2, 3))
        assert grading_element(LineSet(T(1, 1, 1), lines, step=2, mode=RIGHTMOST)) is None

    def test_missing_grading_fails_the_report(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(verify, "grading_element", lambda ls: None)
        report = verify_composition((2, 1, 1, 2))
        assert report["checks"]["grading"] is False and report["pass"] is False
        assert cli.main(["verify", "-c", "2,1,1,2", "-o", str(tmp_path)]) == 1
        assert "failed checks: grading" in capsys.readouterr().out


class TestDensity:
    def test_goldens(self):
        t = T(2, 1, 1, 2)
        assert density_check(LS2(t)) == (True, 13)
        t = T(1, 2, 2, 1)
        ok, dim = density_check(LS2(t))
        assert ok and dim == len(nilradical_basis(t))

    def test_single_column_vacuous(self):
        assert density_check(LS2(T(5))) == (True, 0)

    def test_exhaustive_small(self):
        for parts in compositions_upto(7):
            t = T(*parts)
            ok, dim = density_check(LS2(t))
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
        ok, dim = density_check(ls)
        assert len(nilradical_basis(t)) == 96
        assert dim == rank_fractions(_derived_bracket_rows(t, ls))
        assert ok and dim == 96


class TestCodimOrbit:
    # codim_orbit computes under P' only; the paper's P codimensions are
    # asserted through the bracketing oracle.
    def test_2112_paper_values(self):
        t = T(2, 1, 1, 2)
        e = [MatrixUnit(1, 3), MatrixUnit(2, 4), MatrixUnit(4, 5)]
        assert codim_orbit(t, e) == 3
        assert _codim_under_p(t, e) == 2

    def test_1221_paper_values(self):
        t = T(1, 2, 2, 1)
        e = [MatrixUnit(1, 2), MatrixUnit(2, 4)]
        assert _codim_under_p(t, e) > 2
        regular = e + [MatrixUnit(3, 5)]
        assert _codim_under_p(t, regular) == 2

    def test_full_point_is_dense_for_p(self):
        for parts in compositions_upto(6):
            t = T(*parts)
            point = [ln.unit for ln in step1(t).lines]
            assert _codim_under_p(t, point) == 0

    def test_weighted_mapping_accepted(self):
        # On 2,1, [h_1, c E_13] = c E_13 and [E_21, c E_13] = c E_23, so any
        # nonzero multiple of E_13 is dense under P'; the zero point is not.
        t = T(2, 1)
        assert codim_orbit(t, {MatrixUnit(1, 3): 3}) == 0
        assert codim_orbit(t, {MatrixUnit(1, 3): 0}) == 2

    def test_non_integer_coefficients_rejected(self):
        # Truncating 0.5 to 0 would read a nonzero point as the zero point.
        t = T(1, 1)
        for c in (0.5, 1.5, "x", True, False, 1.0):
            with pytest.raises(InvalidInputError, match="not an integer"):
                codim_orbit(t, {MatrixUnit(1, 2): c})


def _codim_under_p(t, units):
    """The oracle's codimension of the P-orbit of a coefficient-1 point."""
    return len(nilradical_basis(t)) - orbit_span_dimension(t, {u.key: 1 for u in units}, "P")


def _orbit_inputs():
    for parts in list(compositions_upto(8)) + list(HEAVY_COMPOSITIONS):
        yield T(*parts)


class TestOrbitRowsOracle:
    """density_check and codim_orbit against bracketing every basis matrix."""

    def test_density_matches_oracle(self):
        for t in _orbit_inputs():
            ls = LS2(t)
            point = {ln.key: 1 for ln in ls.lines}
            extra = [{ln.key: 1} for ln in ls.zero_lines()]
            dim = orbit_span_dimension(t, point, "P'", extra)
            assert density_check(ls) == (dim == len(nilradical_basis(t)), dim)

    def test_codim_orbit_matches_oracle(self):
        for t in _orbit_inputs():
            ls2 = LS2(t)
            section = [ln.unit for ln in step3(ls2).lines]
            e = [ln.unit for ln in ls2.one_lines()]
            weighted = {u: 3 if k % 2 else 1 for k, u in enumerate(section)}
            dim_m = len(nilradical_basis(t))
            for point in (section, e, weighted):
                coeffs = point if isinstance(point, dict) else dict.fromkeys(point, 1)
                keyed = {u.key: c for u, c in coeffs.items()}
                expected = dim_m - orbit_span_dimension(t, keyed, "P'")
                assert codim_orbit(t, point) == expected, t

    def test_codim_orbit_of_random_points_matches_oracle(self):
        # On a line graph (2-colourable) a sign error in the bracket's second
        # sum only rescales columns and keeps every rank; sparse random points
        # with odd cycles tell the two apart under P'.
        rng = random.Random(20261019)
        for parts in compositions_upto(7):
            t = T(*parts)
            units = nilradical_basis(t)
            dim_m = len(units)
            for _ in range(4):
                chosen = rng.sample(units, min(dim_m, rng.randint(1, 5)))
                point = {u: rng.choice((-3, -1, 1, 2, 3)) for u in chosen}
                keyed = {u.key: c for u, c in point.items()}
                expected = dim_m - orbit_span_dimension(t, keyed, "P'")
                assert codim_orbit(t, point) == expected, (parts, point)

    def test_battery_regime_matches_oracle(self):
        # The sizes the benchmark times: n uniform in [18, 26], parts 1..4,
        # drawn here without the package.  The coefficient-3 point puts 3
        # on every other unit of the section, so a coefficient lost or
        # misplaced in a row changes the rank.
        rng = random.Random(20261020)
        for _ in range(30):
            parts, left = [], rng.randint(18, 26)
            while left:
                parts.append(rng.randint(1, min(4, left)))
                left -= parts[-1]
            t = T(*parts)
            ls = LS2(t)
            dim_m = len(t.nilradical_keys)
            extra = [{ln.key: 1} for ln in ls.zero_lines()]
            dim = orbit_span_dimension(t, {ln.key: 1 for ln in ls.lines}, "P'", extra)
            assert density_check(ls) == (dim == dim_m, dim), parts
            section = [ln.unit for ln in step3(ls).lines]
            for coeffs in ((1, 1), (3, 1)):
                point = {u: coeffs[k % 2] for k, u in enumerate(section)}
                keyed = {u.key: c for u, c in point.items()}
                expected = dim_m - orbit_span_dimension(t, keyed, "P'")
                assert codim_orbit(t, point) == expected, (parts, coeffs)

    def test_density_failure_paths_match_oracle(self):
        # A 0-line dropped from V (kept in the point, relabelled 1), or a
        # 1-line dropped from the point, can make the span fall short of m;
        # (pass, dim) must follow the oracle either way.
        failures = 0
        for parts in compositions_upto(7):
            t = T(*parts)
            dim_m = len(t.nilradical_keys)
            for mode in (RIGHTMOST, LEFTMOST):
                ls = LS2(t, mode)
                variants = []
                for ln in ls.lines:
                    if ln.label == 0:
                        kept = [Line(x.i, x.j, 1) if x is ln else x for x in ls.lines]
                    else:
                        kept = [x for x in ls.lines if x is not ln]
                    variants.append(LineSet(t, tuple(kept), step=2, mode=mode))
                for variant in variants:
                    extra = [{ln.key: 1} for ln in variant.zero_lines()]
                    point = {ln.key: 1 for ln in variant.lines}
                    dim = orbit_span_dimension(t, point, "P'", extra)
                    assert density_check(variant) == (dim == dim_m, dim), (parts, mode)
                    failures += dim < dim_m
        assert failures > 0

    def test_non_unit_keys_rejected(self):
        # Plain (i, j) tuples used to end in AttributeError.
        t = T(2, 1, 1, 2)
        for point in ([(1, 3)], {(1, 3): 1}, [MatrixUnit(1, 3), "x"], {MatrixUnit(1, 3): 1, None: 2}):
            with pytest.raises(InvalidInputError, match="not a MatrixUnit"):
                codim_orbit(t, point)

    def test_point_neither_mapping_nor_iterable_rejected(self):
        # These used to end in TypeError: '...' object is not iterable.
        for point in (5, None, 1.5):
            with pytest.raises(InvalidInputError, match="neither a mapping nor an iterable"):
                codim_orbit(T(2, 1, 1, 2), point)

    def test_point_outside_the_nilradical(self):
        # (5, 6) lies inside one column block; (1, 9) beyond the tableau.
        for t, point in (
            (T(2, 1, 1, 2), [MatrixUnit(1, 3), MatrixUnit(5, 6)]),
            (T(1, 1), [MatrixUnit(1, 9)]),
        ):
            with pytest.raises(InvalidInputError, match="leaves the nilradical"):
                codim_orbit(t, point)


class TestBattery:
    # SHA-256 of the sorted-key JSON list of the reports for every
    # composition with n <= 8, then the heavy compositions, all at bound 8.
    # A deliberate report change (a schema bump) updates it in the same commit.
    GOLDEN_DIGEST = "a9f5dffa53dc81c24c25a785cef309b8ce58ba9aaa384c529f1d44824e31ee48"

    def test_golden_report_digest(self):
        inputs = list(compositions_upto(8)) + list(HEAVY_COMPOSITIONS)
        reports = [verify_composition(parts, 8) for parts in inputs]
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN_DIGEST

    # The same digest over compositions whose invariants run long: four at
    # bound 12, and one whose reports hold 0.5 MB of invariants at bound 8.
    LARGE_INVARIANT_DIGEST = "4595aa0b95ecb33d7c57af3b24eeaf2fbf5b536575e59bedabf576cf31c9701d"

    def test_large_invariant_report_digest(self):
        inputs = [((4, 1, 1, 1, 1, 4), 12), ((4, 2, 1, 1, 4), 12), ((3, 1, 1, 1, 1, 1, 1, 3), 12)]
        inputs += [((5, 1, 1, 5), 12), ((2, 1, 4, 3, 1, 4, 1, 2, 1, 4, 1, 1, 1), 8)]
        reports = [verify_composition(parts, bound) for parts, bound in inputs]
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.LARGE_INVARIANT_DIGEST

    def test_raw_values_rejected(self):
        # Both used to end in "'... object is not iterable".
        for bad in (None, 5):
            with pytest.raises(InvalidInputError):
                verify_composition(bad)

    def test_bools_are_not_integers(self):
        with pytest.raises(InvalidInputError):
            verify_composition((True, 1, 1, True))
        with pytest.raises(InvalidInputError):
            verify_composition((2, 1, 1, 2), det_bound=True)

    def test_size_14_generic_minor_is_checked(self):
        start = time.perf_counter()
        report = verify_composition((2, 3, 3, 3, 3, 2), 16)
        assert time.perf_counter() - start < 60
        assert report["pass"] is True and report["skipped"] == []
        (outer,) = [p for p in report["pairs"] if p["pair"] == [1, 6]]
        assert outer["size"] == 14
        assert outer["degree_observed"] == outer["degree_formula"]

    def test_size_17_generic_minor_fits_the_memo_budget(self):
        # The full expansion of pair (1,7)'s generic minor exceeds
        # MEMO_BUDGET; its top-degree expansion does not.
        start = time.perf_counter()
        report = verify_composition((2, 3, 3, 3, 3, 3, 2), 17)
        assert time.perf_counter() - start < 60
        assert report["pass"] is True and report["skipped"] == []
        (outer,) = [p for p in report["pairs"] if p["pair"] == [1, 7]]
        assert outer["size"] == 17
        assert outer["degree_observed"] == outer["degree_formula"] == 12

    def test_memo_budget_records_skip(self, monkeypatch):
        # Pair (1,4) of 1,2,2,1 tabulates 36 entries for the top-degree
        # expansion of its generic minor (54 in full), its restriction 10,
        # its nilfibre 5, and pair (2,3) at most 7.
        monkeypatch.setattr(poly, "MEMO_BUDGET", 20)
        report = verify_composition((1, 2, 2, 1), 8)
        assert report["skipped"] == ["pair (1,4) size 5"]
        outer, inner = report["pairs"]
        assert outer["invariant"] is None and outer["degree_observed"] is None
        assert outer["restriction"] is not None and outer["nilfibre_zero"] is True
        assert inner["degree_observed"] == inner["degree_formula"] == 2
