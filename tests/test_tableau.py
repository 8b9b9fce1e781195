from hypothesis import given, strategies as st
import pytest

from helpers import (
    HEAVY_COMPOSITIONS,
    column_of,
    compositions_by_recursion,
    compositions_upto,
    in_nilradical,
    nilradical_by_definition,
)
from wsections.errors import InvalidInputError, ResourceLimitError
from wsections.tableau import (
    Composition,
    MatrixUnit,
    NeighborPair,
    Tableau,
    bs_degree,
    compositions,
    nilradical_basis,
)

compositions_strategy = st.lists(
    st.integers(min_value=1, max_value=4), min_size=1, max_size=5
).map(tuple)


def T(*parts):
    return Tableau(Composition(tuple(parts)))


class TestComposition:
    def test_parse(self):
        assert Composition.parse("2,1,1,2").parts == (2, 1, 1, 2)
        assert Composition.parse(" 3 , 2 ").parts == (3, 2)

    @pytest.mark.parametrize(
        "bad", ["", "2,0,1", "a,b", "1,-2", "2,,1", "1_0", "+3", "2,\u0663", "\uff12", None, 5, b"2,1"]
    )
    def test_parse_rejects(self, bad):
        # Text only: None and 5 used to end in AttributeError, bytes in TypeError.
        with pytest.raises(InvalidInputError):
            Composition.parse(bad)

    def test_parts_too_long_to_convert_exceed_the_limit(self):
        # 5000 digits is past Python's default int <-> str digit limit; neither path converts it.
        for text in ("9" * 5000, "1," + "0" * 4999 + "1" * 5000):
            with pytest.raises(ResourceLimitError, match="limit"):
                Composition.parse(text)
        with pytest.raises(ResourceLimitError, match="limit"):
            Tableau(Composition((10**5000,)))
        assert Composition.parse("0" * 5000 + "3").parts == (3,)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            Composition(())

    @pytest.mark.parametrize("bad", [(True, 1, 1, True), (2, True), (True,)])
    def test_bool_parts_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            Composition(bad)

    @pytest.mark.parametrize("bad", [5, True, 1.5, -1, None])
    def test_raw_values_rejected(self, bad):
        # A bare value used to end in "'int' object is not iterable".
        with pytest.raises(InvalidInputError):
            Composition(bad)

    def test_prefix(self):
        c = Composition((2, 1, 1, 2))
        assert [c.prefix(v) for v in range(1, 5)] == [0, 2, 3, 4]


class TestNumbering:
    def test_golden_columns(self):
        assert T(2, 1, 1, 2).columns == ((1, 2), (3,), (4,), (5, 6))
        assert T(1, 2, 2, 1).columns == ((1,), (2, 3), (4, 5), (6,))
        assert T(5).columns == ((1, 2, 3, 4, 5),)

    def test_entry_formula(self):
        t = T(3, 2, 1, 1, 2, 3)
        for e in range(1, t.n + 1):
            assert e == t.entry_row[e] + t.composition.prefix(t.entry_col[e])

    @staticmethod
    def assert_bijective(t):
        entries = range(1, t.n + 1)
        assert sorted(e for col in t.columns for e in col) == list(entries)
        assert len({(t.entry_row[e], t.entry_col[e]) for e in entries}) == t.n

    @given(compositions_strategy)
    def test_bijective(self, parts):
        self.assert_bijective(T(*parts))

    def test_bijective_exhaustive(self):
        for parts in compositions_upto(7):
            self.assert_bijective(T(*parts))


class TestNeighboringPairs:
    def test_golden(self):
        assert T(2, 1, 1, 2).neighboring_pairs == (
            NeighborPair(2, 3, 1),
            NeighborPair(1, 4, 2),
        )
        assert T(1, 2, 2, 1).neighboring_pairs == (
            NeighborPair(1, 4, 1),
            NeighborPair(2, 3, 2),
        )

    def test_single_column(self):
        assert T(6).neighboring_pairs == ()

    def test_taller_column_between_is_allowed(self):
        assert NeighborPair(1, 3, 2) in T(2, 3, 2).neighboring_pairs
        assert NeighborPair(1, 5, 2) in T(2, 1, 1, 3, 2).neighboring_pairs

    def test_same_height_between_blocks(self):
        pairs = T(1, 1, 1).neighboring_pairs
        assert pairs == (NeighborPair(1, 2, 1), NeighborPair(2, 3, 1))

    def test_count_matches_adjacent_same_height_runs(self):
        for parts in compositions_upto(8):
            t = T(*parts)
            g = len(t.neighboring_pairs)
            expected = sum(
                max(0, sum(1 for p in parts if p == h) - 1) for h in set(parts)
            )
            assert g == expected

    def test_computed_once_in_height_then_column_order(self):
        for parts in compositions_upto(8):
            t = T(*parts)
            pairs = t.neighboring_pairs
            assert pairs is t.neighboring_pairs
            assert list(pairs) == sorted(pairs, key=lambda p: (p.s, p.v))


class TestNilradical:
    def test_membership_golden(self):
        t = T(2, 1, 1, 2)
        assert in_nilradical(t, MatrixUnit(1, 3))
        assert not in_nilradical(t, MatrixUnit(2, 1))
        assert not in_nilradical(T(1, 2, 2, 1), MatrixUnit(3, 2))

    def test_membership_out_of_range(self):
        with pytest.raises(InvalidInputError):
            in_nilradical(T(2, 1), MatrixUnit(1, 9))

    def test_unit_validation(self):
        with pytest.raises(InvalidInputError):
            MatrixUnit(2, 2)
        with pytest.raises(InvalidInputError):
            MatrixUnit(0, 1)

    def test_non_int_indices_rejected(self):
        # MatrixUnit(True, 3) used to print as x[True,3]; 1.5 was kept.
        for i, j in ((True, 3), (1, True), (1.5, 2), (1, 2.0), ("1", 2), (None, 2)):
            with pytest.raises(InvalidInputError):
                MatrixUnit(i, j)

    def test_basis_goldens(self):
        assert len(nilradical_basis(T(2, 1, 1, 2))) == 13
        assert nilradical_basis(T(1, 1)) == (MatrixUnit(1, 2),)
        assert nilradical_basis(T(4)) == ()

    def test_basis_built_once_per_tableau(self):
        t = T(3, 1, 2)
        assert nilradical_basis(t) is nilradical_basis(t)

    def test_basis_matches_definition_exhaustive(self):
        for parts in compositions_upto(10):
            t = T(*parts)
            assert nilradical_basis(t) == nilradical_by_definition(t)

    def test_flat_tables_match_boxes(self):
        for parts in list(compositions_upto(8)) + list(HEAVY_COMPOSITIONS):
            t = T(*parts)
            cols = [column_of(t, e) for e in range(1, t.n + 1)]
            assert len(t.entry_col) == len(t.entry_row) == len(t.column_end) == t.n + 1
            assert t.entry_col[1:] == tuple(cols)
            assert t.entry_row[1:] == tuple(e - t.composition.prefix(v) for e, v in enumerate(cols, start=1))
            last = {v: max(e for e, w in enumerate(cols, start=1) if w == v) for v in set(cols)}
            assert t.column_end[1:] == tuple(last[v] for v in cols)
            assert t.nilradical_keys == tuple(u.key for u in nilradical_by_definition(t))
            assert t.nilradical_keys == tuple(u.key for u in t.nilradical)

    def test_dimension_formula_exhaustive(self):
        # dim m == (n^2 - sum n_i^2) / 2
        for parts in compositions_upto(10):
            t = T(*parts)
            n = t.n
            expected = (n * n - sum(p * p for p in parts)) // 2
            assert len(nilradical_basis(t)) == expected


class TestBsDegree:
    def test_golden(self):
        assert bs_degree(T(2, 1, 1, 2), NeighborPair(1, 4, 2)) == 4
        assert bs_degree(T(1, 2, 2, 1), NeighborPair(2, 3, 2)) == 2
        assert bs_degree(T(1, 2, 2, 1), NeighborPair(1, 4, 1)) == 3

    def test_rejects_non_neighboring(self):
        with pytest.raises(InvalidInputError):
            bs_degree(T(1, 1, 1), NeighborPair(1, 3, 1))
        with pytest.raises(InvalidInputError):
            bs_degree(T(2, 1), NeighborPair(1, 2, 2))

    def test_bounded_by_span_with_equality_iff_no_taller_between(self):
        for parts in compositions_upto(8):
            t = T(*parts)
            for p in t.neighboring_pairs:
                d = bs_degree(t, p)
                span = sum(parts[i - 1] for i in range(p.v + 1, p.v_prime + 1))
                assert d <= span
                taller_between = any(
                    parts[w - 1] > p.s for w in range(p.v + 1, p.v_prime)
                )
                assert (d == span) == (not taller_between)


class TestCompositions:
    def test_counts(self):
        for n in range(1, 9):
            assert len(list(compositions(n))) == 2 ** (n - 1)

    def test_lexicographic_and_sums(self):
        seq = list(compositions(4))
        assert seq == sorted(seq)
        assert all(sum(parts) == 4 for parts in seq)
        assert seq[0] == (1, 1, 1, 1) and seq[-1] == (4,)

    def test_order_matches_recursive_oracle(self):
        for n in range(13):
            assert list(compositions(n)) == list(compositions_by_recursion(n))

    def test_no_recursion_limit(self):
        # One recursion level per part ended in RecursionError here.
        assert next(compositions(5000)) == (1,) * 5000

    def test_rejects_non_integers(self):
        for n in (True, False, "3", 3.0, None, -1):
            with pytest.raises(InvalidInputError):
                next(compositions(n))
