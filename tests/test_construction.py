import json
import random

import pytest

from helpers import HEAVY_COMPOSITIONS, backtracking_cover, compositions_upto, ungated_zero_lines
from wsections import construction
from wsections.construction import (
    LEFTMOST,
    RIGHTMOST,
    Line,
    LineSet,
    Section,
    extract_section,
    lineset_to_json,
    step1,
    step2,
    step3,
    verify_P1,
    verify_P2,
)
from wsections.errors import (
    InvalidInputError,
    InvalidStateError,
    P1UniquenessError,
    P1ViolationError,
)
from wsections.tableau import (
    Composition,
    MatrixUnit,
    NeighborPair,
    Tableau,
)


def T(*parts):
    return Tableau(Composition(tuple(parts)))


def sigma(t, fam):
    """The row each composite line ends in, by the row it starts in."""
    return tuple(t.entry_row[path[-1]] for path in fam.paths)


def labelled(ls):
    return {ln.key: ln.label for ln in ls.lines}


def keys(lines):
    return sorted(ln.key for ln in lines)


class TestStep1:
    def test_golden_2112(self):
        assert keys(step1(T(2, 1, 1, 2)).lines) == [(1, 3), (2, 6), (3, 4), (4, 5)]

    def test_golden_321123(self):
        ls = step1(T(3, 2, 1, 1, 2, 3))
        assert len(ls.lines) == 12 - 3
        assert (3, 12) in ls.line_map

    def test_single_column(self):
        assert step1(T(6)).lines == ()

    def test_count_and_permutation_invariance(self):
        for parts in compositions_upto(10):
            assert len(step1(T(*parts)).lines) == sum(parts) - max(parts)

    def test_at_most_one_line_each_side(self):
        for parts in compositions_upto(8):
            ls = step1(T(*parts))
            lefts = [ln.i for ln in ls.lines]
            rights = [ln.j for ln in ls.lines]
            assert len(lefts) == len(set(lefts))
            assert len(rights) == len(set(rights))


class TestStep2:
    def test_golden_2112_rightmost(self):
        ls = step2(step1(T(2, 1, 1, 2)))
        assert labelled(ls) == {(1, 3): 1, (3, 4): 0, (4, 5): 1, (2, 6): 0}

    def test_golden_1221_rightmost(self):
        ls = step2(step1(T(1, 2, 2, 1)))
        assert keys(ls.zero_lines()) == [(3, 5), (4, 6)]

    def test_golden_321123_rightmost(self):
        ls = step2(step1(T(3, 2, 1, 1, 2, 3)))
        assert keys(ls.zero_lines()) == [(3, 12), (5, 9), (6, 7)]

    def test_borel_all_zero(self):
        for n in range(2, 8):
            ls = step2(step1(T(*([1] * n))))
            assert all(ln.label == 0 for ln in ls.lines)

    def test_modes_differ_when_chain_has_interior(self):
        t = T(2, 3, 2)
        right = step2(step1(t), RIGHTMOST)
        left = step2(step1(t), LEFTMOST)
        assert keys(right.zero_lines()) == [(4, 7)]
        assert keys(left.zero_lines()) == [(2, 4)]

    def test_zero_count_is_g(self):
        for parts in compositions_upto(9):
            t = T(*parts)
            for mode in (RIGHTMOST, LEFTMOST):
                ls = step2(step1(t), mode)
                assert len(ls.zero_lines()) == len(t.neighboring_pairs)

    def test_one_count_matches_gap_formula(self):
        for parts in compositions_upto(9):
            t = T(*parts)
            ls = step2(step1(t))
            heights = sorted(set(parts))
            gaps = heights[-1] - len(heights)
            assert len(ls.one_lines()) == (t.n - len(parts)) - gaps

    def test_top_row_lines_all_zero(self):
        for parts in compositions_upto(8):
            t = T(*parts)
            ls = step2(step1(t))
            top = t.height
            for ln in ls.lines:
                if t.entry_row[ln.i] == top:
                    assert ln.label == 0

    def test_requires_step1(self):
        ls2 = step2(step1(T(2, 2)))
        with pytest.raises(InvalidStateError):
            step2(ls2)


class TestStep3:
    def test_golden_2112(self):
        ls = step3(step2(step1(T(2, 1, 1, 2))))
        assert (2, 6) not in ls.line_map
        assert ls.line_map[(2, 4)].label == 1
        assert ls.line_map[(3, 6)].label == 0 and not ls.line_map[(3, 6)].gated
        gate = ls.line_map[(3, 4)]
        assert gate.label == 0 and gate.gated and gate.gate_stage == 2

    def test_golden_321123_full_figure(self):
        ls = step3(step2(step1(T(3, 2, 1, 1, 2, 3))))
        assert keys(ls.one_lines()) == [
            (1, 4), (2, 5), (3, 9), (4, 6), (5, 7), (7, 8), (8, 10), (9, 11),
        ]
        assert keys(ungated_zero_lines(ls)) == [(6, 12)]
        gated = {ln.key: ln.gate_stage for ln in ls.zero_lines() if ln.gated}
        assert gated == {(6, 7): 2, (6, 9): 3}

    def test_golden_1221_unchanged(self):
        ls2 = step2(step1(T(1, 2, 2, 1)))
        ls3 = step3(ls2)
        assert labelled(ls3) == labelled(ls2)
        assert not any(ln.gated for ln in ls3.lines)

    def test_golden_21132_tall_after_gated_stretch(self):
        # The height-2 pair spans a taller column with no gated line after it,
        # so the old horizontal 0-segment must survive as the pair's 0-line.
        ls = step3(step2(step1(T(2, 1, 1, 3, 2))))
        assert (2, 6) not in ls.line_map
        assert ls.line_map[(2, 4)].label == 1
        assert ls.line_map[(3, 6)].label == 1
        assert ls.line_map[(3, 4)].gated and ls.line_map[(3, 4)].gate_stage == 2
        zero = ls.line_map[(6, 9)]
        assert zero.label == 0 and not zero.gated

    def test_golden_21112_shared_box_chains(self):
        ls = step3(step2(step1(T(2, 1, 1, 1, 2))))
        assert keys(ls.one_lines()) == [(1, 3), (2, 4), (3, 5), (5, 6)]
        assert keys(ungated_zero_lines(ls)) == [(4, 7)]
        assert {ln.key for ln in ls.zero_lines() if ln.gated} == {(3, 4), (4, 5)}

    def test_figure1_stage2(self):
        t = T(2, 3, 1, 1, 1, 3, 3, 1, 1, 1, 1, 3, 3, 3, 1, 1, 2)
        ls = step3(step2(step1(t)), last_stage=2)
        added = {(ln.i, ln.j, ln.label) for ln in ls.lines if ln.stage == 2}
        assert added == {
            (4, 7, 1), (6, 8, 1), (7, 10, 1),
            (13, 15, 1), (12, 16, 1), (15, 17, 1), (16, 18, 1), (17, 20, 1),
            (26, 28, 1), (25, 29, 1),
            (28, 31, 0),
        }
        assert keys(ln for ln in ls.lines if ln.gated) == [
            (6, 7), (7, 8), (12, 15), (15, 16), (16, 17), (17, 18), (25, 28), (28, 29),
        ]
        for seg in [(4, 10), (13, 20), (26, 31)]:
            assert seg not in ls.line_map

    def test_requires_rightmost_step2(self):
        with pytest.raises(InvalidStateError):
            step3(step1(T(2, 2)))
        with pytest.raises(InvalidStateError):
            step3(step2(step1(T(2, 3, 2)), LEFTMOST))

    def test_stage_cap_validation(self):
        ls2 = step2(step1(T(2, 2)))
        with pytest.raises(InvalidStateError):
            step3(ls2, last_stage=0)
        with pytest.raises(InvalidStateError):
            step3(ls2, last_stage=5)
        for cap in (1.5, True, "2"):
            with pytest.raises(InvalidInputError):
                step3(ls2, last_stage=cap)

    def test_zero_count_preserved(self):
        for parts in compositions_upto(8):
            t = T(*parts)
            ls3 = step3(step2(step1(t)))
            assert len(ls3.zero_lines()) == len(t.neighboring_pairs)

    def test_extremal_boxes_preserved(self):
        for parts in compositions_upto(8):
            t = T(*parts)
            ls1 = step1(t)
            ls3 = step3(step2(ls1))

            def profile(ls):
                lefts = {ln.j for ln in ls.lines}
                rights = {ln.i for ln in ls.lines}
                ent = range(1, t.n + 1)
                return (
                    {e for e in ent if e not in lefts},
                    {e for e in ent if e not in rights},
                )

            assert profile(ls1) == profile(ls3)


class TestP1P2:
    def test_families_2112_post_step3(self):
        t = T(2, 1, 1, 2)
        ls = step3(step2(step1(t)))
        fam = verify_P1(ls, NeighborPair(1, 4, 2))
        assert fam.paths == ((1, 3, 6), (2, 4, 5))
        assert sigma(t, fam) == (2, 1)
        fam_inner = verify_P1(ls, NeighborPair(2, 3, 1))
        assert fam_inner.paths == ((3, 4),)
        assert sigma(t, fam_inner) == (1,)

    def test_p1_holds_after_step2_but_p2_fails(self):
        t = T(2, 1, 1, 2)
        ls2 = step2(step1(t))
        pair = NeighborPair(1, 4, 2)
        fam = verify_P1(ls2, pair)
        assert fam.paths == ((1, 3, 4, 5), (2, 6))
        assert verify_P2(ls2, fam) is False

    def test_trivial_pair(self):
        t = T(1, 1)
        ls = step3(step2(step1(t)))
        fam = verify_P1(ls, NeighborPair(1, 2, 1))
        assert fam.paths == ((1, 2),) and sigma(t, fam) == (1,)
        assert verify_P2(ls, fam)

    def test_p1_and_p2_hold_everywhere_after_step3(self):
        for parts in compositions_upto(8):
            t = T(*parts)
            ls = step3(step2(step1(t)))
            for pair in t.neighboring_pairs:
                assert verify_P2(ls, verify_P1(ls, pair))

    def test_region_matches_box_scan(self):
        # verify_P1 takes its region from column slices and walks its cover
        # from the left column with no check of its own: every walk must end
        # in the right column, and every box of the region, found here by
        # scanning every box, must lie on exactly one walk.
        for parts in list(compositions_upto(10)) + list(HEAVY_COMPOSITIONS):
            t = T(*parts)
            ls = step3(step2(step1(t)))
            for pair in t.neighboring_pairs:
                region = {
                    e
                    for e in range(1, t.n + 1)
                    if t.entry_row[e] <= pair.s and pair.v <= t.entry_col[e] <= pair.v_prime
                }
                fam = verify_P1(ls, pair)
                boxes = [e for path in fam.paths for e in path]
                assert len(boxes) == len(region) and set(boxes) == region
                assert [t.entry_row[path[0]] for path in fam.paths] == list(range(1, pair.s + 1))
                assert all(t.entry_col[path[-1]] == pair.v_prime for path in fam.paths)
                assert sorted(sigma(t, fam)) == list(range(1, pair.s + 1))

    def test_missing_line_raises_violation(self):
        t = T(1, 1)
        ls = LineSet(t, (), step=2, mode=RIGHTMOST)
        with pytest.raises(P1ViolationError):
            verify_P1(ls, NeighborPair(1, 2, 1))

    def test_two_families_raise_uniqueness(self):
        t = T(2, 2)
        lines = (
            Line(1, 3, 1), Line(2, 4, 0), Line(1, 4, 1), Line(2, 3, 1),
        )
        ls = LineSet(t, lines, step=2, mode=RIGHTMOST)
        with pytest.raises(P1UniquenessError):
            verify_P1(ls, NeighborPair(1, 2, 2))

    def test_matches_backtracking_oracle(self, monkeypatch):
        # Steps 2 and 3 of every composition with n <= 8, plus step 3 with one
        # line dropped (no family) or with the step-2 lines restored (several
        # families), so that every outcome is compared.
        def outcome(ls, pair):
            try:
                return verify_P1(ls, pair)
            except P1ViolationError as exc:
                return type(exc)

        cases = []
        for parts in compositions_upto(8):
            t = T(*parts)
            ls2 = step2(step1(t))
            ls3 = step3(ls2)
            added = tuple(ln for ln in ls3.lines if ln.key not in ls2.line_map)
            sets = [ls2, ls3, LineSet(t, ls2.lines + added, step=3)]
            dropped = [ls3.lines[:k] + ls3.lines[k + 1 :] for k in range(len(ls3.lines))]
            sets += [LineSet(t, lines, step=3) for lines in dropped]
            cases += [(ls, pair) for ls in sets for pair in t.neighboring_pairs]
        got = [outcome(ls, pair) for ls, pair in cases]
        assert {P1ViolationError, P1UniquenessError} <= set(got)
        monkeypatch.setattr(construction, "_cover", backtracking_cover)
        assert got == [outcome(ls, pair) for ls, pair in cases]

    def test_cover_matches_backtracking_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(2000):
            k = rng.randint(1, 7)
            starts = list(range(k))
            targets_of = {
                b: sorted(rng.sample(range(k, 2 * k), rng.randint(1, min(k, 3)))) for b in starts
            }
            count, cover = construction._cover(starts, targets_of)
            assert count == backtracking_cover(starts, targets_of)[0]
            if count:
                assert len(set(cover.values())) == k
                assert all(cover[b] in targets_of[b] for b in starts)

    def test_cycle_out_of_reach_of_the_first_start(self):
        # Start 1 is forced onto 5 and start 0 takes 4, so 0 sends only to 1;
        # the one alternating cycle, 2 and 3 swapping 6 and 7, is reached
        # from neither, and a walk from the first start alone would miss it.
        targets_of = {0: [4, 5], 1: [5], 2: [6, 7], 3: [6, 7]}
        count, cover = construction._cover([0, 1, 2, 3], targets_of)
        assert count == backtracking_cover([0, 1, 2, 3], targets_of)[0] == 2
        assert cover[0] == 4 and cover[1] == 5 and {cover[2], cover[3]} == {6, 7}

    def test_long_region_needs_no_recursion(self):
        # 1050 starts: a recursive search overflows the interpreter stack.
        t = T(30, *[31] * 34, 30)
        fam = verify_P1(step3(step2(step1(t))), NeighborPair(1, 36, 30))
        assert len(fam.paths) == 30 and len(fam.edges()) == 30 * 35

    def test_gated_lines_serve_lower_pairs_only(self):
        t = T(2, 1, 1, 2)
        ls = step3(step2(step1(t)))
        fam = verify_P1(ls, NeighborPair(2, 3, 1))
        assert ls.line_map[(3, 4)].gated
        assert fam.edges() == ((3, 4),)


class TestSection:
    def test_golden_2112(self):
        sec = extract_section(step3(step2(step1(T(2, 1, 1, 2)))))
        assert sec.e == (MatrixUnit(1, 3), MatrixUnit(2, 4), MatrixUnit(4, 5))
        assert set(sec.v) == {MatrixUnit(3, 4), MatrixUnit(3, 6)}

    def test_golden_1221(self):
        sec = extract_section(step3(step2(step1(T(1, 2, 2, 1)))))
        assert sec.e == (MatrixUnit(1, 2), MatrixUnit(2, 4))
        assert set(sec.v) == {MatrixUnit(4, 6), MatrixUnit(3, 5)}

    def test_single_column(self):
        sec = extract_section(step2(step1(T(5))))
        assert sec.e == () and sec.v == ()

    def test_requires_labels(self):
        with pytest.raises(InvalidStateError):
            extract_section(step1(T(2, 2)))

    def test_non_int_line_fields_rejected(self):
        # label=True used to pass and be written as "label": true; 1.0 and
        # stage=1.5 were kept, and a LineSet of Line("1", 3) ended in TypeError.
        for args, kwargs in (
            ((1, 3), {"label": True}),
            ((1, 3), {"label": 1.0}),
            ((1, 3), {"stage": 1.5}),
            ((1, 3, 0), {"gate_stage": True}),
            (("1", 3), {}),
            ((None, 3), {}),
            ((1, 3.0), {}),
        ):
            with pytest.raises(InvalidInputError):
                Line(*args, **kwargs)
        assert Line(1, 3, 0, 2, 1).gated and not Line(1, 3, 0, 2).gated

    def test_lines_outside_the_nilradical_rejected(self):
        # These used to be accepted: (1, 9) then ended in KeyError in
        # grading_element and IndexError here, and (2, 1) was graded.
        for t, key in (
            (T(1, 1), (1, 9)),
            (T(1, 1), (2, 1)),
            (T(1, 1), (0, 2)),
            (T(1, 1), (1, 1)),
            (T(2, 1, 1, 2), (1, 2)),
            (T(2, 1, 1, 2), (4, 3)),
        ):
            for step in (1, 2, 3):
                with pytest.raises(InvalidInputError, match="leaves the nilradical"):
                    LineSet(t, (Line(*key),), step=step, mode=RIGHTMOST)

    def test_malformed_caller_input_is_invalid_input(self):
        # Each of these used to raise InternalError, which means a bug in the
        # package, although the caller built the bad value.
        t = T(1, 1, 1)
        for build in (
            lambda: Line(1, 3, 2),
            lambda: Line(1, 3, 1, 0, 1),  # a gated 1-line
            lambda: LineSet(t, (Line(1, 3), Line(1, 3)), step=1),
            lambda: Section(e=(MatrixUnit(1, 3),), v=(MatrixUnit(1, 3),)),
        ):
            with pytest.raises(InvalidInputError):
                build()
        ls = LineSet(T(2, 1, 1, 2), (Line(3, 4), Line(1, 6, 0)), step=2, mode=RIGHTMOST)
        assert extract_section(ls) == Section(e=(MatrixUnit(3, 4),), v=(MatrixUnit(1, 6),))


class TestSerialization:
    def test_stable_json(self):
        ls = step3(step2(step1(T(2, 1, 1, 2))))
        doc = lineset_to_json(ls)
        assert doc["schema"] == "ws-lineset/1"
        assert [l["from"] for l in doc["lines"]] == sorted(l["from"] for l in doc["lines"])
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            lineset_to_json(step3(step2(step1(T(2, 1, 1, 2))))), sort_keys=True
        )
        gated = [l for l in doc["lines"] if l["gated"]]
        assert gated == [
            {"from": 3, "to": 4, "label": 0, "gated": True, "stage": 0, "gate_stage": 2}
        ]
