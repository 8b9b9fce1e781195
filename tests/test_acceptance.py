"""Acceptance battery: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; any assertion failure marks the corresponding criterion failed.
"""
import random
import time

import pytest

from helpers import (
    X,
    compositions_upto,
    det_permutation_expansion,
    random_symbolic_matrix,
    ungated_zero_lines,
)
from wsections.construction import RIGHTMOST, extract_section, step1, step2, step3, verify_P1
from wsections.invariants import build_minor, generic_invariant, section_coordinate
from wsections.poly import det
from wsections.tableau import (
    Composition,
    MatrixUnit,
    NeighborPair,
    Tableau,
    bs_degree,
)
from wsections.verify import codim_orbit, verify_composition


def T(*parts):
    return Tableau(Composition(tuple(parts)))


def pipeline(t):
    return step3(step2(step1(t)))


def report(name, started):
    print(f"{name}: PASS ({time.monotonic() - started:.2f}s)")


def test_criterion_1_golden_2112():
    started = time.monotonic()
    t = T(2, 1, 1, 2)
    ls1 = step1(t)
    assert sorted(ln.key for ln in ls1.lines) == [(1, 3), (2, 6), (3, 4), (4, 5)]
    ls2 = step2(ls1, RIGHTMOST)
    assert [ls2.line_map[k].label for k in [(1, 3), (3, 4), (4, 5), (2, 6)]] == [1, 0, 1, 0]
    ls3 = step3(ls2)
    assert (2, 6) not in ls3.line_map
    assert ls3.line_map[(2, 4)].label == 1
    assert ls3.line_map[(3, 6)].label == 0 and not ls3.line_map[(3, 6)].gated
    assert ls3.line_map[(3, 4)].gated
    sec = extract_section(ls3)
    assert sec.e == (MatrixUnit(1, 3), MatrixUnit(2, 4), MatrixUnit(4, 5))
    assert set(sec.v) == {MatrixUnit(3, 4), MatrixUnit(3, 6)}
    restrictions = {
        section_coordinate(build_minor(t, p), sec)[1] for p in t.neighboring_pairs
    }
    assert restrictions == {MatrixUnit(3, 4), MatrixUnit(3, 6)}
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report("criterion 1 (golden 2,1,1,2)", started)


def test_criterion_2_golden_1221():
    started = time.monotonic()
    t = T(1, 2, 2, 1)
    quadratic = X(2, 4) * X(3, 5) - X(2, 5) * X(3, 4)
    cubic = (
        X(1, 2) * X(2, 4) * X(4, 6)
        + X(1, 3) * X(3, 4) * X(4, 6)
        + X(1, 2) * X(2, 5) * X(5, 6)
        + X(1, 3) * X(3, 5) * X(5, 6)
    )
    got_quad = generic_invariant(build_minor(t, NeighborPair(2, 3, 2)))
    got_cubic = generic_invariant(build_minor(t, NeighborPair(1, 4, 1)))
    assert got_quad == quadratic or got_quad == -quadratic
    assert got_cubic == cubic or got_cubic == -cubic

    sec = extract_section(pipeline(t))
    coords = {
        section_coordinate(build_minor(t, p), sec)[1] for p in t.neighboring_pairs
    }
    assert coords == {MatrixUnit(3, 5), MatrixUnit(4, 6)}

    e = [MatrixUnit(1, 2), MatrixUnit(2, 4)]
    assert codim_orbit(t, e, "P") > 2
    assert codim_orbit(t, e + [MatrixUnit(3, 5)], "P") == 2
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report("criterion 2 (golden 1,2,2,1)", started)


def test_criterion_3_golden_321123_figure():
    started = time.monotonic()
    ls = pipeline(T(3, 2, 1, 1, 2, 3))
    assert sorted(ln.key for ln in ls.one_lines()) == [
        (1, 4), (2, 5), (3, 9), (4, 6), (5, 7), (7, 8), (8, 10), (9, 11),
    ]
    assert [ln.key for ln in ungated_zero_lines(ls)] == [(6, 12)]
    gated = {ln.key: ln.gate_stage for ln in ls.zero_lines() if ln.gated}
    assert gated == {(6, 7): 2, (6, 9): 3}
    report("criterion 3 (golden 3,2,1,1,2,3 final diagram)", started)


def test_criterion_4_wide_array_stage2():
    started = time.monotonic()
    t = T(2, 3, 1, 1, 1, 3, 3, 1, 1, 1, 1, 3, 3, 3, 1, 1, 2)
    partial = step3(step2(step1(t)), last_stage=2)
    for pair in t.neighboring_pairs:
        if pair.s <= 2:
            verify_P1(partial, pair)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report("criterion 4 (wide array, P1 through stage 2)", started)


CHECKS = {
    "step1_count", "zero_count_is_g", "one_count", "zero_count_stable", "extremal_boxes",
    "p1_all", "p2_all", "restrictions_distinct_exhaust_v", "nilfibre_vanishing",
    "degrees_match", "separation_both_modes", "density", "grading",
}


def test_criterion_5_exhaustive_sweep():
    started = time.monotonic()
    checked = 0
    for parts in compositions_upto(9):
        result = verify_composition(parts)
        assert set(result["checks"]) == CHECKS
        assert all(result["checks"].values()), (parts, result["checks"])
        assert result["skipped"] == [] and result["pass"] is True
        checked += 1
    assert checked == 511  # all compositions for n <= 9
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(f"criterion 5 (exhaustive sweep, {checked} compositions, n <= 9)", started)


def test_criterion_6_degree_oracle():
    started = time.monotonic()
    checked = 0
    for parts in compositions_upto(8):
        t = T(*parts)
        for pair in t.neighboring_pairs:
            ms = build_minor(t, pair)
            if ms.size <= 7:
                observed = det(ms.matrix).top_term().degree()
                assert observed == bs_degree(t, pair), (parts, pair)
                checked += 1
    outer = det(build_minor(T(2, 1, 1, 2), NeighborPair(1, 4, 2)).matrix)
    assert outer.top_term().degree() == 4
    report(f"criterion 6 (degree oracle, {checked} minors)", started)


def test_criterion_7_determinant_oracle():
    started = time.monotonic()
    rng = random.Random(14092023)
    for _ in range(1000):
        size = rng.randint(1, 5)
        m = random_symbolic_matrix(rng, size)
        assert det(m) == det_permutation_expansion(m)
    report("criterion 7 (determinant vs permutation expansion, 1000 trials)", started)


def test_criterion_8_borel_case():
    started = time.monotonic()
    for n in range(2, 10):
        t = T(*([1] * n))
        ls3 = pipeline(t)
        assert all(ln.label == 0 and not ln.gated for ln in ls3.lines)
        sec = extract_section(ls3)
        assert sec.e == ()
        assert set(sec.v) == {MatrixUnit(k, k + 1) for k in range(1, n)}
        for pair in t.neighboring_pairs:
            ms = build_minor(t, pair)
            assert ms.size == 1
            sign, unit = section_coordinate(ms, sec)
            # entries coincide with column indices here, so the 1x1 minor
            # restricts to its own coordinate with sign +1
            assert sign == 1 and unit.key == (pair.v, pair.v_prime)
    report("criterion 8 (Borel case, n <= 9)", started)
