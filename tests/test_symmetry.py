"""The reversal symmetry as a metamorphic oracle.

With J the antidiagonal, X -> J X^T J maps the parabolic of c = (n_1..n_r)
onto that of reversed(c).  It sends x[i,j] to x[n+1-j, n+1-i] and the
neighboring pair (v, v') of c to (r+1-v', r+1-v) of reversed(c).  So each
generic invariant maps onto its partner's up to one global sign, and the two
reports agree on every reading the map keeps, with the two separation modes
swapped.  No permutation-expansion oracle reaches the palindromic minors of
size 14 checked here; the map fixes them.  The two checks take n_max: the
tests run them to n <= 9, and CI to n <= 11.
"""
from helpers import compositions_upto

from wsections.invariants import build_minor, generic_invariant
from wsections.tableau import Composition, NeighborPair, Tableau
from wsections.verify import verify_composition


def reflect(terms: dict, n: int) -> dict:
    """The terms of p(J X^T J): each variable x[i,j] becomes x[n+1-j, n+1-i]."""
    return {
        tuple(sorted(((n + 1 - j, n + 1 - i), e) for (i, j), e in mono)): c
        for mono, c in terms.items()
    }


def same_up_to_sign(p: dict, q: dict) -> bool:
    return p == q or p == {mono: -c for mono, c in q.items()}


def invariant_terms(parts) -> dict:
    """Each pair (v, v') of parts -> the terms of its generic invariant."""
    t = Tableau(Composition(parts))
    out = {}
    for pair in t.neighboring_pairs:
        ms = build_minor(t, pair)
        out[pair.v, pair.v_prime] = generic_invariant(ms, ms.size).terms
    return out


def partner(pair, r: int) -> tuple[int, int]:
    v, vp = pair
    return r + 1 - vp, r + 1 - v


def invariants_map_onto_partners(n_max: int) -> int:
    """Check every generic invariant with n <= n_max against its partner's;
    return how many were checked."""
    checked = 0
    for parts in compositions_upto(n_max):
        n, r = sum(parts), len(parts)
        mine, theirs = invariant_terms(parts), invariant_terms(parts[::-1])
        assert sorted(partner(pair, r) for pair in mine) == sorted(theirs), parts
        for pair, terms in mine.items():
            assert same_up_to_sign(reflect(terms, n), theirs[partner(pair, r)]), (parts, pair)
            checked += 1
    return checked


def reversed_reports_agree(n_max: int) -> int:
    """Check the report of every composition with n <= n_max against its
    reverse's; return how many were compared.  A bound of n_max expands
    every generic minor, so each degree is observed."""
    reports = {parts: verify_composition(parts, n_max) for parts in compositions_upto(n_max)}
    for parts, report in reports.items():
        other, r = reports[parts[::-1]], len(parts)
        for key in ("pass", "g", "dim_m", "lines", "density"):
            assert report[key] == other[key], (parts, key)
        by_pair = {tuple(entry["pair"]): entry for entry in other["pairs"]}
        for entry in report["pairs"]:
            mapped = by_pair[partner(entry["pair"], r)]
            for key in ("height", "size", "degree_formula", "degree_observed"):
                assert entry[key] == mapped[key], (parts, entry["pair"], key)
        assert len(report["pairs"]) == len(other["pairs"])
        assert report["separation"]["rightmost"] == other["separation"]["leftmost"], parts
        assert report["separation"]["leftmost"] == other["separation"]["rightmost"], parts
    return len(reports)


def test_generic_invariants_map_onto_their_partners_up_to_sign():
    assert invariants_map_onto_partners(9) == 1079


def test_reports_of_reversed_compositions_agree():
    assert reversed_reports_agree(9) == 511


def test_palindromic_large_minors_are_fixed_up_to_sign():
    for parts, pair, size in (
        ((2, 3, 3, 3, 3, 2), NeighborPair(1, 6, 2), 14),
        ((4, 1, 1, 1, 1, 4), NeighborPair(1, 6, 4), 8),
    ):
        ms = build_minor(Tableau(Composition(parts)), pair)
        assert ms.size == size
        terms = generic_invariant(ms, size).terms
        assert terms and same_up_to_sign(reflect(terms, sum(parts)), terms), parts
