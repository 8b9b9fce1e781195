"""Command-line front end: construct | verify | sweep.

verify runs the whole battery for one composition and writes a ws-report/1
JSON document; sweep maps the same battery over every composition of each
n <= n_max (lexicographic order, one pure worker call per composition) and
aggregates.  Oversized generic determinants are recorded as skipped, never
as failures.  All output is deterministic: sorted keys, stable orderings.
Exit codes: 0 pass, 1 failed check or resource limit, 2 bad input, bad bound
or unwritable output.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import construction, invariants, render, verify
from .construction import extract_section, lineset_to_json, step1, step2, step3
from .errors import (
    InvalidInputError,
    InvalidStateError,
    NilfibreViolationError,
    OutputError,
    P1ViolationError,
    ResourceLimitError,
    SectionDefectError,
    WsectionsError,
)
from .poly import det
from .tableau import Composition, build_tableau, compositions, neighboring_pairs, nilradical_basis

REPORT_SCHEMA = "ws-report/1"
SWEEP_N_MAX = 12


def _gap_count(parts: tuple[int, ...]) -> int:
    heights = sorted(set(parts))
    return heights[-1] - len(heights)


def _extremal_profile(ls: construction.LineSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    has_left = {ln.j for ln in ls.lines}
    has_right = {ln.i for ln in ls.lines}
    entries = range(1, ls.tableau.n + 1)
    return (
        tuple(e for e in entries if e not in has_left),
        tuple(e for e in entries if e not in has_right),
    )


def verify_composition(parts: tuple[int, ...], det_bound: int | None = None) -> dict:
    """Run every check for one composition; pure and deterministic."""
    comp = Composition(tuple(parts))
    t = build_tableau(comp)
    pairs = neighboring_pairs(t)
    g = len(pairs)
    dim_m = len(nilradical_basis(t))
    bound = invariants.det_size_bound(det_bound)

    ls1 = step1(t)
    ls2 = step2(ls1, construction.RIGHTMOST)
    ls3 = step3(ls2)
    sec = extract_section(ls3)

    checks: dict[str, bool] = {}
    checks["step1_count"] = len(ls1.lines) == comp.n - max(comp.parts)
    checks["zero_count_is_g"] = len(ls2.zero_lines()) == g
    checks["one_count"] = len(ls2.one_lines()) == (comp.n - comp.r) - _gap_count(comp.parts)
    checks["zero_count_stable"] = len(ls3.zero_lines()) == g
    checks["extremal_boxes"] = _extremal_profile(ls1) == _extremal_profile(ls3)

    pair_reports = []
    skipped: list[str] = []
    coords = []
    all_p1 = all_p2 = True
    restrictions_ok = True
    nilfibre_ok = True
    degrees_ok = True
    for pair in pairs:
        ms = invariants.build_minor(t, pair)
        entry: dict = {
            "pair": [pair.v, pair.v_prime],
            "height": pair.s,
            "size": ms.size,
            "degree_formula": ms.degree,
        }
        try:
            construction.verify_P1(ls3, pair)
            entry["p1"] = True
        except P1ViolationError:
            entry["p1"] = False
            all_p1 = False
        entry["p2"] = entry["p1"] and construction.verify_P2(ls3, pair)
        if not entry["p2"]:
            all_p2 = False
        try:
            sign, unit = invariants.section_coordinate(ms, sec)
            entry["restriction"] = str(unit)
            entry["sign"] = sign
            coords.append(unit)
        except SectionDefectError:
            entry["restriction"] = None
            entry["sign"] = None
            restrictions_ok = False
        try:
            invariants.restrict_to_E(ms, sec)
            entry["nilfibre_zero"] = True
        except NilfibreViolationError:
            entry["nilfibre_zero"] = False
            nilfibre_ok = False
        if ms.size <= bound:
            invariant = det(ms.matrix).top_term()
            entry["invariant"] = invariant.to_string()
            entry["degree_observed"] = invariant.degree()
            if entry["degree_observed"] != ms.degree:
                degrees_ok = False
        else:
            entry["invariant"] = None
            entry["degree_observed"] = None
            skipped.append(f"pair ({pair.v},{pair.v_prime}) size {ms.size}")
        pair_reports.append(entry)

    checks["p1_all"] = all_p1
    checks["p2_all"] = all_p2
    checks["restrictions_distinct_exhaust_v"] = (
        restrictions_ok and len(set(coords)) == g and set(coords) == set(sec.v)
    )
    checks["nilfibre_vanishing"] = nilfibre_ok
    checks["degrees_match"] = degrees_ok

    separation = {}
    for mode in (construction.RIGHTMOST, construction.LEFTMOST):
        ls_mode = ls2 if mode == construction.RIGHTMOST else step2(ls1, mode)
        rank = verify.separation_rank(t, ls_mode)
        expected = len(ls_mode.one_lines())
        separation[mode] = {"rank": rank, "expected": expected, "pass": rank == expected}
    checks["separation_both_modes"] = all(m["pass"] for m in separation.values())

    dense, dim = verify.density_check(t, ls2)
    checks["density"] = dense

    grading = verify.grading_element(ls2)
    checks["grading"] = all(grading.on_line(ln.i, ln.j) == -1 for ln in ls2.lines)

    return {
        "schema": REPORT_SCHEMA,
        "composition": list(comp.parts),
        "n": comp.n,
        "g": g,
        "dim_m": dim_m,
        "lines": {
            "step1": len(ls1.lines),
            "zeros": len(ls2.zero_lines()),
            "ones": len(ls2.one_lines()),
        },
        "pairs": pair_reports,
        "separation": separation,
        "separation_rank": separation[construction.RIGHTMOST]["rank"],
        "expected_rank": separation[construction.RIGHTMOST]["expected"],
        "density": {"dim": dim, "dim_m": dim_m, "pass": dense},
        "density_dim": dim,
        "checks": checks,
        "skipped": skipped,
        "pass": all(checks.values()),
    }


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_text(out_dir: str, name: str, text: str) -> Path:
    path = Path(out_dir) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return path


def _write_report(out_dir: str, name: str, payload: dict) -> Path:
    return _write_text(out_dir, name, _dump_json(payload))


def cmd_construct(args: argparse.Namespace) -> int:
    comp = Composition.parse(args.composition)
    t = build_tableau(comp)
    ls = step1(t)
    if args.stage >= 2:
        ls = step2(ls, args.mode)
    if args.stage >= 3:
        ls = step3(ls)
    if args.format == "ascii":
        text = render.render_ascii(ls)
    elif args.format == "json":
        text = _dump_json(lineset_to_json(ls))
    elif args.format == "tikz":
        text = render.render_tikz(ls)
    else:
        text = render.render_svg(ls)
    sys.stdout.write(text)
    if args.out_dir:
        ext = {"ascii": "txt", "json": "json", "tikz": "tex", "svg": "svg"}[args.format]
        name = f"construct-{'-'.join(map(str, comp.parts))}-stage{args.stage}.{ext}"
        _write_text(args.out_dir, name, text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    comp = Composition.parse(args.composition)
    report = verify_composition(comp.parts, args.det_size_bound)
    name = f"verify-{'-'.join(map(str, comp.parts))}.json"
    path = _write_report(args.out_dir, name, report)
    failures = sorted(k for k, ok in report["checks"].items() if not ok)
    status = "pass" if report["pass"] else "FAIL"
    print(f"{comp}: {status} (g={report['g']}, dim m={report['dim_m']}) -> {path}")
    if failures:
        print("failed checks: " + ", ".join(failures))
    return 0 if report["pass"] else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise InvalidInputError(f"--n-max must be at least 1, got {args.n_max}")
    if args.n_max > SWEEP_N_MAX:
        raise InvalidInputError(f"--n-max is capped at {SWEEP_N_MAX} for exhaustive sweeps")
    rows = []
    failures = 0
    skipped_total = 0
    for n in range(1, args.n_max + 1):
        for parts in compositions(n):
            report = verify_composition(parts, args.det_size_bound)
            rows.append(
                {
                    "composition": list(parts),
                    "g": report["g"],
                    "lines": report["lines"]["step1"],
                    "degrees": [p["degree_formula"] for p in report["pairs"]],
                    "pass": report["pass"],
                    "skipped": report["skipped"],
                }
            )
            failures += 0 if report["pass"] else 1
            skipped_total += len(report["skipped"])
    payload = {
        "schema": REPORT_SCHEMA,
        "n_max": args.n_max,
        "rows": rows,
        "summary": {
            "total": len(rows),
            "passed": len(rows) - failures,
            "failed": failures,
            "skipped_degree_checks": skipped_total,
        },
    }
    path = _write_report(args.out_dir, f"sweep-n{args.n_max}.json", payload)
    print(
        f"sweep n<={args.n_max}: {len(rows)} compositions, "
        f"{failures} failures, {skipped_total} skipped degree checks -> {path}"
    )
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsections",
        description="Construct and verify linear sections for block upper-triangular actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="draw the labelled line diagram")
    p_construct.add_argument("-c", "--composition", required=True)
    p_construct.add_argument("--mode", choices=["leftmost", "rightmost"], default="rightmost")
    p_construct.add_argument("--stage", type=int, choices=[1, 2, 3], default=3)
    p_construct.add_argument(
        "--format", choices=["ascii", "json", "tikz", "svg"], default="ascii"
    )
    p_construct.add_argument("-o", "--out-dir", default=None)
    p_construct.set_defaults(func=cmd_construct)

    p_verify = sub.add_parser("verify", help="run every check for one composition")
    p_verify.add_argument("-c", "--composition", required=True)
    p_verify.add_argument("--det-size-bound", type=int, default=None)
    p_verify.add_argument("-o", "--out-dir", default="ws-reports")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="verify all compositions of n <= n-max")
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument("--det-size-bound", type=int, default=None)
    p_sweep.add_argument("-o", "--out-dir", default="ws-reports")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, InvalidStateError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, WsectionsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
