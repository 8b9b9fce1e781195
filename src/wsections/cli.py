"""Command-line front end: construct | verify | sweep.

A thin shell over the library: it parses arguments, writes files and maps
errors to exit codes.  verify runs the battery (verify.verify_composition)
for one composition and writes its ws-report/2 JSON document; sweep maps
the same battery over every composition of each n <= n_max (lexicographic
order, one pure call per composition) and aggregates.  Oversized generic
determinants are recorded as skipped, never as failures.  All output is
deterministic: sorted keys, stable orderings.
main builds its parser once per process, on its first call, and reuses it;
only in-process callers that call main many times gain from this.
Exit codes: 0 pass, 1 failed check or resource limit, 2 bad input, bad bound
or unwritable output.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import render
from .construction import lineset_to_json, step1, step2, step3
from .errors import InvalidInputError, InvalidStateError, OutputError, WsectionsError
from .tableau import Composition, Tableau, compositions
from .verify import REPORT_SCHEMA, verify_composition

SWEEP_N_MAX = 12


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
    t = Tableau(comp)
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


@functools.cache
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
    except WsectionsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
