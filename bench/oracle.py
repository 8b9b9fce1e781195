"""Independent answers that every verdict of the benchmark is checked against.

Everything here is computed from the composition alone and imports nothing
from wsections, so no change to the package can move the answer a report is
compared with.  Columns and pairs are 1-based, as in the reports.
"""
from __future__ import annotations

import re

_SKIPPED = re.compile(r"pair \((\d+),(\d+)\) size (\d+)")


def neighboring_pairs(parts: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(v, v', size) for every pair of equal-height columns with none of that
    height between them; the minor's size is the sum of parts v+1 .. v'."""
    last: dict[int, int] = {}
    pairs = []
    for v, height in enumerate(parts, start=1):
        if height in last:
            u = last[height]
            pairs.append((u, v, sum(parts[u:v])))
        last[height] = v
    return pairs


def dim_m(parts: tuple[int, ...]) -> int:
    """Dimension of the nilradical: (n^2 - sum n_i^2) / 2."""
    n = sum(parts)
    return (n * n - sum(p * p for p in parts)) // 2


def mismatches(parts: tuple[int, ...], bound: int, report: dict) -> list[str]:
    """Every way the report disagrees with the independent answer; [] if none.

    The report must give g, dim m and the pairs (with their minor sizes) that
    the oracle gives, skip exactly the pairs whose minor exceeds the bound, and
    pass, as the paper claims for every composition.
    """
    pairs = sorted(neighboring_pairs(parts))
    out = []
    if report.get("g") != len(pairs):
        out.append(f"g: report {report.get('g')}, oracle {len(pairs)}")
    if report.get("dim_m") != dim_m(parts):
        out.append(f"dim_m: report {report.get('dim_m')}, oracle {dim_m(parts)}")
    reported = sorted((p["pair"][0], p["pair"][1], p["size"]) for p in report.get("pairs", []))
    if reported != pairs:
        out.append(f"pairs: report {reported}, oracle {pairs}")
    skipped = sorted(
        tuple(map(int, m.groups())) for m in map(_SKIPPED.fullmatch, report.get("skipped", [])) if m
    )
    expected = [p for p in pairs if p[2] > bound]
    if len(skipped) != len(report.get("skipped", [])) or skipped != expected:
        out.append(f"skipped: report {report.get('skipped')}, oracle {expected}")
    if report.get("pass") is not True:
        out.append("verdict is not pass")
    return out
