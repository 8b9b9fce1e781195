"""Tests of the benchmark itself.  Run with: python3 -m pytest bench"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import oracle
from workloads import WORKLOADS, compositions, expansion_terms

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEVEN = {
    "verdicts_per_s": "1/s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "degree_skip_share": "share",
    "failed_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def run_bench(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
        env=env if env is not None else {k: v for k, v in os.environ.items() if k != "WS_DET_BOUND"},
    )


def smoke(workload: str, trace: int) -> tuple[dict[str, tuple[float, str]], dict]:
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload):
    printed, result = smoke(workload, trace=0)
    assert {name: unit for name, (_, unit) in printed.items()} == SEVEN
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert printed["failed_share"][0] == 0.0
    assert result["metrics"] == {
        m["name"]: {"value": printed[m["name"]][0], "unit": m["unit"]} for m in SPEC["end_to_end"]
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_trace_reports_every_layer_and_self_times_sum_to_wall(workload):
    printed, result = smoke(workload, trace=1)
    assert result["correct"] is True
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"], metric["name"]
    self_total = sum(value for name, (value, _) in printed.items() if name.endswith(".self_s"))
    assert self_total == pytest.approx(printed["trace.wall_s"][0], rel=1e-9)
    assert printed["construction.p1_calls_per_pair"][0] == 2.0
    assert printed["tableau.nilradical_basis.calls_per_composition"][0] == 4.0


def test_refuses_to_run_with_det_bound_override():
    proc = run_bench("--workload", "verify-heavy", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--smoke", env={**os.environ, "WS_DET_BOUND": "8"})
    assert proc.returncode == 2
    assert proc.stdout == ""


def real_report(parts: tuple[int, ...], bound: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from wsections.cli import verify_composition
    finally:
        sys.path.pop(0)
    return json.loads(json.dumps(verify_composition(parts, bound)))


@pytest.mark.parametrize(
    "tamper",
    [
        lambda r: r.update(g=r["g"] + 1),
        lambda r: r.update(dim_m=r["dim_m"] - 1),
        lambda r: r["pairs"][0].update(size=r["pairs"][0]["size"] + 1),
        lambda r: r["pairs"].pop(),
        lambda r: r["skipped"].pop(),
        lambda r: r["skipped"].append("pair (1,4) size 3"),
        lambda r: r.update(**{"pass": False}),
    ],
)
def test_tampered_report_fails_the_oracle(tamper):
    parts = (2, 1, 3, 1, 2, 3)  # pairs of sizes 4, 7 and 6; bound 6 skips (1,5)
    report = real_report(parts, 6)
    assert oracle.mismatches(parts, 6, report) == []
    tamper(report)
    assert oracle.mismatches(parts, 6, report) != []


def test_oracle_needs_nothing_from_the_package():
    for name in ("oracle.py", "workloads.py"):
        tree = ast.parse((BENCH / name).read_text(encoding="utf-8"))
        imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert not [m for m in imported if m.split(".")[0] == "wsections"], name


def test_oracle_answers():
    assert oracle.neighboring_pairs((2, 1, 1, 2)) == [(2, 3, 1), (1, 4, 4)]
    assert oracle.dim_m((2, 1, 1, 2)) == (36 - 10) // 2
    assert oracle.neighboring_pairs((1, 2, 3)) == []


def test_workloads_are_deterministic_and_as_documented():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    sweep = compositions(12)
    assert len(set(sweep)) == 2048 and all(sum(c) == 12 for c in sweep)
    for workload in WORKLOADS.values():
        assert workload.inputs(3) == workload.inputs(3)
        assert workload.pass_rng(3, 1).random() == workload.pass_rng(3, 1).random()
    drawn = WORKLOADS["verify-random"].inputs(3)
    assert len(drawn) == 60
    assert all(18 <= sum(c) <= 26 and set(c) <= {1, 2, 3, 4} for c in drawn)
    assert WORKLOADS["verify-random"].inputs(4) != drawn


def test_expansion_terms_counts_nonzero_permutations():
    # Brute force over permutations of the translated minor's support.
    for parts, v, vp in [((2, 1, 1, 2), 1, 4), ((1, 2, 3, 1, 2), 2, 5), ((3, 1, 2, 1, 3), 1, 5)]:
        column = [k for k, h in enumerate(parts) for _ in range(h)]
        lo, hi, s = sum(parts[: v - 1]), sum(parts[: vp - 1]), parts[v - 1]
        nonzero = [[a == b or column[a] < column[b] for b in range(lo + s, hi + s)] for a in range(lo, hi)]
        brute = sum(all(nonzero[r][p[r]] for r in range(hi - lo)) for p in permutations(range(hi - lo)))
        assert expansion_terms(parts[v - 1 : vp]) == brute


def test_scaled_seconds_cancels_host_speed():
    import run

    def sample(k: int, seconds: float, ref: float):
        return run.Sample(k, (1,), k * 1.0, seconds, ref, (), False)

    # A host at half speed doubles both the calls and the reference loop.
    slow = [sample(k, 0.2, 2 * run.REF_NOMINAL) for k in range(5)]
    assert run.scaled_seconds(slow) == pytest.approx([0.1] * 5)
    # Each call is judged by the references within SPEED_WINDOW of it.
    mixed = [sample(k * 10, 0.1, ref) for k, ref in enumerate([run.REF_NOMINAL, 2 * run.REF_NOMINAL])]
    assert run.scaled_seconds(mixed) == pytest.approx([0.1, 0.05])
