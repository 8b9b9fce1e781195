#!/usr/bin/env python3
"""Time to a verdict for wsections, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file, never from an installed copy.  One process, one
thread, a closed loop with one caller: each composition is verified through
the public CLI entry point, ``wsections.cli.main(["verify", ...])``, and the
next starts when it returns.  A run draws its compositions from the seed,
then repeats whole passes over all of them, each in its own shuffled order,
while another pass of the same length still fits in ``--seconds`` (at least
one pass); a pass calls a cheap composition several times, at random points.
A composition's time to a verdict is the median over all its calls, each
scaled to the host's nominal speed by a reference loop timed around it
(see reference_seconds), which keeps a shared machine's drift out of the
result.  Every verdict is checked against an independent oracle outside
the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` verifies each
composition twice per pass, once with every layer wrapped (see tracer.py)
and once without, alternating which goes first so both see the same
machine, and reports the per-layer metrics and the tracing overhead.  The
last line of stdout is one JSON object with the metrics BENCHMARK.json
names.  Any wrong verdict, nonzero exit or exception makes the run exit 1.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from time import perf_counter

import oracle
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
REF_NOMINAL = 0.00165  # seconds reference_seconds() takes at the baseline machine's median speed
SPEED_WINDOW = 2.0  # least seconds either side of a call whose reference timings gauge the host's speed
CALL_SHARE = 10  # a pass gives each composition at least 1/10 of an even share of the run
SMOKE_SIZE = 3


@dataclass(frozen=True)
class Sample:
    index: int  # position of the composition in the run's inputs
    parts: tuple[int, ...]
    start: float
    seconds: float
    ref: float  # reference_seconds() just before the call
    problems: tuple[str, ...]
    traced: bool
    pairs: int = 0
    skipped: int = 0


def reference_seconds() -> float:
    """Time a fixed pure-Python loop: how fast the host runs right now.

    On a shared host the same interpreter-bound work runs up to 1.5x slower
    at times, for seconds to minutes.  Every timed call and set-up is
    preceded by this loop, so its time can be scaled to the host's nominal
    speed (see scaled_seconds)."""
    start = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return perf_counter() - start


def scaled_seconds(samples: list) -> list[float]:
    """Each call's seconds at the nominal host speed: scaled by REF_NOMINAL
    over the median reference time of the calls (samples in call order)
    that start within SPEED_WINDOW, or one call length if that is longer,
    of it.  A long call spans many speed changes, so it is judged by a
    correspondingly long stretch around it."""
    starts = [s.start for s in samples]
    out = []
    for s in samples:
        reach = max(SPEED_WINDOW, s.seconds)
        lo = bisect_left(starts, s.start - reach)
        hi = bisect_right(starts, s.start + s.seconds + reach)
        out.append(s.seconds * REF_NOMINAL / statistics.median(x.ref for x in samples[lo:hi]))
    return out


def git_commit() -> str:
    """HEAD's commit when the checkout is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(workload, seed: int):
    """Import wsections afresh and draw the inputs; time both."""
    for name in [m for m in sys.modules if m == "wsections" or m.startswith("wsections.")]:
        del sys.modules[name]
    start = perf_counter()
    cli = importlib.import_module("wsections.cli")
    comps = workload.inputs(seed)
    return perf_counter() - start, cli, comps


def verify_one(cli, index: int, parts: tuple[int, ...], bound: int, out_dir: str,
               tracer: Tracer | None) -> Sample:
    """Time one `wsections verify` call, traced if a tracer is given, then
    check its report."""
    argv = ["verify", "-c", ",".join(map(str, parts)), "--det-size-bound", str(bound), "-o", out_dir]
    traced = tracer is not None
    crash = None
    if traced:
        tracer.install()
    ref = reference_seconds()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # RecursionError included
        crash = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = perf_counter() - start
        if traced:
            tracer.uninstall()
    if crash:
        return Sample(index, parts, start, seconds, ref, (crash,), traced)
    path = Path(out_dir) / f"verify-{'-'.join(map(str, parts))}.json"
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
    except (OSError, ValueError) as exc:
        return Sample(index, parts, start, seconds, ref, (f"exit {code}", f"report unreadable: {exc}"), traced)
    problems = oracle.mismatches(parts, bound, report)
    if code != 0:
        problems.insert(0, f"exit {code}")
    return Sample(index, parts, start, seconds, ref, tuple(problems), traced,
                  len(report["pairs"]), len(report["skipped"]))


def measure(cli, workload, seed: int, comps, seconds: float, out_dir: str, smoke: bool,
            tracer: Tracer | None = None) -> list[Sample]:
    """Whole passes over the inputs while another pass still fits in
    ``seconds``.  A pass calls every composition once, in random order, and
    calls it again later in the pass, at a random point, until its calls add
    up to ``seconds / (CALL_SHARE * len(comps))``.  So a cheap composition
    gets several samples spread over the pass, and a costly one a single
    call."""
    budget = seconds / (CALL_SHARE * len(comps))
    samples: list[Sample] = []
    batches = 0
    start = perf_counter()
    for k in count():
        pass_start = perf_counter()
        rng = workload.pass_rng(seed, k)
        pending = list(range(len(comps)))
        rng.shuffle(pending)
        spent = [0.0] * len(comps)
        while pending:
            i = pending.pop()
            modes = (None,) if tracer is None else (tracer, None) if batches % 2 else (None, tracer)
            batches += 1
            for mode in modes:
                samples.append(verify_one(cli, i, comps[i], workload.bound, out_dir, mode))
                spent[i] += samples[-1].seconds
            if spent[i] < budget and not smoke:
                pending.insert(rng.randrange(len(pending) + 1), i)
        now = perf_counter()
        if smoke or now - start + (now - pass_start) > seconds:
            return samples


def smoke_slice(comps):
    """The smallest compositions that have a neighboring pair."""
    return sorted((c for c in comps if oracle.neighboring_pairs(c)), key=oracle.dim_m)[:SMOKE_SIZE]


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank;
    the maximum when there are fewer than eleven samples."""
    ordered = sorted(times)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def verdict_times(samples: list[Sample], seconds: list[float]) -> tuple[float, float, float, float]:
    """Right verdicts per second, p50, tail and the tail's rank, over the
    per-composition medians of the given call times."""
    by_index: dict[int, list[float]] = {}
    right: dict[int, bool] = {}
    for s, t in zip(samples, seconds):
        by_index.setdefault(s.index, []).append(t)
        right[s.index] = right.get(s.index, True) and not s.problems
    times = [statistics.median(group) for group in by_index.values()]
    tail_s, rank = tail(times)
    return sum(right.values()) / sum(times), statistics.median(times), tail_s, rank


def end_to_end(samples: list[Sample], setup: list[tuple[float, float]]) -> tuple[dict, str]:
    """The end-to-end metrics, timings at the nominal host speed; setup is
    (seconds, reference seconds) per set-up."""
    per_s, p50, tail_s, rank = verdict_times(samples, scaled_seconds(samples))
    pairs = sum(s.pairs for s in samples)
    metrics = {
        "verdicts_per_s": (per_s, "1/s"),
        "verdict_p50_s": (p50, "s"),
        "verdict_tail_s": (tail_s, "s"),
        "degree_skip_share": (sum(s.skipped for s in samples) / pairs if pairs else 0.0, "share"),
        "failed_share": (sum(bool(s.problems) for s in samples) / len(samples), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(t * REF_NOMINAL / ref for t, ref in setup), "s"),
    }
    raw_per_s, raw_p50, raw_tail, _ = verdict_times(samples, [s.seconds for s in samples])
    note = (f"{len({s.index for s in samples})} compositions, {len(samples)} calls; tail is "
            f"p{rank:.2f} of the per-composition medians\n"
            f"# unscaled wall clock: verdicts_per_s {raw_per_s!r}, verdict_p50_s {raw_p50!r}, "
            f"verdict_tail_s {raw_tail!r}, setup_s {statistics.median(t for t, _ in setup)!r}\n"
            f"# reference loop median {statistics.median(s.ref for s in samples)!r} s, nominal {REF_NOMINAL} s")
    return metrics, note


def per_layer(tracer: Tracer, samples: list[Sample]) -> dict:
    traced = [s for s in samples if s.traced]
    wall, busy, own = tracer.layer_times()
    calls, counters = tracer.calls, tracer.counters
    metrics = {"trace.wall_s": (wall, "s")}
    for layer in sorted(busy):
        metrics[f"{layer}.busy_s"] = (busy[layer], "s")
        metrics[f"{layer}.busy_share"] = (busy[layer] / wall, "share")
        metrics[f"{layer}.self_s"] = (own[layer], "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    for layer in ("poly.det.generic", "poly.det.restrict", "poly.det.nilfibre"):
        if layer in busy:
            metrics[f"{layer}.size_max"] = (counters[f"{layer}.size_max"], "rows")
    if any(layer.startswith("poly.det.") for layer in busy):
        metrics["poly.det.bareiss.calls"] = (counters["poly.det.bareiss.calls"], "count")
    if counters["poly.top_term.terms_expanded"]:
        kept = counters["poly.top_term.terms_kept"] / counters["poly.top_term.terms_expanded"]
        metrics["poly.top_term.kept_ratio"] = (kept, "share")
    if "linalg.rank_int" in busy:
        metrics["linalg.rank_int.cells"] = (counters["linalg.rank_int.cells"], "count")
        metrics["linalg.rank_int.rows_max"] = (counters["linalg.rank_int.rows_max"], "rows")
    pairs = sum(s.pairs for s in traced)
    p1 = calls["wsections.construction:verify_P1"]
    if p1 and pairs:
        metrics["construction.p1_calls_per_pair"] = (p1 / pairs, "ratio")
    basis = calls["wsections.tableau:nilradical_basis"]
    if basis:
        metrics["tableau.nilradical_basis.calls_per_composition"] = (basis / len(traced), "ratio")
    untraced_s = sum(s.seconds for s in samples if not s.traced)
    metrics["trace.overhead_share"] = (sum(s.seconds for s in traced) / untraced_s - 1, "share")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="one pass over a tiny slice")
    args = parser.parse_args(argv)

    if "WS_DET_BOUND" in os.environ:
        print("bench: refusing to run with WS_DET_BOUND set; it overrides the "
              "workload's determinant bound", file=sys.stderr)
        return 2
    if not (SRC / "wsections" / "__init__.py").is_file():
        print(f"bench: no wsections package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    setup = []
    for _ in range(SETUP_REPEATS):
        ref = reference_seconds()
        seconds, cli, comps = set_up(workload, args.seed)
        setup.append((seconds, ref))
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported wsections from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        comps = smoke_slice(comps)

    OUT.mkdir(exist_ok=True)
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload.name]
    print(f"# workload {workload.name}: {why}")
    print(f"# seed {args.seed}, det bound {workload.bound}, python {platform.python_version()}, "
          f"cores {os.cpu_count()}, machine {platform.machine()}, commit {git_commit()}")
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        tracer = Tracer() if args.trace else None
        samples = measure(cli, workload, args.seed, comps, args.seconds, out_dir, args.smoke, tracer)
    if tracer is not None:
        metrics = per_layer(tracer, samples)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.dump(spans_path)
        print(f"# {len(samples)} calls, half traced; spans written to {spans_path}; "
              f"targets not found: {tracer.missing or 'none'}")
        names = [m["name"] for m in spec["per_layer"]]
    else:
        metrics, note = end_to_end(samples, setup)
        print(f"# {note}")
        names = [m["name"] for m in spec["end_to_end"]]

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    absent = [n for n in names if n not in metrics]
    if absent:
        print(f"# absent (no call seen): {' '.join(absent)}")
    failed = [s for s in samples if s.problems]
    for s in failed[:10]:
        print(f"bench: {','.join(map(str, s.parts))}: {'; '.join(s.problems)}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names if n in metrics},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
