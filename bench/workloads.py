"""The benchmark's workloads: which compositions a run verifies.

A run draws its compositions once from the seed, then verifies all of them
in every pass, in an order drawn per pass; the same seed always gives the
same inputs.  Compositions are generated here, not by wsections,
so the inputs do not depend on the code under test.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Callable

import oracle

Composition = tuple[int, ...]

DEFAULT_BOUND = 8  # the package's default --det-size-bound, pinned here

HEAVY = (
    (15, 15, 15, 15),
    (10, 10, 10, 10),
    (3,) + (2,) * 8 + (3,),
    (1,) + (2,) * 10 + (1,),
    (2,) + (1,) * 20 + (2,),
)

RANDOM_COUNT = 60
RANDOM_POOL = 600


def compositions(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n, one per set of cut points."""
    out = []
    for cuts in range(1 << (n - 1)):
        parts, run = [], 1
        for k in range(n - 1):
            if cuts >> k & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def random_composition(rng: random.Random) -> Composition:
    """n uniform in [18, 26], parts uniform in 1..4 (the last one clipped)."""
    left = rng.randint(18, 26)
    parts = []
    while left:
        part = rng.randint(1, min(4, left))
        parts.append(part)
        left -= part
    return tuple(parts)


@cache
def expansion_terms(block: Composition) -> int:
    """Permutations whose entries are all nonzero in the generic translated
    minor of the pair at the ends of ``block`` (the parts from v to v').
    Position (a, b) is nonzero when a == b or a's column lies left of b's;
    rows run over the entries of columns v..v'-1, and columns over the same
    range shifted down by the pair's height."""
    column = [k for k, height in enumerate(block) for _ in range(height)]
    s, size = block[0], sum(block[:-1])
    rows = [[c for c in range(size) if r == c + s or column[r] < column[c + s]] for r in range(size)]
    ways = {0: 1}  # column sets used by the first r rows -> partial permutations
    for cols in rows:
        step: dict[int, int] = {}
        for mask, count in ways.items():
            for c in cols:
                if not mask >> c & 1:
                    step[mask | 1 << c] = step.get(mask | 1 << c, 0) + count
        ways = step
    return sum(ways.values())


def cost_estimate(parts: Composition, bound: int) -> float:
    """Rough verify cost: the dense density rank on dim m plus the terms the
    generic determinants under the bound expand.  Used only to stratify
    draws; it fits per-composition times at the seed with r = 0.96."""
    terms = sum(
        expansion_terms(parts[v - 1 : vp]) for v, vp, size in oracle.neighboring_pairs(parts) if size <= bound
    )
    return oracle.dim_m(parts) ** 2.5 + 320 * terms


def _random(rng: random.Random) -> list[Composition]:
    # One draw from each run of ten in the pool sorted by cost: the same
    # distribution as drawing 60 at once, with far less spread between seeds
    # in how much work the draw holds.
    pool = sorted(
        (random_composition(rng) for _ in range(RANDOM_POOL)),
        key=lambda c: cost_estimate(c, DEFAULT_BOUND),
    )
    stride = RANDOM_POOL // RANDOM_COUNT
    return [rng.choice(pool[k * stride : (k + 1) * stride]) for k in range(RANDOM_COUNT)]


@dataclass(frozen=True)
class Workload:
    name: str
    bound: int
    draw: Callable[[random.Random], list[Composition]]

    def inputs(self, seed: int) -> list[Composition]:
        return self.draw(random.Random(f"{self.name}:{seed}"))

    def pass_rng(self, seed: int, k: int) -> random.Random:
        """The generator that orders the calls of pass k."""
        return random.Random(f"{self.name}:{seed}:{k}")


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-n12", 12, lambda rng: compositions(12)),
        Workload("verify-heavy", DEFAULT_BOUND, lambda rng: list(HEAVY)),
        Workload("verify-random", DEFAULT_BOUND, _random),
    )
}
