"""Line systems on a numbered tableau: drawing, labelling, rerouting.

The pipeline has three steps.  Step 1 draws a horizontal line between every
pair of row-adjacent boxes.  Step 2 labels each line 1 except for one 0 per
neighboring pair of columns: under the rightmost convention the 0 sits on the
last horizontal segment of the row-s chain running from the left column of
the pair to the right one, under the leftmost convention on the first.

Step 3 repairs the pairs whose region contains 0-labelled lines of smaller
height.  Working down the rows, for each neighboring pair of height i it
gates the ungated 0-lines lying between the columns in rows < i, deletes the
row-i segments that bridge the gaps those lines occupy, and reroutes:

  * the box of row i delimiting a gap on the left is joined down to the
    right endpoint of the gap's first gated line,
  * consecutive gated lines are chained left-endpoint to next right-endpoint,
  * the last gated line of a gap is joined up to the row-i box delimiting it
    on the right,
  * and the final such join, when the last gap touches the right column,
    carries the pair's new 0; otherwise the old row-i 0-segment survives.

All joins carry 1 except that single 0.  Gated lines are never removed: they
stay visible to pairs of smaller height, which is recorded by the stage at
which each gate was applied.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InternalError,
    InvalidInputError,
    InvalidStateError,
    P1UniquenessError,
    P1ViolationError,
)
from .tableau import (
    MatrixUnit,
    NeighborPair,
    Tableau,
    require_neighboring,
)

RIGHTMOST = "rightmost"
LEFTMOST = "leftmost"


@dataclass(frozen=True)
class Line:
    """Directed line between two box entries, always strictly left to right."""

    i: int
    j: int
    label: int = 1
    stage: int = 0  # 0 for step-1 horizontals, else the row stage that added it
    gate_stage: int | None = None  # the row stage that gated it, if any

    def __post_init__(self) -> None:
        gate = 0 if self.gate_stage is None else self.gate_stage
        if any(x.__class__ is not int for x in (self.i, self.j, self.label, self.stage, gate)):
            raise InvalidInputError(f"line fields must be ints, got {self!r}")
        if self.label not in (0, 1):
            raise InvalidInputError(f"line label must be 0 or 1, got {self.label}")
        if self.gated and self.label != 0:
            raise InvalidInputError("only 0-labelled lines can be gated")

    @property
    def gated(self) -> bool:
        return self.gate_stage is not None

    @property
    def key(self) -> tuple[int, int]:
        return (self.i, self.j)

    @property
    def unit(self) -> MatrixUnit:
        return MatrixUnit(self.i, self.j)


@dataclass(frozen=True)
class LineSet:
    """Lines over a tableau together with the pipeline stage they reflect."""

    tableau: Tableau
    lines: tuple[Line, ...]
    step: int
    mode: str | None = None
    stage3_rows: int = 0

    def __post_init__(self) -> None:
        n, col = self.tableau.n, self.tableau.entry_col
        for ln in self.lines:
            if not (1 <= ln.i <= n and 1 <= ln.j <= n and col[ln.i] < col[ln.j]):
                raise InvalidInputError(f"line {ln.key} leaves the nilradical")
        if len({ln.key for ln in self.lines}) != len(self.lines):
            raise InvalidInputError("two lines join the same ordered pair of boxes")

    @cached_property
    def line_map(self) -> dict[tuple[int, int], Line]:
        return {ln.key: ln for ln in self.lines}

    def zero_lines(self) -> tuple[Line, ...]:
        return tuple(ln for ln in self.lines if ln.label == 0)

    def one_lines(self) -> tuple[Line, ...]:
        return tuple(ln for ln in self.lines if ln.label == 1)

    def describe_stage(self) -> str:
        if self.step == 1:
            return "step1"
        if self.step == 2:
            return f"step2/{self.mode}"
        suffix = "" if self.stage3_rows >= self.tableau.height else f"/stage{self.stage3_rows}"
        return f"step3/{self.mode}{suffix}"


@dataclass(frozen=True)
class Section:
    """The data e + V read off a labelled line set.

    e collects the matrix units of the 1-lines; V the units of every 0-line,
    gated ones included (gating hides a line from later composite families,
    it does not shrink V's coordinate set).
    """

    e: tuple[MatrixUnit, ...]
    v: tuple[MatrixUnit, ...]

    def __post_init__(self) -> None:
        if set(self.e) & set(self.v):
            raise InvalidInputError("section with overlapping e and V")

    @cached_property
    def e_keys(self) -> frozenset[tuple[int, int]]:
        """The (i, j) keys of e's units, built on first read and kept."""
        return frozenset(u.key for u in self.e)

    @cached_property
    def v_keys(self) -> frozenset[tuple[int, int]]:
        """The (i, j) keys of V's units, built on first read and kept."""
        return frozenset(u.key for u in self.v)


@dataclass(frozen=True)
class CompositeFamily:
    """The unique disjoint composite-line cover between a neighboring pair."""

    paths: tuple[tuple[int, ...], ...]  # box entries, ordered by starting row

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for path in self.paths:
            out.extend(zip(path, path[1:]))
        return tuple(out)


def _sorted_lines(lines) -> tuple[Line, ...]:
    return tuple(sorted(lines, key=lambda ln: ln.key))


def step1(t: Tableau) -> LineSet:
    """Horizontal lines between row-adjacent boxes; count is sum(n_i) - max."""
    lines = []
    for u in range(1, t.height + 1):
        entries = t.row_entries(u)
        for a, b in zip(entries, entries[1:]):
            lines.append(Line(a, b))
    return LineSet(t, _sorted_lines(lines), step=1)


def _row_chain(t: Tableau, pair: NeighborPair) -> list[int]:
    """The row-s boxes from the pair's left column to its right one."""
    s = pair.s
    return [col[s - 1] for col in t.columns[pair.v - 1 : pair.v_prime] if len(col) >= s]


def _zero_line_for(t: Tableau, pair: NeighborPair, mode: str) -> tuple[int, int]:
    """The horizontal segment of the pair's row-s chain that carries the 0."""
    chain = _row_chain(t, pair)
    if mode == RIGHTMOST:
        return (chain[-2], chain[-1])
    return (chain[0], chain[1])


def step2(ls: LineSet, mode: str = RIGHTMOST) -> LineSet:
    """Label every horizontal line 1 except one 0 per neighboring pair."""
    if ls.step != 1:
        raise InvalidStateError("step2 expects a step-1 line set")
    if mode not in (RIGHTMOST, LEFTMOST):
        raise InvalidInputError(f"unknown labelling mode {mode!r}")
    t = ls.tableau
    zeros = set()
    for pair in t.neighboring_pairs:
        key = _zero_line_for(t, pair, mode)
        if key in zeros:
            raise InternalError(f"two pairs claim the zero line {key}")
        zeros.add(key)
    lines = [Line(ln.i, ln.j, 0 if ln.key in zeros else 1) for ln in ls.lines]
    return LineSet(t, _sorted_lines(lines), step=2, mode=mode)


def step3(ls: LineSet, last_stage: int | None = None) -> LineSet:
    """Apply the row stages 1..last_stage (default: full height).

    Raises InvalidInputError for a last_stage that is not an int (a bool
    included), and InvalidStateError for one outside [1, height].
    """
    if last_stage is not None and last_stage.__class__ is not int:
        raise InvalidInputError(f"stage cap must be an integer, got {last_stage!r}")
    if ls.step != 2 or ls.mode != RIGHTMOST:
        raise InvalidStateError("step3 expects a rightmost step-2 line set")
    t = ls.tableau
    top = t.height if last_stage is None else last_stage
    if not 1 <= top <= t.height:
        raise InvalidStateError(f"stage cap {last_stage} outside [1, {t.height}]")
    lines = dict(ls.line_map)
    for pair in t.neighboring_pairs:  # ordered by (height, left column)
        if pair.s <= top:
            _apply_stage(t, lines, pair)
    return LineSet(t, _sorted_lines(lines.values()), step=3, mode=ls.mode, stage3_rows=top)


def _apply_stage(t: Tableau, lines: dict[tuple[int, int], Line], pair: NeighborPair) -> None:
    v, vp, i = pair.v, pair.v_prime, pair.s
    row, col = t.entry_row, t.entry_col
    caught = [
        ln
        for ln in lines.values()
        if ln.label == 0
        and not ln.gated
        and row[ln.i] < i
        and row[ln.j] < i
        and v <= col[ln.i]
        and col[ln.j] <= vp
    ]
    if not caught:
        return
    caught.sort(key=lambda ln: col[ln.i])
    for a, b in zip(caught, caught[1:]):
        if not (col[a.i] < col[a.j] <= col[b.i]):
            raise InternalError("ungated zero lines lost strict non-overlap")

    chain = _row_chain(t, pair)
    chain_cols = [col[e] for e in chain]
    q = len(chain) - 1

    groups: dict[int, list[Line]] = {}
    for ln in caught:
        lo = col[ln.i]
        gap = max(g for g in range(q) if chain_cols[g] <= lo)
        if not col[ln.j] <= chain_cols[gap + 1]:
            raise InternalError("zero line straddles a row chain box")
        groups.setdefault(gap, []).append(ln)
    gaps = sorted(groups)

    for ln in caught:
        lines[ln.key] = Line(ln.i, ln.j, 0, ln.stage, i)

    for gap in gaps:
        seg = (chain[gap], chain[gap + 1])
        if seg not in lines:
            raise InternalError(f"missing row segment {seg}")
        del lines[seg]

    def add(a: int, b: int, label: int) -> None:
        if (a, b) in lines:
            raise InternalError(f"duplicate line {(a, b)}")
        lines[(a, b)] = Line(a, b, label=label, stage=i)

    last_gap = gaps[-1]
    for idx, gap in enumerate(gaps):
        group = groups[gap]
        add(chain[gap], group[0].j, 1)
        for a, b in zip(group, group[1:]):
            add(a.i, b.j, 1)
        tail = group[-1].i
        if gap != last_gap:
            add(tail, chain[gap + 1], 1)
        elif gap == q - 1:
            add(tail, chain[q], 0)
        else:
            # No gated line sits between the last bridged gap and the right
            # column, so the old horizontal 0-segment stays the pair's 0.
            add(tail, chain[gap + 1], 1)


def _usable(ln: Line, s: int) -> bool:
    return ln.gate_stage is None or ln.gate_stage > s


def _cover(starts, targets_of) -> tuple[int, dict[int, int]]:
    """(number of covers, capped at 2, and one cover) of the starts into their targets.

    A cover gives every start its own target.  There are as many targets as
    starts, so a cover is a perfect matching; one is found by augmenting
    paths walked on an explicit stack, never by recursion.  It is the only
    one exactly when it has no alternating cycle, that is when the graph
    sending each start to the owners of its other targets is acyclic; a
    colouring walk on an explicit stack from every start looks for a cycle.
    """
    owner: dict[int, int] = {}
    for root in starts:
        seen: set[int] = set()
        stack = [(root, iter(targets_of[root]))]
        via: list[int] = []  # via[k] joins stack[k] to stack[k + 1]
        while stack:
            tgt = next((x for x in stack[-1][1] if x not in seen), None)
            if tgt is None:
                stack.pop()
                del via[-1:]
            elif tgt in owner:
                seen.add(tgt)
                via.append(tgt)
                stack.append((owner[tgt], iter(targets_of[owner[tgt]])))
            else:
                for (b, _), t in zip(stack, via + [tgt]):
                    owner[t] = b
                break
        else:
            return 0, {}
    chosen = {b: t for t, b in owner.items()}
    others = {b: [owner[t] for t in targets_of[b] if t != chosen[b]] for b in chosen}
    state = dict.fromkeys(chosen, 0)  # 0 unvisited, 1 on the walk's path, 2 done
    for root in chosen:
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(others[root]))]
        while stack:
            b, nexts = stack[-1]
            for c in nexts:
                if state[c] == 1:  # back to a start on the path: a cycle
                    return 2, chosen
                if not state[c]:
                    state[c] = 1
                    stack.append((c, iter(others[c])))
                    break
            else:
                state[b] = 2
                stack.pop()
    return 1, chosen


def verify_P1(ls: LineSet, pair: NeighborPair) -> CompositeFamily:
    """The unique family of s disjoint composite lines crossing the pair.

    The family covers every box of rows 1..s between the two columns,
    moving strictly left to right: it is the unique cover matching each
    such box outside the right column to a successor outside the left one,
    walked from each box of the left column.  Lines gated at row stages <= s
    are excluded; a gate applied at a later stage still serves this pair.
    """
    t = ls.tableau
    require_neighboring(t, pair)
    v, vp, s = pair.v, pair.v_prime, pair.s
    region = {e for col in t.columns[v - 1 : vp] for e in col[:s]}
    sources, sinks = t.columns[v - 1], set(t.columns[vp - 1])  # both of height s; sources by row
    starts = sorted(region - sinks)
    targets = region.difference(sources)
    targets_of: dict[int, list[int]] = {b: [] for b in starts}
    for ln in ls.lines:
        if ln.i in targets_of and ln.j in targets and _usable(ln, s):
            targets_of[ln.i].append(ln.j)
    for outs in targets_of.values():
        outs.sort()

    count, successor = _cover(starts, targets_of)
    if count == 0:
        raise P1ViolationError(f"no composite family for pair ({v}, {vp})")
    if count > 1:
        raise P1UniquenessError(f"multiple composite families for pair ({v}, {vp})")

    # successor matches region - sinks onto region - sources, and every line
    # moves strictly right, so each source's chain ends at a sink and every
    # region box lies on exactly one chain.
    paths = []
    for source in sources:
        path = [source]
        while path[-1] in successor:
            path.append(successor[path[-1]])
        paths.append(tuple(path))
    return CompositeFamily(paths=tuple(paths))


def verify_P2(ls: LineSet, family: CompositeFamily) -> bool:
    """True iff a composite family found by verify_P1 uses exactly one 0-labelled line."""
    zeros = sum(1 for a, b in family.edges() if ls.line_map[(a, b)].label == 0)
    return zeros == 1


def extract_section(ls: LineSet) -> Section:
    """Units of the 1-lines as e; units of all 0-lines (gated included) as V."""
    if ls.step < 2:
        raise InvalidStateError("labels are only assigned from step 2 on")
    e = tuple(ln.unit for ln in ls.one_lines())
    v = tuple(ln.unit for ln in ls.zero_lines())
    return Section(e=e, v=v)


def lineset_to_json(ls: LineSet) -> dict:
    """Stable JSON document for a line set: boxes by entry, lines by (from, to)."""
    t = ls.tableau
    doc = {
        "schema": "ws-lineset/1",
        "composition": list(t.composition.parts),
        "n": t.n,
        "stage": ls.describe_stage(),
        "boxes": [
            {"entry": e, "row": t.entry_row[e], "col": t.entry_col[e]} for e in range(1, t.n + 1)
        ],
        "lines": [
            {
                "from": ln.i,
                "to": ln.j,
                "label": ln.label,
                "gated": ln.gated,
                "stage": ln.stage,
                "gate_stage": ln.gate_stage,
            }
            for ln in ls.lines
        ],
    }
    if ls.step >= 2:
        sec = extract_section(ls)
        doc["e"] = [[u.i, u.j] for u in sorted(sec.e)]
        doc["V"] = [[u.i, u.j] for u in sorted(sec.v)]
    return doc
