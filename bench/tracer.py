"""Spans and counters around the calls into each wsections layer.

The tracer wraps target functions from outside the package.  Each target is
found by name once, then replaced by object identity in every namespace of
every loaded ``wsections.*`` module (and the classes defined there), so a
function imported by name elsewhere -- ``cli.det``, ``verify.rank_int`` -- is
caught as well as the original, wherever a refactor moves the caller.

A span records its layer, its parent span and its start and end.  Spans stay
in memory and are written once, by ``dump``.  A call into a layer that is
already open further up the stack (``verify_P1`` inside ``verify_P2``) is
counted but opens no span of its own, so a layer's spans never overlap and
its busy time is the plain sum of their durations.  Self time is a span's
duration minus the time its children cover.  A layer whose wrapper saw no
call is reported absent, never as zero.

Create the tracer after wsections is imported; ``install`` and
``uninstall`` may then alternate, and spans accumulate across them.
"""
from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

BAREISS_MIN_SIZE = 13  # poly switches from Laplace expansion to Bareiss here


def _det_layer(open_layers: dict[str, int]) -> str:
    if open_layers.get("invariants.restrict"):
        return "poly.det.restrict"
    if open_layers.get("invariants.nilfibre"):
        return "poly.det.nilfibre"
    return "poly.det.generic"


def _observe_det(counters, layer, args, result):
    size = args[0].size
    counters[layer + ".size_max"] = max(counters[layer + ".size_max"], size)
    if size >= BAREISS_MIN_SIZE:
        counters["poly.det.bareiss.calls"] += 1


def _observe_top_term(counters, layer, args, result):
    counters["poly.top_term.terms_expanded"] += len(args[0].terms)
    counters["poly.top_term.terms_kept"] += len(result.terms)


def _observe_rank(counters, layer, args, result):
    rows = args[0]
    counters["linalg.rank_int.cells"] += len(rows) * len(rows[0]) if rows else 0
    counters["linalg.rank_int.rows_max"] = max(counters["linalg.rank_int.rows_max"], len(rows))


# (module, attribute path, layer or layer chooser, observer)
TARGETS = (
    ("wsections.cli", "main", "cli.main", None),
    ("wsections.cli", "verify_composition", "cli.battery", None),
    ("wsections.cli", "_write_report", "cli.report", None),
    ("wsections.tableau", "nilradical_basis", "tableau.nilradical_basis", None),
    ("wsections.construction", "step1", "construction.steps", None),
    ("wsections.construction", "step2", "construction.steps", None),
    ("wsections.construction", "step3", "construction.steps", None),
    ("wsections.construction", "extract_section", "construction.steps", None),
    ("wsections.construction", "verify_P1", "construction.p1p2", None),
    ("wsections.construction", "verify_P2", "construction.p1p2", None),
    ("wsections.invariants", "build_minor", "invariants.build_minor", None),
    ("wsections.invariants", "section_coordinate", "invariants.restrict", None),
    ("wsections.invariants", "restrict_to_section", "invariants.restrict", None),
    ("wsections.invariants", "restrict_to_E", "invariants.nilfibre", None),
    ("wsections.poly", "det", _det_layer, _observe_det),
    ("wsections.poly", "Polynomial.top_term", "poly.top_term", _observe_top_term),
    ("wsections.linalg", "rank_int", "linalg.rank_int", _observe_rank),
    ("wsections.verify", "separation_rank", "verify.separation", None),
    ("wsections.verify", "density_check", "verify.density", None),
    ("wsections.verify", "grading_element", "verify.grading", None),
)


def _resolve(module: str, path: str):
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    for attr in path.split("."):
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


def _namespaces():
    """Every loaded wsections module and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if name != "wsections" and not name.startswith("wsections."):
            continue
        yield module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("wsections"):
                yield value


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (layer, parent index or -1, start, end)
        self.calls: defaultdict[str, int] = defaultdict(int)  # per target and per layer
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.missing: list[str] = []  # targets not found by name
        self._stack: list[int] = []
        self._open: defaultdict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers = {}  # id(original) -> (original, wrapper)
        for module, path, layer, observe in TARGETS:
            fn = _resolve(module, path)
            if fn is None:
                self.missing.append(f"{module}:{path}")
            else:
                self._wrappers[id(fn)] = (fn, self._wrap(fn, f"{module}:{path}", layer, observe))

    def install(self) -> None:
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, value))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def _wrap(self, fn, target, layer, observe):
        spans, stack, opened = self.spans, self._stack, self._open
        calls, counters = self.calls, self.counters

        @wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(opened)
            calls[target] += 1
            calls[name] += 1
            if opened[name]:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                spans.append(None)  # filled in on return, once the end is known
                parent = stack[-1] if stack else -1
                stack.append(index)
                opened[name] += 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[index] = (name, parent, start, perf_counter())
                    stack.pop()
                    opened[name] -= 1
            if observe is not None:
                observe(counters, name, args, result)
            return result

        return wrapper

    def layer_times(self) -> tuple[float, dict[str, float], dict[str, float]]:
        """(traced wall, busy seconds per layer, self seconds per layer).

        The traced wall is the summed duration of the root spans; the self
        times of all layers add up to it.
        """
        covered = [0.0] * len(self.spans)
        wall = 0.0
        busy: defaultdict[str, float] = defaultdict(float)
        for layer, parent, start, end in self.spans:
            busy[layer] += end - start
            if parent < 0:
                wall += end - start
            else:
                covered[parent] += end - start
        own: defaultdict[str, float] = defaultdict(float)
        for (layer, _, start, end), children in zip(self.spans, covered):
            own[layer] += end - start - children
        return wall, dict(busy), dict(own)

    def dump(self, path) -> None:
        """Write every span, once, as compact JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        doc = {
            "layers": names,
            "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
