"""Spans and per-layer counters recorded around calls into knotoids.

The tracer wraps functions of the knotoids modules from outside the
package, by rebinding every module attribute that refers to them; the
program's own code is unchanged.  Public functions get a span each (name,
start, end, parent span, op id).  The parity engine's per-state helpers and
the Gray-code scan's per-state steps are too numerous for a span each, so
they add their busy time and counts to the enclosing span instead.  A
span's self time is its duration minus the time of its children.  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict

from workloads import clock


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "child_s")

    def __init__(self, sid, name, start, parent, op):
        self.id, self.name, self.start, self.parent, self.op = sid, name, start, parent, op
        self.end = None
        self.child_s = 0.0

    def to_json(self):
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None
        self.seconds: defaultdict[str, float] = defaultdict(float)  # inclusive
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.key_sets: list[set] = []
        self.walk_caps: list[int] = []
        self.stdout_marks: list[int | None] = []
        self.missing: list[str] = []

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, clock(), parent, self.op)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        popped = self.stack.pop()
        assert popped is span, "spans must close innermost first"
        duration = span.end - span.start
        self.calls[span.name] += 1
        self.seconds[span.name] += duration
        self.self_seconds[span.name] += duration - span.child_s
        if self.stack:
            self.stack[-1].child_s += duration

    def busy(self, name: str, seconds: float) -> None:
        """Charge work done inside the innermost span without a span of its own."""
        self.calls[name] += 1
        self.seconds[name] += seconds
        if self.stack:
            self.stack[-1].child_s += seconds

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def _rebind(lib, original, replacement) -> None:
    """Point every knotoids module attribute bound to ``original`` at ``replacement``."""
    for module in vars(lib).values():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _spanned(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        span = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(span)
            if after is not None:
                after(args, kwargs, result)

    return wrapper


def _busy(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        tracer.busy(name, clock() - t0)
        if after is not None:
            after(result)
        return result

    return wrapper


def _traced_scan(tracer: Tracer, scan):
    """Wrap the state generator: time each step, not the consumer's work."""

    @functools.wraps(scan)
    def wrapper(self, want_words):
        name = "smoothing.scan_words" if want_words else "smoothing.scan"
        busy, states = 0.0, 0
        states_iter = scan(self, want_words)
        try:
            while True:
                t0 = clock()
                try:
                    item = next(states_iter)
                except StopIteration:
                    busy += clock() - t0
                    return
                busy += clock() - t0
                states += 1
                yield item
        finally:
            tracer.busy(name, busy)
            tracer.counts[f"{name}.states"] += states

    return wrapper


def install(tracer: Tracer, lib) -> None:
    """Wrap the layer boundaries of a freshly imported knotoids."""

    def spanned(module, attr, name, before=None, after=None):
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.missing.append(f"{module.__name__}.{attr}")
            return
        _rebind(lib, fn, _spanned(tracer, name, fn, before, after))

    def busy(module, attr, name, after=None):
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.missing.append(f"{module.__name__}.{attr}")
            return
        _rebind(lib, fn, _busy(tracer, name, fn, after))

    compiled = getattr(lib.smoothing, "CompiledCode", None)
    if compiled is None:
        tracer.missing.append("knotoids.smoothing.CompiledCode")
    else:
        compiled.__init__ = _spanned(tracer, "smoothing.compile", compiled.__init__)
        compiled.scan = _traced_scan(tracer, compiled.scan)

    spanned(lib.codes, "parse", "codes.parse")
    spanned(lib.codes, "classify_crossings", "codes.classify")
    spanned(lib.bracket, "bracket", "bracket")
    spanned(lib.arrow, "arrow_polynomial", "arrow")

    def open_keys(args, kwargs):
        tracer.key_sets.append(set())

    def close_keys(args, kwargs, result):
        tracer.counts["parity_bracket.distinct_keys"] += len(tracer.key_sets.pop())

    def add_key(result):
        if tracer.key_sets:
            tracer.key_sets[-1].add(tuple(result))

    spanned(lib.parity_bracket, "parity_bracket", "parity_bracket", open_keys, close_keys)
    busy(lib.parity_bracket, "_build_state", "parity_bracket.build")
    busy(lib.parity_bracket, "reduce_graph", "parity_bracket.reduce")
    busy(lib.parity_bracket, "canonical_graph", "parity_bracket.canonical", add_key)
    splice = getattr(lib.parity_bracket, "_splice", None)
    if splice is None:
        tracer.missing.append("knotoids.parity_bracket._splice")
    else:
        @functools.wraps(splice)
        def counted_splice(*args, **kwargs):
            tracer.counts["parity_bracket.bigons"] += 1
            return splice(*args, **kwargs)

        _rebind(lib, splice, counted_splice)

    spanned(lib.affine, "affine_index", "affine")
    spanned(lib.parity, "odd_writhe", "parity.odd_writhe")

    def count_moves(args, kwargs, result):
        if result is None:
            return
        tracer.counts["moves.generated"] += len(result)
        if tracer.walk_caps:
            n = args[0].crossing_count()
            cap = tracer.walk_caps[-1]
            tracer.counts["moves.kept"] += sum(n + m.crossing_delta() <= cap for m in result)
        else:
            tracer.counts["moves.kept"] += len(result)

    def enter_walk(args, kwargs):
        tracer.walk_caps.append(kwargs["max_crossings"] if "max_crossings" in kwargs else args[3])

    def leave_walk(args, kwargs, result):
        tracer.walk_caps.pop()

    spanned(lib.moves, "applicable_moves", "moves.applicable", after=count_moves)
    spanned(lib.moves, "apply_move", "moves.apply")
    spanned(lib.moves, "random_walk", "moves.walk", enter_walk, leave_walk)
    spanned(lib.closures, "height_bounds", "closures.height_bounds")
    spanned(lib.closures, "virtual_closure", "closures.virtual_closure")
    spanned(lib.closures, "carter_genus", "closures.genus")
    spanned(lib.catalog, "load_catalog", "catalog.load")
    spanned(lib.catalog, "verify_entry", "catalog.verify")

    def mark_stdout(args, kwargs):
        tracer.stdout_marks.append(_stdout_position())

    def count_bytes(args, kwargs, result):
        start, end = tracer.stdout_marks.pop(), _stdout_position()
        if start is not None and end is not None:
            tracer.counts["cli.request.json_bytes"] += end - start

    spanned(lib.cli, "main", "cli.request", mark_stdout, count_bytes)


def _stdout_position():
    """Characters written so far to a captured (in-memory) stdout."""
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "codes.parse.calls": "count",
    "codes.parse.s": "s",
    "codes.classify.s": "s",
    "smoothing.compile.calls": "count",
    "smoothing.compile.s": "s",
    "smoothing.scan.states": "count",
    "smoothing.scan.s": "s",
    "smoothing.scan.states_per_s": "1/s",
    "smoothing.scan_words.states": "count",
    "smoothing.scan_words.s": "s",
    "smoothing.scan_words.states_per_s": "1/s",
    "bracket.calls": "count",
    "bracket.s": "s",
    "bracket.assembly_self_s": "s",
    "arrow.calls": "count",
    "arrow.s": "s",
    "arrow.assembly_self_s": "s",
    "parity_bracket.calls": "count",
    "parity_bracket.s": "s",
    "parity_bracket.states": "count",
    "parity_bracket.build_s": "s",
    "parity_bracket.reduce_s": "s",
    "parity_bracket.bigons": "count",
    "parity_bracket.canonical_s": "s",
    "parity_bracket.distinct_keys": "count",
    "parity_bracket.key_yield": "ratio",
    "affine.s": "s",
    "parity.odd_writhe.s": "s",
    "moves.applicable.calls": "count",
    "moves.applicable.s": "s",
    "moves.generated": "count",
    "moves.kept": "count",
    "moves.kept_ratio": "ratio",
    "moves.apply.s": "s",
    "moves.walk.s": "s",
    "closures.height_bounds.s": "s",
    "closures.virtual_closure.s": "s",
    "closures.genus.s": "s",
    "catalog.load.s": "s",
    "catalog.verify.s": "s",
    "cli.request.s": "s",
    "cli.request.json_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Totals over the traced pass, one value per LAYER_UNITS entry."""
    s, calls, counts = tracer.seconds, tracer.calls, tracer.counts
    values = {
        "codes.parse.calls": calls["codes.parse"],
        "codes.parse.s": s["codes.parse"],
        "codes.classify.s": s["codes.classify"],
        "smoothing.compile.calls": calls["smoothing.compile"],
        "smoothing.compile.s": s["smoothing.compile"],
        "bracket.calls": calls["bracket"],
        "bracket.s": s["bracket"],
        "bracket.assembly_self_s": tracer.self_seconds["bracket"],
        "arrow.calls": calls["arrow"],
        "arrow.s": s["arrow"],
        "arrow.assembly_self_s": tracer.self_seconds["arrow"],
        "parity_bracket.calls": calls["parity_bracket"],
        "parity_bracket.s": s["parity_bracket"],
        "parity_bracket.states": calls["parity_bracket.build"],
        "parity_bracket.build_s": s["parity_bracket.build"],
        "parity_bracket.reduce_s": s["parity_bracket.reduce"],
        "parity_bracket.bigons": counts["parity_bracket.bigons"],
        "parity_bracket.canonical_s": s["parity_bracket.canonical"],
        "parity_bracket.distinct_keys": counts["parity_bracket.distinct_keys"],
        "parity_bracket.key_yield": _ratio(
            counts["parity_bracket.distinct_keys"], calls["parity_bracket.canonical"]
        ),
        "affine.s": s["affine"],
        "parity.odd_writhe.s": s["parity.odd_writhe"],
        "moves.applicable.calls": calls["moves.applicable"],
        "moves.applicable.s": s["moves.applicable"],
        "moves.generated": counts["moves.generated"],
        "moves.kept": counts["moves.kept"],
        "moves.kept_ratio": _ratio(counts["moves.kept"], counts["moves.generated"]),
        "moves.apply.s": s["moves.apply"],
        "moves.walk.s": s["moves.walk"],
        "closures.height_bounds.s": s["closures.height_bounds"],
        "closures.virtual_closure.s": s["closures.virtual_closure"],
        "closures.genus.s": s["closures.genus"],
        "catalog.load.s": s["catalog.load"],
        "catalog.verify.s": s["catalog.verify"],
        "cli.request.s": s["cli.request"],
        "cli.request.json_bytes": counts["cli.request.json_bytes"],
        "trace.overhead_ratio": overhead_ratio,
    }
    for scan in ("smoothing.scan", "smoothing.scan_words"):
        values[f"{scan}.states"] = counts[f"{scan}.states"]
        values[f"{scan}.s"] = s[scan]
        values[f"{scan}.states_per_s"] = _ratio(counts[f"{scan}.states"], s[scan])
    return {name: values[name] for name in LAYER_UNITS}
