"""The four benchmark workloads: seeded inputs, their operations and checks.

Each workload builds its inputs from the seed alone, in set-up, and hands
the program nothing else.  Work is organised in rounds: a round is a short,
balanced batch of operations (ops), and a measured pass always ends on a
round boundary, so the mix of cheap and expensive ops is the same in every
run.  Every op's output is checked off the clock; an op that raises or
fails its check counts as failed.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import importlib
import io
import json
import random
import statistics
import sys
import time
import types

clock = time.perf_counter

# Modules whose functions the workloads call or the tracer wraps.
LIBRARY_MODULES = (
    "affine", "arrow", "bracket", "catalog", "cli", "closures", "codes",
    "moves", "parity", "parity_bracket", "smoothing",
)


def import_library() -> types.SimpleNamespace:
    """Import knotoids afresh, so that every set-up pays the import cost.

    Workloads reach every function through this namespace at call time,
    which is what lets the tracer wrap them from outside the package.
    """
    for name in [m for m in sys.modules if m == "knotoids" or m.startswith("knotoids.")]:
        del sys.modules[name]
    package = importlib.import_module("knotoids")
    modules = {name: importlib.import_module(f"knotoids.{name}") for name in LIBRARY_MODULES}
    return types.SimpleNamespace(K=package, **modules)


def passages(lib, rng: random.Random, pairs):
    """Place crossing k+1 at the k-th pair of positions, with seeded roles and sign."""
    codes = lib.codes
    arr = [None] * (2 * len(pairs))
    for k, (i, j) in enumerate(pairs):
        over_first = rng.random() < 0.5
        sign = rng.choice((1, -1))
        lab = str(k + 1)
        arr[i] = codes.Passage("O" if over_first else "U", lab, sign)
        arr[j] = codes.Passage("U" if over_first else "O", lab, sign)
    return arr


def random_code(lib, rng: random.Random, n: int, loops: int = 0):
    """A uniformly random valid code with n crossings and one open leg.

    The draws are made in exactly the order of the test suite's generator
    (``tests/helpers.py``), so the same seed gives the same diagrams.  The
    benchmark keeps its own copy so that its inputs stay fixed when the
    test suite's helpers change; ``check_bench.py`` checks that the two
    agree on criterion 8's first walk.
    """
    codes = lib.codes
    total = 2 * n
    loops = min(loops, max(total - 1, 0))
    slots = list(range(total))
    rng.shuffle(slots)
    arr = passages(lib, rng, [(slots[2 * k], slots[2 * k + 1]) for k in range(n)])
    if loops == 0:
        code = codes.KnotoidCode((codes.ComponentCode("open", tuple(arr)),))
    else:
        cuts = sorted(rng.sample(range(1, total), loops)) if total > 1 else []
        parts, prev = [], 0
        for c in cuts + [total]:
            parts.append(tuple(arr[prev:c]))
            prev = c
        code = codes.KnotoidCode(
            tuple(
                codes.ComponentCode("open" if i == 0 else "loop", p)
                for i, p in enumerate(parts)
            )
        )
    codes.validate(code)
    return code


def even_count(lib, code) -> int:
    return sum(info.parity == "even" for info in lib.codes.classify_crossings(code))


def open_code_with_even(lib, rng: random.Random, n: int, even: int):
    """A seeded random one-leg code with n crossings of which ``even`` are even.

    On one open component a crossing is even when an even number of
    passages lie between its two occurrences, that is when they sit at
    positions of opposite parity.  Pairing ``even`` even positions with odd
    ones and the others among themselves builds such a code directly, at a
    cost that does not depend on the seed.  ``n - even`` must be even.
    """
    if (n - even) % 2 or not 0 <= even <= n:
        raise ValueError(f"no one-leg code has {even} even crossings of {n}")
    evens, odds = list(range(0, 2 * n, 2)), list(range(1, 2 * n, 2))
    rng.shuffle(evens)
    rng.shuffle(odds)
    pairs = list(zip(evens[:even], odds[:even]))
    for rest in (evens[even:], odds[even:]):
        pairs += zip(rest[0::2], rest[1::2])
    rng.shuffle(pairs)
    codes = lib.codes
    code = codes.KnotoidCode((codes.ComponentCode("open", tuple(passages(lib, rng, pairs))),))
    codes.validate(code)
    if even_count(lib, code) != even:
        raise AssertionError("the parity rule of classify_crossings has changed")
    return code


def code_with_even(lib, rng: random.Random, n: int, even: int, loops: int = 0):
    """The first seeded random code with n crossings of which ``even`` are even.

    The parity-bracket engines take time exponential in the even count, so
    fixing it keeps the cost of a code from depending on the seed.  On one
    component the even count has the parity of n.  Draws are rejected until
    the count matches, so set-up cost varies with the seed; only ``cli``,
    with ten small codes, uses this.
    """
    while True:
        code = random_code(lib, rng, n, loops=loops)
        if even_count(lib, code) == even:
            return code


def text(value) -> str:
    """A deterministic rendering of an op's output, for the output digest."""
    if isinstance(value, (tuple, list)):
        return "(" + " | ".join(text(v) for v in value) + ")"
    if hasattr(value, "render"):
        return value.render()
    if hasattr(value, "graphical"):  # FlatParityValue has no render()
        return f"{value.plain} + {sorted(value.graphical.items())}"
    return str(value)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# On a shared host the speed a process gets drifts: the same op on the
# same code can take 50% longer from one second to the next, and whole
# runs of one seed can differ by a third.  A fixed task, timed between
# ops, tracks that drift, so end-to-end times are scaled to the speed at
# which it takes CALIBRATION_REF_S, about its median on the reference
# machine.  The constant only sets the level; runs on one host compare
# the same with any value of it.  An op is scaled by the calibrations
# taken within CALIBRATION_WINDOW_S of it.
CALIBRATION_REF_S = 0.0032
CALIBRATION_EVERY_S = 0.2
CALIBRATION_WINDOW_S = 0.5
_CAL_TABLE = list(range(1024))
_CAL_INDEX = {k: (k * 31) & 1023 for k in range(1024)}


def calibration_task() -> float:
    """Seconds taken by a fixed pure-Python task that shares no code with knotoids.

    Half of it reads tables and half builds and sorts small dicts and
    tuples, the two kinds of work the invariants do: the scan is mostly
    the first, the parity bracket's graphs mostly the second.  All it
    allocates is freed at once, so the program's heap hardly changes it.
    """
    table, index = _CAL_TABLE, _CAL_INDEX
    t0 = clock()
    acc = 0
    for i in range(12000):
        k = index[(i + acc) & 1023]
        acc = (acc + table[k] * 3) & 0xFFFFF
    for i in range(750):
        d = {(i + 37 * k) & 255: (k, i) for k in range(8)}
        acc ^= hash(tuple(sorted(d.items()))) & 0xFFFF
    return clock() - t0


def slowdown_now() -> float:
    """The host's current slowdown against the reference: slower > 1."""
    return statistics.median(calibration_task() for _ in range(3)) / CALIBRATION_REF_S


_RAISED = object()


class Recorder:
    """Latencies, failures and off-clock time of the ops of one measured pass.

    Off the clock are the output checks and, when ``calibrate`` is set, a
    run of the calibration task after the first op and then every
    CALIBRATION_EVERY_S.
    """

    def __init__(self, tracer=None, calibrate=False):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.off_clock_s = 0.0
        self.starts: list[float] = []
        self.calibrations: list[tuple[float, float]] = []  # (when, seconds taken)
        self.calibrate = calibrate
        self.next_calibration = 0.0
        self.errors: list[str] = []
        self.outputs: list[str] = []
        self.keep_outputs = False
        self.tracer = tracer

    def run(self, compute, check):
        """Time ``compute()``, then check its output off the clock."""
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        error = None
        t0 = clock()
        try:
            out = compute()
        except Exception as exc:  # a failing op is counted, the run goes on
            out, error = _RAISED, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        self.starts.append(t0)
        self.latencies.append(t1 - t0)
        if out is not _RAISED:
            try:
                if not check(out):
                    error = "output failed its check"
            except Exception as exc:  # a check that raises is a failed check
                error = f"check raised {type(exc).__name__}: {exc}"
            if self.keep_outputs:
                self.outputs.append(text(out))
        if self.calibrate and clock() >= self.next_calibration:
            self.calibrations.append((clock(), calibration_task()))
            self.next_calibration = clock() + CALIBRATION_EVERY_S
        self.off_clock_s += clock() - t1
        if self.tracer is not None:
            self.tracer.op = None
        if error is not None:
            self.fail(1, error)
        return out

    def slowdowns(self) -> tuple[float, list[float]]:
        """The pass's slowdown and each op's own, against the reference speed.

        An op's slowdown is the median of the calibrations taken from
        CALIBRATION_WINDOW_S before it starts to CALIBRATION_WINDOW_S after
        it ends, or of the four nearest its start when that window holds
        fewer than three, so drift within the pass is corrected where it
        happens.
        """
        when = [w for w, _ in self.calibrations]
        taken = [t for _, t in self.calibrations]
        local = []
        for start, latency in zip(self.starts, self.latencies):
            lo = bisect.bisect_left(when, start - CALIBRATION_WINDOW_S)
            hi = bisect.bisect_right(when, start + latency + CALIBRATION_WINDOW_S)
            if hi - lo < 3:
                k = bisect.bisect_left(when, start)
                lo, hi = max(0, k - 2), k + 2
            local.append(statistics.median(taken[lo:hi]) / CALIBRATION_REF_S)
        return statistics.median(taken) / CALIBRATION_REF_S, local

    def fail(self, count: int, error: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(error)

    def note(self, value) -> None:
        """Add a value computed outside any op to the output digest."""
        if self.keep_outputs:
            self.outputs.append(text(value))


class Walk:
    """Criterion 8's traffic: seeded move walks, five invariants per step.

    One round is one walk: ``random_walk`` from a 2-5 crossing start code,
    the start code's invariant tuple, then one op per step checking that
    the step's tuple equals the start's exactly.  Walk generation and the
    start tuple are on the clock but are not ops.
    """

    name = "walk"
    steps = 20
    max_crossings = 10
    plan_walks = 300  # more than a measured pass uses; the plan wraps round
    trace_rounds = 10
    tail_percentile = 98.0

    def __init__(self, lib, seed: int):
        self.lib = lib
        # Draw order of criterion 8: start size, start code, walk seed.
        rng = random.Random(seed)
        self.walks = []
        for _ in range(self.plan_walks):
            code = random_code(lib, rng, rng.randint(2, 5))
            self.walks.append((code, rng.randrange(1 << 30)))

    def inputs(self):
        serialize = self.lib.codes.serialize
        return [f"{serialize(code)}walk_seed={seed}" for code, seed in self.walks]

    def trajectory(self, index: int):
        code, seed = self.walks[index % len(self.walks)]
        return self.lib.K.random_walk(
            code, steps=self.steps, seed=seed, max_crossings=self.max_crossings
        )

    def invariants(self, code):
        K = self.lib.K
        return (
            K.odd_writhe(code).value,
            K.normalized_bracket(code).normalized,
            K.normalized_arrow(code),
            self.lib.parity_bracket.normalized_parity_bracket(code),
            K.affine_index(code),
        )

    def base(self, code):
        """The reference tuple every step of the walk must reproduce."""
        return self.invariants(code)

    def warm_up(self) -> None:
        code, seed = self.walks[0]
        self.invariants(code)
        self.lib.K.random_walk(code, steps=1, seed=seed, max_crossings=self.max_crossings)

    def run_round(self, index: int, rec: Recorder) -> None:
        try:
            trajectory = self.trajectory(index)
            base = self.base(trajectory[0])
        except Exception as exc:  # the walk's ops cannot run: all fail
            rec.attempted += self.steps
            rec.fail(self.steps, f"walk {index}: {type(exc).__name__}: {exc}")
            return
        rec.note(base)
        for step in trajectory[1:]:
            rec.run(lambda: self.invariants(step), lambda got: got == base)


class StateSum:
    """The 2^n Gray-code state sum: bracket and arrow at 13-16 crossings.

    A round is one seeded random code at each of 13, 14, 15 and 16
    crossings plus the all-positive spiral with 16 crossings; an op is one
    code's ``bracket`` and ``arrow_polynomial`` calls.  The bracket must
    equal the independent skein recursion ``bracket_oracle`` and the
    arrow's coefficients must sum to it.  Each size roughly doubles an op's
    cost, so with five codes a round the median op is the 15-crossing one,
    half the cost of its neighbours above and twice that of those below,
    and noise cannot move the median into another size class.  The plan
    holds eight distinct rounds, a little more than a 20-second pass uses,
    and repeats them when the program is faster; the oracle (as slow as the
    arrow) runs once per distinct code.
    """

    name = "statesum"
    sizes = (13, 14, 15, 16)
    spirals = (8,)
    plan_rounds = 8
    trace_rounds = 1
    tail_percentile = 75.0

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(seed)
        spirals = [lib.K.spiral(k, "+" * (2 * k)) for k in self.spirals]
        self.rounds = [
            [random_code(lib, rng, n) for n in self.sizes] + spirals
            for _ in range(self.plan_rounds)
        ]
        self.oracle: dict[str, object] = {}

    def inputs(self):
        serialize = self.lib.codes.serialize
        return [serialize(code) for batch in self.rounds for code in batch]

    def reference(self, code):
        """``bracket_oracle(code)``, computed once per distinct code."""
        key = self.lib.codes.serialize(code)
        if key not in self.oracle:
            self.oracle[key] = self.lib.K.bracket_oracle(code)
        return self.oracle[key]

    def arrow_sum(self, arrow):
        return sum(arrow.terms.values(), self.lib.K.LaurentA.zero())

    def warm_up(self) -> None:
        small = self.lib.K.spiral(2, "++++")
        self.lib.K.bracket(small)
        self.lib.K.arrow_polynomial(small)

    def run_round(self, index: int, rec: Recorder) -> None:
        K = self.lib.K
        for code in self.rounds[index % len(self.rounds)]:
            rec.run(
                lambda: (K.bracket(code), K.arrow_polynomial(code)),
                lambda got: got[0] == self.reference(code) == self.arrow_sum(got[1]),
            )


class Parity:
    """The parity bracket's graph layer: build, reduce, canonicalize.

    A round is one seeded random code per (crossings, even crossings)
    class; an op is that code's four calls: open, closed, of the virtual
    closure, and flat.  The closed value must equal the closure's value,
    which is criterion 7's identity.  The Gray-code scan is never called.
    The classes keep an op near 0.3 s, so that a pass holds enough ops for
    a steady median; with 12 even crossings one op takes seconds.
    """

    name = "parity"
    classes = ((16, 8), (17, 7), (18, 6), (19, 7), (20, 6))
    plan_rounds = 30
    trace_rounds = 3
    tail_percentile = 80.0

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(seed)
        self.rounds = [
            [open_code_with_even(lib, rng, n, even) for n, even in self.classes]
            for _ in range(self.plan_rounds)
        ]

    def inputs(self):
        serialize = self.lib.codes.serialize
        return [serialize(code) for batch in self.rounds for code in batch]

    def four_calls(self, code):
        K = self.lib.K
        return (
            K.parity_bracket(code),
            K.parity_bracket(code, closed=True),
            K.parity_bracket(K.virtual_closure(code)),
            K.flat_parity_bracket(K.flat_projection(code)),
        )

    def warm_up(self) -> None:
        self.four_calls(self.lib.K.spiral(2, "+-+-"))

    def run_round(self, index: int, rec: Recorder) -> None:
        for code in self.rounds[index % len(self.rounds)]:
            rec.run(lambda: self.four_calls(code), lambda got: got[1] == got[2])


class Cli:
    """The user-facing path: ``knotoids`` commands run in-process.

    A round is a fixed request mix: ``invariants --format json`` on every
    catalog entry and on ten seeded random codes with 8-12 crossings, about
    half of them even and half with a loop component, given as ``--code``
    text; one ``catalog verify``; and six requests that must be refused
    (malformed codes, a code over ``--state-limit``, an unknown catalog
    id).  An op is one
    request.  Warm-up records each request's output; afterwards a valid
    request must exit 0 with byte-identical output, ``catalog verify`` must
    report no failures, and a refused request must exit 1 with a typed JSON
    ``error`` object.
    """

    name = "cli"
    random_sizes = ((8, 4), (9, 3), (10, 4), (11, 5), (12, 6))  # (crossings, even)
    trace_rounds = 3
    tail_percentile = 95.0

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(seed)
        json_flag = ["--format", "json"]
        valid = [
            ["invariants", "--catalog", entry.id, *json_flag]
            for entry in lib.catalog.load_catalog()
        ]
        for n, even in self.random_sizes:
            for loops in (0, 1):
                code = code_with_even(lib, rng, n, even, loops=loops)
                valid.append(["invariants", "--code", self.code_text(code), *json_flag])
        valid.append(["catalog", "verify", *json_flag])
        invalid = [
            ["invariants", "--code", text, *json_flag] for text in self.malformed(rng)
        ]
        over = self.code_text(random_code(lib, rng, 10))
        invalid.append(["invariants", "--code", over, "--state-limit", "8", *json_flag])
        invalid.append(["invariants", "--catalog", f"no_such_entry_{seed}", *json_flag])
        self.requests = [(argv, True) for argv in valid] + [(argv, False) for argv in invalid]
        self.expected: list[tuple[int, str]] = []

    @staticmethod
    def code_text(code) -> str:
        return " ; ".join(
            f"{c.kind}: " + " ".join(p.token() for p in c.passages) for c in code.components
        )

    def malformed(self, rng: random.Random):
        """Four seeded codes, each broken in one of the ways parse rejects."""
        broken = []
        for fault in ("drop", "sign", "role", "token"):
            tokens = self.code_text(random_code(self.lib, rng, 6)).split()
            k = rng.randrange(1, len(tokens))  # tokens[0] is "open:"
            token = tokens[k]
            if fault == "drop":
                del tokens[k]
            elif fault == "sign":
                tokens[k] = token[:-1] + ("-" if token[-1] == "+" else "+")
            elif fault == "role":
                tokens[k] = ("U" if token[0] == "O" else "O") + token[1:]
            else:
                tokens[k] = "X" + token[1:]
            broken.append(" ".join(tokens))
        return broken

    def inputs(self):
        return [json.dumps(argv) for argv, _ in self.requests]

    def call(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                status = self.lib.cli.main(list(argv))
            except SystemExit as exc:  # argparse refusing the request
                status = exc.code
        return status, buf.getvalue()

    def warm_up(self) -> None:
        self.expected = [self.call(argv) for argv, _ in self.requests]

    @staticmethod
    def refused_properly(status: int, out: str) -> bool:
        try:
            error = json.loads(out)["error"]
        except (ValueError, KeyError, TypeError):
            return False
        return status == 1 and isinstance(error.get("type"), str) and "message" in error

    def check(self, argv, valid: bool, expected, got) -> bool:
        if got != expected:
            return False
        status, out = got
        if not valid:
            return self.refused_properly(status, out)
        if status != 0:
            return False
        if argv[0] == "catalog":
            return json.loads(out)["failures"] == 0
        return True

    def run_round(self, index: int, rec: Recorder) -> None:
        for (argv, valid), expected in zip(self.requests, self.expected):
            rec.run(
                lambda: self.call(argv),
                lambda got: self.check(argv, valid, expected, got),
            )


WORKLOADS = {w.name: w for w in (Walk, StateSum, Parity, Cli)}
