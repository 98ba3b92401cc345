"""The compiled form a code keeps: one compile, one classification and one
plan per smoothed set for all of its invariants, and nothing the code's
value shows."""

import dataclasses
import gc
import pickle
import random
import statistics
import threading
import tracemalloc
import weakref

from knotoids.affine import affine_index
from knotoids.arrow import arrow_polynomial
from knotoids.bracket import bracket
from knotoids.closures import carter_genus, virtual_closure
from knotoids.codes import classify_crossings, parse
from knotoids.errors import KnotoidError
from knotoids.parity import odd_writhe
from knotoids.parity_bracket import parity_bracket
from knotoids.smoothing import CompiledCode, compiled_form
from helpers import count_calls, invariant_suite, random_code, random_multi_code

FIG1G = "open: OA+ OB+ UC+ UD+ UA+ OE+ UF+ OD+ UB+ UE+ OF+ OC+"

# The invariants that share one compiled form, in the order computed.
INVARIANTS = (
    ("odd_writhe", lambda code: odd_writhe(code).value),
    ("bracket", bracket),
    ("arrow", arrow_polynomial),
    ("parity", parity_bracket),
    ("parity_closed", lambda code: parity_bracket(code, closed=True)),
    ("genus", carter_genus),
    ("affine", affine_index),
)


def values(code, order=INVARIANTS):
    """Each invariant of ``code``, or the type of the error it raises."""
    out = {}
    for name, fn in order:
        try:
            out[name] = fn(code)
        except KnotoidError as exc:
            out[name] = type(exc).__name__
    return out


def fresh(code):
    """An equal code that has never been compiled."""
    return dataclasses.replace(code)


def families():
    rng = random.Random(1501)
    for _ in range(12):
        yield random_code(rng, rng.randint(0, 9), loops=rng.randint(1, 3))
    for _ in range(12):
        yield random_multi_code(rng, rng.randint(1, 9))
    for _ in range(8):
        yield virtual_closure(random_code(rng, rng.randint(0, 8)))
    for _ in range(8):
        yield random_multi_code(rng, rng.randint(0, 8), empty=True)
    for n in (12, 13, 14):
        yield random_code(rng, n)


def test_a_computed_code_looks_unchanged():
    code = parse(FIG1G)
    before = (
        hash(code), repr(code), dataclasses.fields(code),
        dataclasses.replace(code), pickle.dumps(code),
    )
    values(code)
    assert "_compiled" in vars(code)
    after = (
        hash(code), repr(code), dataclasses.fields(code),
        dataclasses.replace(code), pickle.dumps(code),
    )
    assert after == before
    assert code == parse(FIG1G) and parse(FIG1G) == code
    copy = pickle.loads(pickle.dumps(code))
    assert copy == code and copy.meta == code.meta and "_compiled" not in vars(copy)
    assert "_compiled" not in vars(dataclasses.replace(code))


def test_the_compiled_form_dies_with_its_code():
    code = parse(FIG1G)
    values(code)
    form = weakref.ref(compiled_form(code))
    assert form() is compiled_form(code)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del code  # reference counting alone must free the form: no cycle
        assert form() is None
    finally:
        if was_enabled:
            gc.enable()


def test_values_do_not_depend_on_order_or_memo():
    for code in families():
        forward = values(code)
        backward = values(code, INVARIANTS[::-1])
        assert backward == forward, code
        assert values(fresh(code)) == forward, code


def test_threads_sharing_a_code_get_the_single_thread_values():
    rng = random.Random(1502)
    for n in (8, 10, 12):
        code = random_code(rng, n)
        expected = values(fresh(code))
        barrier = threading.Barrier(4)
        results = [None] * 4

        def work(i):
            barrier.wait()
            results[i] = values(code)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [expected] * 4, code


def count_work(monkeypatch, calls):
    init, order = CompiledCode.__init__, CompiledCode.contraction_order
    monkeypatch.setattr(
        CompiledCode, "__init__", lambda self, code: calls.append("compile") or init(self, code)
    )
    monkeypatch.setattr(
        CompiledCode, "contraction_order",
        lambda self, smooth=None: calls.append("order") or order(self, smooth),
    )
    count_calls(monkeypatch, calls, classify_crossings)


def test_one_compile_and_one_plan_per_smoothed_set(monkeypatch):
    calls = []
    count_work(monkeypatch, calls)
    rng = random.Random(1503)
    all_even = mixed = 0
    for _ in range(60):
        code = random_code(rng, rng.randint(1, 9))
        calls.clear()
        values(code)
        values(code)
        even = all(parity == "even" for parity in compiled_form(code).parity)
        all_even += even
        mixed += not even
        # The full set and the even set, which is the full set when every
        # crossing is even.
        assert calls.count("compile") == 1 and calls.count("classify_crossings") == 1, code
        assert calls.count("order") == (1 if even else 2), code
    assert all_even >= 5 and mixed >= 20


def held_kb(code):
    """The KB that ``code`` keeps once its five walk invariants are computed."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        invariant_suite(code)
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / 1024
    finally:
        tracemalloc.stop()


def test_a_held_form_stays_small():
    # Flat plan steps and one parity string per crossing keep a 16-crossing
    # code's form near 16 KB; steps of nested join tuples kept about 40, and
    # a list of ``CrossingInfo`` objects about 19.
    # Tables kept process-wide on first use (d-power rows, parity tokens)
    # would be charged to the first code measured, so one throwaway code of
    # the same size fills them first.
    invariant_suite(random_code(random.Random(1800), 16))
    rng = random.Random(1801)
    sizes = [held_kb(random_code(rng, 16)) for _ in range(6)]
    assert statistics.median(sizes) <= 18, sizes
