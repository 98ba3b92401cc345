"""The per-state walk: reconnection, traversal, cusp bookkeeping.

``trace_state`` walks one state; ``CompiledCode.scan`` is its view, one
state per mask.
"""

import random

from knotoids.codes import parse
from knotoids.smoothing import CompiledCode, trace_state
from helpers import random_code

FIG1G = "open: OA+ OB+ UC+ UD+ UA+ OE+ UF+ OD+ UB+ UE+ OF+ OC+"


def states(code, want_words=True):
    """``trace_state`` of every mask, in mask order."""
    compiled = CompiledCode(code)
    for mask in range(1 << compiled.n):
        yield mask, trace_state(compiled, compiled.glue_for_mask(mask), want_words)


def test_ab_label_table():
    # A positive crossing smooths oriented as A and disoriented as B; a
    # negative one the other way round.
    assert CompiledCode(parse("open: O1+ U1+")).sigma_table() == [(1, -1)]
    assert CompiledCode(parse("open: O1- U1-")).sigma_table() == [(-1, 1)]


def test_resolve_trivial():
    [(_, (segments, circles, free))] = states(parse("open:"))
    assert (segments, circles, free) == ([""], [], 0)


def test_resolve_kink_two_ways():
    [(_, oriented), (_, disoriented)] = states(parse("open: O1+ U1+"))
    segments, circles, free = oriented
    assert (len(segments), len(circles), free) == (1, 1, 0)
    segments, circles, free = disoriented
    assert (len(segments), circles, free) == (1, [], 0)
    # The one disoriented site makes exactly two cusps, same side (they cancel).
    [cusps] = segments
    assert len(cusps) == 2
    assert cusps[0] == cusps[1]


def test_enumerate_counts():
    assert len(list(CompiledCode(parse("open:")).scan(False))) == 1
    assert len(list(CompiledCode(parse("open: O1+ U1+")).scan(False))) == 2
    assert len(list(CompiledCode(parse(FIG1G)).scan(True))) == 64


def test_fig1g_seifert_state_structure():
    # The all-oriented state of an oriented diagram has no cusps and one
    # long segment.
    compiled = CompiledCode(parse(FIG1G))
    segments, circles, _ = trace_state(compiled, compiled.glue_for_mask(0), True)
    assert len(segments) == 1
    assert all(word == "" for word in segments + circles)


def test_single_leg_states_have_one_segment():
    rng = random.Random(21)
    for _ in range(40):
        code = random_code(rng, rng.randint(1, 5))
        for _mask, (segments, circles, free) in states(code, False):
            assert len(segments) == 1


def test_toggle_changes_component_count_by_one_closed_classical():
    # A Jordan-curve fact about closed planar curves: open endpoints or
    # virtual codes can reconnect two state components into two again.
    from knotoids.moves import MoveSpec, R1_INSERT, apply_move

    trefoil = parse("loop: O1+ U2+ O3+ U1+ O2+ U3+")
    classical_closed = [
        parse("loop: O1+ U1+"),
        trefoil,
        # Twist insertions keep a diagram planar wherever they happen.
        apply_move(trefoil, MoveSpec(R1_INSERT, (0, 2, True, -1))),
        apply_move(trefoil, MoveSpec(R1_INSERT, (0, 5, False, 1))),
    ]
    for code in classical_closed:
        n = code.crossing_count()
        compiled = CompiledCode(code)
        counts = {}
        for mask in range(1 << n):
            segs, circs, free = trace_state(compiled, compiled.glue_for_mask(mask), False)
            counts[mask] = len(segs) + len(circs) + free
        for mask in range(1 << n):
            for k in range(n):
                assert abs(counts[mask] - counts[mask ^ (1 << k)]) == 1


def test_toggle_changes_component_count_by_at_most_one():
    # On arbitrary codes a toggle moves the count by -1, 0 or +1.
    rng = random.Random(24)
    for _ in range(15):
        n = rng.randint(1, 6)
        code = random_code(rng, n, loops=rng.choice((0, 0, 1)))
        compiled = CompiledCode(code)
        counts = {}
        for mask in range(1 << n):
            segs, circs, free = trace_state(compiled, compiled.glue_for_mask(mask), False)
            counts[mask] = len(segs) + len(circs) + free
        for mask in range(1 << n):
            for k in range(n):
                assert abs(counts[mask] - counts[mask ^ (1 << k)]) <= 1


def test_cusp_pairing():
    rng = random.Random(23)
    for _ in range(25):
        code = random_code(rng, rng.randint(1, 5))
        for mask, (segments, circles, _) in states(code):
            assert sum(map(len, segments + circles)) == 2 * bin(mask).count("1")


def test_empty_loop_contributes_circle():
    for _mask, (_, circles, free) in states(parse("open: O1+ U1+\nloop:")):
        assert len(circles) + free >= 1
