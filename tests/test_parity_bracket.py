"""Parity bracket: graph states, bigon reduction, canonical forms."""

import hashlib
import json
import random

import pytest

from knotoids.bracket import bracket
from knotoids.codes import classify_crossings, flat_projection, parse, serialize
from knotoids.laurent import LaurentA
from knotoids.moves import MoveSpec, R2_INSERT, apply_move
from knotoids.parity_bracket import (
    canonical_graph,
    flat_parity_bracket,
    normalized_parity_bracket,
    parity_bracket,
    parity_states,
    reduce_graph,
)
from helpers import invariant_suite, random_code, relabeled

FIG18 = "open: O1+ U2- U1+ O2-"


def test_knot_type_reproduces_bracket():
    for text in ("open:", "open: O1+ U1+", "open: O1+ U2+ O3+ U1+ O2+ U3+"):
        code = parse(text)
        value = parity_bracket(code)
        assert not value.graphical
        assert value.plain == bracket(code)


def test_all_even_states_have_no_nodes():
    code = parse("open: O1+ U2+ O3+ U1+ O2+ U3+")
    states = list(parity_states(code))
    assert len(states) == 8
    assert all(not s.nodes for s in states)


def test_fig18_single_irreducible_state():
    code = parse(FIG18)
    states = list(parity_states(code))
    assert len(states) == 1
    assert len(states[0].nodes) == 2
    reduced = reduce_graph(states[0])
    assert len(reduced.nodes) == 2  # the bigon criterion refuses it
    value = parity_bracket(code)
    assert value.plain.is_zero()
    assert list(value.graphical.values()) == [LaurentA.one()]


def test_fig25_link_crossing_node():
    code = parse("open: O1+\nloop: U1+")
    value = parity_bracket(code)
    assert value.plain.is_zero()
    assert list(value.graphical.values()) == [LaurentA.one()]


def test_inserted_odd_pair_reduces():
    # An R2 pair straddling one passage lands odd; its two nodes bound a
    # reducible bigon, so the parity bracket is unchanged.
    from knotoids.codes import classify_crossings

    code = parse("open: O1+ U2+ U1+ O2+")
    move = MoveSpec(R2_INSERT, ((0, 1), (0, 2), 1, False, 1))
    rewritten = apply_move(code, move)
    parities = {i.label: i.parity for i in classify_crossings(rewritten)}
    inserted = [lab for lab in parities if lab not in "12"]
    assert [parities[lab] for lab in inserted] == ["odd", "odd"]
    assert normalized_parity_bracket(rewritten) == normalized_parity_bracket(code)


def test_canonical_encoding_relabeling_invariant():
    rng = random.Random(61)
    interesting = 0
    for _ in range(120):
        code = random_code(rng, rng.randint(2, 5), loops=rng.choice((0, 0, 1)))
        value = parity_bracket(code)
        if value.graphical:
            interesting += 1
            assert parity_bracket(relabeled(code, rng)) == value
    assert interesting > 10


def test_canonical_encoding_deterministic():
    code = parse(FIG18)
    (state,) = list(parity_states(code))
    first = canonical_graph(reduce_graph(state))
    for _ in range(5):
        (state,) = list(parity_states(code))
        assert canonical_graph(reduce_graph(state)) == first


def test_flat_parity_values():
    assert flat_parity_bracket(flat_projection(parse("open:"))).plain == 1
    for text in ("open: O1+ U1+", "open: O1+ U2+ O3+ U1+ O2+ U3+",
                 "open: O1+ U2+ U1+ O2+"):
        value = flat_parity_bracket(flat_projection(parse(text)))
        assert value.is_trivial()
        assert value.plain == 1
    fig18 = flat_parity_bracket(flat_projection(parse(FIG18)))
    assert not fig18.is_trivial()
    assert fig18.plain == 0
    assert list(fig18.graphical.values()) == [1]


def test_closed_mode_matches_closure():
    from knotoids.closures import virtual_closure

    rng = random.Random(62)
    for _ in range(60):
        code = random_code(rng, rng.randint(1, 5))
        assert parity_bracket(code, closed=True) == parity_bracket(virtual_closure(code))


def test_parity_bracket_move_invariance_spot():
    from knotoids.moves import applicable_moves

    rng = random.Random(63)
    for _ in range(40):
        code = random_code(rng, rng.randint(1, 4), loops=rng.choice((0, 1)))
        value = normalized_parity_bracket(code)
        moves = applicable_moves(code)
        move = moves[rng.randrange(len(moves))]
        assert normalized_parity_bracket(apply_move(code, move)) == value


def test_loop_rotation_invariance():
    from knotoids.codes import ComponentCode, KnotoidCode

    rng = random.Random(64)
    for _ in range(60):
        code = random_code(rng, rng.randint(1, 5), loops=rng.choice((1, 2)))
        comps = []
        for c in code.components:
            if c.kind == "loop" and len(c.passages) > 1:
                r = rng.randrange(len(c.passages))
                comps.append(ComponentCode("loop", c.passages[r:] + c.passages[:r]))
            else:
                comps.append(c)
        rotated = KnotoidCode(tuple(comps))
        assert parity_bracket(code) == parity_bracket(rotated)
        assert bracket(code) == bracket(rotated)


def test_values_are_hashable_and_graphical_read_only():
    value = parity_bracket(parse(FIG18))
    flat = flat_parity_bracket(flat_projection(parse(FIG18)))
    again = parity_bracket(parse(FIG18))
    assert hash(value) == hash(again)
    assert {value: "fig18", flat: "flat"}[again] == "fig18"
    for v in (value, flat):
        key = next(iter(v.graphical))
        with pytest.raises(TypeError):
            v.graphical[key] = v.graphical[key]


def test_golden_values_at_scale():
    """sha256 pins of 30 seeded one-leg codes of 16-20 crossings, 6-8 of them
    even, as in the ``parity`` benchmark: the open and closed parity brackets
    and the flat parity bracket, recorded before graph states numbered their
    ports ``4 * i + slot``."""
    rng = random.Random(65)
    rows = {"open": [], "closed": [], "flat": []}
    for n, even in [(16, 8), (17, 7), (18, 6), (19, 7), (20, 6)] * 6:
        code = random_code(rng, n)
        while sum(info.parity == "even" for info in classify_crossings(code)) != even:
            code = random_code(rng, n)
        flat = flat_parity_bracket(flat_projection(code))
        rows["open"].append([serialize(code), parity_bracket(code).to_json()])
        rows["closed"].append([serialize(code), parity_bracket(code, closed=True).to_json()])
        rows["flat"].append([serialize(code), flat.plain, sorted(flat.graphical.items())])
    digests = {k: hashlib.sha256(json.dumps(v).encode()).hexdigest() for k, v in rows.items()}
    assert sum(bool(row[1]["graphical"]) for row in rows["open"]) >= 20
    assert digests == {
        "open": "3c7cfae3fc2f7ece239aededd973e5da05e57597b45dcb80fcaf5100b2e2e028",
        "closed": "b340353d67cdf22d97993eb53e3908e3f154dbaf651b144e5993fca3c0420044",
        "flat": "70d85e268fa955bbe672480d0bca54ebcd0ece2176fe0d5516aa7049250265eb",
    }
