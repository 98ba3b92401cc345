"""Move engine: applicability patterns, application, inverses, walks."""

import hashlib
import itertools
import json
import math
import random

import pytest

from knotoids.cli import main
from knotoids.closures import virtual_closure
from knotoids.codes import LOOP, OPEN, classify_crossings, parse, serialize, validate
from knotoids.errors import InapplicableMove
from knotoids.moves import (
    MoveSpec,
    R1_DELETE,
    R1_INSERT,
    R2_DELETE,
    R2_INSERT,
    R3_SLIDE,
    _deletion_moves,
    _labelled_pairs,
    _r3_moves,
    applicable_moves,
    apply_move,
    inverse_of,
    random_walk,
)
from helpers import invariant_suite, random_code, random_multi_code

FIG1G = "open: OA+ OB+ UC+ UD+ UA+ OE+ UF+ OD+ UB+ UE+ OF+ OC+"


def test_trivial_only_insertions():
    moves = applicable_moves(parse("open:"))
    kinds = {m.kind for m in moves}
    assert kinds == {R1_INSERT, R2_INSERT}


def test_kink_has_r1_delete():
    moves = applicable_moves(parse("open: O1+ U1+"))
    assert any(m.kind == R1_DELETE for m in moves)


def test_fig1g_has_no_r1_delete():
    moves = applicable_moves(parse(FIG1G))
    assert not any(m.kind == R1_DELETE for m in moves)


def test_r1_insert_then_delete():
    code = parse("open:")
    inserted = apply_move(code, MoveSpec(R1_INSERT, (0, 0, True, 1)))
    assert serialize(inserted).strip() == "open: O1+ U1+"
    restored = apply_move(inserted, MoveSpec(R1_DELETE, ((0, 0),)))
    assert restored == code


def test_r2_insert_then_delete_roundtrip():
    rng = random.Random(91)
    for _ in range(120):
        code = random_code(rng, rng.randint(0, 4), loops=rng.choice((0, 0, 1)))
        inserts = [m for m in applicable_moves(code) if m.kind == R2_INSERT]
        move = inserts[rng.randrange(len(inserts))]
        bigger = apply_move(code, move)
        validate(bigger)
        inverse = inverse_of(code, move)
        assert inverse.kind == R2_DELETE
        assert apply_move(bigger, inverse) == code


def test_r1_inverse_roundtrip():
    rng = random.Random(92)
    for _ in range(80):
        code = random_code(rng, rng.randint(0, 4))
        inserts = [m for m in applicable_moves(code) if m.kind == R1_INSERT]
        move = inserts[rng.randrange(len(inserts))]
        bigger = apply_move(code, move)
        assert apply_move(bigger, inverse_of(code, move)) == code


def test_deletion_inverses_undo_or_raise():
    """Every R1/R2 deletion's inverse either gives the code back exactly or
    raises ``InapplicableMove``: an R1 deletion at a loop's last pair, an R2
    deletion of an over pair next to its under pair, and an R2 deletion
    across components where the loop's pair wraps round its end read off
    an insertion that is refused or gives another code.  So does a deletion
    of a loop's last two passages: only an insertion after the last passage
    gives them back, and a loop lists no such site."""
    rng = random.Random(7)
    listed = undone = 0
    for _ in range(400):
        code = random_code(rng, rng.randint(2, 5), loops=rng.randint(0, 2))
        if len(code.components) == 1 and rng.random() < 0.5:
            code = virtual_closure(code)
        for move in applicable_moves(code):
            if move.kind not in (R1_DELETE, R2_DELETE):
                continue
            listed += 1
            try:
                inverse = inverse_of(code, move)
            except InapplicableMove:
                continue
            assert apply_move(apply_move(code, move), inverse) == code, (code, move)
            undone += 1
    assert (listed, undone) == (438, 289)


def test_r3_self_inverse_and_invariance():
    rng = random.Random(93)
    tested = 0
    trials = 0
    while tested < 25 and trials < 4000:
        trials += 1
        code = random_code(rng, rng.randint(3, 6))
        r3 = [m for m in applicable_moves(code) if m.kind == R3_SLIDE]
        if not r3:
            continue
        tested += 1
        move = r3[rng.randrange(len(r3))]
        slid = apply_move(code, move)
        assert slid != code
        assert apply_move(slid, move) == code
        assert invariant_suite(slid) == invariant_suite(code)
    assert tested == 25


def test_r3_preserves_parity_multiset():
    rng = random.Random(94)
    checked = 0
    trials = 0
    while checked < 20 and trials < 4000:
        trials += 1
        code = random_code(rng, rng.randint(3, 6))
        r3 = [m for m in applicable_moves(code) if m.kind == R3_SLIDE]
        if not r3:
            continue
        checked += 1
        before = sorted((i.label, i.parity, i.sign) for i in classify_crossings(code))
        after_code = apply_move(code, r3[0])
        after = sorted((i.label, i.parity, i.sign) for i in classify_crossings(after_code))
        assert before == after


def test_r1_inserts_even_crossing():
    rng = random.Random(95)
    for _ in range(500):
        code = random_code(rng, rng.randint(0, 5))
        inserts = [m for m in applicable_moves(code) if m.kind == R1_INSERT]
        move = inserts[rng.randrange(len(inserts))]
        new = apply_move(code, move)
        old_labels = {p.label for _, _, p in code.all_passages()}
        fresh = [i for i in classify_crossings(new) if i.label not in old_labels]
        assert len(fresh) == 1 and fresh[0].parity == "even"


def test_r2_inserts_equal_parity_opposite_signs():
    rng = random.Random(96)
    for _ in range(500):
        code = random_code(rng, rng.randint(0, 5), loops=rng.choice((0, 1)))
        inserts = [m for m in applicable_moves(code) if m.kind == R2_INSERT]
        move = inserts[rng.randrange(len(inserts))]
        new = apply_move(code, move)
        old_labels = {p.label for _, _, p in code.all_passages()}
        fresh = [i for i in classify_crossings(new) if i.label not in old_labels]
        assert len(fresh) == 2
        assert fresh[0].sign == -fresh[1].sign
        parities = {i.parity for i in fresh}
        assert parities in ({"even"}, {"odd"}, {"link"})


def test_apply_rejects_bad_sites():
    code = parse("open: O1+ U2+ U1+ O2+")
    with pytest.raises(InapplicableMove):
        apply_move(code, MoveSpec(R1_DELETE, ((0, 0),)))
    with pytest.raises(InapplicableMove):
        apply_move(code, MoveSpec(R2_DELETE, ((0, 0), (0, 2))))
    with pytest.raises(InapplicableMove):
        apply_move(code, MoveSpec(R3_SLIDE, ((0, 0), (0, 1), (0, 2))))
    with pytest.raises(InapplicableMove):
        apply_move(code, MoveSpec(R2_INSERT, ((0, 1), (0, 1), 1, True, 1)))


def test_apply_rejects_unlisted_insert_flags_and_malformed_params():
    """Every listed insertion applies; one whose flags take no value that
    ``applicable_moves`` lists, or any move whose params have the wrong
    shape, raises InapplicableMove."""
    rng = random.Random(24)
    codes = [random_code(rng, rng.randint(0, 3), loops=rng.choice((0, 1))) for _ in range(6)]
    codes += [random_multi_code(rng, rng.randint(0, 3), empty=True) for _ in range(4)]
    for code in codes:
        for move in applicable_moves(code):
            if move.kind in (R1_INSERT, R2_INSERT):
                validate(apply_move(code, move))
    code = parse("open: O1+ U2+ U1+ O2+")
    listed = applicable_moves(code)
    refused = [
        MoveSpec(R2_INSERT, ((0, 0), (0, 1), 3, False, 1)),
        MoveSpec(R2_INSERT, ((0, 0), (0, 1), 1, "no", 1)),
        MoveSpec(R2_INSERT, ((0, 0), (0, 1), 1, False, 2)),
        MoveSpec(R1_INSERT, (0, 0, "yes", 1)),
        MoveSpec(R1_INSERT, (0, 0, True, 0)),
        MoveSpec(R1_INSERT, (0,)),
        MoveSpec(R1_INSERT, (0, 0, True, 1, 1)),
        MoveSpec(R1_INSERT, (0, 0.5, True, 1)),
        MoveSpec(R2_INSERT, ((0, 0), (0, 1), 1, False)),
        MoveSpec(R2_INSERT, ((0, 0), (0,), 1, False, 1)),
        MoveSpec(R2_INSERT, ((0, 0), 1, 1, False, 1)),
        MoveSpec(R1_DELETE, ((0,),)),
        MoveSpec(R1_DELETE, (0,)),
        MoveSpec(R2_DELETE, ((0, 0), 5)),
        MoveSpec(R2_DELETE, ((0, 0), (0, 2, 1))),
        MoveSpec(R3_SLIDE, ((0, 0), (0, "a"), (0, 1))),
    ]
    for move in refused:
        assert move not in listed
        with pytest.raises(InapplicableMove):
            apply_move(code, move)


# The head and tail passages of an open strand are not adjacent, so deleting
# them together is no knotoid move; it would change the normalized arrow.
ENDS_CODE = "open: U1- O2- U2- O3+ U4- U3+ O4- O1-"
ENDS_R1 = MoveSpec(R1_DELETE, ((0, 7),))


def _applicability_codes():
    """One-leg codes with loops, codes with several legs (half with an empty
    component) and loop-only closures, of 0-5 crossings, each with the code
    that a walk capped at 5 crossings reaches from it, and codes with an R3
    site."""
    rng = random.Random(2121)
    starts = [random_code(rng, rng.randint(0, 5), loops=rng.choice((0, 1, 2))) for _ in range(8)]
    starts += [random_multi_code(rng, rng.randint(0, 5), empty=i % 2 == 0) for i in range(8)]
    starts += [virtual_closure(random_code(rng, rng.randint(0, 5))) for _ in range(4)]
    codes = [parse(ENDS_CODE), parse("open:")]
    for code in starts:
        codes += [code, random_walk(code, steps=8, seed=rng.randrange(1 << 30), max_crossings=5)[-1]]
    # R3 sites are rare, so codes with one are drawn until there are six.
    slides = []
    while len(slides) < 6:
        code = (random_code(rng, rng.randint(3, 5), loops=rng.choice((0, 1)))
                if len(slides) % 2 else random_multi_code(rng, rng.randint(3, 5)))
        if _r3_moves(_labelled_pairs(code)):
            slides.append(code)
    return codes + slides


def _site_tuples(code):
    """Every (ci, pos) from one below to one above each range, out-of-range
    components included."""
    comps = code.components
    return [
        (ci, pos)
        for ci in range(-1, len(comps) + 1)
        for pos in range(-1, (len(comps[ci].passages) if 0 <= ci < len(comps) else 0) + 1)
    ]


def test_apply_accepts_exactly_the_listed_deletions_and_slides():
    """An R1/R2 deletion or an R3 slide at any site tuple, in range or not,
    applies exactly when ``applicable_moves`` lists it, and otherwise raises
    InapplicableMove; so does an insertion at a site out of range."""
    assert ENDS_R1 not in applicable_moves(parse(ENDS_CODE))
    with pytest.raises(InapplicableMove):
        apply_move(parse(ENDS_CODE), ENDS_R1)
    codes = _applicability_codes()
    assert any(not comp.passages for c in codes[2:] for comp in c.components)
    applied = {R1_DELETE: 0, R2_DELETE: 0, R3_SLIDE: 0}
    for code in codes:
        listed = {m for m in applicable_moves(code) if m.kind in applied}
        sites = _site_tuples(code)
        tried = itertools.chain(
            (MoveSpec(R1_DELETE, (site,)) for site in sites),
            (MoveSpec(R2_DELETE, pair) for pair in itertools.product(sites, repeat=2)),
            (MoveSpec(R3_SLIDE, triple) for triple in itertools.permutations(sites, 3)),
        )
        for move in tried:
            if move in listed:
                validate(apply_move(code, move))
                applied[move.kind] += 1
                listed.discard(move)
            else:
                with pytest.raises(InapplicableMove):
                    apply_move(code, move)
        assert not listed, serialize(code)
        comps = code.components
        for ci, pos in sites:
            if 0 <= ci < len(comps) and 0 <= pos <= len(comps[ci].passages):
                continue
            with pytest.raises(InapplicableMove):
                apply_move(code, MoveSpec(R1_INSERT, (ci, pos, True, 1)))
            for other in ((0, 0), (len(comps) - 1, len(comps[-1].passages))):
                for s1, s2 in ((other, (ci, pos)), ((ci, pos), other)):
                    with pytest.raises(InapplicableMove):
                        apply_move(code, MoveSpec(R2_INSERT, (s1, s2, 1, False, 1)))
    assert min(applied.values()) >= 10, applied


def test_apply_accepts_exactly_the_listed_insertions():
    """An R1 or R2 insertion at any sites, from one below to one above each
    component's range and in either order, applies exactly when
    ``applicable_moves`` lists it: not at position k of a loop of k
    passages, nor with its first site after its second.  ``inverse_of``
    orders the sites of an R2 deletion across components, so the insertion
    it reads is a listed one."""
    loop = parse("loop: O1+ U2+ U1+ O2+")
    with pytest.raises(InapplicableMove):
        apply_move(loop, MoveSpec(R1_INSERT, (0, 4, True, 1)))
    two = parse("open: O1+ U1+\nloop: O2+ U2+")
    with pytest.raises(InapplicableMove):
        apply_move(two, MoveSpec(R2_INSERT, ((1, 0), (0, 0), 1, False, 1)))
    insert = MoveSpec(R2_INSERT, ((0, 0), (1, 0), 2, False, 1))  # over pair in the loop
    moved = apply_move(two, insert)
    deletion = MoveSpec(R2_DELETE, ((1, 0), (0, 0)))
    assert deletion in applicable_moves(moved)
    assert inverse_of(moved, deletion) == insert
    rng = random.Random(26)
    codes = [random_code(rng, rng.randint(0, 2), loops=rng.choice((0, 1))) for _ in range(4)]
    codes += [random_multi_code(rng, rng.randint(0, 2), empty=True) for _ in range(4)]
    codes += [loop, two]
    applied = 0
    for code in codes:
        listed = {m for m in applicable_moves(code) if m.kind in (R1_INSERT, R2_INSERT)}
        comps = code.components
        sites = [
            (ci, pos)
            for ci in range(-1, len(comps) + 1)
            for pos in range(-1, (len(comps[ci].passages) if 0 <= ci < len(comps) else 0) + 2)
        ]
        tried = itertools.chain(
            (MoveSpec(R1_INSERT, (*site, *flags))
             for site in sites for flags in itertools.product((True, False), (1, -1))),
            (MoveSpec(R2_INSERT, (*pair, *flags))
             for pair in itertools.product(sites, repeat=2)
             for flags in itertools.product((1, 2), (False, True), (1, -1))),
        )
        for move in tried:
            if move in listed:
                validate(apply_move(code, move))
                applied += 1
                listed.discard(move)
            else:
                with pytest.raises(InapplicableMove):
                    apply_move(code, move)
        assert not listed, serialize(code)
    assert applied >= 500, applied


def test_walk_deterministic_and_valid():
    code = parse(FIG1G)
    first = random_walk(code, steps=8, seed=7, max_crossings=10)
    second = random_walk(code, steps=8, seed=7, max_crossings=10)
    assert [serialize(c) for c in first] == [serialize(c) for c in second]
    assert len(first) == 9
    for step in first:
        validate(step)
        assert step.crossing_count() <= 10


def test_walk_zero_steps():
    code = parse("open: O1+ U1+")
    assert random_walk(code, steps=0, seed=1, max_crossings=5) == [code]


def test_walk_respects_cap():
    code = parse("open: O1+ U1+")
    for step in random_walk(code, steps=25, seed=3, max_crossings=3):
        assert step.crossing_count() <= 3


def test_multi_component_walk_invariance():
    # Odd writhe, bracket and arrow are invariant on any component count;
    # the parity bracket's multi extension is excluded (see its module doc:
    # triangles with an odd number of node-crossings break it).
    from knotoids.bracket import normalized_bracket
    from knotoids.arrow import normalized_arrow
    from knotoids.parity import odd_writhe

    rng = random.Random(2718)
    for _ in range(40):
        code = random_code(rng, rng.randint(1, 4), loops=rng.choice((1, 1, 2)))
        base = (
            odd_writhe(code).value,
            normalized_bracket(code).normalized,
            normalized_arrow(code),
        )
        for step in random_walk(code, steps=10, seed=rng.randrange(1 << 30),
                                max_crossings=8)[1:]:
            assert (
                odd_writhe(step).value,
                normalized_bracket(step).normalized,
                normalized_arrow(step),
            ) == base


def _digest(trajectories):
    blob = json.dumps([[serialize(c) for c in t] for t in trajectories])
    return hashlib.sha256(blob.encode()).hexdigest()


def _criterion_8_starts(count):
    """Start codes and seeds of the first ``count`` walks of
    tests/test_acceptance.py's criterion 8."""
    rng = random.Random(20_008)
    starts = []
    for _ in range(count):
        code = random_code(rng, rng.randint(2, 5))
        starts.append((code, rng.randrange(1 << 30)))
    return starts


def _criterion_8_walks(count):
    return [
        random_walk(code, steps=20, seed=seed, max_crossings=10)
        for code, seed in _criterion_8_starts(count)
    ]


def _loop_walks(count):
    rng = random.Random(5005)
    walks = []
    while len(walks) < count:
        code = random_multi_code(rng, rng.randint(1, 5), empty=rng.random() < 0.25)
        if any(c.kind == LOOP for c in code.components):
            seed = rng.randrange(1 << 30)
            walks.append(random_walk(code, steps=15, seed=seed, max_crossings=8))
    return walks


def _over_cap_walks():
    """Walks from 12+ crossing codes under a cap of 10."""
    walks = []
    for s in range(5):
        up = random_walk(parse(FIG1G), steps=30, seed=100 + s, max_crossings=14)
        start = next(c for c in up if c.crossing_count() >= 12)
        walks.append(random_walk(start, steps=20, seed=s, max_crossings=10))
    return walks


# Digests of the serialized trajectories as produced by the move engine that
# built every move and filtered the list by the cap afterwards.
def test_golden_criterion_8_trajectories():
    digest = _digest(_criterion_8_walks(100))
    assert digest == "8090ad68d4634424a1b1d7841dc4c6312b1f479977a8c98d7cc307209eaf8677"


def test_golden_loop_component_trajectories():
    digest = _digest(_loop_walks(40))
    assert digest == "86ef2dab8ac3e5b858bec90685d5130620b8e191c7407be330cc9bb698d6c936"


def test_golden_walks_starting_over_the_cap():
    walks = _over_cap_walks()
    for walk in walks:
        assert walk[0].crossing_count() >= 12
        # A start with no deletion back under the cap has no move at all.
        stuck = set(walk) == {walk[0]}
        assert stuck or all(c.crossing_count() <= 10 for c in walk[1:])
    assert sum(set(walk) == {walk[0]} for walk in walks) == 1
    assert _digest(walks) == "d7d57b0fee38288e2808608975bddaca686084b550ae134b1e15247e0338fe32"


def test_golden_cli_walk(capsys):
    args = ["moves", "walk", "--catalog", "fig1g", "--steps", "20", "--seed", "7",
            "--max", "12", "--format", "json"]
    assert main(args) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "063c2381141afda52e3aeb3f0f41fb586dd0cf7caf01a65dad4dabc8a15d1035"


def _r3_scan(code):
    """Reference R3 enumeration from the definition, sharing no code with
    ``_r3_moves``: for every ordered triple of distinct labels (x, y, z),
    the adjacent pairs that hold {O x, O y} (top), {U y, U z} (bottom) and
    {U x, O z} (middle), kept when the two sign relations hold."""
    at = {}  # the two passages' (role, label) -> [(site, first label)]
    for ci, comp in enumerate(code.components):
        k = len(comp.passages)
        for pos in range(k if comp.kind == LOOP and k > 1 else max(k - 1, 0)):
            p, q = comp.passages[pos], comp.passages[(pos + 1) % k]
            key = frozenset(((p.role, p.label), (q.role, q.label)))
            at.setdefault(key, []).append(((ci, pos), p.label))
    sign = {p.label: p.sign for _, _, p in code.all_passages()}
    moves = []
    for x, y, z in itertools.permutations(sign, 3):
        top = at.get(frozenset((("O", x), ("O", y))), ())
        bottom = at.get(frozenset((("U", y), ("U", z))), ())
        middle = at.get(frozenset((("U", x), ("O", z))), ())
        for (t, t1), (b, b1), (m, m1) in itertools.product(top, bottom, middle):
            if (sign[x] * sign[y] == (1 if (m1 == x) == (b1 == y) else -1)
                    and sign[y] * sign[z] == (1 if (t1 == x) == (m1 == x) else -1)):
                moves.append(MoveSpec(R3_SLIDE, tuple(sorted((t, b, m)))))
    return sorted(moves, key=lambda move: move.params)


def _differential_codes():
    rng = random.Random(5150)
    codes = []
    for walk in _criterion_8_walks(40):
        codes.extend(walk[1:])
    for _ in range(40):
        code = random_multi_code(rng, rng.randint(1, 5), empty=rng.random() < 0.3)
        codes.extend(random_walk(code, steps=10, seed=rng.randrange(1 << 30), max_crossings=9))
    for _ in range(40):
        code = random_code(rng, rng.randint(1, 5), loops=rng.choice((1, 2)))
        codes.extend(random_walk(code, steps=10, seed=rng.randrange(1 << 30), max_crossings=9))
    return codes


# Its label index meets the R3 site at the later pairs first.
UNSORTED_R3 = (
    "open: U2+ U9+ U10- O4- U1- O8+ U8+ O13- U13- U3- O6+ O15+ O16- O5+ O2+ U6+ U4- "
    "U15+ U16- U14+ O14+ O3- U5+ O9+ O7+ U7+ O10- O1-"
)


def test_indexed_r3_matches_triple_scan():
    unsorted = parse(UNSORTED_R3)
    assert len(_r3_moves(_labelled_pairs(unsorted))) >= 2
    codes = [parse(UNSORTED_R3)] + _differential_codes()
    with_sites = 0
    for code in codes:
        expected = _r3_scan(code)
        assert _r3_moves(_labelled_pairs(code)) == expected, serialize(code)
        with_sites += bool(expected)
    assert with_sites >= 200


def test_capped_moves_are_the_filtered_full_list():
    for code in _differential_codes()[::5]:
        n = code.crossing_count()
        full = applicable_moves(code)
        for cap in range(n + 4):
            assert applicable_moves(code, max_crossings=cap) == [
                mv for mv in full if n + mv.crossing_delta() <= cap
            ]


def reference_moves(code, max_crossings):
    """Reference order: every move built, R1 and R2 inserts by list
    comprehension and R3 slides by the triple scan, filtered by the cap."""
    budget = math.inf if max_crossings is None else max_crossings - code.crossing_count()
    sites = [
        (ci, pos)
        for ci, comp in enumerate(code.components)
        for pos in range(len(comp.passages) + 1 if comp.kind == OPEN else max(len(comp.passages), 1))
    ]
    moves = []
    if budget >= 1:
        moves += [
            MoveSpec(R1_INSERT, (ci, pos, over_first, sign))
            for ci, pos in sites
            for over_first in (True, False)
            for sign in (1, -1)
        ]
    if budget >= 2:
        moves += [
            MoveSpec(R2_INSERT, (s1, s2, over_site, parallel, sign))
            for a, s1 in enumerate(sites)
            for s2 in sites[a:]
            for over_site in (1, 2)
            for parallel in (False, True)
            if not (parallel and s1 == s2)
            for sign in (1, -1)
        ]
    deletions = _deletion_moves(_labelled_pairs(code))
    moves.extend(m for m in deletions if m.crossing_delta() <= budget)
    if budget >= 0:
        moves.extend(_r3_scan(code))
    return moves


def _table_codes():
    """One-leg codes with loops, multi-component codes (half with an empty
    component), loop-only closures, the trivial knotoid, and codes of 12+
    crossings that start over the walks' cap."""
    rng = random.Random(1414)
    codes = [parse("open:")]
    codes += [random_code(rng, rng.randint(0, 5), loops=rng.choice((1, 2))) for _ in range(25)]
    codes += [random_multi_code(rng, rng.randint(0, 5), empty=i % 2 == 0) for i in range(30)]
    codes += [virtual_closure(random_code(rng, rng.randint(0, 5))) for _ in range(20)]
    codes += [walk[0] for walk in _over_cap_walks()]
    return codes


def test_move_table_matches_reference_order():
    codes = _table_codes()
    assert any(c.crossing_count() >= 12 for c in codes)
    assert any(all(comp.kind == LOOP for comp in c.components) for c in codes)
    assert any(not comp.passages for c in codes[1:] for comp in c.components)
    for code in codes:
        n = code.crossing_count()
        for cap in (None, *range(n + 4)):
            assert applicable_moves(code, max_crossings=cap) == reference_moves(code, cap), (
                serialize(code), cap)


def test_walk_builds_only_the_drawn_move(monkeypatch):
    built = []
    init = MoveSpec.__init__

    def counted_init(self, kind, params):
        built.append(kind)
        init(self, kind, params)

    for code, seed in _criterion_8_starts(30):
        with monkeypatch.context() as patch:
            patch.setattr(MoveSpec, "__init__", counted_init)
            walk = random_walk(code, steps=20, seed=seed, max_crossings=10)
        # Deletions and R3 slides are enumerated; of the inserts, only the
        # drawn one is built.
        bound = sum(
            len(_deletion_moves(_labelled_pairs(c))) + len(_r3_moves(_labelled_pairs(c))) + 1
            for c in walk[:-1]
        )
        assert 0 < len(built) <= bound
        built.clear()
