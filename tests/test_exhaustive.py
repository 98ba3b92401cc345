"""Every small code against the independent references: the skein oracle,
the bracket as the arrow's coefficient sum, the open parity bracket as the
per-state sum over ``parity_states``, the closed parity bracket as that of
the virtual closure, the compiled form's crossings against
``classify_crossings``, and the frontier's word-free joins against its
joins with words.

The family: every one-leg code of at most three crossings, each also as a
single loop, and every cut of the one-leg codes of at most two crossings
into two components, each open or a loop; a cut at either end leaves one
component empty.  The word-free joins also run on 30 seeded codes of 8 to
12 crossings."""

import itertools
import random

from knotoids.arrow import arrow_polynomial
from knotoids.bracket import bracket, bracket_oracle
from knotoids.closures import virtual_closure
from knotoids.codes import (
    LOOP, OPEN, OVER, UNDER, ComponentCode, KnotoidCode, classify_crossings,
)
from knotoids.parity_bracket import parity_bracket
from knotoids.smoothing import compiled_form
from helpers import all_codes, random_code
from reference import parity_reference

KINDS = list(itertools.product((OPEN, LOOP), repeat=2))


def check(code):
    value = bracket(code)
    assert value == bracket_oracle(code), code
    assert arrow_polynomial(code).coefficient_sum() == value, code
    assert parity_bracket(code) == parity_reference(code), code
    check_compiled_form(code)


def check_compiled_form(code):
    """Labels, signs and over/under passages against the classification's
    positions, with passages numbered in traversal order."""
    compiled = compiled_form(code)
    first = list(itertools.accumulate((len(c) for c in code.components), initial=0))
    infos = classify_crossings(code)
    assert compiled.labels == [info.label for info in infos], code
    assert compiled.cross_sign == [info.sign for info in infos], code
    for k, info in enumerate(infos):
        roles = {
            code.components[ci].passages[pi].role: first[ci] + pi for ci, pi in info.positions
        }
        assert compiled.cross_over[k] == roles[OVER], code
        assert compiled.cross_under[k] == roles[UNDER], code
        for p in roles.values():
            assert compiled.pass_crossing[p] == k, code
            assert compiled.pass_is_over[p] == (p == roles[OVER]), code
    assert compiled.P == first[-1], code


def test_every_code_of_at_most_three_crossings():
    seen = 0
    for n in range(4):
        for code in all_codes(n):
            check(code)
            assert parity_bracket(code, closed=True) == parity_bracket(virtual_closure(code)), code
            seen += 1
    assert seen == 1 + 4 + 48 + 960


def test_every_loop_of_at_most_three_crossings():
    seen = 0
    for n in range(4):
        for code in all_codes(n):
            check(virtual_closure(code))
            seen += 1
    assert seen == 1 + 4 + 48 + 960


def two_component_codes():
    for n in range(3):
        for code in all_codes(n):
            passages = code.components[0].passages
            for cut, kinds in itertools.product(range(2 * n + 1), KINDS):
                parts = (passages[:cut], passages[cut:])
                yield KnotoidCode(tuple(ComponentCode(k, p) for k, p in zip(kinds, parts)))


def test_every_two_component_code_of_at_most_two_crossings():
    seen = empty = 0
    for code in two_component_codes():
        check(code)
        seen += 1
        empty += not all(code.components)
    assert seen == 4 * (1 + 4 * 3 + 48 * 5)
    assert empty == 4 * (1 + 2 * (4 + 48))


def decoded_frontier(compiled, want_words, smooth):
    """``frontier``'s final pairings, each decoded from its mate array to a
    dict from each boundary end, in increasing order, to (partner, word).

    A mate array pairs the boundary's positions both ways.  Only a stub
    (the end of a finished segment) or a port of a spliced node pairs with
    itself, and no stub pairs with another; the node ports come first, and
    all four of a spliced node's ports pair with themselves.
    """
    boundary = compiled.boundary(smooth)
    ports = 0 if smooth is None else 4 * (compiled.n - len(smooth))
    for mates, counts in compiled.frontier(want_words, smooth):
        assert len(mates) == 2 * len(boundary)
        for i, j in enumerate(mates[::2]):
            assert mates[j] == 2 * i
            if i < ports:
                node = range(8 * (i >> 2), 8 * (i >> 2) + 8, 2)
                assert (j == 2 * i) == all(mates[x] == x for x in node)
            elif j == 2 * i:
                assert boundary[i] < 0
            else:
                assert boundary[i] >= 0 or boundary[j >> 1] >= 0
        ends = zip(boundary, zip([boundary[i >> 1] for i in mates[::2]], mates[1::2]))
        yield dict(sorted(ends)), counts


def word_free_pairings(compiled, smooth):
    """Each final pairing of the word-free run, without its zero words, to
    its counts by (sigma, components)."""
    out = {}
    for pairing, counts in decoded_frontier(compiled, False, smooth):
        assert all(w == 0 for _, w in pairing.values())
        key = tuple((end, partner) for end, (partner, _) in pairing.items())
        assert key not in out
        out[key] = {(s, c): count for (s, c, ks, ls), count in counts.items() if not ks + ls}
        assert len(out[key]) == len(counts)
    return out


def words_dropped(compiled, smooth):
    """The run with words, its words dropped and its counts summed over the
    K and L indices (and over pairings that differ only in words)."""
    out = {}
    for pairing, counts in decoded_frontier(compiled, True, smooth):
        total = out.setdefault(tuple((end, partner) for end, (partner, _) in pairing.items()), {})
        for (s, c, _, _), count in counts.items():
            total[(s, c)] = total.get((s, c), 0) + count
    return out


def test_word_free_joins_agree_with_the_word_path():
    rng = random.Random(1801)
    one_leg = [code for n in range(4) for code in all_codes(n)]
    seeded = [random_code(rng, rng.randint(8, 12), loops=rng.randint(0, 1)) for _ in range(30)]
    worded = 0
    for code in [*one_leg, *map(virtual_closure, one_leg), *two_component_codes(), *seeded]:
        compiled = compiled_form(code)
        assert word_free_pairings(compiled, None) == words_dropped(compiled, None), code
        # Words run only when every crossing is smoothed; the even set's
        # word-free run is decoded for the mate-array checks on its nodes.
        word_free_pairings(compiled, compiled.even)
        worded += any(ks + ls for _, _, ks, ls in compiled.contract(True))
    assert worded >= 1900
