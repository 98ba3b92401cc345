"""The frontier-contraction engine against the per-state scan and the oracle."""

import dataclasses
import hashlib
import json
import random

from knotoids.arrow import arrow_polynomial
from knotoids.bracket import bracket, bracket_oracle
from knotoids.catalog import load_catalog
from knotoids.closures import virtual_closure
from knotoids.codes import (
    EVEN,
    OPEN,
    ComponentCode,
    KnotoidCode,
    classify_crossings,
    parse,
    spiral,
)
from knotoids.parity_bracket import _graph_state, canonical_graph, parity_bracket
from knotoids.smoothing import CompiledCode
from helpers import random_code, random_multi_code, relabeled
from reference import reference_plan, reorder


def scan_counts(compiled: CompiledCode, want_words: bool) -> dict:
    """The scan's states aggregated in ``contract``'s key format."""
    counts: dict = {}
    for sigma, comps, segments, circles in compiled.scan(want_words):
        # Reduced words keep at most two cusps per crossing, which bounds
        # every digit of the frontier's packed monomial.
        assert sum(segments) + sum(circles) <= 2 * compiled.n
        key = (
            sigma,
            comps,
            tuple(sorted(m // 2 for m in circles)),
            tuple(sorted((m + 1) // 2 for m in segments)),
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def assert_same_counts(code):
    compiled = CompiledCode(code)
    for want_words in (False, True):
        counts = compiled.contract(want_words)
        assert counts == scan_counts(compiled, want_words), (code, want_words)
    # No K_i exponent and no L_j count reaches its digit's radix.
    n, legs = compiled.n, len(compiled.open_comps)
    for _, _, ks, ls in counts:
        assert all(ks.count(i) <= n // i for i in ks), (code, ks)
        assert all(ls.count(j) <= min(legs, 2 * n // (2 * j - 1)) for j in ls), (code, ls)


def test_one_leg_codes_with_loops():
    rng = random.Random(41)
    for _ in range(120):
        assert_same_counts(random_code(rng, rng.randint(0, 10), loops=rng.randint(0, 3)))


def test_open_and_loop_components_with_several_legs():
    rng = random.Random(42)
    legs = 0
    for _ in range(150):
        code = random_multi_code(rng, rng.randint(0, 9))
        legs = max(legs, len(code.open_components))
        assert_same_counts(code)
    assert legs >= 3


def test_loop_only_codes():
    rng = random.Random(43)
    for _ in range(60):
        assert_same_counts(virtual_closure(random_code(rng, rng.randint(0, 9))))
    for _ in range(40):
        code = random_multi_code(rng, rng.randint(1, 8))
        if not code.open_components:
            assert_same_counts(code)


def test_empty_components():
    rng = random.Random(44)
    for _ in range(80):
        assert_same_counts(random_multi_code(rng, rng.randint(0, 8), empty=True))


def test_spirals():
    rng = random.Random(45)
    for k in range(1, 7):
        assert_same_counts(spiral(k, "+" * (2 * k)))
        assert_same_counts(spiral(k, [rng.choice("+-") for _ in range(2 * k)]))


def test_catalog_entries():
    for entry in load_catalog():
        assert_same_counts(entry.code)


def test_larger_codes_match_oracle():
    rng = random.Random(46)
    for n in (13, 14, 14):
        code = random_code(rng, n)
        assert bracket(code) == bracket_oracle(code)


def test_contraction_order_is_a_permutation():
    rng = random.Random(47)
    for _ in range(30):
        compiled = CompiledCode(random_multi_code(rng, rng.randint(0, 12)))
        assert sorted(compiled.contraction_order()) == list(range(compiled.n))
        subset = [k for k in range(compiled.n) if rng.random() < 0.5]
        assert sorted(compiled.contraction_order(subset)) == subset


def uncut_order(compiled: CompiledCode, smooth=None) -> list[int]:
    """``contraction_order`` with every greedy pass run to its end."""
    n = compiled.n
    crossings = list(range(n)) if smooth is None else sorted(smooth)
    links: list[list[int]] = [[] for _ in range(n)]
    start_delta = [0] * n
    for k in crossings:
        a, b = compiled.cross_over[k], compiled.cross_under[k]
        for e in (2 * a, 2 * a + 1, 2 * b, 2 * b + 1):
            far = compiled.arc_end(e)
            far = compiled.pass_crossing[far >> 1] if far >= 0 else -1
            if far != k:
                start_delta[k] += 1
                if far in crossings:
                    links[k].append(far)
    best = None
    for first in crossings:
        delta = start_delta[:]
        todo = crossings[:]
        order, width, peak, cost = [], 0, 0, 0
        k = first
        while True:
            todo.remove(k)
            order.append(k)
            width += delta[k]
            peak = max(peak, width)
            cost += 1 << width
            for f in links[k]:
                delta[f] -= 2
            if not todo:
                break
            k = min(todo, key=delta.__getitem__)
        if best is None or (peak, cost) < best[0]:
            best = ((peak, cost), order)
    return best[1] if best else []


def test_cut_passes_keep_the_uncut_order():
    """Stopping a greedy pass once it reaches the best key changes no order,
    over all crossings and over the even-crossing subsets that the parity
    bracket smooths."""
    rng = random.Random(48)
    codes = [random_code(rng, rng.randint(0, 24), loops=rng.randint(0, 2)) for _ in range(60)]
    codes += [random_multi_code(rng, rng.randint(0, 16), empty=i % 2 == 0) for i in range(60)]
    codes += [spiral(k, "+" * (2 * k)) for k in range(1, 7)]
    codes += [entry.code for entry in load_catalog()]
    subsets = 0
    for code in codes:
        compiled = CompiledCode(code)
        assert compiled.contraction_order() == uncut_order(compiled), code
        even = [k for k, i in enumerate(classify_crossings(code)) if i.parity == EVEN]
        assert compiled.contraction_order(even) == uncut_order(compiled, even), code
        subsets += 0 < len(even) < compiled.n
    assert subsets >= 60


def even_pairings(compiled: CompiledCode) -> dict:
    """The parity bracket's even-set frontier, each final pairing read as
    the (canonical key, sigma, components) rows of its graph state, with
    the counts of equal rows summed.  Which node of a chain of bigons
    survives depends on the order of the splices, so the pairings
    themselves may differ from one order to another."""
    even = compiled.even
    row = compiled.boundary(even)
    ports = 4 * (compiled.n - len(even))
    rows: dict = {}
    for mates, counts in compiled.frontier(False, even):
        state = _graph_state(mates, row, ports)
        encodings = canonical_graph(state)
        stubs = sum(1 for p in state.partner if p < 0)
        comps = len(encodings) - stubs // 2
        for (sigma, circles, _, _), count in counts.items():
            key = (" | ".join(encodings), sigma, circles + comps)
            rows[key] = rows.get(key, 0) + count
    return rows


def with_form(code, compiled: CompiledCode):
    """An equal code whose compiled form is ``compiled``."""
    fresh = dataclasses.replace(code)
    object.__setattr__(fresh, "_compiled", compiled)
    return fresh


def state_sums(code, compiled: CompiledCode, arrow: bool = True) -> tuple:
    return (
        compiled.contract(False),
        compiled.contract(True) if arrow else None,
        even_pairings(compiled),
        parity_bracket(with_form(code, compiled)),
        parity_bracket(with_form(code, compiled), closed=True),
    )


def test_state_sums_do_not_depend_on_the_order():
    """The bracket's and the arrow's contraction, the parity bracket's
    even-set frontier and the parity bracket, open and closed, give the
    same values under the greedy orders from two other first crossings,
    and on the code with its crossings relabeled, for codes of one to six
    legs.  One-leg codes of 22-24 crossings take one other order and leave
    out the arrow, whose word run at that size costs the most."""
    rng = random.Random(51)
    codes = [random_code(rng, n, loops=i % 2) for i, n in enumerate((14, 16, 18, 20))]
    for n in (14, 16):
        passages = random_code(rng, n).components[0].passages
        cut = rng.randrange(1, 2 * n)
        codes.append(KnotoidCode((ComponentCode(OPEN, passages[:cut]),
                                  ComponentCode(OPEN, passages[cut:]))))
    codes.append(random_multi_code(rng, 14, empty=True))
    assert any(not comp.passages for comp in codes[-1].components)
    more = random.Random(24)
    for legs, n in ((3, 14), (4, 16), (6, 18)):
        passages = random_code(more, n).components[0].passages
        cuts = [0, *sorted(more.sample(range(1, 2 * n), legs - 1)), 2 * n]
        codes.append(KnotoidCode(tuple(ComponentCode(OPEN, passages[i:j])
                                       for i, j in zip(cuts, cuts[1:]))))
    large = [random_code(more, n, loops=n % 2) for n in (22, 23, 24)]
    for code in codes + large:
        small = code not in large
        own = CompiledCode(code)
        expected = state_sums(code, own, arrow=small)
        for pick in (0, -1) if small else (0,):
            other = reorder(CompiledCode(code), pick)
            assert state_sums(code, other, arrow=small) == expected, (code, pick)
            assert other._plan(None) != own._plan(None)
        if small:
            relabeled_code = relabeled(code, rng)
            assert state_sums(relabeled_code, CompiledCode(relabeled_code)) == expected, code


def plan_families():
    rng = random.Random(50)
    for _ in range(100):
        yield random_code(rng, rng.randint(0, 24), loops=rng.randint(0, 3))
    for i in range(80):
        yield random_multi_code(rng, rng.randint(0, 16), empty=i % 2 == 0)
    for _ in range(40):
        yield virtual_closure(random_code(rng, rng.randint(0, 12)))
    for entry in load_catalog():
        yield entry.code


def test_incremental_plan_matches_the_reference():
    """The plan that carries its boundary from step to step equals the one
    rebuilt at every step: steps, final boundary and typecode, over every
    crossing and over the even crossings."""
    subsets = 0
    for code in plan_families():
        compiled = CompiledCode(code)
        even = [k for k, i in enumerate(classify_crossings(code)) if i.parity == EVEN]
        for smooth in (None, even):
            assert compiled._plan(smooth) == reference_plan(compiled, smooth), (code, smooth)
        subsets += 0 < len(even) < compiled.n
    assert subsets >= 60


def test_wide_plans_match_the_reference():
    # Codes with ends enough to pass a signed byte pack their tails in the
    # typecode their widest boundary needs.
    typecodes = set()
    for name, code in wide_codes():
        compiled = CompiledCode(code)
        plan = compiled._plan(None)
        assert plan == reference_plan(compiled), name
        typecodes.add(plan[2])
    assert typecodes == {"b", "q"}
    # 30 legs of one passage each: only with their 60 stubs, which never
    # retire, does the last step's boundary need 8-byte slots.
    stubs = parse("\n".join(f"open: O{i}+\nopen: U{i}+" for i in range(15)))
    compiled = CompiledCode(stubs)
    assert compiled.P < 32 and compiled._plan(None)[2] == "q"
    assert compiled._plan(None) == reference_plan(compiled)


def test_wide_packing_with_many_components():
    # The leg's stub ids lie beyond a signed byte; they must still decode
    # to the right ends.
    rng = random.Random(48)
    for _ in range(5):
        code = random_code(rng, rng.randint(1, 6))
        padded = KnotoidCode((ComponentCode(OPEN, ()),) * 64 + code.components)
        assert_same_counts(padded)


# sha256 of json.dumps([bracket terms, arrow terms], sort_keys=True), pinned
# with the engine that kept each partial state as a dict keyed by end.
WIDE_DIGESTS = {
    "spiral 40+": "373e2202c4286e170a0a2d757df60325c06759debd5f31a2bff0061b191ac939",
    "spiral 40": "ce3d2b023d6cc14a6d867669667b036dc7bd616c914ec43ed42f6bcf1ef3552c",
    "spiral 48+": "9c9d59370108e21efab4e8f22230212c7a44aafe1478129c38743dfc7eac9aac",
    "spiral 48": "9ea08af894ef2cfac888eb35c6d21c6310d434d1cd6ccd181a2b2ee9cdb75a88",
    "spiral 64+": "2c4cb7e23273242764eb4bd3b6d1a121f4177d5ea17347ea97696200e66141ea",
    "spiral 64": "8901f98d0ab3688306b4a6b859f6972baf6b1f9b79e5c534715c3fc0addc1568",
    "spiral 132+": "5d1e865fdcacdf4d7e8d6a39d4c8c29797657d6c721e018c9d376bcca915af3e",
    "legs": "702e67c4193b901e1621cd93cb63c22377053bc2c45b3591bdffa34e04888f5c",
}


def wide_codes():
    rng = random.Random(49)
    for k in (20, 24, 32):
        yield f"spiral {2 * k}+", spiral(k, "+" * (2 * k))
        yield f"spiral {2 * k}", spiral(k, "".join(rng.choice("+-") for _ in range(2 * k)))
    # Its segments end with L_66, so pending arcs carry cusp words past 127.
    yield "spiral 132+", spiral(66, "+" * 132)
    # 140 stubs on the boundary, so mate slots run past 255.
    yield "legs", parse("\n".join(f"open: O{i}- U{i}-" for i in range(70)))


def test_wide_codes_above_the_state_limit():
    for name, code in wide_codes():
        n = CompiledCode(code).n
        assert n >= 40
        values = [bracket(code, n).to_json(), arrow_polynomial(code, n).to_json()]
        digest = hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()
        assert digest == WIDE_DIGESTS[name], name
