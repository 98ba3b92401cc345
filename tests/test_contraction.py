"""The frontier-contraction engine against the Gray-code scan and the oracle."""

import random

from knotoids.bracket import bracket, bracket_oracle
from knotoids.catalog import load_catalog
from knotoids.closures import virtual_closure
from knotoids.codes import OPEN, ComponentCode, KnotoidCode, spiral
from knotoids.smoothing import CompiledCode
from helpers import random_code, random_multi_code


def scan_counts(compiled: CompiledCode, want_words: bool) -> dict:
    """The scan's states aggregated in ``contract``'s key format."""
    counts: dict = {}
    for sigma, comps, segments, circles in compiled.scan(want_words):
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
        assert compiled.contract(want_words) == scan_counts(compiled, want_words), (
            code,
            want_words,
        )


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


def test_wide_packing_with_many_components():
    # The leg's stubs, numbered beyond a signed byte, need 8-byte packing.
    rng = random.Random(48)
    for _ in range(5):
        code = random_code(rng, rng.randint(1, 6))
        padded = KnotoidCode((ComponentCode(OPEN, ()),) * 64 + code.components)
        assert_same_counts(padded)
