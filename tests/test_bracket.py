"""Bracket state sum, writhe normalization, and the skein oracle."""

import random

import pytest

from knotoids.arrow import normalized_arrow
from knotoids.bracket import bracket, bracket_oracle, normalized_bracket, writhe
from knotoids.codes import parse
from knotoids.errors import LimitExceeded
from knotoids.laurent import LaurentA
from knotoids.closures import virtual_closure
from knotoids.smoothing import CompiledCode
from helpers import random_code, random_multi_code

FIG1G = "open: OA+ OB+ UC+ UD+ UA+ OE+ UF+ OD+ UB+ UE+ OF+ OC+"


def test_writhe_examples():
    assert writhe(parse("open:")) == 0
    assert writhe(parse(FIG1G)) == 6
    assert writhe(parse("open: O1- U1-")) == -1


def test_writhe_sums_compiled_signs():
    rng = random.Random(57)
    multi = 0
    for _ in range(150):
        code = random_multi_code(rng, rng.randint(0, 9), empty=rng.random() < 0.3)
        multi += len(code.components) > 1
        assert writhe(code) == sum(CompiledCode(code).cross_sign), code
    assert multi > 50  # link crossings, loops and empty components all occur


def test_one_compile_per_normalized_call(monkeypatch):
    compiles = []
    init = CompiledCode.__init__

    def counting_init(self, code):
        compiles.append(code)
        init(self, code)

    monkeypatch.setattr(CompiledCode, "__init__", counting_init)
    for normalize in (normalized_bracket, normalized_arrow):
        compiles.clear()
        normalize(parse(FIG1G))
        assert len(compiles) == 1, normalize.__name__


def test_bracket_trivial():
    assert bracket(parse("open:")) == LaurentA.one()


def test_bracket_fig15():
    assert bracket(parse("open: O1+ U2+ U1+ O2+")) == LaurentA({2: 1, 0: 1, -4: -1})


def test_bracket_kink_chirality():
    assert bracket(parse("open: O1+ U1+")) == LaurentA({3: -1})
    assert bracket(parse("open: O1- U1-")) == LaurentA({-3: -1})


def test_normalized_kink_is_one():
    for text in ("open: O1+ U1+", "open: O1- U1-", "open: U1+ O1+"):
        assert normalized_bracket(parse(text)).normalized == LaurentA.one()


def test_report_consistency():
    rep = normalized_bracket(parse(FIG1G))
    from knotoids.laurent import writhe_normalize

    assert rep.normalized == writhe_normalize(rep.raw, rep.writhe)


def test_oracle_examples():
    assert bracket_oracle(parse("open:")) == LaurentA.one()
    assert bracket_oracle(parse("open: O1+ U2+ U1+ O2+")) == LaurentA({2: 1, 0: 1, -4: -1})


def test_oracle_matches_state_sum():
    rng = random.Random(31)
    for _ in range(120):
        code = random_code(rng, rng.randint(0, 6), loops=rng.choice((0, 0, 1)))
        assert bracket(code) == bracket_oracle(code)


def test_limit_errors():
    code = parse(FIG1G)
    with pytest.raises(LimitExceeded):
        bracket(code, state_limit=3)
    with pytest.raises(LimitExceeded):
        bracket_oracle(code, state_limit=3)


def test_jones_equals_closure_jones():
    for text in (FIG1G, "open: O1+ U2+ U1+ O2+", "open: O1+ U1+"):
        code = parse(text)
        closed = virtual_closure(code)
        assert normalized_bracket(code).normalized == normalized_bracket(closed).normalized
