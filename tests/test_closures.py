"""Virtual closure, ribbon genus, height bounds."""

import random

import pytest

from knotoids.bracket import normalized_bracket
from knotoids.closures import carter_genus, height_bounds, virtual_closure
from knotoids.codes import parse, spiral
from knotoids.errors import ShapeError
from helpers import random_code

FIG1G = "open: OA+ OB+ UC+ UD+ UA+ OE+ UF+ OD+ UB+ UE+ OF+ OC+"


def test_closure_trivial():
    closed = virtual_closure(parse("open:"))
    assert [c.kind for c in closed.components] == ["loop"]
    assert closed.crossing_count() == 0


def test_closure_keeps_sequence():
    code = parse(FIG1G)
    closed = virtual_closure(code)
    assert closed.components[0].passages == code.components[0].passages
    assert closed.components[0].kind == "loop"


def test_closure_kink_unknot():
    closed = virtual_closure(parse("open: O1+ U1+"))
    assert normalized_bracket(closed).normalized.render() == "1"


def test_closure_shape_error():
    with pytest.raises(ShapeError):
        virtual_closure(parse("loop: O1+ U1+"))
    with pytest.raises(ShapeError):
        virtual_closure(parse("open: O1+\nopen: U1+"))


def test_genus_examples():
    assert carter_genus(parse("open:")) == 0
    assert carter_genus(parse("open: O1+ U1+")) == 0
    assert carter_genus(parse("open: O1- U1-")) == 0
    assert carter_genus(parse("open: O1+ U2- U1+ O2-")) == 1
    assert carter_genus(parse(FIG1G)) == 0


def test_genus_shape_error():
    with pytest.raises(ShapeError):
        carter_genus(parse("open: O1+\nloop: U1+"))


def test_genus_classical_catalog_zero():
    from knotoids.catalog import load_catalog

    for entry in load_catalog():
        if entry.quarantined or not entry.declared_classical:
            continue
        if not entry.code.is_standard_knotoid():
            continue
        assert carter_genus(entry.code) == 0, entry.id


def test_height_bounds_spirals():
    for n in (1, 2, 3, 4, 5):
        bound = height_bounds(spiral(n, "+" * (2 * n)))
        assert bound.affine_bound == n
        assert bound.lambda_bound == n
        assert bound.lower == n


def test_height_bounds_fig1g():
    code = parse(f"meta declared_height=2\nmeta declared_classical=true\n{FIG1G}")
    bound = height_bounds(code)
    assert bound.affine_bound == 2 and bound.lambda_bound == 2
    assert bound.lower == 2 == bound.declared_upper
    assert not bound.formal


def test_height_bounds_fig1f_interval():
    code = parse("meta declared_height=1..2\nopen: O1+ O2+ U3+ U1+ O3+ U2+ U4+ O5+ O4+ U5+")
    bound = height_bounds(code)
    assert bound.lower == 1
    assert bound.declared_upper == 2


def test_height_bound_shape_error():
    with pytest.raises(ShapeError):
        height_bounds(parse("open: O1+\nloop: U1+"))


def test_closure_identities_random():
    from knotoids.affine import affine_index
    from knotoids.arrow import arrow_polynomial
    from knotoids.parity_bracket import parity_bracket

    rng = random.Random(81)
    for _ in range(60):
        code = random_code(rng, rng.randint(0, 5))
        closed = virtual_closure(code)
        assert normalized_bracket(code).normalized == normalized_bracket(closed).normalized
        assert parity_bracket(code, closed=True) == parity_bracket(closed)
        assert arrow_polynomial(code).substitute_lambda_with_k() == arrow_polynomial(closed)
        # The closed code carries the same crossing data, so the defining
        # affine sum is untouched by closure.
        assert affine_index(code) == affine_index(code)
