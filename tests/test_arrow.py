"""Arrow polynomial: cusp reduction, state sum, degrees."""

import random

from knotoids.arrow import arrow_degrees, arrow_polynomial, normalized_arrow, reduce_cusps
from knotoids.bracket import bracket, normalized_bracket
from knotoids.closures import virtual_closure
from knotoids.codes import parse
from knotoids.laurent import ArrowPoly, LaurentA
from helpers import random_code, random_multi_code

FIG1G = "open: OA+ OB+ UC+ UD+ UA+ OE+ UF+ OD+ UB+ UE+ OF+ OC+"


def test_reduce_cusps_rules():
    assert reduce_cusps("LL", "circle").reduced_cusp_count == 0
    assert reduce_cusps("LRLR", "circle").reduced_cusp_count == 4
    assert reduce_cusps("LR", "segment").reduced_cusp_count == 2
    # Cyclic cancellation across the seam.
    assert reduce_cusps("RLLR", "circle").reduced_cusp_count == 0
    assert reduce_cusps("RLRL", "circle").reduced_cusp_count == 4
    assert reduce_cusps("", "segment").reduced_cusp_count == 0


def test_arrow_trivial():
    assert arrow_polynomial(parse("open:")) == ArrowPoly.one()


def test_arrow_fig1g_value():
    assert (
        arrow_polynomial(parse(FIG1G)).render()
        == "A^6+(A^4-A^-4)L_1+(A^2-A^-2)L_2"
    )


def test_arrow_fig1f_value():
    code = parse("open: O1+ O2+ U3+ U1+ O3+ U2+ U4+ O5+ O4+ U5+")
    assert arrow_polynomial(code).render() == "-A^7-A^3+2A^-1-A^-5+(-2A^5+2A)L_1"


def test_normalized_kink_is_one():
    assert normalized_arrow(parse("open: O1+ U1+")) == ArrowPoly.one()
    assert normalized_arrow(parse("open: U1- O1-")) == ArrowPoly.one()


def test_knot_type_arrow_equals_bracket():
    # Knot-type diagrams keep no cusps, so the arrow polynomial collapses.
    for text in ("open:", "open: O1+ U1+", "open: O1+ U2+ O3+ U1+ O2+ U3+"):
        code = parse(text)
        arrow = normalized_arrow(code)
        assert arrow.lambda_degree() == 0 and arrow.k_degree() == 0
        assert arrow.scalar_part() == normalized_bracket(code).normalized


def test_arrow_degrees_examples():
    assert arrow_degrees(parse(FIG1G)) == (0, 2)
    assert arrow_degrees(parse("open: O1+ U2- U1+ O2-")) == (1, 1)


def test_coefficient_sum_reproduces_bracket():
    # Dropping all cusp bookkeeping re-parenthesizes the bracket sum: on one
    # leg with loops, on several legs with and without empty components, and
    # on loop-only virtual closures.
    rng = random.Random(41)
    codes = [random_code(rng, rng.randint(0, 6), loops=rng.choice((0, 0, 1))) for _ in range(100)]
    codes += [random_multi_code(rng, rng.randint(0, 6), empty=i % 2 == 1) for i in range(60)]
    codes += [virtual_closure(random_code(rng, rng.randint(0, 6))) for _ in range(30)]
    assert max(len(code.open_components) for code in codes) >= 3
    assert any(not comp.passages for code in codes for comp in code.components)
    for code in codes:
        arrow = arrow_polynomial(code)
        total = LaurentA.zero()
        for coeff in arrow.terms.values():
            total = total + coeff
        assert total == bracket(code), code
        assert arrow.coefficient_sum() == total


def test_arrow_move_invariance_spot():
    from knotoids.moves import applicable_moves, apply_move

    rng = random.Random(42)
    for _ in range(40):
        code = random_code(rng, rng.randint(1, 4))
        value = normalized_arrow(code)
        moves = applicable_moves(code)
        move = moves[rng.randrange(len(moves))]
        assert normalized_arrow(apply_move(code, move)) == value
