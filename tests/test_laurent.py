"""Exact polynomial arithmetic: ring axioms, degrees, rendering."""

import random

from knotoids.laurent import (
    AffinePoly,
    ArrowMonomial,
    ArrowPoly,
    LaurentA,
    loop_value,
    state_sum,
    writhe_normalize,
)


def random_laurent(rng, cls=LaurentA):
    return cls({rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))})


def test_additive_cancellation():
    assert (LaurentA({2: 1}) + LaurentA({2: -1})).is_zero()


def test_loop_value_square():
    d = loop_value()
    assert d * d == LaurentA({4: 1, 0: 2, -4: 1})


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (random_laurent(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert (a + (-a)).is_zero()
        assert a * b == b * a


def test_writhe_normalize_units():
    assert writhe_normalize(LaurentA({3: -1}), 1) == LaurentA.one()
    assert writhe_normalize(LaurentA({-3: -1}), -1) == LaurentA.one()


def test_writhe_normalize_additive():
    rng = random.Random(12)
    for _ in range(100):
        p = random_laurent(rng)
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        assert writhe_normalize(p, a + b) == writhe_normalize(writhe_normalize(p, a), b)


def test_writhe_normalize_is_the_product_by_the_unit():
    rng = random.Random(13)
    for _ in range(100):
        w = rng.randint(-7, 7)
        unit = LaurentA({-3 * w: -1 if w % 2 else 1})
        p = random_laurent(rng)
        assert writhe_normalize(p, w) == p * unit
        arrow = ArrowPoly(
            {ArrowMonomial.build((rng.randint(1, 3),), ()): random_laurent(rng) for _ in range(3)}
        )
        product = ArrowPoly({m: c * unit for m, c in arrow.terms.items()})
        assert writhe_normalize(arrow, w) == product


def expanded_state_sum(counts):
    """The state sum with d**j built as j products of ``loop_value()``."""
    total = LaurentA.zero()
    for (sigma, comps), count in counts.items():
        power = LaurentA.one()
        for _ in range(comps - 1):
            power = power * loop_value()
        total = total + power.shift(sigma, count)
    return total


def test_state_sum_matches_the_expansion_by_loop_values():
    rng = random.Random(14)
    comps_seen = set()
    for _ in range(150):
        counts = {
            (rng.randint(-40, 40), rng.choice((0, 1, rng.randint(0, 41)))): rng.randint(-50, 50)
            for _ in range(rng.randint(0, 12))
        }
        comps_seen.update(comps for _, comps in counts)
        assert state_sum(counts) == expanded_state_sum(counts), counts
    assert {0, 1, 41} <= comps_seen


def test_max_degree():
    assert AffinePoly({2: 1, 1: 2, -1: 2, -2: 1, 0: -6}).max_degree() == 2
    assert AffinePoly.zero().max_degree() == 0
    assert AffinePoly({1: 1, -1: 1, 0: -2}).max_degree() == 1


def test_is_symmetric():
    assert AffinePoly({2: 1, 1: 2, -1: 2, -2: 1, 0: -6}).is_symmetric()
    assert not AffinePoly({2: 1, 0: -1}).is_symmetric()
    assert AffinePoly.zero().is_symmetric()


def test_symmetry_matches_substitution():
    rng = random.Random(13)
    for _ in range(100):
        p = random_laurent(rng, AffinePoly)
        assert p.is_symmetric() == (p == p.substitute_inverse())


def test_arrow_monomial_degrees():
    m = ArrowMonomial.build((2, 2, 2), (1,))
    assert m.k_degree() == 6
    assert m.lambda_degree() == 1
    assert ArrowMonomial().k_degree() == 0
    assert ArrowMonomial().lambda_degree() == 0


def test_arrow_poly_degrees_printed_example():
    poly = ArrowPoly(
        {
            ArrowMonomial(): LaurentA({6: 1}),
            ArrowMonomial.build((), (1,)): LaurentA({-4: -1, 4: 1}),
            ArrowMonomial.build((), (2,)): LaurentA({-2: -1, 2: 1}),
        }
    )
    assert poly.k_degree() == 0
    assert poly.lambda_degree() == 2


def test_arrow_poly_merge():
    lam = ArrowPoly({ArrowMonomial.build((), (1,)): LaurentA.one()})
    k = ArrowPoly({ArrowMonomial.build((1,), ()): LaurentA.one()})
    product = lam * k
    assert list(product.terms) == [ArrowMonomial(((1, 1),), (1,))]


def test_arrow_lambda_to_k_swap():
    poly = ArrowPoly(
        {
            ArrowMonomial.build((), (1,)): LaurentA.one(),
            ArrowMonomial.build((1,), ()): -LaurentA.one(),
        }
    )
    assert poly.substitute_lambda_with_k().is_zero()


def test_render_formats():
    assert AffinePoly({2: 1, 1: 2, -1: 2, -2: 1, 0: -6}).render() == "t^2+2t+2t^-1+t^-2-6"
    assert LaurentA({2: 1, 0: 1, -4: -1}).render() == "A^2+1-A^-4"
    assert LaurentA.zero().render() == "0"
    assert LaurentA({3: -1}).render() == "-A^3"
    assert ArrowPoly.one().render() == "1"


def test_json_rendering():
    p = LaurentA({2: 1, -4: -1})
    assert p.to_json() == {"-4": -1, "2": 1}
    arrow = ArrowPoly({ArrowMonomial.build((), (2,)): p})
    assert arrow.to_json() == [{"k": {}, "l": [2], "coeff": {"-4": -1, "2": 1}}]
