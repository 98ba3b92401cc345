"""Affine index polynomial: labels, weights, symmetry, virtuality flags."""

import random

import pytest

from knotoids.affine import (
    VirtualityReport,
    affine_index,
    arc_labels,
    detect_virtuality,
    weight_chart,
)
from knotoids.arrow import arrow_polynomial
from knotoids.codes import parse, reverse, spiral
from knotoids.errors import ShapeError
from knotoids.laurent import AffinePoly
from knotoids.parity_bracket import parity_bracket
from helpers import random_code

FIG1G = "open: OA+ OB+ UC+ UD+ UA+ OE+ UF+ OD+ UB+ UE+ OF+ OC+"


def test_arc_labels_trivial():
    assert arc_labels(parse("open:")) == [0]


def test_arc_labels_kink():
    labels = arc_labels(parse("open: O1+ U1+"))
    assert labels[0] == 0 and labels[-1] == 0
    assert sorted(labels) in ([-1, 0, 0], [0, 0, 1])


def test_weight_negation():
    for chart in (weight_chart(parse(FIG1G)), weight_chart(spiral(2, "++++"))):
        for entry in chart.entries:
            assert entry.w_minus == -entry.w_plus
            assert entry.w_selected == (entry.w_plus if entry.sign > 0 else entry.w_minus)


def test_kink_weight_zero():
    chart = weight_chart(parse("open: O1+ U1+"))
    assert chart.entries[0].w_selected == 0


def test_knot_type_weights_zero():
    chart = weight_chart(parse("open: O1+ U2+ O3+ U1+ O2+ U3+"))
    assert all(e.w_selected == 0 for e in chart.entries)


def test_affine_fig1g():
    assert affine_index(parse(FIG1G)).render() == "t^2+2t+2t^-1+t^-2-6"


def test_affine_spirals():
    assert affine_index(spiral(1, "++")) == AffinePoly({1: 1, -1: 1, 0: -2})
    assert affine_index(spiral(2, "++++")) == AffinePoly({2: 1, 1: 1, -1: 1, -2: 1, 0: -4})
    assert affine_index(spiral(3, "+---++")).is_zero()


def test_affine_fig1f():
    code = parse("open: O1+ O2+ U3+ U1+ O3+ U2+ U4+ O5+ O4+ U5+")
    assert affine_index(code) == AffinePoly({1: 2, -1: 2, 0: -4})


def test_affine_index_is_the_sum_of_crossing_terms():
    """One dict of weights equals the sum of sign * (t^w - 1) over the
    weight chart, one AffinePoly per term."""
    from knotoids.catalog import load_catalog

    rng = random.Random(15)
    codes = [random_code(rng, rng.randint(0, 12)) for _ in range(200)]
    codes += [e.code for e in load_catalog() if len(e.code.components) == 1]
    for code in codes:
        expected = AffinePoly.zero()
        for e in weight_chart(code).entries:
            expected = expected + AffinePoly({e.w_selected: e.sign}) - AffinePoly({0: e.sign})
        assert affine_index(code) == expected, code


def test_shape_errors():
    multi = parse("open: O1+\nloop: U1+")
    with pytest.raises(ShapeError):
        affine_index(multi)
    with pytest.raises(ShapeError):
        arc_labels(multi)


def test_reversal_inverts_t():
    rng = random.Random(71)
    for _ in range(120):
        code = random_code(rng, rng.randint(0, 6))
        assert affine_index(reverse(code)) == affine_index(code).substitute_inverse()


def test_classical_entries_symmetric():
    from knotoids.catalog import load_catalog

    for entry in load_catalog():
        if entry.quarantined or not entry.declared_classical:
            continue
        if not entry.code.is_standard_knotoid():
            continue
        assert affine_index(entry.code).is_symmetric(), entry.id


def find_asymmetric_code():
    rng = random.Random(72)
    while True:
        code = random_code(rng, rng.randint(2, 4))
        if not affine_index(code).is_symmetric():
            return code


def test_detect_virtuality_flags():
    asym = find_asymmetric_code()
    report = detect_virtuality(asym)
    assert report.affine_asymmetric
    assert report.verdict == "provably non-classical"

    fig18 = detect_virtuality(parse("open: O1+ U2- U1+ O2-"))
    assert fig18.irreducible_parity_graph
    assert fig18.k_degree_positive
    assert fig18.verdict == "provably non-classical"

    for text in ("open:", "open: O1+ U1+", "open: O1+ U2+ O3+ U1+ O2+ U3+"):
        report = detect_virtuality(parse(text))
        assert report.verdict == "inconclusive"


def test_virtuality_report_of_given_values():
    # fig1g has Lambda-degree 2 but K-degree 0, so only the K-degree may set
    # the flag; fig18 has K-degree 1 and one irreducible graphical state.
    for text, flags in ((FIG1G, (False, False, False)),
                        ("open: O1+ U2- U1+ O2-", (False, True, True))):
        code = parse(text)
        report = VirtualityReport.of(affine_index(code), arrow_polynomial(code),
                                     parity_bracket(code))
        assert report == VirtualityReport(*flags) == detect_virtuality(code)
    with pytest.raises(ShapeError):
        detect_virtuality(parse("open: O1+ U1+\nloop:"))
