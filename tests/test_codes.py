"""Gauss code model: parsing, validation, derivations, spiral generator."""

import random

import pytest

from knotoids.codes import (
    classify_crossings,
    evenly_intersticed,
    flat_projection,
    parse,
    reverse,
    serialize,
    spiral,
)
from knotoids.errors import (
    CodeSyntaxError,
    DuplicateRole,
    OddOccurrence,
    ShapeError,
    SignMismatch,
)
from helpers import random_code, random_multi_code

FIG1G = "open: OA+ OB+ UC+ UD+ UA+ OE+ UF+ OD+ UB+ UE+ OF+ OC+"


def test_parse_kink():
    code = parse("open: O1+ U1+")
    assert code.crossing_count() == 1
    assert code.is_standard_knotoid()


def test_parse_fig1g():
    code = parse(FIG1G)
    assert code.crossing_count() == 6
    assert [p.token() for p in code.components[0].passages][:3] == ["OA+", "OB+", "UC+"]


def test_parse_rejects_duplicate_role():
    with pytest.raises(DuplicateRole):
        parse("open: O1+ O1+")


def test_parse_rejects_sign_mismatch():
    with pytest.raises(SignMismatch):
        parse("open: O1+ U1-")


def test_parse_rejects_odd_occurrence():
    with pytest.raises(OddOccurrence):
        parse("open: O1+ U1+ O2+")
    with pytest.raises(OddOccurrence):
        parse("open: O1+ U1+ O2+ U2+ O2+ U2+")


def test_parse_rejects_bad_tokens():
    with pytest.raises(CodeSyntaxError):
        parse("open: Q1+ U1+")
    with pytest.raises(CodeSyntaxError):
        parse("twisted: O1+ U1+")
    with pytest.raises(CodeSyntaxError):
        parse("")


def test_serialize_trivial_and_kink():
    assert serialize(parse("open:")).strip() == "open:"
    assert serialize(parse("open: O1+ U1+")).strip() == "open: O1+ U1+"


def test_serialize_fig1g_roundtrip():
    code = parse(FIG1G)
    assert serialize(code).strip() == FIG1G


def test_roundtrip_random_codes():
    rng = random.Random(2024)
    for _ in range(1000):
        code = random_code(rng, rng.randint(0, 6), loops=rng.choice((0, 0, 1, 2)))
        assert parse(serialize(code)) == code


def test_meta_roundtrip():
    code = parse("meta declared_classical=true\nmeta source=text\nopen: O1+ U1+")
    assert code.meta["declared_classical"] == "true"
    assert parse(serialize(code)) == code


def test_code_is_hashable_and_meta_read_only():
    code = parse("meta source=text\nopen: O1+ U1+")
    assert hash(code) == hash(parse("open: O1+ U1+"))
    assert len({code, parse("meta source=text\nopen: O1+ U1+")}) == 1
    with pytest.raises(TypeError):
        code.meta["source"] = "figure"
    assert code.meta["source"] == "text"


def test_reverse_definition():
    assert serialize(reverse(parse("open: O1+ U2+ U1+ O2+"))).strip() == "open: O2+ U1+ U2+ O1+"


def test_reverse_involution():
    rng = random.Random(5)
    for _ in range(50):
        code = random_code(rng, rng.randint(0, 5), loops=rng.choice((0, 1)))
        assert reverse(reverse(code)) == code


def test_reverse_preserves_parity():
    rng = random.Random(6)
    for _ in range(50):
        code = random_code(rng, rng.randint(1, 6))
        before = {i.label: i.parity for i in classify_crossings(code)}
        after = {i.label: i.parity for i in classify_crossings(reverse(code))}
        assert before == after


def test_classify_counts_self_passages_between_occurrences():
    """``classify_crossings`` against its definition, read off the code
    afresh for every crossing: link when the two passages lie on different
    components, else the parity of the self-crossing passages between them."""
    rng = random.Random(7)
    codes = [random_code(rng, rng.randint(0, 14), loops=rng.randint(0, 3)) for _ in range(60)]
    codes += [random_multi_code(rng, rng.randint(0, 14), empty=i % 2 == 0) for i in range(60)]
    kinds = set()
    for code in codes:
        where = {}
        for ci, comp in enumerate(code.components):
            for pi, passage in enumerate(comp.passages):
                where.setdefault(passage.label, []).append((ci, pi))
        expected = []
        for label, ((c1, p1), (c2, p2)) in where.items():
            comp = code.components[c1]
            if c1 != c2:
                parity = "link"
            else:
                between = [comp.passages[i].label for i in range(p1 + 1, p2)]
                selfs = sum(where[b][0][0] == where[b][1][0] for b in between)
                parity = "odd" if selfs % 2 else "even"
            sign = comp.passages[p1].sign
            expected.append((label, sign, parity, ((c1, p1), (c2, p2))))
        got = [(i.label, i.sign, i.parity, i.positions) for i in classify_crossings(code)]
        assert got == expected, code
        kinds |= {i[2] for i in got}
    assert kinds == {"even", "odd", "link"}


def test_classify_fig1g():
    infos = {i.label: i.parity for i in classify_crossings(parse(FIG1G))}
    assert infos == {"A": "odd", "D": "odd", "E": "odd", "F": "odd",
                     "B": "even", "C": "even"}


def test_classify_kink_even():
    infos = classify_crossings(parse("open: O1+ U1+"))
    assert infos[0].parity == "even"


def test_classify_fig20_multi():
    code = parse("loop: O1- U2- O3- O4+ U1- O2- U3-\nopen: U4+")
    infos = {i.label: i.parity for i in classify_crossings(code)}
    assert infos == {"1": "even", "2": "even", "3": "even", "4": "link"}


def test_evenly_intersticed():
    assert not evenly_intersticed(parse(FIG1G))
    assert evenly_intersticed(parse("open: O1+ U1+"))
    assert not evenly_intersticed(parse("open: O1+ O2+ U1+ U2+"))
    with pytest.raises(ShapeError):
        evenly_intersticed(parse("open: O1+\nloop: U1+"))


def test_flat_projection_shapes():
    flat = flat_projection(parse(FIG1G))
    assert flat.crossing_count() == 6
    labels = [p.label for p in flat.components[0].passages]
    assert labels == list("ABCDAEFDBEFC")
    assert flat_projection(parse("open:")).crossing_count() == 0


def test_flat_chirality_tracks_first_role():
    flat = flat_projection(parse("open: O1+ U2+ U1+ O2+"))
    bychir = {p.label: p.chirality for p in flat.components[0].passages}
    assert bychir == {"1": 1, "2": -1}


def test_spiral_calibration_values():
    from knotoids.affine import affine_index

    assert affine_index(spiral(1, "++")).render() == "t+t^-1-2"
    assert (
        affine_index(spiral(3, "++++++")).render()
        == "t^3+t^2+t+t^-1+t^-2+t^-3-6"
    )
    assert affine_index(spiral(3, "+---++")).is_zero()


def test_spiral_rejects_bad_signs():
    with pytest.raises(ShapeError):
        spiral(2, "+++")
    with pytest.raises(ShapeError):
        spiral(0, "")
    with pytest.raises(ShapeError):
        spiral(1, "+x")


def test_trivial_accepted_everywhere():
    code = parse("open:")
    assert classify_crossings(code) == []
    assert evenly_intersticed(code)
    assert reverse(code) == code

