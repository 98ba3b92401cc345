"""The values the public API returns are immutable: each survives pickle
and deepcopy equal and with an equal hash, and no polynomial's terms can
be written."""

import copy
import pickle

import pytest

import knotoids as K
from knotoids.catalog import catalog_entry

FIG1G = "open: OA+ OB+ UC+ UD+ UA+ OE+ UF+ OD+ UB+ UE+ OF+ OC+"
FIG18 = "open: O1+ U2- U1+ O2-"  # its parity bracket has a graphical term


def public_values():
    code, fig18 = K.parse(FIG1G), K.parse(FIG18)
    move = K.applicable_moves(code, max_crossings=7)[0]
    return [
        code,
        K.flat_projection(code),
        K.virtual_closure(code),
        K.classify_crossings(code)[0],
        K.bracket(code),
        K.bracket_oracle(fig18),
        K.normalized_bracket(code),
        K.arrow_polynomial(code),
        K.normalized_arrow(code),
        K.reduce_cusps("LRL", "segment"),
        K.affine_index(code),
        K.weight_chart(code),
        K.detect_virtuality(fig18),
        K.odd_writhe(code),
        K.parity_bracket(fig18),
        K.flat_parity_bracket(K.flat_projection(fig18)),
        K.height_bounds(code),
        move,
        K.inverse_of(code, move),
        K.verify_entry(K.load_catalog()[0]),
    ]


def test_values_round_trip_through_pickle_and_deepcopy():
    for value in public_values():
        for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(again) is type(value)
            assert again == value, value
            assert hash(again) == hash(value), value


def test_polynomial_terms_cannot_be_written():
    code = K.parse(FIG1G)
    polys = [K.bracket(code), K.affine_index(code), K.arrow_polynomial(code)]
    polys += K.parity_bracket(K.parse(FIG18)).graphical.values()
    for poly in polys:
        key, coefficient = next(iter(poly.terms.items()))
        before = hash(poly)
        with pytest.raises(TypeError):
            poly.terms[key] = coefficient
        with pytest.raises(TypeError):
            del poly.terms[key]
        with pytest.raises(AttributeError):
            poly.terms = {}
        with pytest.raises(AttributeError):
            del poly.terms
        assert hash(poly) == before


def test_catalog_entries_are_immutable_values():
    entries = K.load_catalog()
    for entry in entries:
        for again in (pickle.loads(pickle.dumps(entry)), copy.deepcopy(entry)):
            assert type(again) is type(entry)
            assert again == entry and hash(again) == hash(entry), entry.id
            assert type(again.expected) is type(entry.expected)
    assert len(set(entries)) == len(entries)
    entry = next(e for e in entries if e.expected)
    key, value = next(iter(entry.expected.items()))
    before = hash(entry)
    with pytest.raises(TypeError):
        entry.expected[key] = value + "1"
    with pytest.raises(TypeError):
        del entry.expected[key]
    assert entry.expected[key] == value and hash(entry) == before
    assert catalog_entry(entry.id) == entry
