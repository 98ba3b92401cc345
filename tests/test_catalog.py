"""Catalog fixtures: presence, provenance, and exact verification."""

from dataclasses import replace
from importlib import resources

import pytest

from knotoids.affine import affine_index
from knotoids.arrow import arrow_polynomial
from knotoids.catalog import catalog_entry, load_catalog, verify_entry
from knotoids.codes import classify_crossings, parse, serialize, spiral
from knotoids.errors import CodeSyntaxError
from knotoids.parity_bracket import flat_parity_bracket, parity_bracket
from knotoids.smoothing import CompiledCode
from helpers import count_calls

REQUIRED = {
    "trivial", "kink", "fig1g", "fig1f", "fig15_k1", "fig17_k1", "fig17_k2",
    "fig18_virtual", "fig31_slavik", "spiral_n1", "spiral_n2", "spiral_n3",
    "spiral3_mixed", "knotoid_5_7", "fig1e_trefoil", "fig20_multi", "fig25_multi",
}


def test_catalog_complete():
    ids = {e.id for e in load_catalog()}
    assert REQUIRED <= ids


def test_fig1g_code_is_verbatim():
    entry = catalog_entry("fig1g")
    assert entry.source == "text"
    tokens = " ".join(p.token() for p in entry.code.components[0].passages)
    assert tokens == "OA+ OB+ UC+ UD+ UA+ OE+ UF+ OD+ UB+ UE+ OF+ OC+"


def test_fig20_code_is_verbatim():
    entry = catalog_entry("fig20_multi")
    loop = " ".join(p.token() for p in entry.code.components[0].passages)
    leg = " ".join(p.token() for p in entry.code.components[1].passages)
    assert loop == "O1- U2- O3- O4+ U1- O2- U3-"
    assert leg == "U4+"


def test_spiral_entries_match_generator():
    for n in (1, 2, 3):
        entry = catalog_entry(f"spiral_n{n}")
        assert entry.code.components == spiral(n, "+" * (2 * n)).components
    mixed = catalog_entry("spiral3_mixed")
    assert mixed.code.components == spiral(3, "+---++").components


def test_every_unquarantined_entry_verifies():
    for entry in load_catalog():
        if entry.quarantined:
            continue
        report = verify_entry(entry)
        failed = [i for i in report.items if not i.ok]
        assert not failed, f"{entry.id}: {failed}"


def test_verify_computes_each_state_sum_once(monkeypatch):
    # fig1g expects arrow, k_degree, lambda_degree and height_lower, which all
    # read one arrow polynomial, and affine, affine_max_degree and height_lower.
    # fig15_k1, kink and trivial also expect the bracket, which is the arrow's
    # coefficient sum, so no bracket state sum (contract(False)) runs.
    calls = []
    for fn in (arrow_polynomial, affine_index, parity_bracket, flat_parity_bracket):
        count_calls(monkeypatch, calls, fn)
    report = verify_entry(catalog_entry("fig1g"))
    assert report.ok
    assert sorted(calls) == ["affine_index", "arrow_polynomial", "parity_bracket"]

    # These expect flat_parity_trivial, which is the parity bracket at A = -1,
    # and most of them a parity key too: one parity state sum serves both.
    for entry_id in ("fig1g", "kink", "fig1e_trefoil", "fig18_virtual"):
        calls.clear()
        assert verify_entry(catalog_entry(entry_id)).ok, entry_id
        assert calls.count("parity_bracket") == 1, (entry_id, calls)
        assert "flat_parity_bracket" not in calls, (entry_id, calls)

    contract = CompiledCode.contract
    monkeypatch.setattr(
        CompiledCode, "contract", lambda self, words: calls.append(words) or contract(self, words)
    )
    for entry_id in ("fig15_k1", "kink", "trivial"):
        calls.clear()
        assert verify_entry(catalog_entry(entry_id)).ok, entry_id
        assert calls.count(False) == 0 and calls.count(True) == 1, (entry_id, calls)

    # The whole catalog: each record compiles its diagram once and classifies
    # its crossings once, and the genus reads that compiled form too.
    init, frontier = CompiledCode.__init__, CompiledCode.frontier
    monkeypatch.setattr(
        CompiledCode, "__init__", lambda self, code: calls.append("CompiledCode") or init(self, code)
    )
    monkeypatch.setattr(
        CompiledCode, "frontier", lambda *a, **k: calls.append("frontier") or frontier(*a, **k)
    )
    count_calls(monkeypatch, calls, classify_crossings)
    calls.clear()
    for entry in load_catalog():
        assert entry.quarantined or verify_entry(entry).ok, entry.id
    assert calls.count("CompiledCode") <= 17, calls.count("CompiledCode")
    assert calls.count("classify_crossings") <= 14, calls.count("classify_crossings")
    assert calls.count("frontier") == 27


def test_unknown_expected_key_is_a_syntax_error():
    entry = replace(catalog_entry("kink"), expected={"no_such_invariant": "0"})
    with pytest.raises(CodeSyntaxError, match="unknown invariant key 'no_such_invariant'"):
        verify_entry(entry)


def test_lookup_reads_one_file_named_after_its_id(monkeypatch):
    data = resources.files("knotoids") / "data"
    files = [item for item in data.iterdir() if item.name.endswith(".knotoid")]
    assert len(files) == len(load_catalog())
    for item in files:
        assert parse(item.read_text()).meta["id"] + ".knotoid" == item.name
    calls = []
    count_calls(monkeypatch, calls, parse)
    assert catalog_entry("fig1g").id == "fig1g"
    assert calls == ["parse"]


def test_quarantined_entry_documents_discrepancy():
    entry = catalog_entry("fig31_slavik")
    assert entry.quarantined
    assert "transcri" in entry.note or "sweep" in entry.note


def test_every_expected_value_carries_citation():
    for entry in load_catalog():
        for key in entry.expected:
            assert f"cite.{key}" in entry.code.meta, (entry.id, key)


def test_declared_heights_bound_computed_lower():
    from knotoids.closures import height_bounds

    for entry in load_catalog():
        if entry.quarantined or entry.declared_height is None:
            continue
        if not entry.code.is_standard_knotoid():
            continue
        lo, hi = entry.declared_height
        bound = height_bounds(entry.code)
        assert bound.lower <= hi, entry.id


def test_knot_type_entries_evenly_intersticed():
    from knotoids.codes import evenly_intersticed

    found = 0
    for entry in load_catalog():
        if entry.quarantined or not entry.declared_knot_type:
            continue
        if not entry.code.is_standard_knotoid():
            continue
        found += 1
        assert evenly_intersticed(entry.code), entry.id
    assert found >= 3
