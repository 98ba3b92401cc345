"""Bundled diagram fixtures with expected invariant values.

Each ``.knotoid`` file in the data directory holds one diagram in the text
format plus metadata: provenance (``source=text|figure|generated``),
declared flags, and ``expect.<invariant>=<rendered value>`` lines that the
verifier recomputes exactly.  Entries whose transcription could not be
reconciled with their reference values are marked ``quarantined=true`` and
are excluded from the regression gate (their notes document the
discrepancy).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .codes import KnotoidCode, classify_crossings, evenly_intersticed, parse
from .affine import affine_index
from .arrow import arrow_polynomial
from .bracket import bracket, writhe
from .closures import HeightBound, carter_genus, check_height_shape, declared_height_interval
from .errors import UnknownEntry
from .laurent import LaurentA, writhe_normalize
from .parity import odd_writhe
from .parity_bracket import flat_parity_bracket, normalize_parity, parity_bracket
from .codes import flat_projection


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    code: KnotoidCode
    source: str
    declared_classical: bool
    declared_knot_type: bool
    declared_height: tuple[int, int] | None
    expected: dict[str, str]
    quarantined: bool
    note: str


@dataclass(frozen=True)
class VerificationItem:
    invariant: str
    expected: str
    computed: str

    @property
    def ok(self) -> bool:
        return self.expected == self.computed


@dataclass(frozen=True)
class VerificationReport:
    entry_id: str
    quarantined: bool
    items: tuple[VerificationItem, ...]

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)


def _entry_from_text(text: str) -> CatalogEntry:
    code = parse(text)
    meta = code.meta
    expected = {
        key[len("expect."):]: value
        for key, value in meta.items()
        if key.startswith("expect.")
    }
    return CatalogEntry(
        id=meta.get("id", "unnamed"),
        code=code,
        source=meta.get("source", "text"),
        declared_classical=meta.get("declared_classical") == "true",
        declared_knot_type=meta.get("declared_knot_type") == "true",
        declared_height=declared_height_interval(code),
        expected=expected,
        quarantined=meta.get("quarantined") == "true",
        note=meta.get("note", ""),
    )


def load_catalog() -> list[CatalogEntry]:
    """All bundled entries, sorted by id."""
    entries = []
    root = resources.files("knotoids").joinpath("data")
    for item in sorted(root.iterdir(), key=lambda p: p.name):
        if item.name.endswith(".knotoid"):
            entries.append(_entry_from_text(item.read_text()))
    return sorted(entries, key=lambda e: e.id)


def catalog_entry(entry_id: str) -> CatalogEntry:
    for entry in load_catalog():
        if entry.id == entry_id:
            return entry
    raise UnknownEntry(f"no catalog entry {entry_id!r}")


ARROW_KEYS = {"arrow", "normalized_arrow", "k_degree", "lambda_degree", "height_lower"}


def compute_invariant(
    code: KnotoidCode, key: str, state_limit: int = 24, memo: dict | None = None
) -> str:
    """Render the named invariant of ``code`` in the catalog's exact format;
    ``memo`` (one dict per code) keeps each underlying value for later keys."""
    memo = {} if memo is None else memo

    def once(fn, *args):
        if fn not in memo:
            memo[fn] = fn(code, *args)
        return memo[fn]

    if key == "writhe":
        return str(writhe(code))
    if key == "odd_writhe":
        return str(once(odd_writhe).value)
    if key == "odd_set":
        return ",".join(sorted(once(odd_writhe).odd_crossings))
    if key in ("parity_even", "parity_link"):
        wanted = "even" if key == "parity_even" else "link"
        labels = [i.label for i in classify_crossings(code) if i.parity == wanted]
        return ",".join(sorted(labels))
    if key == "evenly_intersticed":
        return "true" if evenly_intersticed(code) else "false"
    if key == "bracket":
        return once(bracket, state_limit).render()
    if key == "normalized_bracket":
        return writhe_normalize(once(bracket, state_limit), writhe(code)).render()
    if key == "affine":
        return once(affine_index).render()
    if key == "affine_max_degree":
        return str(once(affine_index).max_degree())
    if key == "affine_symmetric":
        return "true" if once(affine_index).is_symmetric() else "false"
    if key == "arrow":
        return once(arrow_polynomial, state_limit).render()
    if key == "normalized_arrow":
        return writhe_normalize(once(arrow_polynomial, state_limit), writhe(code)).render()
    if key == "k_degree":
        return str(once(arrow_polynomial, state_limit).k_degree())
    if key == "lambda_degree":
        return str(once(arrow_polynomial, state_limit).lambda_degree())
    if key == "genus":
        return str(carter_genus(code))
    if key == "height_lower":
        check_height_shape(code)
        affine, arrow = once(affine_index), once(arrow_polynomial, state_limit)
        return str(HeightBound.of(code, affine, arrow).lower)
    if key == "parity_plain":
        return once(parity_bracket, state_limit).plain.render()
    if key == "parity_graphical_count":
        return str(len(once(parity_bracket, state_limit).graphical))
    if key == "parity_graphical_unit":
        value = once(parity_bracket, state_limit)
        return (
            "true"
            if len(value.graphical) == 1
            and all(v == LaurentA.one() for v in value.graphical.values())
            else "false"
        )
    if key == "normalized_parity_plain":
        return normalize_parity(once(parity_bracket, state_limit), writhe(code)).plain.render()
    if key == "flat_parity_trivial":
        return "true" if flat_parity_bracket(flat_projection(code), state_limit).is_trivial() else "false"
    raise KeyError(f"unknown invariant key {key!r}")


def verify_entry(entry: CatalogEntry, state_limit: int = 24) -> VerificationReport:
    """Recompute every expected invariant of one entry and compare exactly."""
    items, memo = [], {}
    if entry.expected.keys() & ARROW_KEYS:  # the bracket is the arrow's coefficient sum
        arrow = memo[arrow_polynomial] = arrow_polynomial(entry.code, state_limit)
        memo[bracket] = arrow.coefficient_sum()
    for key in sorted(entry.expected):
        computed = compute_invariant(entry.code, key, state_limit, memo)
        items.append(VerificationItem(key, entry.expected[key], computed))
    return VerificationReport(entry.id, entry.quarantined, tuple(items))
