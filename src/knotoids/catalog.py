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
from functools import cached_property
from importlib import resources

from .codes import KnotoidCode, classify_crossings, evenly_intersticed, parse
from .affine import affine_index
from .arrow import arrow_polynomial
from .bracket import writhe
from .closures import HeightBound, carter_genus, check_height_shape, declared_height_interval
from .errors import UnknownEntry
from .laurent import LaurentA, writhe_normalize
from .parity import odd_writhe
from .parity_bracket import FlatParityValue, normalize_parity, parity_bracket
from .smoothing import DEFAULT_STATE_LIMIT


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


@dataclass
class Invariants:
    """The invariants of one diagram, each computed on first use.

    At most one arrow polynomial, one parity bracket and one affine index
    are computed.  The bracket is the arrow's coefficient sum, and the flat
    parity bracket is the parity bracket at A = -1.
    """

    code: KnotoidCode
    state_limit: int = DEFAULT_STATE_LIMIT

    @cached_property
    def arrow(self):
        return arrow_polynomial(self.code, self.state_limit)

    @cached_property
    def bracket(self):
        return self.arrow.coefficient_sum()

    @cached_property
    def parity(self):
        return parity_bracket(self.code, self.state_limit)

    @cached_property
    def flat_parity(self):
        return FlatParityValue.of(self.parity)

    @cached_property
    def affine(self):
        return affine_index(self.code)


def compute_invariant(values: Invariants, key: str) -> str:
    """Render the named invariant in the catalog's exact format."""
    code = values.code
    if key == "writhe":
        return str(writhe(code))
    if key == "odd_writhe":
        return str(odd_writhe(code).value)
    if key == "odd_set":
        return ",".join(sorted(odd_writhe(code).odd_crossings))
    if key in ("parity_even", "parity_link"):
        wanted = "even" if key == "parity_even" else "link"
        labels = [i.label for i in classify_crossings(code) if i.parity == wanted]
        return ",".join(sorted(labels))
    if key == "evenly_intersticed":
        return "true" if evenly_intersticed(code) else "false"
    if key == "bracket":
        return values.bracket.render()
    if key == "normalized_bracket":
        return writhe_normalize(values.bracket, writhe(code)).render()
    if key == "affine":
        return values.affine.render()
    if key == "affine_max_degree":
        return str(values.affine.max_degree())
    if key == "affine_symmetric":
        return "true" if values.affine.is_symmetric() else "false"
    if key == "arrow":
        return values.arrow.render()
    if key == "normalized_arrow":
        return writhe_normalize(values.arrow, writhe(code)).render()
    if key == "k_degree":
        return str(values.arrow.k_degree())
    if key == "lambda_degree":
        return str(values.arrow.lambda_degree())
    if key == "genus":
        return str(carter_genus(code))
    if key == "height_lower":
        check_height_shape(code)
        return str(HeightBound.of(code, values.affine, values.arrow).lower)
    if key == "parity_plain":
        return values.parity.plain.render()
    if key == "parity_graphical_count":
        return str(len(values.parity.graphical))
    if key == "parity_graphical_unit":
        graphical = values.parity.graphical
        return (
            "true"
            if len(graphical) == 1 and all(v == LaurentA.one() for v in graphical.values())
            else "false"
        )
    if key == "normalized_parity_plain":
        return normalize_parity(values.parity, writhe(code)).plain.render()
    if key == "flat_parity_trivial":
        return "true" if values.flat_parity.is_trivial() else "false"
    raise KeyError(f"unknown invariant key {key!r}")


def verify_entry(
    entry: CatalogEntry, state_limit: int = DEFAULT_STATE_LIMIT
) -> VerificationReport:
    """Recompute every expected invariant of one entry and compare exactly."""
    values = Invariants(entry.code, state_limit)
    items = tuple(
        VerificationItem(key, entry.expected[key], compute_invariant(values, key))
        for key in sorted(entry.expected)
    )
    return VerificationReport(entry.id, entry.quarantined, items)
