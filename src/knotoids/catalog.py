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

from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property
from importlib import resources
from types import MappingProxyType

from .codes import EVEN, LINK, KnotoidCode, _evenly_intersticed, parse
from .affine import affine_index
from .arrow import arrow_polynomial
from .bracket import writhe
from .closures import HeightBound, carter_genus, check_height_shape, declared_height_interval
from .errors import CodeSyntaxError, UnknownEntry
from .laurent import LaurentA, writhe_normalize
from .parity import OddWritheReport, odd_writhe
from .parity_bracket import FlatParityValue, normalize_parity, parity_bracket
from .smoothing import DEFAULT_STATE_LIMIT, compiled_form

_DATA = resources.files(__package__) / "data"


@dataclass(frozen=True)
class CatalogEntry:
    """One bundled entry; ``expected`` is a read-only mapping, so entries hash."""

    id: str
    code: KnotoidCode
    source: str
    declared_classical: bool
    declared_knot_type: bool
    declared_height: tuple[int, int] | None
    expected: Mapping[str, str]
    quarantined: bool
    note: str

    def __post_init__(self):
        object.__setattr__(self, "expected", MappingProxyType(dict(self.expected)))

    def __hash__(self):
        return hash((self.id, self.code, tuple(sorted(self.expected.items()))))

    def __reduce__(self):
        # Pickles and copies rebuild the read-only mapping from a dict.
        values = [getattr(self, f.name) for f in fields(self)]
        return type(self), tuple(dict(v) if isinstance(v, Mapping) else v for v in values)


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
    entries = [
        _entry_from_text(item.read_text())
        for item in _DATA.iterdir()
        if item.name.endswith(".knotoid")
    ]
    return sorted(entries, key=lambda e: e.id)


def catalog_entry(entry_id: str) -> CatalogEntry:
    """The entry ``entry_id``, read from its own file ``<entry_id>.knotoid``.

    Only a name in the data directory's listing is read, so an id that is
    a path, such as ``../data/fig1g``, is unknown.
    """
    name = f"{entry_id}.knotoid"
    if name not in {item.name for item in _DATA.iterdir()}:
        raise UnknownEntry(f"no catalog entry {entry_id!r}")
    return _entry_from_text((_DATA / name).read_text())


@dataclass
class Invariants:
    """The invariants of one diagram, each computed on first use.

    The public engines all read the code's one compiled form
    (``smoothing.compiled_form``), so the arrow polynomial, the parity
    bracket and the genus share one compile, and the parity bracket, the
    odd writhe, evenly-intersticed and the parity label lists one crossing
    classification.  The bracket is the arrow's coefficient sum, and the
    flat parity bracket is the parity bracket at A = -1.  ``record[key]``
    is the value named ``key`` in ``VALUES``, which the catalog and the
    CLI both read.
    """

    code: KnotoidCode
    state_limit: int = DEFAULT_STATE_LIMIT

    @cached_property
    def odd(self) -> OddWritheReport:
        return odd_writhe(self.code)

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
    def affine(self):
        return affine_index(self.code)

    @cached_property
    def height(self) -> HeightBound:
        check_height_shape(self.code)
        return HeightBound.of(self.code, self.affine, self.arrow)

    def labels(self, parity: str) -> str:
        """The labels of the crossings of one parity class, sorted and comma-joined."""
        compiled = compiled_form(self.code)
        pairs = zip(compiled.labels, compiled.parity)
        return ",".join(sorted(label for label, p in pairs if p == parity))

    def __getitem__(self, key: str):
        if key not in VALUES:
            raise CodeSyntaxError(f"unknown invariant key {key!r}")
        return VALUES[key](self)


# The named values of a diagram, each an int, a bool or a rendered string.
VALUES = {
    "writhe": lambda v: writhe(v.code),
    "odd_writhe": lambda v: v.odd.value,
    "odd_set": lambda v: ",".join(sorted(v.odd.odd_crossings)),
    "parity_even": lambda v: v.labels(EVEN),
    "parity_link": lambda v: v.labels(LINK),
    "evenly_intersticed": lambda v: _evenly_intersticed(v.code, compiled_form(v.code).parity),
    "bracket": lambda v: v.bracket.render(),
    "normalized_bracket": lambda v: writhe_normalize(v.bracket, writhe(v.code)).render(),
    "arrow": lambda v: v.arrow.render(),
    "normalized_arrow": lambda v: writhe_normalize(v.arrow, writhe(v.code)).render(),
    "k_degree": lambda v: v.arrow.k_degree(),
    "lambda_degree": lambda v: v.arrow.lambda_degree(),
    "parity_bracket": lambda v: v.parity.render(),
    "normalized_parity_bracket": lambda v: normalize_parity(v.parity, writhe(v.code)).render(),
    "parity_plain": lambda v: v.parity.plain.render(),
    "parity_graphical_count": lambda v: len(v.parity.graphical),
    "parity_graphical_unit": lambda v: list(v.parity.graphical.values()) == [LaurentA.one()],
    "flat_parity_trivial": lambda v: FlatParityValue.of(v.parity).is_trivial(),
    "affine": lambda v: v.affine.render(),
    "affine_max_degree": lambda v: v.affine.max_degree(),
    "affine_symmetric": lambda v: v.affine.is_symmetric(),
    "genus": lambda v: carter_genus(v.code),
    "height_lower": lambda v: v.height.lower,
}


def compute_invariant(values: Invariants, key: str) -> str:
    """Render the named invariant in the catalog's exact format."""
    value = values[key]
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


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
