"""Signed Gauss codes for knotoid and multi-knotoid diagrams.

A diagram is a sequence of components, each an ordered list of crossing
passages.  Open components are ordered tail to head; loop components are
cyclic with the stored order acting as the rotation anchor.  Every crossing
label appears exactly twice, once as an overpass and once as an underpass,
with a common sign.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import (
    CodeSyntaxError,
    DuplicateRole,
    OddOccurrence,
    ShapeError,
    SignMismatch,
)

OPEN = "open"
LOOP = "loop"

OVER = "O"
UNDER = "U"

EVEN = "even"
ODD = "odd"
LINK = "link"

_TOKEN_RE = re.compile(r"^(?P<role>[OU])(?P<label>[A-Za-z0-9_]+)(?P<sign>[+\-−])$")


@dataclass(frozen=True)
class Passage:
    """One visit of a crossing: role is ``O`` or ``U``, sign is +1 or -1."""

    role: str
    label: str
    sign: int

    def token(self) -> str:
        return f"{self.role}{self.label}{'+' if self.sign > 0 else '-'}"


@dataclass(frozen=True)
class ComponentCode:
    """A single component: kind ``open`` (tail to head) or ``loop`` (cyclic)."""

    kind: str
    passages: tuple[Passage, ...]

    def __len__(self) -> int:
        return len(self.passages)


@dataclass(frozen=True)
class KnotoidCode:
    """A validated multi-component signed Gauss code plus free-form metadata.

    ``meta`` is stored as a read-only mapping and left out of the hash, so
    codes are hashable; equality still compares it.
    """

    components: tuple[ComponentCode, ...]
    meta: Mapping[str, str] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))

    def __reduce__(self):
        # Pickles and copies carry the fields alone, never the compiled form
        # that ``smoothing.compiled_form`` keeps on the code.
        return KnotoidCode, (self.components, dict(self.meta))

    def all_passages(self):
        """Yield (component_index, passage_index, passage) in traversal order."""
        for ci, comp in enumerate(self.components):
            for pi, passage in enumerate(comp.passages):
                yield ci, pi, passage

    @property
    def open_components(self) -> tuple[ComponentCode, ...]:
        return tuple(c for c in self.components if c.kind == OPEN)

    @property
    def loop_components(self) -> tuple[ComponentCode, ...]:
        return tuple(c for c in self.components if c.kind == LOOP)

    def crossing_count(self) -> int:
        return sum(len(c) for c in self.components) // 2

    def is_standard_knotoid(self) -> bool:
        """Exactly one open component and no loops."""
        return len(self.open_components) == 1 and not self.loop_components


@dataclass(frozen=True)
class FlatPassage:
    """A passage of the flat (over/under forgotten) projection."""

    label: str
    visit: int  # 0 for the first appearance of the label, 1 for the second
    chirality: int  # sign times +1/-1 for over/under met first: the local
    # rotation of the flat crossing, which the sign alone does not fix


@dataclass(frozen=True)
class FlatComponent:
    kind: str
    passages: tuple[FlatPassage, ...]

    def __len__(self) -> int:
        return len(self.passages)


@dataclass(frozen=True)
class FlatCode:
    components: tuple[FlatComponent, ...]

    def crossing_count(self) -> int:
        return sum(len(c) for c in self.components) // 2


@dataclass(frozen=True)
class CrossingInfo:
    """Sign, parity class and the two occurrence positions of one crossing."""

    label: str
    sign: int
    parity: str  # even | odd | link
    positions: tuple[tuple[int, int], tuple[int, int]]


def validate(code: KnotoidCode) -> None:
    """Raise a typed error unless every Gauss-code invariant holds."""
    if not code.components:
        raise CodeSyntaxError("a diagram needs at least one component")
    by_label: dict[str, list[Passage]] = {}
    for _, _, passage in code.all_passages():
        if passage.sign not in (1, -1):
            raise SignMismatch(f"sign of {passage.label!r} must be +1 or -1")
        if passage.role not in (OVER, UNDER):
            raise CodeSyntaxError(f"role of {passage.label!r} must be O or U")
        by_label.setdefault(passage.label, []).append(passage)
    for label, passages in by_label.items():
        if len(passages) != 2:
            raise OddOccurrence(f"label {label!r} occurs {len(passages)} times, expected 2")
        first, second = passages
        if first.role == second.role:
            raise DuplicateRole(f"label {label!r} occurs twice as {first.role}")
        if first.sign != second.sign:
            raise SignMismatch(f"label {label!r} carries two different signs")


def parse(text: str) -> KnotoidCode:
    """Parse the one-diagram text format into a validated KnotoidCode.

    Lines are comments (``# ...``), metadata (``meta key=value``) or
    components (``open: TOK*`` / ``loop: TOK*``) with whitespace-separated
    tokens ``(O|U)(label)(+|-)``.
    """
    components: list[ComponentCode] = []
    meta: dict = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("meta "):
            body = line[5:].strip()
            if "=" not in body:
                raise CodeSyntaxError(f"malformed meta line: {raw_line!r}")
            key, value = body.split("=", 1)
            meta[key.strip()] = value.strip()
            continue
        if ":" not in line:
            raise CodeSyntaxError(f"expected 'open:' or 'loop:' line, got {raw_line!r}")
        head, _, rest = line.partition(":")
        kind = head.strip()
        if kind not in (OPEN, LOOP):
            raise CodeSyntaxError(f"unknown component kind {kind!r}")
        passages = []
        for token in rest.split():
            m = _TOKEN_RE.match(token)
            if not m:
                raise CodeSyntaxError(f"bad passage token {token!r}")
            sign = 1 if m.group("sign") == "+" else -1
            passages.append(Passage(m.group("role"), m.group("label"), sign))
        components.append(ComponentCode(kind, tuple(passages)))
    code = KnotoidCode(tuple(components), meta)
    validate(code)
    return code


def serialize(code: KnotoidCode) -> str:
    """Canonical text for a code; ``parse(serialize(c))`` equals ``c``."""
    lines = [f"meta {key}={code.meta[key]}" for key in sorted(code.meta)]
    for comp in code.components:
        tokens = " ".join(p.token() for p in comp.passages)
        lines.append(f"{comp.kind}:{' ' + tokens if tokens else ''}")
    return "\n".join(lines) + "\n"


def reverse(code: KnotoidCode) -> KnotoidCode:
    """Reverse the diagram orientation: tail and head swap, signs persist."""
    comps = tuple(
        ComponentCode(c.kind, tuple(reversed(c.passages))) for c in code.components
    )
    return KnotoidCode(comps, code.meta)


def flat_projection(code: KnotoidCode) -> FlatCode:
    """Forget over/under roles, keeping visit order and the crossing chirality.

    The chirality bit is the crossing sign multiplied by +1 when the
    overpass comes first, -1 otherwise; this is exactly the local rotation
    of the flat crossing, so flat computations agree with the classical
    ones run on the same diagram.
    """
    seen: set[str] = set()
    first_role: dict[str, str] = {}
    for _, _, p in code.all_passages():
        first_role.setdefault(p.label, p.role)
    comps = []
    for comp in code.components:
        flat = []
        for p in comp.passages:
            visit = 1 if p.label in seen else 0
            seen.add(p.label)
            chirality = p.sign if first_role[p.label] == OVER else -p.sign
            flat.append(FlatPassage(p.label, visit, chirality))
        comps.append(FlatComponent(comp.kind, tuple(flat)))
    return FlatCode(tuple(comps))


def classify_crossings(code: KnotoidCode) -> list[CrossingInfo]:
    """Classify each crossing as even, odd, or a link crossing.

    A crossing whose two passages lie on different components is a link
    crossing.  A self-crossing is odd when an odd number of passages of
    *self*-crossings of its component sit strictly between its two
    occurrences (link passages are skipped; around a loop the count is taken
    forward from the first stored occurrence, which is parity-safe because
    self passages pair up).
    """
    occ: dict[str, list[tuple[int, int]]] = {}  # each label's positions, by first sight
    for ci, pi, passage in code.all_passages():
        occ.setdefault(passage.label, []).append((ci, pi))
    # Per component, before[i]: the self-crossing passages before position i.
    before = []
    for ci, comp in enumerate(code.components):
        counts = [0]
        for q in comp.passages:
            (c1, _), (c2, _) = occ[q.label]
            counts.append(counts[-1] + (c1 == c2 == ci))
        before.append(counts)
    infos = []
    for label, ((c1, p1), (c2, p2)) in occ.items():  # labels by first occurrence
        sign = code.components[c1].passages[p1].sign
        if c1 != c2:
            parity = LINK
        else:
            parity = ODD if (before[c1][p2] - before[c1][p1 + 1]) % 2 else EVEN
        infos.append(CrossingInfo(label, sign, parity, ((c1, p1), (c2, p2))))
    return infos


def evenly_intersticed(code: KnotoidCode) -> bool:
    """True when every crossing of a single open component is even."""
    return _evenly_intersticed(code, [info.parity for info in classify_crossings(code)])


def _evenly_intersticed(code: KnotoidCode, parities: Iterable[str]) -> bool:
    """``evenly_intersticed`` of a code, given each crossing's parity class."""
    if not code.is_standard_knotoid():
        raise ShapeError("evenly-intersticed is defined for one open component")
    return all(parity == EVEN for parity in parities)


def spiral(n: int, signs) -> KnotoidCode:
    """The n-fold spiral knotoid diagram with the given 2n crossing signs.

    The head sits n winding arcs deep; crossing k (1-based) is met first as
    an overpass.  With all-positive signs the crossing weights come out as
    ``{1..n} U {-1..-n}``, which pins the reconnection pattern.
    """
    if n < 1:
        raise ShapeError("spiral needs n >= 1")
    signs = list(signs)
    if len(signs) != 2 * n:
        raise ShapeError(f"spiral({n}) needs exactly {2 * n} signs")
    normalized = []
    for s in signs:
        if s in (1, "+"):
            normalized.append(1)
        elif s in (-1, "-", "−"):
            normalized.append(-1)
        else:
            raise ShapeError(f"bad sign {s!r}")
    passages = []
    seen: set[int] = set()
    for k in _spiral_sequence(n):
        first = k not in seen
        seen.add(k)
        sign = normalized[k - 1]
        # The underlying flat diagram is fixed; a negative sign overlays the
        # crossing with the strands swapped, so the first visit dips under.
        base_over = first == (k <= n)
        over = base_over == (sign > 0)
        passages.append(Passage(OVER if over else UNDER, str(k), sign))
    code = KnotoidCode((ComponentCode(OPEN, tuple(passages)),))
    validate(code)
    return code


def _spiral_sequence(n: int) -> list[int]:
    """Crossing numbers met along the n-fold spiral, each exactly twice.

    The inbound strand cuts through crossings 1..n+1, the windings then
    zigzag outward (n+1-j, n+1+j), revisit crossing 1, and close up through
    2n, 2n-1, ..., n+1.
    """
    seq = list(range(1, n + 2))
    for j in range(1, n):
        seq.extend((n + 1 - j, n + 1 + j))
    seq.append(1)
    seq.extend(range(2 * n, n, -1))
    return seq
