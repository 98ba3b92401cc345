"""Arc labeling of the flat diagram, crossing weights, affine index polynomial.

The integer labels start at 0 on the tail arc and change by one at every
passage.  Which incoming strand plays the left role at a crossing is not
readable from a Gauss code alone; we fix the convention that the overpass
is the left-incoming strand exactly at positive crossings.  The opposite
convention would send t to 1/t globally; every property asserted here
(symmetry, height bound, closure equality) is insensitive to that choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrow import arrow_polynomial
from .codes import KnotoidCode, OVER
from .errors import ShapeError
from .laurent import AffinePoly
from .parity_bracket import parity_bracket
from .smoothing import DEFAULT_STATE_LIMIT, compiled_form


@dataclass(frozen=True)
class WeightEntry:
    label: str
    sign: int
    parity: str
    w_plus: int
    w_minus: int
    w_selected: int


@dataclass(frozen=True)
class WeightChart:
    entries: tuple[WeightEntry, ...]

    def render(self) -> str:
        rows = ["label sign parity w+ w- w"]
        for e in self.entries:
            rows.append(
                f"{e.label} {'+' if e.sign > 0 else '-'} {e.parity} "
                f"{e.w_plus} {e.w_minus} {e.w_selected}"
            )
        widths = [max(len(r.split()[i]) for r in rows) for i in range(6)]
        lines = []
        for r in rows:
            cells = r.split()
            lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)

    def to_json(self):
        return [
            {
                "label": e.label,
                "sign": e.sign,
                "parity": e.parity,
                "w_plus": e.w_plus,
                "w_minus": e.w_minus,
                "w": e.w_selected,
            }
            for e in self.entries
        ]


def _require_single_component(code: KnotoidCode) -> None:
    # One open leg (a knotoid) or one loop (its virtual closure); the
    # labeling wraps consistently around a loop because the two passages of
    # each crossing contribute opposite increments.
    if len(code.components) != 1:
        raise ShapeError("affine labeling needs a single-component diagram")


def _increment(role: str, sign: int) -> int:
    # The left-incoming strand exits one lower, the right-incoming one higher.
    return -1 if (role == OVER) == (sign > 0) else 1


def arc_labels(code: KnotoidCode) -> list[int]:
    """Integer labels of the arcs, tail arc first (index i = arc before
    passage i; the last entry is the head arc, which for a loop closes up
    back to the first label)."""
    _require_single_component(code)
    comp = code.components[0]
    labels = [0]
    for p in comp.passages:
        labels.append(labels[-1] + _increment(p.role, p.sign))
    return labels


def _weights(code: KnotoidCode) -> list[tuple[str, int, int, int, int]]:
    """``(label, sign, w_plus, w_minus, w)`` of each crossing, in the order of
    the code's compiled form (first sight); ``w`` is ``w_plus`` at a positive
    crossing and ``w_minus`` at a negative one."""
    labels = arc_labels(code)  # arc i enters passage i
    compiled = compiled_form(code)
    weights = []
    for k, (lab, sign) in enumerate(zip(compiled.labels, compiled.cross_sign)):
        over_in = labels[compiled.cross_over[k]]
        under_in = labels[compiled.cross_under[k]]
        a, b = (over_in, under_in) if sign > 0 else (under_in, over_in)
        w_plus = a - (b + 1)
        w_minus = b - (a - 1)
        weights.append((lab, sign, w_plus, w_minus, w_plus if sign > 0 else w_minus))
    return weights


def weight_chart(code: KnotoidCode) -> WeightChart:
    """Per-crossing weights from the flat-diagram labeling, with each
    crossing's parity class from the compiled form."""
    parities = compiled_form(code).parity
    return WeightChart(tuple(
        WeightEntry(lab, sign, parity, *ws)
        for (lab, sign, *ws), parity in zip(_weights(code), parities)
    ))


def affine_index(code: KnotoidCode) -> AffinePoly:
    """P(t) = sum over crossings of sign * (t^w - 1).

    It reads the weights alone, never the crossings' parity classes.
    """
    terms: dict[int, int] = {}
    for _, sign, _, _, w in _weights(code):
        terms[w] = terms.get(w, 0) + sign
        terms[0] = terms.get(0, 0) - sign
    return AffinePoly(terms)


@dataclass(frozen=True)
class VirtualityReport:
    """Provable non-classicality evidence gathered from three invariants."""

    affine_asymmetric: bool
    k_degree_positive: bool
    irreducible_parity_graph: bool

    @classmethod
    def of(cls, affine, arrow, parity) -> VirtualityReport:
        """The witnesses read off the affine index, arrow polynomial and parity bracket."""
        return cls(not affine.is_symmetric(), arrow.k_degree() > 0, bool(parity.graphical))

    @property
    def verdict(self) -> str:
        if self.affine_asymmetric or self.k_degree_positive or self.irreducible_parity_graph:
            return "provably non-classical"
        return "inconclusive"

    def to_json(self):
        return {
            "affine_asymmetric": self.affine_asymmetric,
            "k_degree_positive": self.k_degree_positive,
            "irreducible_parity_graph": self.irreducible_parity_graph,
            "verdict": self.verdict,
        }


def detect_virtuality(
    code: KnotoidCode, state_limit: int = DEFAULT_STATE_LIMIT
) -> VirtualityReport:
    """Flag every virtuality witness the invariant suite can produce."""
    if not code.is_standard_knotoid():
        raise ShapeError("virtuality detection needs a standard knotoid")
    return VirtualityReport.of(
        affine_index(code), arrow_polynomial(code, state_limit), parity_bracket(code, state_limit)
    )
