"""Odd writhe: the signed count of odd crossings."""

from __future__ import annotations

from dataclasses import dataclass

from .codes import KnotoidCode, ODD
from .smoothing import compiled_form


@dataclass(frozen=True)
class OddWritheReport:
    odd_crossings: frozenset[str]
    value: int


def odd_writhe(code: KnotoidCode) -> OddWritheReport:
    """Sum of signs over odd self-crossings (link crossings contribute 0)."""
    c = compiled_form(code)
    odd = [(label, sign) for label, sign, p in zip(c.labels, c.cross_sign, c.parity) if p == ODD]
    return OddWritheReport(frozenset(label for label, _ in odd), sum(sign for _, sign in odd))
