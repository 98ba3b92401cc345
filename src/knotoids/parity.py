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
    odd = [info for info in compiled_form(code).crossings if info.parity == ODD]
    return OddWritheReport(frozenset(info.label for info in odd), sum(info.sign for info in odd))
