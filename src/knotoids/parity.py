"""Odd writhe: the signed count of odd crossings."""

from __future__ import annotations

from dataclasses import dataclass

from .codes import CrossingInfo, KnotoidCode, ODD, classify_crossings


@dataclass(frozen=True)
class OddWritheReport:
    odd_crossings: frozenset[str]
    value: int

    @classmethod
    def of(cls, crossings: list[CrossingInfo]) -> OddWritheReport:
        """The odd crossings and their sign sum, read off a classification
        (``catalog.Invariants`` passes the one it holds)."""
        odd = [info for info in crossings if info.parity == ODD]
        return cls(frozenset(info.label for info in odd), sum(info.sign for info in odd))


def odd_writhe(code: KnotoidCode) -> OddWritheReport:
    """Sum of signs over odd self-crossings (link crossings contribute 0)."""
    return OddWritheReport.of(classify_crossings(code))
