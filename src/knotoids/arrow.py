"""Arrow polynomial: oriented state sum with cusp bookkeeping.

Surviving zig-zags of 2i alternating cusps turn a circle component into the
variable K_i and a long component into L_i.  Cusp words reduce by deleting
adjacent same-side pairs (the free-product normal form, cyclically for
circles), which is confluent, so the reduced length is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import KnotoidCode
from .errors import LimitExceeded
from .laurent import ArrowMonomial, ArrowPoly, state_sum, writhe_normalize
from .smoothing import CIRCLE, DEFAULT_STATE_LIMIT, _cyclic_reduce, _linear_reduce, compiled_form
from .bracket import writhe


@dataclass(frozen=True)
class ReducedComponent:
    kind: str  # segment | circle
    reduced_cusp_count: int


def reduce_cusps(word: str, kind: str) -> ReducedComponent:
    """Normal form length of a cusp side-word (cyclic for circles)."""
    reduced = _cyclic_reduce(word) if kind == CIRCLE else _linear_reduce(word)
    return ReducedComponent(kind, len(reduced))


def arrow_polynomial(
    code: KnotoidCode, state_limit: int = DEFAULT_STATE_LIMIT
) -> ArrowPoly:
    """Sum over oriented states of A^(i-j) d^(components-1) <S-hat>."""
    compiled = compiled_form(code)
    if compiled.n > state_limit:
        raise LimitExceeded(f"{compiled.n} crossings exceed the state limit {state_limit}")
    by_monomial: dict[tuple[tuple, tuple], dict[tuple[int, int], int]] = {}
    for (s, comps, ks, ls), count in compiled.contract(True).items():
        by_monomial.setdefault((ks, ls), {})[(s, comps)] = count
    # Most coefficients cancel at walk sizes; only the others get a monomial.
    return ArrowPoly(
        {ArrowMonomial.build(*m): c for m, cs in by_monomial.items() if (c := state_sum(cs))}
    )


def normalized_arrow(
    code: KnotoidCode, state_limit: int = DEFAULT_STATE_LIMIT
) -> ArrowPoly:
    """(-A^3)^(-writhe) times the arrow polynomial; a move invariant."""
    return writhe_normalize(arrow_polynomial(code, state_limit), writhe(code))


def arrow_degrees(code: KnotoidCode, state_limit: int = DEFAULT_STATE_LIMIT) -> tuple[int, int]:
    """(K-degree, Lambda-degree) of the arrow polynomial."""
    poly = arrow_polynomial(code, state_limit)
    return poly.k_degree(), poly.lambda_degree()
