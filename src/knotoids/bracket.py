"""Bracket polynomial, writhe normalization, and a recursive skein oracle."""

from __future__ import annotations

from dataclasses import dataclass

from .codes import KnotoidCode, OPEN, OVER
from .errors import LimitExceeded
from .laurent import LaurentA, loop_value, state_sum, writhe_normalize
from .smoothing import DEFAULT_STATE_LIMIT, compiled_form


@dataclass(frozen=True)
class BracketReport:
    raw: LaurentA
    writhe: int
    normalized: LaurentA


def writhe(code: KnotoidCode) -> int:
    """Positive minus negative crossings, read off the compiled form's signs."""
    return sum(compiled_form(code).cross_sign)


def bracket(code: KnotoidCode, state_limit: int = DEFAULT_STATE_LIMIT) -> LaurentA:
    """State sum over all smoothings: sum of A^sigma * d^(components - 1)."""
    compiled = compiled_form(code)
    if compiled.n > state_limit:
        raise LimitExceeded(f"{compiled.n} crossings exceed the state limit {state_limit}")
    counts = compiled.contract(False)
    return state_sum({(s, comps): count for (s, comps, _, _), count in counts.items()})


def normalized_bracket(
    code: KnotoidCode, state_limit: int = DEFAULT_STATE_LIMIT
) -> BracketReport:
    raw = bracket(code, state_limit)
    w = writhe(code)
    return BracketReport(raw=raw, writhe=w, normalized=writhe_normalize(raw, w))


def bracket_oracle(code: KnotoidCode, state_limit: int = 16) -> LaurentA:
    """Bracket by recursive skein expansion; must equal ``bracket`` exactly.

    Smooths one crossing at a time with eager arc splicing, closing circles
    with a factor d as they appear, instead of enumerating full states.
    """
    ends: dict[tuple[int, int], int] = {}
    partner: dict[int, int] = {}
    counter = 0
    stub_count = 0
    circles0 = 0
    for ci, comp in enumerate(code.components):
        idxs = []
        for pi in range(len(comp.passages)):
            ends[(ci, pi)] = counter
            idxs.append(counter)
            counter += 1
        terminals = []
        for g in idxs:
            terminals.extend((2 * g, 2 * g + 1))  # in, out per passage
        if comp.kind == OPEN:
            tail = -(2 * ci + 1)
            head = -(2 * ci + 2)
            stub_count += 2
            chain = [tail]
            for g in idxs:
                chain.extend((2 * g, 2 * g + 1))
            chain.append(head)
            for x, y in zip(chain[0::2], chain[1::2]):
                partner[x] = y
                partner[y] = x
        else:
            if not idxs:
                circles0 += 1
                continue
            for g, h in zip(idxs, idxs[1:] + idxs[:1]):
                partner[2 * g + 1] = 2 * h
                partner[2 * h] = 2 * g + 1

    by_label: dict[str, dict[str, int]] = {}
    for ci, pi, passage in code.all_passages():
        g = ends[(ci, pi)]
        entry = by_label.setdefault(passage.label, {"sign": passage.sign})
        entry["over" if passage.role == OVER else "under"] = g
    crossings = [
        (entry["over"], entry["under"], entry["sign"]) for entry in by_label.values()
    ]
    if len(crossings) > state_limit:
        raise LimitExceeded(
            f"{len(crossings)} crossings exceed the oracle limit {state_limit}"
        )

    d = loop_value()
    long_parts = stub_count // 2

    def join(match: dict[int, int], x: int, y: int) -> int:
        px, py = match.pop(x), match.pop(y)
        if px == y:
            return 1
        match[px] = py
        match[py] = px
        return 0

    def expand(remaining, match, circles) -> LaurentA:
        if not remaining:
            comps = circles + long_parts
            power = LaurentA.one()
            for _ in range(comps - 1):
                power = power * d
            return power
        (a, b, sign), rest = remaining[0], remaining[1:]
        ia, oa, ib, ob = 2 * a, 2 * a + 1, 2 * b, 2 * b + 1
        total = LaurentA.zero()
        for choice_oriented in (True, False):
            m = dict(match)
            c = circles
            if choice_oriented:
                c += join(m, ia, ob)
                c += join(m, ib, oa)
            else:
                c += join(m, ia, ib)
                c += join(m, oa, ob)
            exponent = 1 if (sign > 0) == choice_oriented else -1
            total = total + expand(rest, m, c).shift(exponent)
        return total

    return expand(crossings, partner, circles0)
