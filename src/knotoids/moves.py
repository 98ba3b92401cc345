"""Rewriting moves on Gauss codes and seeded random equivalence walks.

The generating oriented moves are implemented pattern-to-pattern on the
code: twist insertion/deletion (R1), poke insertion/deletion in parallel
and antiparallel form (R2), and the triangle slide (R3) that swaps three
adjacent passage pairs.  An R3 site is accepted exactly when its passage
orders and crossing signs satisfy the two product relations realized by
plane triangle configurations:

    sign(tm) * sign(tb) = +1  iff  (tm before mb on the middle strand)
                                 == (tb before mb on the bottom strand)
    sign(tb) * sign(mb) = +1  iff  (tm before tb on the top strand)
                                 == (tm before mb on the middle strand)

where the top strand overpasses both others and the middle strand
overpasses the bottom one.  Endpoints are never moved across strands, so
the forbidden endpoint slides cannot arise.

The moves whose result keeps at most ``max_crossings`` crossings form one
indexed table per code, ``_move_table``, in the uncapped list's order: with
budget b = max_crossings - n and S insertion sites, 4S R1 inserts if b >= 1,
4S^2 R2 inserts if b >= 2, the deletions that change at most b crossings,
and the R3 slides if b >= 0.  Inserts are counted, not built: in
``move_at(table, i)``, R1 insert i is site i // 4, then ``over_first``,
then ``sign``; R2 row a (first site a) starts at 4a(2S - a) and holds 4
inserts at site a twice (``over_site``, ``sign``), then 8 per later second
site (``over_site``, ``parallel``, ``sign``).  ``random_walk`` builds only
the move it draws.  The adjacent pairs and their label sets are listed
once per code for the deletions and the slides.  A label index names each
R3 triangle: an over-over top {x,y}, an under-under bottom {y,z} and a mixed
middle {x,z}; a middle that passes under x and over z leaves six distinct
passages, so only the two relations above remain to test.

``apply_move`` accepts a deletion or an R3 slide exactly when
``applicable_moves`` lists it, by listing the adjacent pairs at its sites.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .codes import ComponentCode, KnotoidCode, LOOP, OPEN, OVER, Passage, UNDER, validate
from .errors import InapplicableMove

R1_INSERT = "r1_insert"
R1_DELETE = "r1_delete"
R2_INSERT = "r2_insert"
R2_DELETE = "r2_delete"
R3_SLIDE = "r3_slide"
_CROSSING_DELTA = {R1_INSERT: 1, R1_DELETE: -1, R2_INSERT: 2, R2_DELETE: -2}
# The values that ``move_at`` gives the flags after an insertion's sites.
_INSERT_FLAGS = {
    R1_INSERT: list(itertools.product((True, False), (1, -1))),
    R2_INSERT: list(itertools.product((1, 2), (False, True), (1, -1))),
}


@dataclass(frozen=True)
class MoveSpec:
    kind: str
    params: tuple

    def crossing_delta(self) -> int:
        return _CROSSING_DELTA.get(self.kind, 0)


def _fresh_labels(code: KnotoidCode, count: int) -> list[str]:
    used = {p.label for _, _, p in code.all_passages()}
    fresh = (str(i) for i in itertools.count(1) if str(i) not in used)
    return list(itertools.islice(fresh, count))


def _pair_count(comp: ComponentCode) -> int:
    """How many adjacent pairs ``comp`` has: they wrap around on a loop and
    never cross the ends of an open component."""
    k = len(comp.passages)
    return k if comp.kind == LOOP and k > 1 else max(k - 1, 0)


def _adjacent_pairs(comp: ComponentCode):
    """(pos, first, second) for every adjacent pair, cyclic on loops."""
    k = len(comp.passages)
    for pos in range(_pair_count(comp)):
        yield pos, comp.passages[pos], comp.passages[(pos + 1) % k]


def _component(code: KnotoidCode, ci: int) -> ComponentCode:
    if not 0 <= ci < len(code.components):
        raise InapplicableMove(f"no component {ci}")
    return code.components[ci]


def _pair_at(code: KnotoidCode, site) -> tuple:
    """The labelled pair at ``site``, as ``_labelled_pairs`` lists it."""
    ci, pos = site
    comp = _component(code, ci)
    if not 0 <= pos < _pair_count(comp):
        raise InapplicableMove(f"no adjacent pair at {site}")
    p, q = comp.passages[pos], comp.passages[(pos + 1) % len(comp.passages)]
    return site, p, q, frozenset((p.label, q.label))


class _MoveTable(NamedTuple):
    sites: list[tuple[int, int]]
    r1: int
    r2: int
    rest: list[MoveSpec]

    @property
    def total(self) -> int:
        return self.r1 + self.r2 + len(self.rest)


def _move_table(code: KnotoidCode, max_crossings: int | None) -> _MoveTable:
    """The applicable moves under the cap, inserts counted and not built."""
    budget = math.inf if max_crossings is None else max_crossings - code.crossing_count()
    sites = []
    for ci, comp in enumerate(code.components):
        slots = len(comp.passages) + 1 if comp.kind == OPEN else max(len(comp.passages), 1)
        sites.extend((ci, pos) for pos in range(slots))
    pairs = _labelled_pairs(code)
    rest = [m for m in _deletion_moves(pairs) if m.crossing_delta() <= budget]
    if budget >= 0:
        rest += _r3_moves(pairs)
    s = len(sites)
    return _MoveTable(sites, 4 * s if budget >= 1 else 0, 4 * s * s if budget >= 2 else 0, rest)


def move_at(table: _MoveTable, i: int) -> MoveSpec:
    """The move at index ``i`` of the table's order, built by arithmetic."""
    sites = table.sites
    if i < table.r1:
        site, r = divmod(i, 4)
        return MoveSpec(R1_INSERT, (*sites[site], r < 2, -1 if r & 1 else 1))
    i -= table.r1
    if i >= table.r2:
        return table.rest[i - table.r2]
    # Row a starts at 4(S^2 - (S - a)^2): the last start at or below i.
    s = len(sites)
    a = s - 1 - math.isqrt(s * s - i // 4 - 1)
    k = i - 4 * a * (2 * s - a)
    if k < 4:
        b, over_site, parallel = a, 1 + (k >> 1), False
    else:
        b, k = divmod(k - 4, 8)
        b, over_site, parallel = a + 1 + b, 1 + (k >> 2), bool(k & 2)
    return MoveSpec(R2_INSERT, (sites[a], sites[b], over_site, parallel, -1 if k & 1 else 1))


def applicable_moves(code: KnotoidCode, max_crossings: int | None = None) -> list[MoveSpec]:
    """Every applicable move whose result has at most ``max_crossings``
    crossings (no bound when None), deterministic order."""
    table = _move_table(code, max_crossings)
    return [move_at(table, i) for i in range(table.total)]


def _labelled_pairs(code: KnotoidCode) -> list[tuple]:
    """(site, first, second, label set) of every adjacent pair, built once
    per code for both the deletions and the R3 slides."""
    return [
        ((ci, pos), p, q, frozenset((p.label, q.label)))
        for ci, comp in enumerate(code.components)
        for pos, p, q in _adjacent_pairs(comp)
    ]


def _deletion_moves(pairs: list[tuple]) -> list[MoveSpec]:
    moves, over_pairs, under_pairs = [], [], {}
    for site, p, q, key in pairs:
        if p.label == q.label:
            moves.append(MoveSpec(R1_DELETE, (site,)))
        elif p.role == q.role == OVER and p.sign == -q.sign:
            over_pairs.append((site, key))
        elif p.role == q.role == UNDER:
            under_pairs.setdefault(key, []).append(site)
    # An over pair and an under pair never share a passage, and a pair of
    # distinct labels meets its label set in one of the two orders.
    for site, key in over_pairs:
        for other in under_pairs.get(key, ()):
            moves.append(MoveSpec(R2_DELETE, (site, other)))
    return moves


def _r3_moves(pairs: list[tuple]) -> list[MoveSpec]:
    """R3 sites in index order.  The index names the triangle: the top is an
    over-over pair {x, y}, the bottom an under-under pair {y, z} and the
    middle a mixed pair {x, z}.  Left open are the middle pair's orientation,
    which must pass under x and over z (the other one reuses passages of the
    top and the bottom), and the two sign relations, with the orders read
    off the three pairs.  Once the middle passes under x, the six passages
    are distinct, each label occurs twice and each pair has one role."""
    over, under_by_label, mixed_by_set = [], {}, {}
    for i, (_, p, q, key) in enumerate(pairs):
        if p.label == q.label:
            continue
        if p.role != q.role:
            mixed_by_set.setdefault(key, []).append(i)
        elif p.role == OVER:
            over.append(i)
        else:
            for label in key:
                under_by_label.setdefault(label, []).append(i)
    triples = []
    for t in over:
        _, p, q, _ = pairs[t]
        for x, y in ((p, q), (q, p)):
            for b in under_by_label.get(y.label, ()):
                _, u, v, _ = pairs[b]
                z = v if u.label == y.label else u
                for m in mixed_by_set.get(frozenset((x.label, z.label)), ()):
                    _, r, s, _ = pairs[m]
                    x_first = r.label == x.label
                    if (r if x_first else s).role != UNDER:
                        continue
                    if (x.sign * y.sign == (1 if x_first == (u.label == y.label) else -1)
                            and y.sign * z.sign == (1 if x_first == (p.label == x.label) else -1)):
                        triples.append(sorted((t, b, m)))
    return [MoveSpec(R3_SLIDE, tuple(pairs[i][0] for i in triple)) for triple in sorted(triples)]


def apply_move(code: KnotoidCode, move: MoveSpec) -> KnotoidCode:
    """Rewrite the code by one move; raises InapplicableMove on a bad site.

    A deletion or an R3 slide is accepted exactly when ``applicable_moves``
    lists it: it must be the move that ``_deletion_moves`` or ``_r3_moves``
    lists on the adjacent pairs at its own sites.  An insertion needs its
    sites in range, the two sites of an R2 insertion in one component in
    order, two distinct sites for a parallel one, and flags that
    ``applicable_moves`` lists.  Sites are (component, position) pairs of ints.
    """
    split = 2 if move.kind in _INSERT_FLAGS else len(move.params)
    head, flags = move.params[:split], move.params[split:]
    if flags not in _INSERT_FLAGS.get(move.kind, [()]) or not all(
            isinstance(s, tuple) and len(s) == 2 and all(isinstance(i, int) for i in s)
            for s in ([head] if move.kind == R1_INSERT else head)):
        raise InapplicableMove(f"no {move.kind} with params {move.params!r}")
    edits: dict[int, list] = {}  # each touched component's passages, edited in place
    inserts = []  # (site, pair), later site first so the earlier keeps its position
    if move.kind == R1_INSERT:
        ci, pos, over_first, sign = move.params
        (label,) = _fresh_labels(code, 1)
        first, second = (OVER, UNDER) if over_first else (UNDER, OVER)
        inserts = [((ci, pos), (Passage(first, label, sign), Passage(second, label, sign)))]
    elif move.kind == R2_INSERT:
        (c1, i1), (c2, i2), over_site, parallel, sign = move.params
        if parallel and (c1, i1) == (c2, i2):
            raise InapplicableMove("parallel R2 needs two distinct sites")
        if c1 == c2 and i1 > i2:
            raise InapplicableMove("R2 sites out of order")
        x, y = _fresh_labels(code, 2)
        over_pair = (Passage(OVER, x, sign), Passage(OVER, y, -sign))
        under_pair = (Passage(UNDER, x, sign), Passage(UNDER, y, -sign))
        if not parallel:
            under_pair = under_pair[::-1]
        pair1, pair2 = (over_pair, under_pair) if over_site == 1 else (under_pair, over_pair)
        inserts = [((c2, i2), pair2), ((c1, i1), pair1)]
    elif move.kind in (R1_DELETE, R2_DELETE, R3_SLIDE):
        pairs = [_pair_at(code, site) for site in sorted(move.params)]
        listed = _r3_moves(pairs) if move.kind == R3_SLIDE else _deletion_moves(pairs)
        if move not in listed:
            raise InapplicableMove(f"no {move.kind} at {move.params}")
        for (ci, pos), p, q, _ in pairs:
            passages = edits.setdefault(ci, list(code.components[ci].passages))
            nxt = (pos + 1) % len(passages)
            # A slide swaps each pair; a deletion blanks it and drops the blanks.
            passages[pos], passages[nxt] = (q, p) if move.kind == R3_SLIDE else (None, None)
    else:
        raise InapplicableMove(f"unknown move kind {move.kind!r}")
    for (ci, pos), pair in inserts:
        passages = edits.setdefault(ci, list(_component(code, ci).passages))
        if not 0 <= pos <= len(passages):
            raise InapplicableMove(f"no insertion site {(ci, pos)}")
        passages[pos:pos] = pair
    comps = list(code.components)
    for ci, passages in edits.items():
        comps[ci] = ComponentCode(comps[ci].kind, tuple(filter(None, passages)))
    out = KnotoidCode(tuple(comps), code.meta)
    validate(out)
    return out


def inverse_of(code: KnotoidCode, move: MoveSpec) -> MoveSpec:
    """The move that undoes ``move`` on ``apply_move(code, move)``.

    Raises ``InapplicableMove`` when ``move`` does not apply, or when the
    inverse read off its sites is refused or gives another code (an R1
    deletion at a loop's last pair, or an R2 deletion of adjacent pairs).
    """
    moved = apply_move(code, move)
    if move.kind == R1_INSERT:
        ci, pos, _, _ = move.params
        inverse = MoveSpec(R1_DELETE, ((ci, pos),))
    elif move.kind == R1_DELETE:
        ((ci, pos),) = move.params
        p = code.components[ci].passages[pos]
        inverse = MoveSpec(R1_INSERT, (ci, pos, p.role == OVER, p.sign))
    elif move.kind == R2_INSERT:
        (c1, i1), (c2, i2), over_site, _parallel, _sign = move.params
        j2 = i2 + 2 if c1 == c2 else i2
        site_over, site_under = ((c1, i1), (c2, j2)) if over_site == 1 else ((c2, j2), (c1, i1))
        inverse = MoveSpec(R2_DELETE, (site_over, site_under))
    elif move.kind == R2_DELETE:
        (c1, i1), (c2, i2) = move.params
        k1 = len(code.components[c1].passages)
        o1 = code.components[c1].passages[i1]
        parallel = code.components[c2].passages[i2].label == o1.label
        if c1 != c2:
            inverse = MoveSpec(R2_INSERT, ((c1, i1), (c2, i2), 1, parallel, o1.sign))
        else:
            drop = sorted(x % k1 for x in (i1, i1 + 1, i2, i2 + 1))
            new_i1 = i1 - sum(1 for x in drop if x < i1)
            new_i2 = i2 - sum(1 for x in drop if x < i2)
            lo, hi, over_site = (new_i1, new_i2, 1) if new_i1 <= new_i2 else (new_i2, new_i1, 2)
            inverse = MoveSpec(R2_INSERT, ((c1, lo), (c1, hi), over_site, parallel, o1.sign))
    else:
        inverse = move  # an R3 slide undoes itself
    if apply_move(moved, inverse) != code:  # a refused inverse raises here
        raise InapplicableMove(f"{inverse.kind} at {inverse.params} does not undo {move.kind}")
    return inverse


def random_walk(
    code: KnotoidCode,
    steps: int,
    seed: int,
    max_crossings: int,
) -> list[KnotoidCode]:
    """A seeded trajectory of valid moves keeping the crossing count bounded."""
    rng = random.Random(seed)
    trajectory = [code]
    current = code
    for _ in range(steps):
        table = _move_table(current, max_crossings)
        if table.total:
            current = apply_move(current, move_at(table, rng.randrange(table.total)))
        trajectory.append(current)
    return trajectory
