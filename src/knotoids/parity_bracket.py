"""Parity bracket polynomial: smooth even crossings, node-ify the rest.

Odd crossings (and link crossings of multi-knotoids) become rigid 4-valent
nodes carrying the cyclic rotation inherited from the crossing.  Node pairs
bounding a reducible bigon are spliced away; whatever graph survives is a
polynomial coefficient, compared up to relabeling via a traversal canonical
form.  A state contributes A^(n(S)) d^(components-1), counting surviving
graphs, plain circles and the long segment alike, so that all-even inputs
reproduce the ordinary bracket exactly.

The state sum is a projection of ``CompiledCode.frontier``: only the even
crossings are smoothed, so the four ports of every node stay boundary
ends, and each distinct final pairing of node ports and stubs is exactly
one graph state.  It is built, reduced and given its canonical form once,
and weighted by the counts of all the states that share it.
``parity_states`` remains as an independent reference for the tests: it
glues each of the 2^e smoothings with ``CompiledCode.glue_for_mask`` and
follows its strands from node port to node port in ``_build_state``.

Scope of move invariance: on single-component diagrams every triangle-move
configuration carries an even number of nodes and the normalized value is
a full invariant.  The multi-component extension (link crossings as nodes)
is computed as defined, but a triangle made of two link crossings and one
odd self-crossing holds three nodes, and sliding a strand across such a
node changes the surviving graph, so the extension is not invariant under
those particular slides.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .codes import (
    EVEN,
    FlatCode,
    KnotoidCode,
    ComponentCode,
    Passage,
    classify_crossings,
)
from .errors import LimitExceeded
from .laurent import LaurentA, state_sum, writhe_normalize
from .smoothing import CompiledCode, DEFAULT_STATE_LIMIT


@dataclass
class GraphState:
    """One parity state: rotation nodes joined by edges through smoothings.

    ``rotations`` maps a node (crossing index) to its four ports in
    counterclockwise order; ``partner`` is the edge matching on ports and
    stub terminals; ``circles`` counts node-free closed components.
    """

    rotations: dict[int, tuple[int, int, int, int]]
    partner: dict[int, int]
    circles: int
    sigma: int

    def port_node(self) -> dict[int, tuple[int, int]]:
        lookup = {}
        for node, rot in self.rotations.items():
            for slot, port in enumerate(rot):
                lookup[port] = (node, slot)
        return lookup


@dataclass(frozen=True)
class ParityBracketValue:
    """Plain part and graphical coefficients, keyed by canonical graph.

    ``graphical`` is stored as a read-only mapping, so values are hashable.
    """

    plain: LaurentA
    graphical: Mapping[str, LaurentA]

    def __post_init__(self):
        object.__setattr__(self, "graphical", MappingProxyType(dict(self.graphical)))

    def __hash__(self):
        return hash((self.plain, tuple(sorted(self.graphical.items()))))

    def __eq__(self, other):
        return (
            isinstance(other, ParityBracketValue)
            and self.plain == other.plain
            and self.graphical == other.graphical
        )

    def render(self) -> str:
        parts = [self.plain.render()] if self.plain or not self.graphical else []
        if not self.plain and not self.graphical:
            parts = ["0"]
        for key in sorted(self.graphical):
            parts.append(f"({self.graphical[key].render()})*[{key}]")
        return " + ".join(parts)

    def to_json(self):
        return {
            "plain": self.plain.to_json(),
            "graphical": {k: self.graphical[k].to_json() for k in sorted(self.graphical)},
        }


@dataclass(frozen=True)
class FlatParityValue:
    """The A = -1 evaluation; ``graphical`` is read-only, as above."""

    plain: int
    graphical: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "graphical", MappingProxyType(dict(self.graphical)))

    def __hash__(self):
        return hash((self.plain, tuple(sorted(self.graphical.items()))))

    def is_trivial(self) -> bool:
        return not self.graphical

    def __eq__(self, other):
        return (
            isinstance(other, FlatParityValue)
            and self.plain == other.plain
            and self.graphical == other.graphical
        )


def _node_rotation(compiled: CompiledCode, k: int) -> tuple[int, int, int, int]:
    a, b = compiled.cross_over[k], compiled.cross_under[k]
    if compiled.cross_sign[k] > 0:
        return (2 * a, 2 * b, 2 * a + 1, 2 * b + 1)
    return (2 * a, 2 * b + 1, 2 * a + 1, 2 * b)


def _build_state(compiled, node_set, even_list, mask) -> GraphState:
    """Glue the even crossings of one mask and extract the edge structure.

    Bit ``i`` of ``mask`` smooths ``even_list[i]`` disoriented.  The walk
    stops at node ports, so the glue of node crossings is never read.  Only
    ``parity_states``, the tests' per-state reference, builds states this
    way.
    """
    bits = [(mask >> i) & 1 for i in range(len(even_list))]
    glue = compiled.glue_for_mask(sum(bit << k for bit, k in zip(bits, even_list)))
    sigma_tab = compiled.sigma_table()
    sigma = sum(sigma_tab[k][bit] for bit, k in zip(bits, even_list))

    is_node_end = [compiled.pass_crossing[e >> 1] in node_set for e in range(2 * compiled.P)]
    succ, pred = compiled.succ, compiled.pred
    partner: dict[int, int] = {}
    consumed = bytearray(2 * compiled.P)

    def walk_from(first: int) -> int:
        # Run through glued even crossings until a node port or stub.
        x = first
        while x >= 0:
            consumed[x] = 1
            if is_node_end[x]:
                return x
            g = glue[x]
            consumed[g] = 1
            x = succ[g] if g & 1 else pred[g]
        return x

    def connect(a: int, b: int) -> None:
        partner[a] = b
        partner[b] = a

    rotations = {k: _node_rotation(compiled, k) for k in sorted(node_set)}
    for k in rotations:
        for port in rotations[k]:
            if port in partner:
                continue
            consumed[port] = 1
            connect(port, walk_from(compiled.arc_end(port)))
    for ci in compiled.open_comps:
        tail = -(2 * ci + 1)
        if tail in partner:
            continue
        connect(tail, walk_from(compiled.first_target[ci]))
    for ci in compiled.open_comps:
        head = -(2 * ci + 2)
        if head in partner:
            continue
        connect(head, walk_from(compiled.head_source[ci]))

    circles = compiled.free_circles
    for e in range(2 * compiled.P):
        if consumed[e] or is_node_end[e]:
            continue
        x = compiled.arc_end(e)
        while True:
            consumed[x] = 1
            g = glue[x]
            consumed[g] = 1
            if g == e:
                break
            x = succ[g] if g & 1 else pred[g]
        circles += 1

    return GraphState(rotations=rotations, partner=partner, circles=circles, sigma=sigma)


def _find_bigon(state: GraphState):
    """A (u, v, e1, e2) reducible bigon per the rotation criterion, or None.

    An edge pair joining the same two nodes bounds a reducible bigon when
    the two edges sit cyclically adjacent at both nodes and in opposite
    relative order (one node reads them ccw as e1 e2, the other as e2 e1).
    Nodes may share more than two edges; every connecting pair is tried.
    """
    port_lookup = state.port_node()
    edges_between: dict[tuple[int, int], list[tuple[int, int]]] = {}
    seen_ports = set()
    for port, (node, _slot) in port_lookup.items():
        if port in seen_ports:
            continue
        q = state.partner[port]
        seen_ports.add(port)
        if q < 0 or q not in port_lookup:
            continue
        seen_ports.add(q)
        other = port_lookup[q][0]
        if other == node:
            continue
        key = (node, other) if node < other else (other, node)
        pair = (port, q) if node < other else (q, port)
        edges_between.setdefault(key, []).append(pair)
    for (u, v), pairs in edges_between.items():
        rot_u, rot_v = state.rotations[u], state.rotations[v]
        for (u1, v1), (u2, v2) in itertools.combinations(pairs, 2):
            order_u = (rot_u.index(u2) - rot_u.index(u1)) % 4
            order_v = (rot_v.index(v2) - rot_v.index(v1)) % 4
            if order_u in (1, 3) and order_v in (1, 3) and order_u != order_v:
                return u, v, (u1, v1), (u2, v2)
    return None


def reduce_graph(state: GraphState) -> GraphState:
    """Splice away reducible bigons until none remain."""
    while True:
        found = _find_bigon(state)
        if found is None:
            return state
        u, v, _e1, _e2 = found
        _splice(state, u, v)


def _splice(state: GraphState, u: int, v: int) -> None:
    wire: dict[int, int] = {}
    dead: set[int] = set()
    for node in (u, v):
        rot = state.rotations[node]
        for s in range(4):
            wire[rot[s]] = rot[(s + 2) % 4]
            dead.add(rot[s])
    partner = state.partner
    processed: set[int] = set()
    chained: set[int] = set()
    new_pairs: list[tuple[int, int]] = []
    for t in list(partner):
        if t in dead or t in processed:
            continue
        q = partner[t]
        if q not in dead:
            continue
        x = q
        chained.add(x)
        while True:
            y = wire[x]
            chained.add(y)
            z = partner[y]
            if z in dead:
                chained.add(z)
                x = z
                continue
            new_pairs.append((t, z))
            processed.add(t)
            processed.add(z)
            break
    for x0 in dead:
        if x0 in chained:
            continue
        x = x0
        while True:
            chained.add(x)
            y = wire[x]
            chained.add(y)
            z = partner[y]
            if z == x0:
                state.circles += 1
                break
            x = z
    for p in dead:
        partner.pop(p, None)
    for a, b in new_pairs:
        partner[a] = b
        partner[b] = a
    del state.rotations[u]
    del state.rotations[v]


def canonical_graph(state: GraphState) -> list[str]:
    """Canonical encodings of the node-bearing components of a reduced state.

    Nodes are numbered by first visit along a strand-following traversal;
    each visit records the entry slot relative to the node's first-seen
    slot, so the encoding is invariant under relabeling and rotation of
    loop starts.  The lexicographic minimum over admissible starting
    terminals (stubs when present, otherwise every directed port) makes it
    deterministic.  A trace is abandoned as soon as its prefix exceeds the
    best trace so far, which leaves the minimum unchanged.
    """
    port_lookup = state.port_node()
    if not state.rotations:
        return []
    # Split nodes into connected components via edges.
    parent: dict[int, int] = {k: k for k in state.rotations}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    stub_of: dict[int, list[int]] = {k: [] for k in state.rotations}
    for port, (node, _slot) in port_lookup.items():
        q = state.partner[port]
        if q in port_lookup:
            union(node, port_lookup[q][0])
    for port, (node, _slot) in port_lookup.items():
        q = state.partner[port]
        if q < 0:
            stub_of[node].append(q)
    groups: dict[int, list[int]] = {}
    for k in state.rotations:
        groups.setdefault(find(k), []).append(k)

    encodings = []
    for members in groups.values():
        member_set = set(members)
        starts: list[int] = []
        for k in members:
            for q in stub_of[k]:
                starts.append(q)
        if not starts:
            starts = [port for k in members for port in state.rotations[k]]
        best = None
        for start in starts:
            try:
                best = _trace_component(state, port_lookup, member_set, start, best)
            except _Exceeds:
                pass
        encodings.append(best)
    return sorted(encodings)


class _Exceeds(Exception):
    """A trace's prefix is already greater than the best trace."""


def _trace_component(state, port_lookup, member_set, start, best=None) -> str:
    """The trace of one component from ``start``, as comma-joined tokens.

    With ``best`` given, raises ``_Exceeds`` once the prefix traced so far
    is greater than ``best``; a trace that completes is at most ``best``.
    """
    rotations = state.rotations
    partner = state.partner
    node_id: dict[int, int] = {}
    ref_slot: dict[int, int] = {}
    used_entries: set[int] = set()
    pieces: list[str] = []
    pending: list[int] = []  # candidate ports for later strand starts
    matched = 0 if best is not None else -1  # chars equal to best; -1 once below it

    def emit(token: str) -> None:
        nonlocal matched
        piece = "," + token if pieces else token
        pieces.append(piece)
        if matched >= 0:
            ref = best[matched:matched + len(piece)]
            if piece > ref:
                raise _Exceeds
            matched = matched + len(piece) if piece == ref else -1

    def enter(port) -> int | None:
        """Record a visit entering at ``port``; return the exit port."""
        node, slot = port_lookup[port]
        if node not in node_id:
            node_id[node] = len(node_id)
            ref_slot[node] = slot
            for extra in range(4):
                pending.append(rotations[node][(slot + extra) % 4])
        offset = (slot - ref_slot[node]) % 4
        emit(f"{node_id[node]}.{offset}")
        used_entries.add(port)
        return rotations[node][(slot + 2) % 4]

    def run_strand(first_terminal) -> None:
        # first_terminal: a port we exit through, or a stub we start from.
        if first_terminal < 0:
            emit("T")
            q = partner[first_terminal]
            while q >= 0:
                exit_port = enter(q)
                used_entries.add(exit_port)
                q = partner[exit_port]
            emit("E")
            return
        emit("S")
        start_port = first_terminal
        used_entries.add(start_port)
        q = partner[start_port]
        while True:
            if q < 0:
                emit("E")
                return
            exit_port = enter(q)
            if exit_port == start_port:
                emit("C")
                return
            used_entries.add(exit_port)
            q = partner[exit_port]

    run_strand(start)
    while True:
        nxt = None
        for cand in pending:
            if cand not in used_entries:
                nxt = cand
                break
        if nxt is None:
            break
        run_strand(nxt)
    return "".join(pieces)


def parity_states(
    code: KnotoidCode, state_limit: int = DEFAULT_STATE_LIMIT
):
    """Yield one GraphState per smoothing of the even crossings.

    The per-state reference for the contracted ``parity_bracket``; no
    production path builds states one by one.
    """
    compiled = CompiledCode(code)
    infos = classify_crossings(code)
    even_list = [compiled.index_of[i.label] for i in infos if i.parity == EVEN]
    node_set = {compiled.index_of[i.label] for i in infos if i.parity != EVEN}
    if len(even_list) > state_limit:
        raise LimitExceeded(
            f"{len(even_list)} even crossings exceed the state limit {state_limit}"
        )
    for mask in range(1 << len(even_list)):
        yield _build_state(compiled, node_set, even_list, mask)


def _close_stub_paths(state: GraphState) -> None:
    """Join the two stub ends of every open strand, in place.

    This is the virtual-closure identification of graphical states: the
    long segment through the nodes becomes a closed strand, and bare
    stub-to-stub edges become circles.
    """
    partner = state.partner
    stubs = sorted((t for t in partner if t < 0), reverse=True)
    port_lookup = state.port_node()
    seen: set[int] = set()
    for s in stubs:
        if s in seen:
            continue
        # Walk the strand from s to its far stub.
        seen.add(s)
        x = partner[s]
        if x < 0:
            seen.add(x)
            del partner[s]
            del partner[x]
            state.circles += 1
            continue
        first_port = x
        while x >= 0:
            node, slot = port_lookup[x]
            exit_port = state.rotations[node][(slot + 2) % 4]
            x = partner[exit_port]
        far_stub = x
        seen.add(far_stub)
        last_port = partner[far_stub]
        del partner[s]
        del partner[far_stub]
        partner[first_port] = last_port
        partner[last_port] = first_port


def _accumulate(
    compiled: CompiledCode, code: KnotoidCode, state_limit: int, closed: bool
) -> ParityBracketValue:
    infos = classify_crossings(code)
    even = [compiled.index_of[i.label] for i in infos if i.parity == EVEN]
    if len(even) > state_limit:
        raise LimitExceeded(
            f"{len(even)} even crossings exceed the state limit {state_limit}"
        )
    nodes = sorted(compiled.index_of[i.label] for i in infos if i.parity != EVEN)
    rotations = {k: _node_rotation(compiled, k) for k in nodes}
    # Arcs that meet no even crossing join the same ends in every state:
    # node port to node port or stub, and the stubs of an empty leg.
    direct: dict[int, int] = {}
    for rot in rotations.values():
        for port in rot:
            far = compiled.arc_end(port)
            if far < 0 or compiled.crossing_of(far) in rotations:
                direct[port] = far
                direct[far] = port
    for ci in compiled.open_comps:
        if compiled.first_target[ci] < 0:
            direct[-(2 * ci + 1)] = -(2 * ci + 2)
            direct[-(2 * ci + 2)] = -(2 * ci + 1)

    by_key: dict[str, dict[tuple[int, int], int]] = {}
    for pairing, counts in compiled.frontier(False, even):
        partner = dict(direct)
        finished = []  # stubs of node-free segments, each paired with itself
        for end, (other, _word) in pairing.items():
            if end == other:
                finished.append(end)
            else:
                partner[end] = other
        for s, t in zip(finished[::2], finished[1::2]):
            partner[s] = t
            partner[t] = s
        state = GraphState(dict(rotations), partner, compiled.free_circles, 0)
        state = reduce_graph(state)
        if closed:
            _close_stub_paths(state)
            state = reduce_graph(state)
        encodings = canonical_graph(state)
        segments = sum(1 for a, b in state.partner.items() if a < 0 and b < 0 and a < b)
        comps = state.circles + segments + len(encodings)
        sums = by_key.setdefault(" | ".join(encodings), {})
        for (sigma, circles, _, _), count in counts.items():
            key = (sigma, comps + circles)
            sums[key] = sums.get(key, 0) + count
    plain = state_sum(by_key.pop("", {}))
    graphical = {key: state_sum(sums) for key, sums in by_key.items()}
    return ParityBracketValue(
        plain=plain, graphical={k: v for k, v in graphical.items() if not v.is_zero()}
    )


def parity_bracket(
    code: KnotoidCode, state_limit: int = DEFAULT_STATE_LIMIT, closed: bool = False
) -> ParityBracketValue:
    """The raw parity bracket (no writhe normalization).

    With ``closed=True`` every graphical state is first sent through the
    virtual-closure identification (open strands closed up, then reduced
    again); the result equals the parity bracket of the virtually closed
    code exactly.  A knotoid keeps strictly more information in the open
    form, so ``closed=False`` is the default.
    """
    return _accumulate(CompiledCode(code), code, state_limit, closed)


def normalized_parity_bracket(
    code: KnotoidCode, state_limit: int = DEFAULT_STATE_LIMIT
) -> ParityBracketValue:
    """(-A^3)^(-writhe) times the parity bracket; a move invariant."""
    compiled = CompiledCode(code)
    raw = _accumulate(compiled, code, state_limit, False)
    return normalize_parity(raw, sum(compiled.cross_sign))


def normalize_parity(raw: ParityBracketValue, w: int) -> ParityBracketValue:
    """(-A^3)^(-w) times a raw parity bracket of writhe ``w``."""
    return ParityBracketValue(
        plain=writhe_normalize(raw.plain, w),
        graphical={k: writhe_normalize(v, w) for k, v in raw.graphical.items()},
    )


def flat_parity_bracket(
    flat: FlatCode, state_limit: int = DEFAULT_STATE_LIMIT
) -> FlatParityValue:
    """The parity bracket of a flat diagram, i.e. the A = -1 evaluation."""
    comps = []
    for comp in flat.components:
        passages = tuple(
            Passage("O" if p.visit == 0 else "U", p.label, p.chirality)
            for p in comp.passages
        )
        comps.append(ComponentCode(comp.kind, passages))
    pseudo = KnotoidCode(tuple(comps))
    value = parity_bracket(pseudo, state_limit)
    return FlatParityValue(
        plain=value.plain.evaluate_int(-1),
        graphical={
            k: v.evaluate_int(-1)
            for k, v in value.graphical.items()
            if v.evaluate_int(-1) != 0
        },
    )
