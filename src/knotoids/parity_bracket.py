"""Parity bracket polynomial: smooth even crossings, node-ify the rest.

Odd crossings (and link crossings of multi-knotoids) become rigid 4-valent
nodes carrying the cyclic rotation inherited from the crossing.  Node pairs
bounding a reducible bigon are spliced away; whatever graph survives is a
polynomial coefficient, keyed up to relabeling by a traversal canonical
form, the least string trace over the admissible starts.  Traces are
followed as small ints ranked to order as their strings do (ranks and
token strings come from one table per node count), each is cut short once
it passes the best so far, and only the winner is rendered.  Where every
port is a start (no stubs), only the starts whose first strand reads least
up to its first revisit are traced: every trace begins with that
signature, and no signature is a prefix of another.  A state contributes
A^(n(S)) d^(components-1), counting surviving graphs, plain circles and
the long segment alike, so that all-even inputs reproduce the ordinary
bracket exactly.

The state sum is a projection of ``CompiledCode.frontier``: only the even
crossings are smoothed, and the four ports of every node hold the first
boundary positions, port ``4 * i + slot`` of the i-th node at that
position, as a graph state numbers them (see ``GraphState``), so bigon
search, splicing and traces move between ports by arithmetic alone.  The
frontier splices each reducible bigon as soon as a join makes its edge
(``smoothing._splice_bigons``, the same rotation test as ``_find_bigon``),
so each distinct final pairing is one reduced graph state.  Its first
``2 * ports`` slots, read as port successors, are traced by
``canonical_graph`` on their own port numbers, once per pairing, and
weighted by the counts of all the states that share it; the closed form
first closes its strands on the mate array (``smoothing._close_strands``).
``parity_states`` remains as an independent reference for the tests: it
glues each of the 2^e smoothings with ``CompiledCode.glue_for_mask`` and
follows its strands from node port to node port in ``_build_state``; each
of its states is reduced on its own with ``reduce_graph``.

Scope of move invariance: on single-component diagrams every triangle-move
configuration carries an even number of nodes and the normalized value is
a full invariant.  The multi-component extension (link crossings as nodes)
is computed as defined, but a triangle made of two link crossings and one
odd self-crossing holds three nodes, and sliding a strand across such a
node changes the surviving graph, so the extension is not invariant under
those particular slides.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .bracket import writhe
from .codes import FlatCode, KnotoidCode, ComponentCode, Passage
from .errors import LimitExceeded
from .laurent import LaurentA, state_sum, writhe_normalize
from .smoothing import CompiledCode, DEFAULT_STATE_LIMIT, _close_strands, compiled_form


@dataclass
class GraphState:
    """One parity state: rotation nodes joined by edges through smoothings.

    Node ``i`` is the ``i``-th node crossing in index order, and its ports
    are ``4 * i + slot`` for its counterclockwise rotation slots 0-3, so a
    port's node is ``p >> 2``, its slot ``p & 3`` and the port across the
    node ``p ^ 2``.  ``nodes`` holds the nodes not yet spliced away;
    ``partner`` is the edge matching on their ports and the (negative) stub
    terminals; ``circles`` counts node-free closed components.
    """

    nodes: set[int]
    partner: dict[int, int]
    circles: int
    sigma: int


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

    def __reduce__(self):
        # Pickles and copies rebuild the read-only mapping from a dict.
        return type(self), (self.plain, dict(self.graphical))

    def render(self) -> str:
        parts = [self.plain.render()] if self.plain or not self.graphical else []
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

    __reduce__ = ParityBracketValue.__reduce__

    @classmethod
    def of(cls, value: ParityBracketValue) -> FlatParityValue:
        """A parity bracket at A = -1; graphical terms that vanish there drop."""
        graphical = {k: v.evaluate_int(-1) for k, v in value.graphical.items()}
        return cls(value.plain.evaluate_int(-1), {k: v for k, v in graphical.items() if v})

    def is_trivial(self) -> bool:
        return not self.graphical


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

    # Each arc end at a node maps to its port 4 * i + slot: the crossing's
    # place among the nodes and its rotation slot.
    ports = {
        end: 4 * i + slot
        for i, k in enumerate(sorted(node_set))
        for slot, end in enumerate(compiled.rotation(k))
    }
    succ, pred = compiled.succ, compiled.pred
    partner: dict[int, int] = {}
    consumed = bytearray(2 * compiled.P)

    def walk_from(first: int) -> int:
        # Run through glued even crossings until a node port or stub.
        x = first
        while x >= 0:
            consumed[x] = 1
            if x in ports:
                return x
            g = glue[x]
            consumed[g] = 1
            x = succ[g] if g & 1 else pred[g]
        return x

    def connect(a: int, b: int) -> None:
        partner[a] = b
        partner[b] = a

    for end in ports:
        if end in partner:
            continue
        consumed[end] = 1
        connect(end, walk_from(compiled.arc_end(end)))
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
        if consumed[e] or e in ports:
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

    partner = {ports.get(a, a): ports.get(b, b) for a, b in partner.items()}
    return GraphState(set(range(len(node_set))), partner, circles, sigma)


def _find_bigon(state: GraphState) -> tuple[int, int] | None:
    """The nodes (u, v) of a reducible bigon per the rotation criterion, or None.

    Two edges joining distinct nodes u and v bound a reducible bigon when
    they sit cyclically adjacent at both nodes and in opposite relative
    order: one node reads them ccw as e1 e2, the other as e2 e1.  So an edge
    (p, q) from u to v bounds one with the edge from the port after p to
    the port before q, if there is such an edge.
    """
    partner = state.partner
    for p, q in partner.items():
        if p >= 0 and q >= 0 and p >> 2 != q >> 2:
            if partner[p & ~3 | (p + 1) & 3] == q & ~3 | (q + 3) & 3:
                return p >> 2, q >> 2
    return None


def reduce_graph(state: GraphState) -> GraphState:
    """Splice away reducible bigons until none remain."""
    while True:
        found = _find_bigon(state)
        if found is None:
            return state
        _splice(state, *found)


def _splice(state: GraphState, u: int, v: int) -> None:
    """Remove nodes u and v, joining each straight strand through them.

    A strand that closes on itself once its nodes are gone is a circle.
    """
    partner = state.partner
    for node in (u, v):
        for p in (4 * node, 4 * node + 1):
            a, b = partner.pop(p), partner.pop(p ^ 2)
            if a == p ^ 2:
                state.circles += 1
            else:
                partner[a] = b
                partner[b] = a
    state.nodes -= {u, v}


def canonical_graph(succ: list[int]) -> list[str]:
    """Canonical encodings of the node-bearing components of a reduced state.

    ``succ`` maps each port ``4 * node + slot`` to the port entered after
    leaving by it: its mate, ``-1`` at a stub, or the port itself at a node
    spliced away.  Nodes are numbered by first visit along a
    strand-following traversal; each visit records the entry slot relative
    to the node's first-seen slot, so the encoding is invariant under
    relabeling and rotation of loop starts.  A trace is a comma-joined
    token list: ``T`` or ``S`` opens a strand at a stub or a port,
    ``id.offset`` is a visit, and ``E`` or ``C`` ends the strand at a stub
    or back at its start.  The lexicographic minimum over admissible
    starting terminals (stubs when present, otherwise every directed port)
    makes it deterministic.

    Components are found by tracing.  Each stub not yet covered starts a
    full trace, which covers every port of its component, among them the
    component's other stubs, the other starts; each live node still
    uncovered then roots a stub-free component, whose first kept start's
    full trace covers it.

    Traces run on small ints that order as their strings do: a visit is
    ``4 * rank + offset``, where ``rank`` orders the ids by their decimal
    strings (``"10.0" < "2.0"``), and the letters ``C < E < S < T`` rank
    above every visit.  No token string is a prefix of another, so int
    lists compare as the joined strings.  A trace is cut short once it is
    greater than the best trace so far, which leaves the minimum
    unchanged, and only each component's winner is rendered to a string.
    The ranks and each token's string come from ``_token_table``, one
    table per node count, so no call sorts ids or formats a token.

    In a stub-free component, where every port is a start, only the starts
    whose signature is least are traced.  A start's signature is its first
    strand up to and including the first revisit of a node, or to the
    close ``C`` if the strand repeats no node.  This never drops the winner:

    - Before its first revisit, every start reads the same tokens, ``S``,
      ``ranks[0]``, ``ranks[1]``, ..., since each new node is entered at
      offset 0.
    - A revisit token is ``ranks[id] + offset`` with offset 1-3, since a
      strand enters no port twice before it closes.
    - So a revisit token is never a multiple of 4, and equals neither a
      new node's token ``ranks[k]`` nor ``C``.
    - Hence no signature is a prefix of another, and a start with a greater
      signature has a strictly greater trace.

    Ranks keep the string order (``"10" < "2"``), so signatures compare as
    token lists, never by length.
    """
    ports = len(succ)
    ranks, strings = _token_table(ports >> 2)
    top = ranks[-1]
    covered = bytearray(ports)  # the ports of the components traced so far
    encodings = []
    stubs = [p for p, q in enumerate(succ) if q < 0]
    while stubs:
        best = list(_trace(succ, ranks, top, ~stubs[0], covered))
        for p in stubs[1:]:
            if covered[p]:
                best = _least(_trace(succ, ranks, top, ~p, bytearray(ports)), best)
        encodings.append(",".join(map(strings.__getitem__, best)))
        stubs = [p for p in stubs if not covered[p]]
    for root in range(0, ports, 4):
        if covered[root] or succ[root] == root:
            continue
        starts = _least_signatures(succ, ranks, top, root)
        best = list(_trace(succ, ranks, top, starts[0], covered))
        for start in starts[1:]:
            best = _least(_trace(succ, ranks, top, start, bytearray(ports)), best)
        encodings.append(",".join(map(strings.__getitem__, best)))
    return sorted(encodings)


@functools.cache
def _token_table(n: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """For ``n`` nodes: ``ranks[i]``, 4 times id ``i``'s place among the ids'
    decimal strings, then ``top = 4 * n``; and ``strings[tok]``, the string
    of int token ``tok``.  Built once per node count."""
    by_string = sorted(range(n), key=str)
    ranks = (*(4 * by_string.index(i) for i in range(n)), 4 * n)
    return ranks, (*[f"{i}.{o}" for i in by_string for o in range(4)], *"CEST")


def _least_signatures(succ, ranks, top, root) -> list[int]:
    """The ports of the stub-free component of port ``root`` whose traces
    start least.

    A start's signature is ``S``, ``ranks[0]`` to ``ranks[m - 1]`` and
    ``tok``, the first revisit or ``C``.  It leaves the run of new nodes
    at token ``m``, below ``ranks[m]`` or above it: one that leaves below
    is the lesser the sooner it leaves, and one that leaves above the
    later, so the key ``(0, m, tok)`` or ``(1, -m, tok)`` orders the
    signatures as their token lists.  Each start walks its first strand
    only until its signature is known, or until it reaches a new node at
    the token where the best so far left below.  ``ranks`` ends with
    ``top``, since ``m`` may be every node and a close is not below that.
    The starts are the ports of ``root``'s node and of each node a start's
    first step enters, which every start takes (no key leaves below at 0).
    """
    nodes = len(succ) >> 2
    walk = [-1] * nodes  # the start whose walk entered the node last
    index = [0] * nodes  # the node's place in that walk
    entered = [0] * nodes  # the port that walk first entered it by
    found = bytearray(nodes)  # nodes whose ports are among the starts
    found[root >> 2] = 1
    starts = list(range(root, root + 4))
    best, kept = (2,), []  # (2,) is above every key
    for x in starts:
        m, q, tok = 0, succ[x], None
        if not found[q >> 2]:
            found[q >> 2] = 1
            starts += range(q & ~3, (q & ~3) + 4)
        while tok is None:
            node = q >> 2
            if walk[node] == x:
                tok = ranks[index[node]] + ((q - entered[node]) & 3)
            elif best[0] == 0 and best[1] == m:
                break  # this start goes on above the best: it is greater
            else:
                walk[node], index[node], entered[node] = x, m, q
                m += 1
                if q == x ^ 2:
                    tok = top  # C
                q = succ[q ^ 2]
        if tok is None:
            continue
        key = (0, m, tok) if tok < ranks[m] else (1, -m, tok)
        if key < best:
            best, kept = key, [x]
        elif key == best:
            kept.append(x)
    return kept


def _trace(succ, ranks, top, start, used):
    """Yield the int tokens of one component's trace from ``start``.

    ``start`` is a port to leave by, or ``~p`` to enter ``p`` from its
    stub.  Later strands leave by the first unused port of the visited
    nodes, taken in visit order and counterclockwise from the entry slot.
    Each port the trace takes is marked in ``used``, which holds no port
    of the component yet; a full trace marks them all.
    """
    rank = [-1] * (len(succ) >> 2)  # 4 * rank of a visited node's id
    ref = [0] * len(rank)  # the port it was first entered by
    pending: list[int] = []
    candidates = iter(pending)  # resumes where it stopped; sees appends
    ids = 0
    x = start
    while True:
        if x < 0:
            yield top + 3  # T
            q = ~x
        else:
            yield top + 2  # S
            used[x] = 1
            q = succ[x]
        while q >= 0:
            node = q >> 2
            if rank[node] < 0:
                rank[node], ref[node] = ranks[ids], q
                ids += 1
                pending += q, q & ~3 | (q + 1) & 3, q ^ 2, q & ~3 | (q + 3) & 3
            yield rank[node] + ((q - ref[node]) & 3)
            used[q] = 1
            q ^= 2  # the opposite slot
            if q == x:
                break
            used[q] = 1
            q = succ[q]
        yield top if q >= 0 else top + 1  # C or E
        for x in candidates:
            if not used[x]:
                break
        else:
            return


def _least(tokens, best: list[int]) -> list[int]:
    """The lesser of the trace ``tokens`` and ``best``, reading no token past
    the first one that differs from ``best``."""
    i = 0
    for b, tok in zip(best, tokens):
        if tok != b:
            return [*best[:i], tok, *tokens] if tok < b else best
        i += 1
    return best  # a full tie: traces of one component are equally long


def parity_states(
    code: KnotoidCode, state_limit: int = DEFAULT_STATE_LIMIT
):
    """Yield one GraphState per smoothing of the even crossings.

    The per-state reference for the contracted ``parity_bracket``; no
    production path builds states one by one.
    """
    compiled = CompiledCode(code)
    even_list = compiled.even
    node_set = set(range(compiled.n)).difference(even_list)
    if len(even_list) > state_limit:
        raise LimitExceeded(
            f"{len(even_list)} even crossings exceed the state limit {state_limit}"
        )
    for mask in range(1 << len(even_list)):
        yield _build_state(compiled, node_set, even_list, mask)


def parity_bracket(
    code: KnotoidCode, state_limit: int = DEFAULT_STATE_LIMIT, closed: bool = False
) -> ParityBracketValue:
    """The raw parity bracket (no writhe normalization).

    With ``closed=True`` every final pairing is first sent through the
    virtual-closure identification (open strands closed up and their new
    edges spliced); the result equals the parity bracket of the virtually
    closed code exactly.  A knotoid keeps strictly more information in the
    open form, so ``closed=False`` is the default.
    """
    compiled = compiled_form(code)
    even = compiled.even
    if len(even) > state_limit:
        raise LimitExceeded(
            f"{len(even)} even crossings exceed the state limit {state_limit}"
        )
    # The frontier counts every leg and free circle as a component up front;
    # a leg whose stubs reach a live node belongs to that node's graph instead.
    ports = 4 * (compiled.n - len(even))
    spliced = list(range(ports))  # every node spliced away
    by_key: dict[str, dict[tuple[int, int], int]] = {}
    for mates, counts in compiled.frontier(False, even):
        extra = _close_strands(mates, 2 * ports) if closed else 0
        # Port p sits at slot 2 * p; the slots from 2 * ports on are stubs.
        succ = [q >> 1 if q < 2 * ports else -1 for q in mates[: 2 * ports : 2]]
        encodings = canonical_graph(succ) if succ != spliced else []
        extra += len(encodings) - succ.count(-1) // 2
        sums = by_key.setdefault(" | ".join(encodings), {})
        for (sigma, circles, _, _), count in counts.items():
            key = (sigma, circles + extra)
            sums[key] = sums.get(key, 0) + count
    plain = state_sum(by_key.pop("", {}))
    graphical = {key: state_sum(sums) for key, sums in by_key.items()}
    return ParityBracketValue(
        plain=plain, graphical={k: v for k, v in graphical.items() if not v.is_zero()}
    )


def normalized_parity_bracket(
    code: KnotoidCode, state_limit: int = DEFAULT_STATE_LIMIT
) -> ParityBracketValue:
    """(-A^3)^(-writhe) times the parity bracket; a move invariant."""
    return normalize_parity(parity_bracket(code, state_limit), writhe(code))


def normalize_parity(raw: ParityBracketValue, w: int) -> ParityBracketValue:
    """(-A^3)^(-w) times a raw parity bracket of writhe ``w``."""
    return ParityBracketValue(
        plain=writhe_normalize(raw.plain, w),
        graphical={k: writhe_normalize(v, w) for k, v in raw.graphical.items()},
    )


def flat_parity_bracket(
    flat: FlatCode, state_limit: int = DEFAULT_STATE_LIMIT
) -> FlatParityValue:
    """The parity bracket of a flat diagram, i.e. the A = -1 evaluation.

    ``flat_parity_bracket(flat_projection(code))`` equals
    ``FlatParityValue.of(parity_bracket(code))``: the flat parity bracket
    of a diagram is its parity bracket at A = -1.
    """
    comps = []
    for comp in flat.components:
        passages = tuple(
            Passage("O" if p.visit == 0 else "U", p.label, p.chirality)
            for p in comp.passages
        )
        comps.append(ComponentCode(comp.kind, passages))
    pseudo = KnotoidCode(tuple(comps))
    return FlatParityValue.of(parity_bracket(pseudo, state_limit))
