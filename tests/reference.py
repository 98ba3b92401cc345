"""Independent references that the tests hold the engines to.

``reference_plan`` is the contraction planner that rebuilt the whole
boundary at every step: its row of ends, a slot per end and the stub
flags.  ``CompiledCode._plan`` carries them from step to step and must
build equal plans.

``reorder`` gives a compiled code the greedy contraction order from another
first crossing; a state sum must not depend on the order.

``parity_reference`` is the parity bracket summed one graph state at a
time over the 2^e states of ``parity_states``, as its definition reads;
``parity_bracket`` reads one state per final pairing of the frontier.  Its
closed form closes each reduced state's stub paths with
``_close_stub_paths`` and reduces again with ``reduce_graph``, where
``parity_bracket`` closes the strands on the mate array.

``_graph_state`` reads one final pairing of the even-set frontier as a
graph state, and ``successors`` turns a graph state into the port-successor
list that ``canonical_graph`` reads, so the reference states are keyed by
the production ``canonical_graph``.
"""

from array import array

from knotoids.laurent import LaurentA, loop_value
from knotoids.parity_bracket import (
    GraphState, ParityBracketValue, canonical_graph, parity_states, reduce_graph,
)
from knotoids.smoothing import _splice_bigons


def reference_plan(compiled, smooth=None):
    """The (steps, boundary, typecode, start key, circles, node stop) that
    ``compiled._plan(smooth)`` builds.  The start key's bigons are spliced
    in the plan's order, by the kernel's own ``_splice_bigons``."""
    key = tuple(range(compiled.n) if smooth is None else sorted(set(smooth)))
    sigma_tab = compiled.sigma_table()
    cusp = [1 if s == "R" else -1 for s in compiled.side_char]
    done = [False] * compiled.n
    # The unsmoothed crossings' ports, then the far ends of their arcs.
    boundary = [e for k in range(compiled.n) if k not in key for e in compiled.rotation(k)]
    stop = 2 * len(boundary)
    partner = {}
    for e in boundary[:]:
        partner[e] = far = compiled.arc_end(e)
        partner[far] = e
        if far not in boundary:
            boundary.append(far)
    slot = {e: 2 * i for i, e in enumerate(boundary)}
    start = [v for e in boundary for v in (slot[partner[e]], 0)]
    stub = bytes(e < 0 for e in boundary for _ in (0, 1))
    circles = sum(
        _splice_bigons(start, stub, stop, s, start[s])
        for s in range(0, stop, 2) if start[s] < stop
    )
    steps = []
    for k in compiled.contraction_order(key):
        a, b = compiled.cross_over[k], compiled.cross_under[k]
        ends = (2 * a, 2 * a + 1, 2 * b, 2 * b + 1)
        fresh = {}  # arcs of k that lead to a stub or a smoothed crossing not yet done
        for e in ends:
            far = compiled.arc_end(e)
            if e not in boundary and (far < 0 or not done[compiled.pass_crossing[far >> 1]]):
                fresh[e] = far
                fresh[far] = e
        done[k] = True
        row = boundary + list(fresh)
        slot = {e: 2 * i for i, e in enumerate(row)}
        tail = [v for e in fresh for v in (slot[fresh[e]], 0)]
        stub = bytes(e < 0 for e in row for _ in (0, 1))
        slots = tuple(slot[e] for e in ends)  # ia, oa, ib, ob
        cut = 2 * (len(row) - 4)
        holes = sorted(slot[e] for e in ends if slot[e] < cut)
        kept = [i for i in range(cut, 2 * len(row), 2) if row[i >> 1] not in ends]
        for old, new in zip(kept, holes):
            row[new >> 1] = row[old >> 1]
        steps.append((tail, stub, cut, *sigma_tab[k], *slots, cusp[a], tuple(zip(kept, holes))))
        boundary = row[: cut >> 1]
    widths = [2 * compiled.n, len(start)] + [len(step[1]) for step in steps]
    typecode = "b" if max(widths) < 128 else "q"
    steps = tuple((array(typecode, tail).tobytes(), *rest) for tail, *rest in steps)
    return steps, boundary, typecode, array(typecode, start).tobytes(), circles, stop


def greedy_order(compiled, first, smooth=None) -> list[int]:
    """The greedy pass of ``contraction_order`` from ``first`` alone: each
    step takes the crossing that adds the fewest boundary ends, ties to the
    lowest index."""
    crossings = list(range(compiled.n)) if smooth is None else sorted(smooth)
    delta = {k: 0 for k in crossings}
    links: dict[int, list[int]] = {k: [] for k in crossings}
    for k in crossings:
        a, b = compiled.cross_over[k], compiled.cross_under[k]
        for e in (2 * a, 2 * a + 1, 2 * b, 2 * b + 1):
            far = compiled.arc_end(e)
            far = compiled.pass_crossing[far >> 1] if far >= 0 else -1
            if far != k:
                delta[k] += 1
                if far in links:
                    links[k].append(far)
    order, k = [], first
    while True:
        order.append(k)
        del delta[k]
        if not delta:
            return order
        for f in links[k]:
            if f in delta:
                delta[f] -= 2
        k = min(delta, key=lambda j: (delta[j], j))


def reorder(compiled, pick: int):
    """Set on ``compiled``, before it builds a plan, the greedy order from
    the ``pick``-th of the crossings other than the one its own order
    starts from; a set of one crossing keeps its order."""
    own = compiled.contraction_order

    def order(smooth=None):
        default = own(smooth)
        others = sorted(default[1:])
        return greedy_order(compiled, others[pick], smooth) if others else default

    compiled.contraction_order = order
    return compiled


def _close_stub_paths(state: GraphState) -> None:
    """Join the two stub ends of every open strand, in place.

    This is the virtual-closure identification of graphical states: the
    long segment through the nodes becomes a closed strand, and bare
    stub-to-stub edges become circles.
    """
    partner = state.partner
    for s in sorted((t for t in partner if t < 0), reverse=True):
        if s not in partner:
            continue  # the far stub of a strand already closed
        x = partner.pop(s)
        if x < 0:
            del partner[x]
            state.circles += 1
            continue
        first_port = x
        # Walk the strand from s to its far stub.
        while x >= 0:
            x = partner[x ^ 2]
        last_port = partner.pop(x)
        partner[first_port] = last_port
        partner[last_port] = first_port


def _graph_state(mates, row: list[int], ports: int) -> GraphState:
    """The graph state of one final pairing of the even-set frontier.

    The first ``ports`` positions of the final boundary ``row`` are the
    node ports, port ``p`` at position ``p``, and the rest are stubs.  The
    ports of a node the frontier spliced pair with themselves and are left
    out, as are the stubs of finished segments and of closed strands, so
    ``partner`` holds the live ports and the stubs they reach.
    """
    partner: dict[int, int] = {}
    for p, q in enumerate(mates[: 2 * ports : 2]):
        q >>= 1
        if q >= ports:
            partner[p] = row[q]
            partner[row[q]] = p
        elif q != p:
            partner[p] = q
    return GraphState({p >> 2 for p in range(0, ports, 4) if p in partner}, partner, 0, 0)


def successors(state: GraphState) -> list[int]:
    """The port-successor list of ``state`` for ``canonical_graph``: per port
    of the nodes up to the last live one, its partner, ``-1`` for a stub,
    or the port itself once its node is spliced away."""
    size = 4 * (max(state.nodes) + 1) if state.nodes else 0
    return [max(state.partner.get(p, p), -1) for p in range(size)]


def segments(state) -> int:
    """The stub-to-stub edges of a state: node-free open segments."""
    return sum(1 for a, b in state.partner.items() if a < 0 and b < 0 and a < b)


def parity_reference(code, closed: bool = False) -> ParityBracketValue:
    """Sum A^sigma d^(components - 1) over every state, one state at a time."""
    plain = LaurentA.zero()
    graphical: dict[str, LaurentA] = {}
    d = loop_value()
    for state in parity_states(code):
        state = reduce_graph(state)
        if closed:
            _close_stub_paths(state)
            state = reduce_graph(state)
        encodings = canonical_graph(successors(state))
        weight = LaurentA.one()
        for _ in range(state.circles + segments(state) + len(encodings) - 1):
            weight = weight * d
        weight = weight.shift(state.sigma)
        if encodings:
            key = " | ".join(encodings)
            graphical[key] = graphical.get(key, LaurentA.zero()) + weight
        else:
            plain = plain + weight
    return ParityBracketValue(plain, {k: v for k, v in graphical.items() if v})
