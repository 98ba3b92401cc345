"""The contracted parity bracket against a per-state accumulation.

``parity_bracket`` reads one reduced graph state per distinct final
pairing of the frontier engine, which splices bigons as it goes;
``reference.parity_reference`` builds, reduces and canonicalizes every one
of the 2^e states from ``parity_states``, as the bracket's definition
reads, also on codes whose final pairings finish several node-free
segments.  No final pairing keeps a reducible bigon, before or after
``_close_strands`` closes its strands, and over random smoothed sets the
frontier agrees with ``_build_state`` states reduced one by one.
``canonical_graph``'s cut-short int traces are checked against the plain minimum of full string traces from
``trace_component``, its pruned starts against the first-strand
signatures of those traces, and ``_find_bigon`` against the pairwise
bigon criterion of ``reference_bigons``.
"""

import hashlib
import itertools
import json
import random
import sys

import pytest

from knotoids.catalog import load_catalog
from knotoids.closures import virtual_closure
from knotoids.codes import (
    ComponentCode,
    KnotoidCode,
    Passage,
    classify_crossings,
    flat_projection,
    parse,
    spiral,
)
from knotoids.errors import LimitExceeded
from knotoids.parity_bracket import (
    FlatParityValue,
    GraphState,
    _build_state,
    _find_bigon,
    _least_signatures,
    _splice,
    canonical_graph,
    flat_parity_bracket,
    parity_bracket,
    parity_states,
    reduce_graph,
)
from knotoids.smoothing import CompiledCode, _close_strands, compiled_form
from helpers import all_codes, count_calls, random_code, random_multi_code
from reference import _close_stub_paths, _graph_state, parity_reference, segments, successors


def flat_reference(code: KnotoidCode) -> FlatParityValue:
    """The A = -1 evaluation of the reference on the flat projection."""
    comps = tuple(
        ComponentCode(
            comp.kind,
            tuple(
                Passage("O" if p.visit == 0 else "U", p.label, p.chirality)
                for p in comp.passages
            ),
        )
        for comp in flat_projection(code).components
    )
    value = parity_reference(KnotoidCode(comps))
    graphical = {k: v.evaluate_int(-1) for k, v in value.graphical.items()}
    return FlatParityValue(value.plain.evaluate_int(-1), {k: v for k, v in graphical.items() if v})


def assert_matches(code):
    assert parity_bracket(code) == parity_reference(code), code
    assert parity_bracket(code, closed=True) == parity_reference(code, closed=True), code
    if len(code.open_components) == 1:
        closure = virtual_closure(code)
        assert parity_bracket(closure) == parity_reference(closure), code
    flat = flat_parity_bracket(flat_projection(code))
    assert flat == flat_reference(code), code
    # The flat parity bracket is the parity bracket at A = -1.
    assert flat == FlatParityValue.of(parity_bracket(code)), code


def parities(code) -> set[str]:
    return {info.parity for info in classify_crossings(code)}


def one_leg_codes():
    rng = random.Random(71)
    return [random_code(rng, rng.randint(0, 8), loops=rng.randint(0, 3)) for _ in range(80)]


def codes_with_several_legs():
    rng = random.Random(72)
    return [random_multi_code(rng, rng.randint(0, 8)) for _ in range(80)]


def loop_only_codes():
    rng = random.Random(73)
    codes = [virtual_closure(random_code(rng, rng.randint(0, 8))) for _ in range(40)]
    more = [random_multi_code(rng, rng.randint(1, 8)) for _ in range(40)]
    return codes + [code for code in more if not code.open_components]


def codes_with_empty_components():
    rng = random.Random(74)
    return [random_multi_code(rng, rng.randint(0, 7), empty=True) for _ in range(60)]


def test_one_leg_codes_with_loops():
    graphs = 0
    for code in one_leg_codes():
        graphs += bool(parity_bracket(code).graphical)
        assert_matches(code)
    assert graphs > 20


def test_codes_with_several_legs():
    legs = 0
    for code in codes_with_several_legs():
        legs = max(legs, len(code.open_components))
        assert_matches(code)
    assert legs >= 3


# Legs whose crossings are all even self-crossings: kinks and nested kinks.
CURLS = ("O1+ U1+", "U1- O1-", "O1+ U1+ O2- U2-", "O1+ O2+ U2+ U1+")


def curl_leg(text: str, tag: str) -> ComponentCode:
    tokens = parse(f"open: {text}").components[0].passages if text else ()
    return ComponentCode("open", tuple(Passage(p.role, tag + p.label, p.sign) for p in tokens))


def curl_family():
    """3-4-leg codes: a leg with odd crossings beside two node-free curls,
    and no fourth leg, an empty one or a third curl, the legs rotated
    differently from one odd leg to the next."""
    odd_legs = [code for n in (2, 3) for code in all_codes(n) if "odd" in parities(code)]
    for i, code in enumerate(odd_legs[::22]):
        for first, second in itertools.combinations_with_replacement(CURLS, 2):
            for extra in ((), ("",), ("U1+ O1+",)):
                legs = [curl_leg(first, "p"), code.components[0], curl_leg(second, "q")]
                legs += [curl_leg(text, "r") for text in extra]
                yield KnotoidCode(tuple(legs[i % 3 :] + legs[: i % 3]))


def test_pairings_with_several_finished_segments():
    """Every state of these codes finishes both curls as node-free
    segments, so each final pairing leaves at least four stubs paired with
    themselves (ports of spliced nodes, which pair with themselves too,
    are not counted); the parity bracket, open and closed, must not depend
    on how those stubs pair up."""
    codes = pairings = three = 0
    for code in curl_family():
        assert parity_bracket(code) == parity_reference(code), code
        assert parity_bracket(code, closed=True) == parity_reference(code, closed=True), code
        compiled = compiled_form(code)
        row = compiled.boundary(compiled.even)
        for mates, _ in compiled.frontier(False, compiled.even):
            stubs = sum(mates[2 * i] == 2 * i for i, end in enumerate(row) if end < 0)
            assert stubs >= 4, code
            pairings += 1
            three += stubs >= 6
        codes += 1
    assert codes == 27 * 10 * 3 and pairings >= 1000 and three >= 300, (pairings, three)


def test_loop_only_codes():
    for code in loop_only_codes():
        assert_matches(code)


def test_empty_components():
    for code in codes_with_empty_components():
        assert_matches(code)


def test_final_pairings_hold_no_reducible_bigon(monkeypatch):
    """The even-set frontier splices each reducible bigon as it forms, so
    no final pairing, read as a graph state, has one left, on every
    seeded family above.  Nor has one once ``_close_strands`` has closed
    its strands: it splices with the kernel's splicer too, so the closed
    parity bracket calls neither ``reduce_graph`` nor ``_splice``."""
    codes = one_leg_codes() + codes_with_several_legs()
    codes += loop_only_codes() + codes_with_empty_components()
    calls: list[str] = []
    count_calls(monkeypatch, calls, reduce_graph)
    count_calls(monkeypatch, calls, _splice)
    spliced = graphs = closed = 0
    for code in codes:
        parity_bracket(code, closed=True)
        compiled = compiled_form(code)
        row = compiled.boundary(compiled.even)
        ports = 4 * (compiled.n - len(compiled.even))
        for mates, _ in compiled.frontier(False, compiled.even):
            state = _graph_state(mates, row, ports)
            assert _find_bigon(state) is None, code
            spliced += len(state.nodes) < ports // 4
            graphs += bool(state.nodes)
            _close_strands(mates, 2 * ports)
            after = _graph_state(mates, row, ports)
            assert _find_bigon(after) is None, code
            assert all(p >= 0 for p in after.partner), code  # no stub is left
            closed += len(after.nodes) < len(state.nodes)
    assert calls == []
    assert spliced >= 100 and graphs >= 300 and closed >= 20, (spliced, graphs, closed)


def frontier_rows(compiled, smooth) -> dict:
    """The frontier's final pairings over the smoothed set ``smooth``, each
    read as its graph state: counts by (canonical key, sigma, components)."""
    row = compiled.boundary(smooth)
    ports = 4 * (compiled.n - len(smooth))
    rows: dict = {}
    for mates, counts in compiled.frontier(False, smooth):
        succ = successors(_graph_state(mates, row, ports))
        encodings = canonical_graph(succ)
        comps = len(encodings) - succ.count(-1) // 2
        for (sigma, circles, _, _), count in counts.items():
            key = (" | ".join(encodings), sigma, circles + comps)
            rows[key] = rows.get(key, 0) + count
    return rows


def per_state_rows(compiled, smooth) -> dict:
    """The same rows from every smoothing of ``smooth`` glued by
    ``_build_state`` and reduced on its own."""
    nodes = set(range(compiled.n)).difference(smooth)
    rows: dict = {}
    for mask in range(1 << len(smooth)):
        state = reduce_graph(_build_state(compiled, nodes, smooth, mask))
        encodings = canonical_graph(successors(state))
        key = (" | ".join(encodings), state.sigma, state.circles + segments(state) + len(encodings))
        rows[key] = rows.get(key, 0) + 1
    return rows


def test_any_smoothed_set_matches_the_per_state_reference():
    """Splicing inside the frontier agrees with reducing each state on its
    own for random smoothed sets too.  Unlike the even set, these leave
    nodes whose strands return to them, at an adjacent port as well."""
    rng = random.Random(80)
    curls = 0
    for i in range(200):
        if i % 2:
            code = random_code(rng, rng.randint(2, 9), loops=rng.randint(0, 2))
        else:
            code = random_multi_code(rng, rng.randint(2, 9), empty=i % 4 == 0)
        compiled = CompiledCode(code)
        smooth = [k for k in range(compiled.n) if rng.random() < 0.5]
        assert frontier_rows(compiled, smooth) == per_state_rows(compiled, smooth), (code, smooth)
        nodes = set(range(compiled.n)).difference(smooth)
        for mask in range(1 << len(smooth)):
            partner = _build_state(compiled, nodes, smooth, mask).partner
            curls += any(p >= 0 and q >= 0 and (p ^ q) in (1, 3) for p, q in partner.items())
    assert curls >= 1000, curls


def test_wide_node_sets_match_the_reference():
    """At 16-20 crossings with at most 9 even ones, the node ports and
    their arcs' far ends often take 64 or more boundary positions, so the
    frontier packs 8-byte slots; open and closed values still equal the
    per-state reference."""
    rng = random.Random(81)
    wide = 0
    for _ in range(30):
        code = random_code(rng, rng.randint(16, 20), loops=rng.randint(0, 1))
        compiled = compiled_form(code)
        if len(compiled.even) > 9:
            continue
        wide += compiled._plan(compiled.even)[2] == "q"
        assert parity_bracket(code) == parity_reference(code), code
        assert parity_bracket(code, closed=True) == parity_reference(code, closed=True), code
    assert wide >= 10, wide


def test_a_spiral_reduces_to_one_final_pairing():
    """Every state of the 32-crossing spiral reduces to a node-free graph,
    so splicing inside the contraction merges its 65,536 even-set states
    into one final pairing; the values are pinned from the engine that
    reduced each of those pairings after the contraction."""
    code = spiral(16, "+" * 32)
    compiled = compiled_form(code)
    assert len(compiled.even) == 16
    assert sum(1 for _ in compiled.frontier(False, compiled.even)) == 1
    values = [parity_bracket(code).to_json(), parity_bracket(code, closed=True).to_json()]
    digest = hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()
    assert digest == "0a310194761fb90d1a9e5bf1394986888a5c00f4e094858bcaa9418f21f2ec28"


def test_all_even_and_all_odd_codes():
    rng = random.Random(75)
    found = {"even": 0, "odd": 0}
    while min(found.values()) < 15:
        code = random_code(rng, rng.randint(1, 7), loops=rng.choice((0, 0, 1)))
        kinds = parities(code)
        kind = "even" if kinds == {"even"} else "odd" if "even" not in kinds else None
        if kind and found[kind] < 15:
            found[kind] += 1
            assert_matches(code)
    for k in range(1, 5):
        assert_matches(spiral(k, "+" * (2 * k)))


def test_catalog_entries():
    for entry in load_catalog():
        assert_matches(entry.code)


def trace_component(state, start) -> str:
    """The full trace of one component from ``start``, as comma-joined tokens.

    ``start`` is a stub or a port to leave by.  Nodes get ids by first
    visit and each visit is written ``id.offset``, the entry slot counted
    from the node's first entry slot; ``T`` or ``S`` opens a strand, ``E``
    or ``C`` closes it at a stub or at its start.  Later strands leave by
    the first unused port of the visited nodes, in visit order and
    counterclockwise from the entry slot.
    """
    partner = state.partner
    node_id: dict[int, int] = {}
    ref_slot: dict[int, int] = {}
    used_entries: set[int] = set()
    tokens: list[str] = []
    pending: list[int] = []

    def enter(port) -> int:
        """Record a visit entering at ``port``; return the exit port."""
        node, slot = port >> 2, port & 3
        if node not in node_id:
            node_id[node] = len(node_id)
            ref_slot[node] = slot
            for extra in range(4):
                pending.append(4 * node + (slot + extra) % 4)
        tokens.append(f"{node_id[node]}.{(slot - ref_slot[node]) % 4}")
        used_entries.add(port)
        return port ^ 2

    def run_strand(first_terminal) -> None:
        if first_terminal < 0:
            tokens.append("T")
            q = partner[first_terminal]
            while q >= 0:
                exit_port = enter(q)
                used_entries.add(exit_port)
                q = partner[exit_port]
            tokens.append("E")
            return
        tokens.append("S")
        used_entries.add(first_terminal)
        q = partner[first_terminal]
        while True:
            if q < 0:
                tokens.append("E")
                return
            exit_port = enter(q)
            if exit_port == first_terminal:
                tokens.append("C")
                return
            used_entries.add(exit_port)
            q = partner[exit_port]

    run_strand(start)
    while True:
        nxt = next((cand for cand in pending if cand not in used_entries), None)
        if nxt is None:
            return ",".join(tokens)
        run_strand(nxt)


def component_ports(partner, node) -> list[int]:
    """The ports of the nodes that ``node`` reaches through ``partner``."""
    reach, todo = {node}, [node]
    while todo:
        k = todo.pop()
        for port in range(4 * k, 4 * k + 4):
            q = partner[port]
            if q >= 0 and q >> 2 not in reach:
                reach.add(q >> 2)
                todo.append(q >> 2)
    return [port for k in sorted(reach) for port in range(4 * k, 4 * k + 4)]


def component_traces(state) -> list[list[str]]:
    """Per node component, its full string traces from every admissible start."""
    groups: list[list[int]] = []
    for node in sorted(state.nodes):
        ports = component_ports(state.partner, node)
        if ports not in groups:
            groups.append(ports)
    traces = []
    for ports in groups:
        starts = [state.partner[p] for p in ports if state.partner[p] < 0] or ports
        traces.append([trace_component(state, s) for s in starts])
    return traces


def plain_canonical(state) -> list[str]:
    """Per node component, the minimum of its full string traces, sorted."""
    return sorted(min(traces) for traces in component_traces(state))


def test_canonical_graph_is_the_minimum_full_trace():
    """Also checks the premise that lets ``_least`` take a trace that ties
    the best so far to its end for a full tie: all full traces of one
    component have the same number of tokens."""
    rng = random.Random(76)
    codes = [random_code(rng, rng.randint(2, 7), loops=rng.choice((0, 1))) for _ in range(40)]
    codes += [random_multi_code(rng, rng.randint(2, 7), empty=True) for _ in range(30)]
    codes += [entry.code for entry in load_catalog()]
    nodes = several = 0
    for code in codes:
        for closed in (False, True):
            for state in parity_states(code):
                state = reduce_graph(state)
                if closed:
                    _close_stub_paths(state)
                    state = reduce_graph(state)
                nodes = max(nodes, len(state.nodes))
                assert canonical_graph(successors(state)) == plain_canonical(state), code
                for traces in component_traces(state):
                    assert len({trace.count(",") for trace in traces}) == 1, code
                    several += len(set(traces)) >= 2
    assert nodes >= 4 and several >= 150, several


def test_even_crossing_limit_is_checked_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the state sum ran before the limit check")

    monkeypatch.setattr(CompiledCode, "frontier", no_work)
    with pytest.raises(LimitExceeded, match=r"^3 even crossings exceed the state limit 2$"):
        parity_bracket(parse("open: O1+ U2+ O3+ U1+ O2+ U3+"), state_limit=2)
    monkeypatch.undo()
    # Only even crossings count: two odd ones pass a limit of zero.
    assert parity_bracket(parse("open: O1+ U2- U1+ O2-"), state_limit=0).graphical


def test_canonical_graph_orders_two_digit_ids_as_strings():
    """Components of 11 or more nodes give some node the id 10, and the key
    strings order ``"10.0"`` before ``"2.0"``, unlike the numbers."""
    rng = random.Random(77)
    two_digit = 0
    for _ in range(40):
        n = rng.randint(16, 20)
        even = rng.choice([e for e in (6, 7, 8) if (n - e) % 2 == 0])
        code = random_code(rng, n)
        while sum(info.parity == "even" for info in classify_crossings(code)) != even:
            code = random_code(rng, n)
        for state in parity_states(code):
            state = reduce_graph(state)
            for closed in (False, True):
                if closed:
                    _close_stub_paths(state)
                    state = reduce_graph(state)
                if len(state.nodes) >= 11:
                    keys = canonical_graph(successors(state))
                    assert keys == plain_canonical(state), code
                    two_digit += any(t.startswith("10.") for k in keys for t in k.split(","))
    assert two_digit >= 1000


def test_canonical_graph_on_final_pairings():
    """``canonical_graph`` reads each final pairing of the even-set frontier
    on the mate array's own port numbers, spliced nodes' ports pairing with
    themselves, and must give the minimum full string traces, open and
    closed: on 16-20 crossing codes whose pairings keep 11 or more live
    nodes (two-digit ids), and on multi-leg codes with empty components,
    whose pairings hold a component with stubs beside a stub-free one."""
    rng = random.Random(82)
    codes = []
    for _ in range(12):
        n = rng.randint(16, 20)
        even = rng.choice([e for e in (6, 7, 8) if (n - e) % 2 == 0])
        code = random_code(rng, n)
        while sum(info.parity == "even" for info in classify_crossings(code)) != even:
            code = random_code(rng, n)
        codes.append(code)
    codes += [random_multi_code(rng, rng.randint(4, 12), empty=True) for _ in range(400)]
    wide = mixed = spliced = 0
    for code in codes:
        compiled = compiled_form(code)
        row = compiled.boundary(compiled.even)
        ports = 4 * (compiled.n - len(compiled.even))
        for closed in (False, True):
            for mates, _ in compiled.frontier(False, compiled.even):
                if closed:
                    _close_strands(mates, 2 * ports)
                succ = [q >> 1 if q < 2 * ports else -1 for q in mates[: 2 * ports : 2]]
                state = _graph_state(mates, row, ports)
                keys = canonical_graph(succ)
                assert keys == plain_canonical(state), code
                wide += len(state.nodes) >= 11 and any("10." in key for key in keys)
                mixed += {key[0] for key in keys} == {"S", "T"}
                spliced += 0 < len(state.nodes) < ports // 4
    assert wide >= 500 and mixed >= 50 and spliced >= 1000, (wide, mixed, spliced)


def first_strand_signature(trace: str) -> list[str]:
    """A full string trace's tokens up to its first revisit or ``C``.

    A revisit is a visit at a nonzero offset; a first visit is at ``.0``.
    """
    tokens = trace.split(",")
    end = next(i for i, tok in enumerate(tokens) if tok == "C" or tok[-2:] in (".1", ".2", ".3"))
    return tokens[: end + 1]


def test_signature_pruning_keeps_the_least_trace(monkeypatch):
    """In stub-free components ``canonical_graph`` traces only the starts
    of least first-strand signature.  Every dropped start's full string
    trace is strictly greater than the minimum, a kept one attains it, and
    the kept starts are exactly those of least signature, read off the
    string traces.  The states are those of ``closed=True``, of loop-only
    closures, and components of 11 or more nodes from the 16-20 crossing
    classes, where ids ``10`` and up order before ``2`` as strings."""
    calls = []

    def spy(succ, ranks, top, root):
        kept = _least_signatures(succ, ranks, top, root)
        calls.append((succ, component_ports(dict(enumerate(succ)), root >> 2), kept))
        return kept

    monkeypatch.setattr(sys.modules[canonical_graph.__module__], "_least_signatures", spy)
    rng = random.Random(79)
    for _ in range(60):
        code = random_code(rng, rng.randint(4, 10), loops=rng.randint(0, 2))
        parity_bracket(code, closed=True)
        parity_bracket(virtual_closure(code))
    small = len(calls)
    for _ in range(12):
        n = rng.randint(16, 20)
        even = rng.choice([e for e in (6, 7, 8) if (n - e) % 2 == 0])
        code = random_code(rng, n)
        while sum(info.parity == "even" for info in classify_crossings(code)) != even:
            code = random_code(rng, n)
        parity_bracket(code, closed=True)
        parity_bracket(virtual_closure(code))
    large = [call for call in calls[small:] if len(call[1]) >= 44]

    pruned = ties = 0
    for succ, ports, kept in calls[:small] + large:
        component = GraphState({p >> 2 for p in ports}, dict(enumerate(succ)), 0, 0)
        traces = {start: trace_component(component, start) for start in ports}
        least = min(traces.values())
        dropped = set(ports) - set(kept)
        assert all(traces[start] > least for start in dropped), succ
        assert least in [traces[start] for start in kept], succ
        signatures = {start: first_strand_signature(trace) for start, trace in traces.items()}
        assert sorted(kept) == [
            start for start in ports if signatures[start] == min(signatures.values())
        ], succ
        pruned += bool(dropped)
        ties += len(kept) >= 2
    assert small >= 200 and len(large) >= 300
    assert pruned >= 0.8 * (small + len(large))
    assert ties >= 100


def reference_bigons(state) -> list[tuple[int, int]]:
    """The nodes (u, v) of every reducible bigon, by the pairwise criterion.

    Edges are grouped by the two nodes they join, and every pair of edges
    between the same nodes is tried: it bounds a reducible bigon when the
    two edges sit cyclically adjacent at both nodes, in opposite relative
    order.  Slots are read off each node's rotation list by position.
    """
    edges_between: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for p, q in state.partner.items():
        if 0 <= p < q and p >> 2 != q >> 2:
            (u, pu), (v, pv) = sorted([(p >> 2, p), (q >> 2, q)])
            edges_between.setdefault((u, v), []).append((pu, pv))
    found = []
    for (u, v), pairs in edges_between.items():
        rot_u = [4 * u + slot for slot in range(4)]
        rot_v = [4 * v + slot for slot in range(4)]
        for (u1, v1), (u2, v2) in itertools.combinations(pairs, 2):
            order_u = (rot_u.index(u2) - rot_u.index(u1)) % 4
            order_v = (rot_v.index(v2) - rot_v.index(v1)) % 4
            if order_u in (1, 3) and order_v in (1, 3) and order_u != order_v:
                found.append((u, v))
    return found


def reduce_by_last_bigon(state) -> int:
    """Splice the reference's last bigon until none is left; the splice count."""
    splices = 0
    while bigons := reference_bigons(state):
        _splice(state, *bigons[-1])
        splices += 1
    return splices


def test_a_curl_is_no_bigon():
    """Two adjacent ports of one node joined to each other are a curl, not a
    bigon: the edge has to join two distinct nodes."""
    partner = {0: 1, 1: 0, 2: -1, -1: 2, 3: -2, -2: 3}
    state = GraphState({0}, dict(partner), 0, 0)
    assert _find_bigon(state) is None
    reduced = reduce_graph(state)
    assert (reduced.nodes, reduced.partner, reduced.circles) == ({0}, partner, 0)


def test_bigon_search_matches_pairwise_reference():
    """``_find_bigon`` finds a bigon exactly when the pairwise criterion does,
    and reducing by the reference's last bigon instead of the first one found
    leaves the same graph, circles and segments: the reduced graph does not
    depend on the splice order."""
    rng = random.Random(78)
    codes = [random_code(rng, rng.randint(4, 10), loops=rng.randint(0, 3)) for _ in range(40)]
    codes += [random_multi_code(rng, rng.randint(4, 10), empty=i % 2 == 0) for i in range(40)]
    codes += [virtual_closure(random_code(rng, rng.randint(4, 10))) for _ in range(20)]

    def check(state) -> None:
        assert (_find_bigon(state) is None) == (not reference_bigons(state)), code

    several = other_order = 0
    for code in codes:
        for closed in (False, True):
            for state in parity_states(code):
                other = GraphState(set(state.nodes), dict(state.partner), state.circles, 0)
                check(state)
                bigons = reference_bigons(state)
                if bigons and _find_bigon(state) not in (bigons[-1], bigons[-1][::-1]):
                    other_order += 1
                state = reduce_graph(state)
                check(state)
                splices = reduce_by_last_bigon(other)
                if closed:
                    _close_stub_paths(state)
                    check(state)
                    state = reduce_graph(state)
                    check(state)
                    _close_stub_paths(other)
                    splices += reduce_by_last_bigon(other)
                several += splices >= 2
                assert canonical_graph(successors(other)) == canonical_graph(successors(state)), code
                assert other.circles == state.circles, code
                assert segments(other) == segments(state), code
    assert several >= 300  # states that splice two or more bigons
    assert other_order >= 200  # states whose first splice differs
