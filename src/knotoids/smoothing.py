"""State resolution shared by the bracket, arrow and parity engines.

Every classical crossing is replaced by one of two reconnections: the
oriented smoothing joins each incoming strand to the other strand's outgoing
end, while the disoriented smoothing joins the two incoming ends (and the
two outgoing ends), reversing one strand locally.  Each disoriented site
creates a pair of cusps on the resulting curves; a cusp records on which
side of the traversal its acute wedge lies.

Ends of passage ``p`` are numbered ``in = 2p`` and ``out = 2p + 1``; stub
terminals of open component ``c`` are the negative sentinels ``-(2c+1)``
(tail) and ``-(2c+2)`` (head).

``CompiledCode.frontier`` is the one state-sum engine: it smooths a set of
crossings one at a time and merges partial states that pair their open arc
ends (and, for the arrow, their reduced cusp words) alike, so its cost
follows the number of distinct pairings rather than 2^n.  A partial state is
a mate array over the step's boundary positions: slot ``2i`` holds the slot
of position ``i``'s partner and slot ``2i + 1`` the word read towards it,
packed as signed bytes, or as 8-byte ints when a slot or a word could pass
127.  Each step is planned from the ends alone, as one flat tuple, by a
builder that carries the boundary, each end's slot and the stub flags from
step to step and touches only the ends a step opens, retires or moves.  A
state then costs one array copy (its second choice smooths it in place), two
joins per choice, with no word arithmetic in a run without words, a few slot
moves and a truncation; its counts pass to its successors by reference,
under an offset that adds the step's sigma, circles, K_i and L_j.  The
bracket and the arrow smooth every crossing and read the aggregated counts
through ``contract``.  The parity bracket smooths only the even crossings,
without words; the ports of the other crossings (its nodes) hold the first
boundary positions for the whole run, and a join that makes an edge
between two of them splices the reducible bigon it bounds, if any, in
place (``_splice_bigons``), so partial states that reduce alike merge.  It
reads one reduced graph state off each final mate array, whose strands its
closed form first closes (``_close_strands``).  A code keeps one compiled
form (``compiled_form``) with each crossing's parity class and one plan
per smoothed set, so all invariants of a code share one compile, and the
bracket and the arrow one plan.

Reduced cusp words alternate L and R, so an int stands for one: its length,
negated when the word starts with L; 0 is the empty word.  These are the
elements of the infinite dihedral group: the reduced product of ``w1`` and
``w2`` is ``w1 - w2`` when ``w1`` is odd and ``w1 + w2`` otherwise, and a
word read backwards (each side flips) is negated when it is odd.

The tests' independent reference visits the 2^n states one by one:
``trace_state`` is the one per-state walk, and ``CompiledCode.scan`` is
its view, one state per mask with cusp words reduced by
``_linear_reduce`` and ``_cyclic_reduce``.
"""

from __future__ import annotations

from array import array
from functools import cached_property

from .codes import EVEN, KnotoidCode, OPEN, OVER, classify_crossings

DEFAULT_STATE_LIMIT = 24

CIRCLE = "circle"  # the other component kind is "segment"


def compiled_form(code: KnotoidCode) -> CompiledCode:
    """The compiled form of ``code``, built on first use and kept on the code.

    It lives in the code's instance dict, outside its fields, so equality,
    hashing, ``repr`` and pickles never see it, and it holds no reference
    back to the code: it goes when the code goes.  Two threads that ask at
    once may each build one; both are equal and one is kept.
    """
    form = code.__dict__.get("_compiled")
    if form is None:
        form = CompiledCode(code)
        object.__setattr__(code, "_compiled", form)
    return form


class CompiledCode:
    """Array form of a code: crossings, signs, arc succession, the crossing
    parity classes, and the contraction plans built so far."""

    def __init__(self, code: KnotoidCode):
        # One walk over the passages numbers the crossings by first sight:
        # crossing k has label ``labels[k]``, sign ``cross_sign[k]`` and
        # over and under passages ``cross_over[k]`` and ``cross_under[k]``;
        # passage p (in traversal order) belongs to ``pass_crossing[p]``.
        self.components = code.components  # classified on first use
        self.plans: dict[tuple[int, ...], tuple] = {}
        labels, signs, over_of, under_of, pass_crossing, pass_is_over = [], [], [], [], [], []
        seen: dict[str, int] = {}
        for p, (_, _, passage) in enumerate(code.all_passages()):
            k = seen.get(passage.label)
            if k is None:
                k = seen[passage.label] = len(labels)
                labels.append(passage.label)
                signs.append(passage.sign)
                over_of.append(p)
                under_of.append(p)
            over = passage.role == OVER
            (over_of if over else under_of)[k] = p
            pass_crossing.append(k)
            pass_is_over.append(over)
        self.labels, self.cross_sign, self.cross_over, self.cross_under = (
            labels, signs, over_of, under_of
        )
        self.pass_crossing, self.pass_is_over = pass_crossing, pass_is_over
        self.n = len(labels)
        self.P = len(pass_crossing)

        # Arc succession.  succ is read at odd (out) ends, pred at even (in)
        # ends; negative values are stubs.
        self.succ = [0] * (2 * self.P)
        self.pred = [0] * (2 * self.P)
        self.free_circles = 0
        self.open_comps: list[int] = []
        self.first_target: dict[int, int] = {}
        self.head_source: dict[int, int] = {}
        first = 0  # a component's passages are numbered consecutively
        for ci, comp in enumerate(code.components):
            idxs = list(range(first, first + len(comp)))
            first += len(comp)
            if comp.kind == OPEN:
                self.open_comps.append(ci)
                tail, head = -(2 * ci + 1), -(2 * ci + 2)
                if not idxs:
                    self.first_target[ci] = head
                    self.head_source[ci] = tail
                    continue
                self.first_target[ci] = 2 * idxs[0]
                self.head_source[ci] = 2 * idxs[-1] + 1
                self.pred[2 * idxs[0]] = tail
                self.succ[2 * idxs[-1] + 1] = head
                for a, b in zip(idxs, idxs[1:]):
                    self.succ[2 * a + 1] = 2 * b
                    self.pred[2 * b] = 2 * a + 1
            else:
                if not idxs:
                    self.free_circles += 1
                    continue
                for a, b in zip(idxs, idxs[1:] + idxs[:1]):
                    self.succ[2 * a + 1] = 2 * b
                    self.pred[2 * b] = 2 * a + 1

        # Cusp side at a disoriented site, looked up by the entered passage:
        # R when the traversal enters along the over strand of a positive
        # crossing (or the under strand of a negative one), else L.
        self.side_char = [
            "R" if (self.cross_sign[self.pass_crossing[p]] > 0) == self.pass_is_over[p] else "L"
            for p in range(self.P)
        ]

    @cached_property
    def parity(self) -> tuple[str, ...]:
        """Each crossing's ``EVEN``, ``ODD`` or ``LINK`` class, in first-sight order as here."""
        return tuple(info.parity for info in classify_crossings(KnotoidCode(self.components)))

    @cached_property
    def even(self) -> list[int]:
        return [k for k, parity in enumerate(self.parity) if parity == EVEN]

    def glue_for_mask(self, mask: int) -> list[int]:
        """Each end's partner when set bit ``k`` smooths crossing ``k`` disoriented."""
        glue = [0] * (2 * self.P)
        for k in range(self.n):
            ia, ib = 2 * self.cross_over[k], 2 * self.cross_under[k]
            if (mask >> k) & 1:
                joins = ((ia, ib), (ia + 1, ib + 1))
            else:
                joins = ((ia, ib + 1), (ib, ia + 1))
            for x, y in joins:
                glue[x], glue[y] = y, x
        return glue

    def scan(self, want_words: bool):
        """Yield (sigma, components, segment_zigzags, circle_zigzags) per state.

        One state per mask, in increasing order, each traced by
        ``trace_state``.  The zigzag lists hold the reduced cusp count of
        each component that kept cusps (segments linear-reduced, circles
        cyclically reduced); both stay empty when ``want_words`` is false.
        """
        sigma_tab = self.sigma_table()
        for mask in range(1 << self.n):
            segments, circles, free = trace_state(self, self.glue_for_mask(mask), want_words)
            sigma = sum(s[(mask >> k) & 1] for k, s in enumerate(sigma_tab))
            yield (
                sigma,
                len(segments) + len(circles) + free,
                [m for w in segments if (m := len(_linear_reduce(w)))],
                [m for w in circles if (m := len(_cyclic_reduce(w)))],
            )

    def arc_end(self, e: int) -> int:
        """The end (or stub) at the far side of the arc leaving end ``e``."""
        return self.succ[e] if e & 1 else self.pred[e]

    def rotation(self, k: int) -> tuple[int, int, int, int]:
        """The four ends of crossing ``k`` in counterclockwise order, from the
        over strand's in end; ends across the crossing sit two apart."""
        ia, ib = 2 * self.cross_over[k], 2 * self.cross_under[k]
        if self.cross_sign[k] > 0:
            return ia, ib, ia + 1, ib + 1
        return ia, ib + 1, ia + 1, ib

    def contraction_order(self, smooth=None) -> list[int]:
        """The crossings of ``smooth`` (default: all) in greedy order.

        Each step takes the crossing that adds the fewest new boundary
        ends.  Smoothing crossing ``k`` retires those of its ends whose
        arcs lead into the smoothed region and makes the far ends of its
        other arcs (to unsmoothed crossings or stubs) new boundary ends;
        arcs between two ends of ``k`` itself change nothing, and ends of
        crossings outside ``smooth`` are never retired.  The greedy pass is
        run from every first crossing, and the order with the narrowest
        widest boundary (then the least total 2**width) is kept.  Ties go
        to the lowest crossing index, so the order is deterministic.  A
        pass stops once its ``(peak, cost)`` reaches the best so far: both
        only grow, and only a strictly smaller key replaces the best.
        """
        n = self.n
        crossings = list(range(n)) if smooth is None else sorted(smooth)
        smoothed = set(crossings)
        succ, pred, pass_crossing = self.succ, self.pred, self.pass_crossing
        links: list[list[int]] = [[] for _ in range(n)]  # arcs to other smoothed crossings
        start_delta = [0] * n  # boundary change of smoothing k first
        for k in crossings:
            a, b = self.cross_over[k], self.cross_under[k]
            for e in (2 * a, 2 * a + 1, 2 * b, 2 * b + 1):
                far = succ[e] if e & 1 else pred[e]
                far = pass_crossing[far >> 1] if far >= 0 else -1
                if far != k:
                    start_delta[k] += 1
                    if far in smoothed:
                        links[k].append(far)
        # No width passes four ends per smoothed crossing, so the first pass
        # to finish beats this start.
        best, best_peak, best_cost = [], 4 * len(crossings) + 1, 0
        for first in crossings:
            delta = start_delta[:]
            todo = crossings[:]
            order, width, peak, cost = [], 0, 0, 0
            k = first
            while True:
                todo.remove(k)
                order.append(k)
                width += delta[k]
                if width > peak:
                    peak = width
                cost += 1 << width
                if peak > best_peak or peak == best_peak and cost >= best_cost:
                    break  # both only grow, so this start cannot win
                for f in links[k]:
                    delta[f] -= 2  # that arc now leads into the smoothed region
                if not todo:
                    best, best_peak, best_cost = order, peak, cost
                    break
                k = min(todo, key=delta.__getitem__)
        return best

    def contract(self, want_words: bool) -> dict[tuple[int, int, tuple, tuple], int]:
        """State counts keyed by (sigma, components, K indices, L indices).

        Every crossing is smoothed, so the final ``frontier`` holds a
        single pairing (each stub paired with itself).  Counts equal those
        of the per-state reference ``scan`` aggregated the same way.
        """
        [(_, counts)] = self.frontier(want_words)
        return counts

    def frontier(self, want_words: bool, smooth=None):
        """The final frontier of smoothing ``smooth`` (default: all crossings).

        Crossings are smoothed one at a time in ``contraction_order``.  A
        partial state is the pairing of its boundary ends -- unsmoothed
        ends and stubs whose arcs run into the smoothed region -- by
        pending arcs, each with its reduced cusp word, plus its sigma,
        closed circles and K/L indices so far.  Partial states that agree
        on all of these are merged into one count.  A pending arc joining
        two stubs is a finished segment: both stubs then pair with
        themselves.  The ports of crossings outside ``smooth`` (nodes) hold
        the first boundary positions to the end, port ``p`` at position
        ``p``.  A join that makes an edge between two of them runs the bigon
        test, and a reducible bigon is spliced at once; its circles count as
        closed circles, and the spliced nodes' ports pair with themselves.
        The reduced graph does not depend on the splice order, so states
        that reduce alike merge, and no final pairing holds a reducible
        bigon.  Words run only when every crossing is smoothed: no nodes.

        Yields, per final pairing, its mate array over ``boundary(smooth)``,
        undecoded (the stubs of a finished segment and the ports of a
        spliced node pair with themselves), and its counts keyed by (sigma,
        components, K indices, L indices), legs and free circles counted up
        front.  The index tuples are sorted, list each circle ``K_i`` and
        segment ``L_i`` finished with cusps, and stay empty when
        ``want_words`` is false; words are then 0.  A state's monomial is a
        number in the digits of ``_monomial_places``, so a K_i or L_j adds a
        place value as sigma and circles do, and each distinct monomial is
        decoded once per call.  Counts are keyed one pairing at a time, so
        they never sit in memory all at once.  Partial states are mate
        arrays smoothed as ``_plan`` says, word slots only in runs with words.
        """
        n = self.n
        # The frontier maps a packed mate array (bytes, not tuples: it is the
        # engine's peak memory) to an offset and a dict of counts by inner
        # key; inner key plus offset packs (monomial, closed circles,
        # sigma + n).  Every successor takes its predecessor's dict by
        # reference and adds its sigma, circles, K_i and L_j to the offset,
        # so both choices share one dict.  A dict is copied only when a
        # second state merges into its key; only those in ``owned``, made by
        # a merge this step, may be added to in place.
        stride = 2 * n + 1  # sigma + n runs over 0..2n
        span = stride * (2 * n + 1)  # and closed circles over 0..2n
        unit_k = unit_l = (0,)  # a run without words adds no K_i or L_j
        if want_words:
            unit_k, unit_l, radices = _monomial_places(n, len(self.open_comps))
        steps, _, typecode, start, circles, stop = self._plan(smooth)
        frontier: dict[bytes, tuple[int, dict[int, int]]] = {start: (circles * stride, {n: 1})}
        for tail, stub, cut, so, sd, ia, oa, ib, ob, c, moves in steps:
            choices = ((so, ((ia, ob, 0), (ib, oa, 0))), (sd, ((ia, ib, c), (oa, ob, c))))
            merged: dict[bytes, tuple[int, dict[int, int]]] = {}
            owned: set[bytes] = set()
            while frontier:
                key, (offset, inner) = frontier.popitem()
                mates = array(typecode, key + tail)
                m = mates[:]
                for shift, joins in choices:
                    if not want_words:  # no word is ever written: all stay 0
                        for x, y, _ in joins:
                            px, py = m[x], m[y]
                            if px == y:
                                shift += stride
                            elif stub[px] and stub[py]:
                                m[px], m[py] = px, py
                            else:
                                m[px], m[py] = py, px
                                if px < stop > py:  # an edge between two nodes
                                    shift += stride * _splice_bigons(m, stub, stop, px, py)
                        for old, new in moves:
                            m[m[old]] = new
                            m[new] = m[old]
                    else:
                        for x, y, c in joins:
                            px, py = m[x], m[y]
                            if px == y:
                                # Cusps reverse the strand, so a circle's word is
                                # even, alternating and already cyclically reduced.
                                wy = m[y + 1]
                                shift += stride + unit_k[abs(c - wy if c & 1 else c + wy) // 2]
                                continue
                            w = m[x + 1]  # reversed, then times c, then times wy
                            w = -w if w & 1 else w
                            w = w - c if w & 1 else w + c
                            wy = m[y + 1]
                            w = w - wy if w & 1 else w + wy
                            if stub[px] and stub[py]:
                                m[px], m[py] = px, py
                                m[px + 1] = m[py + 1] = 0
                                shift += unit_l[(abs(w) + 1) // 2]
                            else:
                                m[px], m[py] = py, px
                                m[px + 1] = w
                                m[py + 1] = -w if w & 1 else w
                        for old, new in moves:  # kept slots beyond the cut fill retired ones
                            m[m[old]] = new
                            m[new], m[new + 1] = m[old], m[old + 1]
                    del m[cut:]
                    new_key = m.tobytes()
                    m = mates  # the second choice smooths the popped array in place
                    known = merged.get(new_key)
                    if known is None:
                        merged[new_key] = (offset + shift, inner)
                        continue
                    base, counts = known
                    if new_key not in owned:
                        counts = dict(counts)
                        merged[new_key] = (base, counts)
                        owned.add(new_key)
                    delta = offset + shift - base
                    get = counts.get
                    for ikey, count in inner.items():
                        ikey += delta
                        counts[ikey] = get(ikey, 0) + count
            frontier = merged
        decoded = {0: ((), ())}  # each distinct monomial's K and L indices
        fixed = self.free_circles + len(self.open_comps)  # components counted up front
        for key, (offset, inner) in frontier.items():
            counts = {}
            for ikey, count in inner.items():
                mono, rest = divmod(ikey + offset, span)
                monomial = decoded.get(mono)
                if monomial is None:
                    digits, ks, ls = mono, [], []
                    for d, radix in enumerate(radices):
                        digits, e = divmod(digits, radix)
                        (ls if d & 1 else ks).extend([d // 2 + 1] * e)
                    monomial = decoded[mono] = (tuple(ks), tuple(ls))
                circles, sigma = divmod(rest, stride)
                counts[(sigma - n, fixed + circles, *monomial)] = count
            yield array(typecode, key), counts

    def boundary(self, smooth=None) -> list[int]:
        """The ends on the final boundary of ``frontier(_, smooth)``, by position."""
        return self._plan(smooth)[1]

    def _plan(self, smooth):
        """Per step of ``frontier``, what every state's smoothing reads; the
        final boundary; the mate arrays' typecode; the start key, the
        circles its splices closed, and the slot that the node ports lie
        below.  Built once per smoothed set and kept in ``plans``, keyed by
        the sorted set, so a set of every crossing shares the full set's
        plan.

        The boundary starts with the ports of the unsmoothed crossings, port
        ``4 * i + slot`` of the i-th at that position (``rotation`` gives
        the slots), then the far ends of their arcs that are stubs or ends
        of smoothed crossings.  The start key pairs each of those arcs, and
        the reducible bigons among them are spliced in it once.  For the
        full set the start key is empty.  Steps retire only ends of
        smoothed crossings and move only ends beyond the cut, so the ports
        never retire or move.

        A step's extended boundary is the old one, then the ends of the arcs
        the crossing opens.  Its plan is one flat tuple ``(tail, stub, cut,
        sigma_oriented, sigma_disoriented, ia, oa, ib, ob, cusp, moves)``:
        the packed mate slots (and zero words) of those fresh ends, per-slot
        stub flags, the new key's slot count, the crossing's ``sigma_table``
        row, the slots of its over and under in and out ends, the cusp that a
        disoriented site puts on each of its joins (read on the over strand's
        side), and the (old, new) slot moves that fill the retired slots from
        beyond the cut.

        The boundary (``row``), each end's slot and the stub flags carry over
        from step to step, and a step touches only the ends it opens, retires
        or moves.  The tests keep the planner that rebuilt all three at every
        step as the reference.
        """
        key = tuple(range(self.n) if smooth is None else sorted(set(smooth)))
        if key in self.plans:
            return self.plans[key]
        succ, pred = self.succ, self.pred
        cross_over, cross_under = self.cross_over, self.cross_under
        sigma_tab = self.sigma_table()
        cusp = [1 if s == "R" else -1 for s in self.side_char]
        # The ports of the unsmoothed crossings come first, port 4 * i + slot
        # of the i-th at position 4 * i + slot, then the far ends of their
        # arcs (stubs and ends of smoothed crossings), each arc paired in the
        # start key, where words are 0.
        smoothed = set(key)
        row = [e for k in range(self.n) if k not in smoothed for e in self.rotation(k)]
        slot = {e: 2 * i for i, e in enumerate(row)}  # an end's mate slot: twice its position
        stop = 2 * len(row)  # the node ports' slots lie below
        stub = bytearray(stop)  # per slot, 1 when its end is a stub
        start = [0] * stop
        for e in row[:]:
            far = succ[e] if e & 1 else pred[e]
            if far not in slot:
                slot[far] = len(start)
                row.append(far)
                stub += b"\1\1" if far < 0 else b"\0\0"
                start += (slot[e], 0)
            start[slot[e]] = slot[far]
        # Bigons among those arcs are spliced here, once.
        circles = 0
        for s in range(0, stop, 2):
            if start[s] < stop:
                circles += _splice_bigons(start, stub, stop, s, start[s])
        steps = []
        for k in self.contraction_order(key):
            a, b = cross_over[k], cross_under[k]
            ends = (2 * a, 2 * a + 1, 2 * b, 2 * b + 1)
            tail = []
            for e in ends:
                # An end already on the boundary has its arc leading into the
                # smoothed region or to a node port; any other opens its arc,
                # whose far end (a stub, or an end of k or of a crossing
                # smoothed later) is new.
                if e not in slot:
                    far = succ[e] if e & 1 else pred[e]
                    i = 2 * len(row)
                    slot[e], slot[far] = i, i + 2
                    row += (e, far)
                    stub += b"\0\0\1\1" if far < 0 else b"\0\0\0\0"
                    tail += (i + 2, 0, i, 0)
            ia, oa, ib, ob = map(slot.pop, ends)
            # The four retired ends leave; kept ends among the last four
            # positions fill, in order, the retired positions below the cut.
            cut = 2 * len(row) - 8
            retired = sorted((ia, oa, ib, ob))
            moves = tuple(zip([x for x in range(cut, cut + 8, 2) if x not in retired], retired))
            steps.append((tail, bytes(stub), cut, *sigma_tab[k], ia, oa, ib, ob, cusp[a], moves))
            for old, new in moves:
                e = row[new >> 1] = row[old >> 1]
                slot[e] = new
                stub[new] = stub[new + 1] = stub[old]
            del row[cut >> 1 :], stub[cut:]
        # A reduced word on a pending arc has at most two cusps per crossing,
        # so slots (and words) fit signed bytes while both stay below 128.
        widths = [2 * self.n, len(start)] + [len(step[1]) for step in steps]
        typecode = "b" if max(widths) < 128 else "q"
        steps = tuple((array(typecode, tail).tobytes(), *rest) for tail, *rest in steps)
        start = array(typecode, start).tobytes()
        # A copy of the row sheds spare capacity.
        plan = self.plans[key] = (steps, row[:], typecode, start, circles, stop)
        return plan

    def sigma_table(self) -> list[tuple[int, int]]:
        """Per crossing (oriented, disoriented) contributions to #A - #B."""
        return [(1, -1) if s > 0 else (-1, 1) for s in self.cross_sign]


def _monomial_places(n: int, legs: int) -> tuple[tuple[int, ...], ...]:
    """The place values of K_i and L_i in ``frontier``'s packed keys (index 0
    adds 0), above the (circles, sigma) span, and the radix of each digit,
    interleaved K_1, L_1, K_2, ... so that common monomials stay small ints.
    Reduced words total at most two cusps per smoothed crossing, and each
    open leg has one segment, so no digit reaches its radix: K_i's exponent
    is at most n // i, and L_i's at most min(legs, 2n // (2i - 1)).
    """
    units, radices, place = ([0], [0]), [], (2 * n + 1) ** 2
    for i in range(1, n + 1):
        for unit, radix in zip(units, (n // i + 1, min(legs, 2 * n // (2 * i - 1)) + 1)):
            unit.append(place)
            radices.append(radix)
            place *= radix
    return (*map(tuple, units), tuple(radices))


def _splice_bigons(m, stub, stop: int, s: int, t: int) -> int:
    """Splice the reducible bigon of the new edge from node slot ``s`` to
    ``t``, if any, and each one its splices make; return the circles closed.

    Port ``p`` of node ``p >> 2`` sits at slot ``2 * p``, so a node's four
    slots are ``8 * node`` to ``8 * node + 6`` in rotation order, and the
    slot across is ``slot ^ 4``.  An edge bounds a bigon with the edge from
    the slot after one of its ends to the slot before the other, at two
    distinct nodes (``parity_bracket._find_bigon``).  A splice joins the
    outer ends of each straight strand through both nodes.  A strand that
    closes is a circle and one that joins two stubs a finished segment; the
    eight slots of the two nodes then pair with themselves.  Words are 0.
    """
    circles = 0
    edges = [(s, t)]
    while edges:
        s, t = edges.pop()
        if m[s] != t or s >> 3 == t >> 3:  # spliced since, or a curl
            continue
        if (m[s & ~7 | (s + 2) & 7] != t & ~7 | (t + 6) & 7
                and m[t & ~7 | (t + 2) & 7] != s & ~7 | (s + 6) & 7):
            continue
        for x in (s & ~7, s & ~7 | 2, t & ~7, t & ~7 | 2):
            a, b = m[x], m[x ^ 4]
            if a == x ^ 4:
                circles += 1
            elif stub[a] and stub[b]:
                m[a], m[b] = a, b
            else:
                m[a], m[b] = b, a
                if a < stop > b:
                    edges.append((a, b))
            m[x], m[x ^ 4] = x, x ^ 4
    return circles


def _close_strands(m, stop: int) -> int:
    """Close each strand of a final even-set mate array ``m`` in place, as the
    virtual closure does: join its end ports (``slot ^ 4`` is across a node),
    pair its stubs (the slots from ``stop`` on) with themselves and splice
    the new edge.  Return the circles closed less the strands closed."""
    stub = bytes(stop).ljust(len(m), b"\1")
    gained = 0
    for s in range(stop, len(m), 2):
        x = first = m[s]
        if first < stop:  # else a finished segment, or a closed strand's far stub
            while m[x ^ 4] < stop:
                x = m[x ^ 4]
            last, t = x ^ 4, m[x ^ 4]
            m[s], m[t] = s, t
            m[first], m[last] = last, first
            gained += _splice_bigons(m, stub, stop, first, last) - 1
    return gained


def trace_state(compiled: CompiledCode, glue: list[int], want_words: bool):
    """Walk every component of one state: the one per-state walk.

    Returns ``(segment_words, circle_words, free_circles)`` where the word
    lists hold L/R cusp strings in traversal order and ``free_circles``
    counts crossing-free loop components.
    """
    consumed = bytearray(2 * compiled.P)
    succ, pred = compiled.succ, compiled.pred
    side = compiled.side_char
    done_stubs: set[int] = set()

    def run(x: int, stop: int = -1) -> str:
        # Follow the strand from end x until it reaches a stub or is glued
        # back to ``stop``, where a circle closes.
        word: list[str] = []
        while x >= 0:
            g = glue[x]
            consumed[x] = 1
            consumed[g] = 1
            if want_words and (x ^ g) & 1 == 0:
                word.append(side[x >> 1])
            if g == stop:
                break
            x = succ[g] if g & 1 else pred[g]
        done_stubs.add(x)
        return "".join(word)

    segments: list[str] = []
    legs = [(-(2 * ci + 1), compiled.first_target[ci]) for ci in compiled.open_comps]
    legs += [(-(2 * ci + 2), compiled.head_source[ci]) for ci in compiled.open_comps]
    for stub, start in legs:
        if stub not in done_stubs:
            done_stubs.add(stub)
            segments.append(run(start))
    circles: list[str] = []
    for e in range(2 * compiled.P):
        if not consumed[e]:
            # Start mid-circle: depart from e along its arc, stop on return.
            circles.append(run(compiled.arc_end(e), e))
    return segments, circles, compiled.free_circles


def _linear_reduce(word: str) -> str:
    """Delete adjacent equal cusps until none remain (free-product normal form)."""
    stack: list[str] = []
    for ch in word:
        if stack and stack[-1] == ch:
            stack.pop()
        else:
            stack.append(ch)
    return "".join(stack)


def _cyclic_reduce(word: str) -> str:
    """The normal form of a circle's word, read cyclically."""
    w = _linear_reduce(word)
    while len(w) >= 2 and w[0] == w[-1]:
        w = _linear_reduce(w[1:-1])
    return w

