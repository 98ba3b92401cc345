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
follows the number of distinct pairings rather than 2^n.  The bracket and
the arrow polynomial smooth every crossing and read the aggregated counts
through ``contract``; the parity bracket smooths only the even crossings,
so the ports of the other crossings stay boundary ends to the end, and it
reads one graph state per final pairing.  ``CompiledCode.scan``, which
walks all 2^n states in Gray-code order, and ``resolve``/``enumerate_states``
remain as independent references for the tests.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain

from .codes import KnotoidCode, OPEN, OVER, label_order, occurrences
from .errors import IncompleteChoice, LimitExceeded

ORIENTED = "oriented"
DISORIENTED = "disoriented"

DEFAULT_STATE_LIMIT = 24

SEGMENT = "segment"
CIRCLE = "circle"


class CompiledCode:
    """Array form of a code: crossings, arc succession and glue patches."""

    def __init__(self, code: KnotoidCode):
        self.labels = label_order(code)
        self.index_of = {lab: k for k, lab in enumerate(self.labels)}
        self.n = len(self.labels)

        flat = []  # (crossing index, is_over, sign)
        global_index: dict[tuple[int, int], int] = {}
        for ci, pi, passage in code.all_passages():
            global_index[(ci, pi)] = len(flat)
            flat.append((self.index_of[passage.label], passage.role == OVER, passage.sign))
        self.P = len(flat)
        self.pass_crossing = [f[0] for f in flat]
        self.pass_is_over = [f[1] for f in flat]

        occ = occurrences(code)
        self.cross_sign = [0] * self.n
        self.cross_over = [0] * self.n
        self.cross_under = [0] * self.n
        for lab, places in occ.items():
            k = self.index_of[lab]
            for (ci, pi) in places:
                p = global_index[(ci, pi)]
                if self.pass_is_over[p]:
                    self.cross_over[k] = p
                else:
                    self.cross_under[k] = p
                self.cross_sign[k] = flat[p][2]

        # Arc succession.  succ is read at odd (out) ends, pred at even (in)
        # ends; negative values are stubs.
        self.succ = [0] * (2 * self.P)
        self.pred = [0] * (2 * self.P)
        self.free_circles = 0
        self.open_comps: list[int] = []
        self.first_target: dict[int, int] = {}
        self.head_source: dict[int, int] = {}
        for ci, comp in enumerate(code.components):
            idxs = [global_index[(ci, pi)] for pi in range(len(comp.passages))]
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

        # Glue patches per crossing: (end, partner) assignments.
        self.patch_oriented = []
        self.patch_disoriented = []
        for k in range(self.n):
            a, b = self.cross_over[k], self.cross_under[k]
            ia, oa, ib, ob = 2 * a, 2 * a + 1, 2 * b, 2 * b + 1
            self.patch_oriented.append(((ia, ob), (ob, ia), (ib, oa), (oa, ib)))
            self.patch_disoriented.append(((ia, ib), (ib, ia), (oa, ob), (ob, oa)))
        # Cusp side at a disoriented site, looked up by the entered passage:
        # R when the traversal enters along the over strand of a positive
        # crossing (or the under strand of a negative one), else L.
        self.side_char = [
            "R" if (self.cross_sign[self.pass_crossing[p]] > 0) == self.pass_is_over[p] else "L"
            for p in range(self.P)
        ]

    def glue_for_mask(self, mask: int) -> list[int]:
        glue = [0] * (2 * self.P)
        for k in range(self.n):
            patch = self.patch_disoriented[k] if (mask >> k) & 1 else self.patch_oriented[k]
            for end, partner in patch:
                glue[end] = partner
        return glue

    def scan(self, want_words: bool):
        """Yield (sigma, components, segment_zigzags, circle_zigzags) per state.

        States are visited in Gray-code order so each step repatches a
        single crossing.  The zigzag lists hold the reduced cusp count of
        each component that kept cusps (segments linear-reduced, circles
        cyclically reduced); both stay empty when ``want_words`` is false.
        """
        n, P = self.n, self.P
        glue = self.glue_for_mask(0)
        sigma_tab = self.sigma_table()
        sigma = sum(s[0] for s in sigma_tab)
        succ, pred = self.succ, self.pred
        side = self.side_char
        zero = bytes(2 * P)
        consumed = bytearray(2 * P)
        n_stub = 2 * (max(self.open_comps) + 1) if self.open_comps else 0
        stub_zero = bytes(n_stub)
        stub_done = bytearray(n_stub)
        free = self.free_circles
        open_comps = self.open_comps

        mask_steps = [0]
        mask = 0
        for i in range(1, 1 << n):
            k = (i & -i).bit_length() - 1
            mask ^= 1 << k
            mask_steps.append((k + 1) if (mask >> k) & 1 else -(k + 1))

        for step in mask_steps:
            if step:
                k = abs(step) - 1
                disoriented = step > 0
                patch = self.patch_disoriented[k] if disoriented else self.patch_oriented[k]
                for end, partner in patch:
                    glue[end] = partner
                a, b = sigma_tab[k]
                sigma += (b - a) if disoriented else (a - b)
            consumed[:] = zero
            stub_done[:] = stub_zero
            segments: list[int] = []
            circles: list[int] = []
            comps = free

            def run(x, stack):
                while x >= 0:
                    g = glue[x]
                    consumed[x] = 1
                    consumed[g] = 1
                    if want_words and not (x ^ g) & 1:
                        s = side[x >> 1]
                        if stack and stack[-1] == s:
                            stack.pop()
                        else:
                            stack.append(s)
                    x = succ[g] if g & 1 else pred[g]
                stub_done[-x - 1] = 1

            for ci in open_comps:
                if stub_done[2 * ci]:
                    continue
                stub_done[2 * ci] = 1
                stack: list[str] = []
                run(self.first_target[ci], stack)
                comps += 1
                if stack:
                    segments.append(len(stack))
            for ci in open_comps:
                if stub_done[2 * ci + 1]:
                    continue
                stub_done[2 * ci + 1] = 1
                stack = []
                run(self.head_source[ci], stack)
                comps += 1
                if stack:
                    segments.append(len(stack))
            for e in range(2 * P):
                if consumed[e]:
                    continue
                stack = []
                x = succ[e] if e & 1 else pred[e]
                while True:
                    g = glue[x]
                    consumed[x] = 1
                    consumed[g] = 1
                    if want_words and not (x ^ g) & 1:
                        s = side[x >> 1]
                        if stack and stack[-1] == s:
                            stack.pop()
                        else:
                            stack.append(s)
                    if g == e:
                        break
                    x = succ[g] if g & 1 else pred[g]
                comps += 1
                if stack:
                    while len(stack) >= 2 and stack[0] == stack[-1]:
                        inner = stack[1:-1]
                        stack = []
                        for s in inner:
                            if stack and stack[-1] == s:
                                stack.pop()
                            else:
                                stack.append(s)
                    if stack:
                        circles.append(len(stack))
            yield sigma, comps, segments, circles

    def arc_end(self, e: int) -> int:
        """The end (or stub) at the far side of the arc leaving end ``e``."""
        return self.succ[e] if e & 1 else self.pred[e]

    def crossing_of(self, e: int) -> int:
        """Crossing index of a passage end, -1 for a stub."""
        return self.pass_crossing[e >> 1] if e >= 0 else -1

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
        to the lowest crossing index, so the order is deterministic.
        """
        n = self.n
        crossings = list(range(n)) if smooth is None else sorted(smooth)
        links: list[list[int]] = [[] for _ in range(n)]  # arcs to other smoothed crossings
        start_delta = [0] * n  # boundary change of smoothing k first
        for k in crossings:
            a, b = self.cross_over[k], self.cross_under[k]
            for e in (2 * a, 2 * a + 1, 2 * b, 2 * b + 1):
                far = self.crossing_of(self.arc_end(e))
                if far != k:
                    start_delta[k] += 1
                    if far in crossings:
                        links[k].append(far)
        best: tuple[tuple[int, int], list[int]] | None = None
        for first in crossings:
            delta = start_delta[:]
            todo = crossings[:]
            order, width, peak, cost = [], 0, 0, 0
            k = first
            while True:
                todo.remove(k)
                order.append(k)
                width += delta[k]
                peak = max(peak, width)
                cost += 1 << width
                for f in links[k]:
                    delta[f] -= 2  # that arc now leads into the smoothed region
                if not todo:
                    break
                k = min(todo, key=delta.__getitem__)
            if best is None or (peak, cost) < best[0]:
                best = ((peak, cost), order)
        return best[1] if best else []

    def contract(self, want_words: bool) -> dict[tuple[int, int, tuple, tuple], int]:
        """State counts keyed by (sigma, components, K indices, L indices).

        Every crossing is smoothed, so the final ``frontier`` holds a
        single pairing (each stub paired with itself); the free circles
        and one segment per open component join its closed circles as
        components.  Counts equal those of ``scan`` aggregated the same
        way.
        """
        [(_, counts)] = self.frontier(want_words, fixed=self.free_circles + len(self.open_comps))
        return counts

    def frontier(self, want_words: bool, smooth=None, fixed: int = 0):
        """The final frontier of smoothing ``smooth`` (default: all crossings).

        Crossings are smoothed one at a time in ``contraction_order``.  A
        partial state is the pairing of its boundary ends -- unsmoothed
        ends and stubs whose arcs run into the smoothed region -- by
        pending arcs, each with its reduced cusp word, plus its sigma,
        closed circles and K/L indices so far.  Partial states that agree
        on all of these are merged into one count.  A pending arc joining
        two stubs is a finished segment: both stubs then pair with
        themselves.  The ends of crossings outside ``smooth`` are never
        retired, so they stay on the boundary to the end.

        Yields, per final pairing -- a dict from each boundary end to
        (partner, word) -- the counts keyed by (sigma, ``fixed`` + closed
        circles, K indices, L indices).  The index tuples are sorted, list
        each circle ``K_i`` and segment ``L_i`` finished with cusps, and
        stay empty when ``want_words`` is false; words are then 0.
        Pairings are decoded one at a time, so their counts never sit in
        memory all at once.
        """
        n = self.n
        # The frontier maps a packed pairing -- each boundary end's
        # (partner, word), as signed bytes while every end fits, else as
        # 8-byte ints -- to counts by inner key, which packs (monomial id,
        # closed circles, sigma + n) into one int.  The frontier is the
        # engine's peak memory and arrow states rarely merge, so keys are
        # bytes rather than tuples (the interpreter keeps thousands of
        # freed tuples for reuse), and counts reached from one predecessor
        # stay a flat [key, count, ...] list, far smaller than a dict.
        stride = 2 * n + 1  # sigma + n runs over 0..2n
        span = stride * (2 * n + 1)  # and closed circles over 0..2n
        stubs = 2 * max(self.open_comps, default=-1) + 2
        typecode = "b" if max(2 * self.P, stubs) < 128 else "q"
        monomials: list[tuple[tuple, tuple]] = [((), ())]
        monomial_ids = {((), ()): 0}
        grown: dict[tuple[int, tuple, tuple], int] = {}

        def grow(mono: int, ks: tuple, ls: tuple) -> int:
            step = (mono, ks, ls)
            if step not in grown:
                old_ks, old_ls = monomials[mono]
                full = (tuple(sorted(old_ks + ks)), tuple(sorted(old_ls + ls)))
                if full not in monomial_ids:
                    monomial_ids[full] = len(monomials)
                    monomials.append(full)
                grown[step] = monomial_ids[full]
            return grown[step]

        sigma_tab = self.sigma_table()
        cusp = [1 if s == "R" else -1 for s in self.side_char]
        done = [False] * n
        boundary: list[int] = []
        frontier: dict[bytes, list[int] | dict[int, int]] = {b"": [n, 1]}
        for k in self.contraction_order(smooth):
            a, b = self.cross_over[k], self.cross_under[k]
            ia, oa, ib, ob = 2 * a, 2 * a + 1, 2 * b, 2 * b + 1
            ends = (ia, oa, ib, ob)
            fresh = {}  # arcs of k that do not yet lead into the smoothed region
            for e in ends:
                far = self.arc_end(e)
                if far < 0 or not done[self.crossing_of(far)]:
                    fresh[e] = (far, 0)
                    fresh[far] = (e, 0)
            done[k] = True
            new_boundary = sorted(
                {e for e in boundary if e not in ends} | {e for e in fresh if e not in ends}
            )
            # A disoriented site puts one cusp on each of its two joins,
            # read on the side of passage a when entering through ia or oa.
            c = cusp[a] if want_words else 0
            choices = (
                (sigma_tab[k][0], ((ia, ob, 0), (ib, oa, 0))),
                (sigma_tab[k][1], ((ia, ib, c), (oa, ob, c))),
            )
            merged: dict[bytes, list[int] | dict[int, int]] = {}
            while frontier:
                key, inner = frontier.popitem()
                pairs = _items(inner)
                arcs = array(typecode, key)
                base = dict(zip(boundary, zip(arcs[::2], arcs[1::2])))
                base.update(fresh)
                for sigma, joins in choices:
                    new_key, circles, ks, ls = self._smooth(base, joins, new_boundary, typecode)
                    shift = sigma + circles * stride
                    if ks or ls:
                        moved = [
                            (grow(ikey // span, ks, ls) * span + ikey % span + shift, count)
                            for ikey, count in pairs
                        ]
                    else:
                        moved = [(ikey + shift, count) for ikey, count in pairs]
                    known = merged.get(new_key)
                    if known is None:
                        merged[new_key] = list(chain.from_iterable(moved))
                        continue
                    if type(known) is list:
                        known = merged[new_key] = dict(zip(known[::2], known[1::2]))
                    for ikey, count in moved:
                        known[ikey] = known.get(ikey, 0) + count
            frontier = merged
            boundary = new_boundary
        for key, inner in frontier.items():
            counts = {}
            for ikey, count in _items(inner):
                mono, rest = divmod(ikey, span)
                circles, sigma = divmod(rest, stride)
                counts[(sigma - n, fixed + circles, *monomials[mono])] = count
            arcs = array(typecode, key)
            yield dict(zip(boundary, zip(arcs[::2], arcs[1::2]))), counts

    @staticmethod
    def _smooth(match: dict, joins, boundary: list[int], typecode: str):
        """Apply one smoothing's two joins to a pairing of boundary ends.

        ``match`` maps each end to (partner, cusp word read from the end
        to its partner).
        Returns the new packed pairing, the circles closed, and the K and
        L indices of the circles and segments finished with cusps.
        """
        match = dict(match)
        circles = 0
        ks: list[int] = []
        ls: list[int] = []
        for x, y, c in joins:
            px, wx = match.pop(x)
            py, wy = match.pop(y)
            if px == y:
                # Every cusp reverses the strand, so a circle keeps an even
                # number: its word alternates with unequal ends and is
                # already cyclically reduced.
                circles += 1
                m = abs(_concat(c, wy))
                if m:
                    ks.append(m // 2)
                continue
            w = _concat(_concat(_reverse(wx), c), wy) if wx or c or wy else 0
            if px < 0 and py < 0:
                match[px] = (px, 0)
                match[py] = (py, 0)
                if w:
                    ls.append((abs(w) + 1) // 2)
            else:
                match[px] = (py, w)
                match[py] = (px, _reverse(w))
        packed = array(typecode, chain.from_iterable(map(match.get, boundary)))
        return packed.tobytes(), circles, tuple(ks), tuple(ls)

    def sigma_table(self) -> list[tuple[int, int]]:
        """Per crossing (oriented, disoriented) contributions to #A - #B."""
        table = []
        for k in range(self.n):
            if self.cross_sign[k] > 0:
                table.append((1, -1))
            else:
                table.append((-1, 1))
        return table


@dataclass(frozen=True)
class Cusp:
    """One cusp on a state component: side L or R in the traversal frame."""

    side: str


@dataclass(frozen=True)
class StateComponent:
    kind: str  # segment | circle
    cusps: tuple[Cusp, ...]


@dataclass(frozen=True)
class StateResolution:
    components: tuple[StateComponent, ...]

    @property
    def count(self) -> int:
        return len(self.components)

    def segments(self) -> tuple[StateComponent, ...]:
        return tuple(c for c in self.components if c.kind == SEGMENT)


@dataclass(frozen=True)
class SmoothingChoice:
    """A total assignment of oriented/disoriented to every crossing label."""

    choices: tuple[tuple[str, str], ...]  # (label, ORIENTED|DISORIENTED)

    def as_dict(self) -> dict[str, str]:
        return dict(self.choices)


def ab_label(sign: int, choice: str) -> str:
    """The A/B smoothing label implied by a crossing sign and a choice."""
    if sign > 0:
        return "A" if choice == ORIENTED else "B"
    return "B" if choice == ORIENTED else "A"


def resolve(code: KnotoidCode, choice: SmoothingChoice) -> StateResolution:
    """Apply a smoothing assignment and traverse the resulting components."""
    compiled = CompiledCode(code)
    chosen = choice.as_dict()
    missing = [lab for lab in compiled.labels if lab not in chosen]
    if missing:
        raise IncompleteChoice(f"no smoothing chosen for {missing[0]!r}")
    mask = 0
    for k, lab in enumerate(compiled.labels):
        if chosen[lab] == DISORIENTED:
            mask |= 1 << k
        elif chosen[lab] != ORIENTED:
            raise IncompleteChoice(f"bad smoothing {chosen[lab]!r} for {lab!r}")
    segments, circles, extra = trace_state(compiled, compiled.glue_for_mask(mask), True)
    comps = [StateComponent(SEGMENT, tuple(Cusp(s) for s in word)) for word in segments]
    comps.extend(StateComponent(CIRCLE, tuple(Cusp(s) for s in word)) for word in circles)
    comps.extend(StateComponent(CIRCLE, ()) for _ in range(extra))
    return StateResolution(tuple(comps))


def trace_state(compiled: CompiledCode, glue: list[int], want_words: bool):
    """Walk every component of one state.

    Returns ``(segment_words, circle_words, free_circles)`` where the word
    lists hold L/R cusp strings in traversal order and ``free_circles``
    counts crossing-free loop components.
    """
    consumed = bytearray(2 * compiled.P)
    succ, pred = compiled.succ, compiled.pred
    side = compiled.side_char
    segments: list[str] = []
    circles: list[str] = []
    done_stubs: set[int] = set()

    def run(arrival: int) -> str:
        word: list[str] = []
        x = arrival
        while x >= 0:
            g = glue[x]
            consumed[x] = 1
            consumed[g] = 1
            if want_words and (x ^ g) & 1 == 0:
                word.append(side[x >> 1])
            x = succ[g] if g & 1 else pred[g]
        done_stubs.add(x)
        return "".join(word)

    for ci in compiled.open_comps:
        tail = -(2 * ci + 1)
        if tail in done_stubs:
            continue
        done_stubs.add(tail)
        segments.append(run(compiled.first_target[ci]))
    for ci in compiled.open_comps:
        head = -(2 * ci + 2)
        if head in done_stubs:
            continue
        done_stubs.add(head)
        src = compiled.head_source[ci]
        if src < 0:
            done_stubs.add(src)
            segments.append("")
            continue
        segments.append(run(src))

    for e in range(2 * compiled.P):
        if consumed[e]:
            continue
        # Start mid-circle: depart from e along its arc and stop on return.
        word: list[str] = []
        x = succ[e] if e & 1 else pred[e]
        while True:
            g = glue[x]
            consumed[x] = 1
            consumed[g] = 1
            if want_words and (x ^ g) & 1 == 0:
                word.append(side[x >> 1])
            if g == e:
                break
            x = succ[g] if g & 1 else pred[g]
        circles.append("".join(word))

    return segments, circles, compiled.free_circles


def enumerate_states(code: KnotoidCode, state_limit: int = DEFAULT_STATE_LIMIT):
    """Yield every (SmoothingChoice, StateResolution) pair, mask order."""
    compiled = CompiledCode(code)
    if compiled.n > state_limit:
        raise LimitExceeded(
            f"{compiled.n} crossings exceed the state limit {state_limit}"
        )
    for mask in range(1 << compiled.n):
        choice = SmoothingChoice(
            tuple(
                (lab, DISORIENTED if (mask >> k) & 1 else ORIENTED)
                for k, lab in enumerate(compiled.labels)
            )
        )
        segments, circles, extra = trace_state(compiled, compiled.glue_for_mask(mask), True)
        comps = [StateComponent(SEGMENT, tuple(Cusp(s) for s in w)) for w in segments]
        comps.extend(StateComponent(CIRCLE, tuple(Cusp(s) for s in w)) for w in circles)
        comps.extend(StateComponent(CIRCLE, ()) for _ in range(extra))
        yield choice, StateResolution(tuple(comps))


def _items(inner):
    """The (inner key, count) pairs of a frontier value: a dict or a flat list."""
    return inner.items() if type(inner) is dict else list(zip(inner[::2], inner[1::2]))


# Reduced cusp words alternate L and R, so an int stands for one: its
# length, negated when the word starts with L; 0 is the empty word.


def _reverse(w: int) -> int:
    """Read backwards (each side flips): the first side flips iff the length is odd."""
    return -w if w & 1 else w


def _concat(w1: int, w2: int) -> int:
    """Reduced product: equal touching sides cancel pairwise, min(m1, m2) times."""
    if not w1 or not w2:
        return w1 or w2
    m1, m2 = abs(w1), abs(w2)
    last1 = w1 if m1 & 1 else -w1  # sign of w1's last letter
    if (last1 > 0) != (w2 > 0):
        return m1 + m2 if w1 > 0 else -(m1 + m2)
    if m1 > m2:
        return m1 - m2 if w1 > 0 else m2 - m1
    if m2 > m1:
        first = w2 if m1 % 2 == 0 else -w2  # sign of w2's first surviving letter
        return m2 - m1 if first > 0 else m1 - m2
    return 0
