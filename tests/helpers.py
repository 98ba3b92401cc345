"""Shared test utilities: seeded random diagrams and invariant bundles."""

import random
import sys

from knotoids.codes import ComponentCode, KnotoidCode, Passage, validate
from knotoids.affine import affine_index
from knotoids.arrow import normalized_arrow
from knotoids.bracket import normalized_bracket
from knotoids.parity import odd_writhe
from knotoids.parity_bracket import normalized_parity_bracket


def random_code(rng: random.Random, n: int, loops: int = 0) -> KnotoidCode:
    """A uniformly random valid code with n crossings, one open leg."""
    total = 2 * n
    loops = min(loops, max(total - 1, 0))
    slots = list(range(total))
    rng.shuffle(slots)
    arr = [None] * total
    for k in range(n):
        i, j = slots[2 * k], slots[2 * k + 1]
        over_first = rng.random() < 0.5
        sign = rng.choice((1, -1))
        lab = str(k + 1)
        arr[i] = Passage("O" if over_first else "U", lab, sign)
        arr[j] = Passage("U" if over_first else "O", lab, sign)
    if loops == 0:
        code = KnotoidCode((ComponentCode("open", tuple(arr)),))
    else:
        cuts = sorted(rng.sample(range(1, total), loops)) if total > 1 else []
        parts, prev = [], 0
        for c in cuts + [total]:
            parts.append(tuple(arr[prev:c]))
            prev = c
        code = KnotoidCode(
            tuple(
                ComponentCode("open" if i == 0 else "loop", p)
                for i, p in enumerate(parts)
            )
        )
    validate(code)
    return code


def random_multi_code(rng: random.Random, n: int, empty: bool = False) -> KnotoidCode:
    """A random valid code with n crossings cut into up to four components,
    each open or loop at random; ``empty`` adds a crossing-free one."""
    passages = random_code(rng, n).components[0].passages
    pieces = min(rng.randint(0, 3), max(len(passages) - 1, 0))
    cuts = sorted(rng.sample(range(1, len(passages)), pieces))
    bounds = [0] + cuts + [len(passages)]
    comps = [
        ComponentCode(rng.choice(("open", "loop")), passages[i:j])
        for i, j in zip(bounds, bounds[1:])
    ]
    if empty:
        comps.insert(rng.randint(0, len(comps)), ComponentCode(rng.choice(("open", "loop")), ()))
    code = KnotoidCode(tuple(comps))
    validate(code)
    return code


def chord_diagrams(n: int):
    """All pairings of 2n positions, each pair and the pairs in order of first position."""
    def rec(positions):
        if not positions:
            yield []
            return
        first = positions[0]
        for j in range(1, len(positions)):
            rest = positions[1:j] + positions[j + 1:]
            for tail in rec(rest):
                yield [(first, positions[j])] + tail
    yield from rec(tuple(range(2 * n)))


def build(pairs, role_mask: int, sign_mask: int) -> KnotoidCode:
    """The one-leg code whose crossing k sits at ``pairs[k]``, over first when
    bit k of ``role_mask`` is set and positive when bit k of ``sign_mask`` is."""
    slots = [None] * (2 * len(pairs))
    for k, (i, j) in enumerate(pairs):
        over_first = (role_mask >> k) & 1
        sign = 1 if (sign_mask >> k) & 1 else -1
        label = chr(ord("a") + k)
        slots[i] = Passage("O" if over_first else "U", label, sign)
        slots[j] = Passage("U" if over_first else "O", label, sign)
    return KnotoidCode((ComponentCode("open", tuple(slots)),))


def all_codes(n: int):
    """Every one-leg code with n crossings: each chord diagram, role and sign."""
    for pairs in chord_diagrams(n):
        for role_mask in range(1 << n):
            for sign_mask in range(1 << n):
                yield build(pairs, role_mask, sign_mask)


def invariant_suite(code):
    """The move-invariant bundle: odd writhe, f_K, arrow, affine, parity."""
    return (
        odd_writhe(code).value,
        normalized_bracket(code).normalized,
        normalized_arrow(code),
        affine_index(code) if code.is_standard_knotoid() else None,
        normalized_parity_bracket(code),
    )


def relabeled(code: KnotoidCode, rng: random.Random) -> KnotoidCode:
    """The same diagram with crossing labels renamed at random."""
    labels = sorted({p.label for _, _, p in code.all_passages()})
    shuffled = labels[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(labels, (f"x{s}" for s in shuffled)))
    comps = tuple(
        ComponentCode(
            c.kind,
            tuple(Passage(p.role, mapping[p.label], p.sign) for p in c.passages),
        )
        for c in code.components
    )
    return KnotoidCode(comps)


def count_calls(monkeypatch, calls: list, original) -> None:
    """Append the name of ``original`` to ``calls`` on each of its calls,
    wherever a knotoids module binds it."""

    def wrapper(*args, **kwargs):
        calls.append(original.__name__)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "knotoids":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
