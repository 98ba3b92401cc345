"""Score a fixed list of one-line source mutations against the fast tests.

    python3 tools/mutants.py

Each mutant replaces one line of ``src/knotoids`` (found by its exact text,
which must occur once) in a temporary copy of ``src/``, ``tests/`` and
``pyproject.toml``, then runs

    python3 -m pytest -x -q -p no:cacheprovider tests/test_contraction.py \\
        tests/test_exhaustive.py tests/test_arrow.py tests/test_moves.py \\
        tests/test_parity_contraction.py tests/test_parity_bracket.py

in that copy.  A mutant is killed when the tests fail (or error) or run
past five times the unmutated run's time (a mutant can make a loop never
end), and survives when they pass.  A mutant listed with the argument why
it computes what the unmutated line does is equivalent: it is run and
reported, but its survival fails nothing.  The unmutated copy runs first
and must pass.  Exits 1 when a mutant that is not equivalent survives.
Standard library only; not part of the tier-1 suite (about 35 s a mutant).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = (
    "tests/test_contraction.py", "tests/test_exhaustive.py", "tests/test_arrow.py",
    "tests/test_moves.py", "tests/test_parity_contraction.py", "tests/test_parity_bracket.py",
)

# (name, file under src/knotoids, line text, mutated text[, why it is
# equivalent]); each text is stripped of its indentation, which the
# mutation keeps.
MUTANTS = (
    ("K radix without its +1", "smoothing.py",
     "for unit, radix in zip(units, (n // i + 1, min(legs, 2 * n // (2 * i - 1)) + 1)):",
     "for unit, radix in zip(units, (n // i, min(legs, 2 * n // (2 * i - 1)) + 1)):"),
    ("L radix without its +1", "smoothing.py",
     "for unit, radix in zip(units, (n // i + 1, min(legs, 2 * n // (2 * i - 1)) + 1)):",
     "for unit, radix in zip(units, (n // i + 1, min(legs, 2 * n // (2 * i - 1)))):"),
    ("K and L places swapped", "smoothing.py",
     "return (*map(tuple, units), tuple(radices))",
     "return (*map(tuple, units[::-1]), tuple(radices))"),
    ("circle adds K_|w| for K_|w|/2", "smoothing.py",
     "shift += stride + unit_k[abs(c - wy if c & 1 else c + wy) // 2]",
     "shift += stride + unit_k[abs(c - wy if c & 1 else c + wy)]"),
    ("segment unit added on a circle", "smoothing.py",
     "shift += stride + unit_k[abs(c - wy if c & 1 else c + wy) // 2]",
     "shift += stride + unit_l[abs(c - wy if c & 1 else c + wy) // 2]"),
    ("segment adds L_|w|/2 for L_(|w|+1)/2", "smoothing.py",
     "shift += unit_l[(abs(w) + 1) // 2]",
     "shift += unit_l[abs(w) // 2]"),
    ("digits decoded high place first", "smoothing.py",
     "for d, radix in enumerate(radices):",
     "for d, radix in enumerate(radices[::-1]):"),
    ("K digits decoded as L", "smoothing.py",
     "(ls if d & 1 else ks).extend([d // 2 + 1] * e)",
     "(ks if d & 1 else ls).extend([d // 2 + 1] * e)"),
    ("merge delta flipped", "smoothing.py",
     "delta = offset + shift - base",
     "delta = base - offset - shift"),
    ("merged dict never copied", "smoothing.py",
     "if new_key not in owned:",
     "if False:"),
    ("stub test on one side only, without words", "smoothing.py",
     "elif stub[px] and stub[py]:",
     "elif stub[px]:"),
    ("stub test on one side only, with words", "smoothing.py",
     "if stub[px] and stub[py]:",
     "if stub[px]:"),
    ("circle counted as sigma", "smoothing.py",
     "shift += stride",
     "shift += 1"),
    ("word not reversed", "smoothing.py",
     "w = -w if w & 1 else w",
     "w = w"),
    ("moved slot drops its word", "smoothing.py",
     "m[new], m[new + 1] = m[old], m[old + 1]",
     "m[new], m[new + 1] = m[old], 0"),
    ("cusps read on the under strand's side", "smoothing.py",
     "steps.append((tail, bytes(stub), cut, *sigma_tab[k], ia, oa, ib, ob, cusp[a], moves))",
     "steps.append((tail, bytes(stub), cut, *sigma_tab[k], ia, oa, ib, ob, cusp[b], moves))"),
    ("bigon test without the distinct-node guard", "smoothing.py",
     "if m[s] != t or s >> 3 == t >> 3:  # spliced since, or a curl",
     "if m[s] != t:  # spliced since"),
    ("bigon test reads the slot after at both nodes", "smoothing.py",
     "if (m[s & ~7 | (s + 2) & 7] != t & ~7 | (t + 6) & 7",
     "if (m[s & ~7 | (s + 2) & 7] != t & ~7 | (t + 2) & 7"),
    ("bigon test's other orientation reads the slot before at both nodes", "smoothing.py",
     "and m[t & ~7 | (t + 2) & 7] != s & ~7 | (s + 6) & 7):",
     "and m[t & ~7 | (t + 6) & 7] != s & ~7 | (s + 6) & 7):"),
    ("strand closed by a splice adds no circle", "smoothing.py",
     "circles += 1",
     "circles += 0"),
    ("splice finishes a segment at one stub", "smoothing.py",
     "elif stub[a] and stub[b]:",
     "elif stub[a]:"),
    ("splice never finishes a segment", "smoothing.py",
     "elif stub[a] and stub[b]:",
     "elif False:"),
    ("closed strand's stubs not paired with themselves", "smoothing.py",
     "m[s], m[t] = s, t",
     "pass"),
    ("closed strand's end port not taken across its node", "smoothing.py",
     "last, t = x ^ 4, m[x ^ 4]",
     "last, t = x, m[x ^ 4]"),
    ("closed strand's new edge not spliced", "smoothing.py",
     "gained += _splice_bigons(m, stub, stop, first, last) - 1",
     "gained -= 1"),
    ("closed strand not subtracted", "smoothing.py",
     "gained += _splice_bigons(m, stub, stop, first, last) - 1",
     "gained += _splice_bigons(m, stub, stop, first, last)"),
    ("trace's revisit offset read clockwise", "parity_bracket.py",
     "yield rank[node] + ((q - ref[node]) & 3)",
     "yield rank[node] + ((ref[node] - q) & 3)"),
    ("stub-free component's ports left uncovered", "parity_bracket.py",
     "best = list(_trace(succ, ranks, top, starts[0], covered))",
     "best = list(_trace(succ, ranks, top, starts[0], bytearray(ports)))"),
    ("covered nodes rooted again", "parity_bracket.py",
     "if covered[root] or succ[root] == root:",
     "if succ[root] == root:"),
    ("stubs of other components taken as starts", "parity_bracket.py",
     "if covered[p]:",
     "if True:"),
    ("a component's other stubs start components of their own", "parity_bracket.py",
     "stubs = [p for p in stubs if not covered[p]]",
     "stubs = stubs[1:]"),
    ("signature starts only at the root's node", "parity_bracket.py",
     "starts += range(q & ~3, (q & ~3) + 4)",
     "pass"),
    ("each stub counted as a leg", "parity_bracket.py",
     "extra += len(encodings) - succ.count(-1) // 2",
     "extra += len(encodings) - succ.count(-1)"),
    ("signature key of a start that leaves above not reversed", "parity_bracket.py",
     "key = (0, m, tok) if tok < ranks[m] else (1, -m, tok)",
     "key = (0, m, tok) if tok < ranks[m] else (1, m, tok)"),
    ("token table ranks ids as ints", "parity_bracket.py",
     "by_string = sorted(range(n), key=str)",
     "by_string = sorted(range(n))"),
    ("d-power rows without their sign", "laurent.py",
     "sign = -1 if j & 1 else 1  # d**j = (-1)**j * sum of C(j, i) A**(2j - 4i)",
     "sign = 1"),
    ("open leg's pairs wrap around", "moves.py",
     "return k if comp.kind == LOOP and k > 1 else max(k - 1, 0)",
     "return k if k > 1 else max(k - 1, 0)"),
    ("site check admits negative positions", "moves.py",
     "if not 0 <= pos < _pair_count(comp):",
     "if not pos < _pair_count(comp):"),
    ("component check admits negative indices", "moves.py",
     "if not 0 <= ci < len(code.components):",
     "if not ci < len(code.components):"),
    ("deletion or slide applied unlisted", "moves.py",
     "if move not in listed:",
     "if False:"),
    ("R2 deletion without its sign test", "moves.py",
     "elif p.role == q.role == OVER and p.sign == -q.sign:",
     "elif p.role == q.role == OVER:"),
    ("R2 insertion sites in the other order", "moves.py",
     "inserts = [((c2, i2), pair2), ((c1, i1), pair1)]",
     "inserts = [((c1, i1), pair1), ((c2, i2), pair2)]"),
    ("antiparallel under pair kept in order", "moves.py",
     "under_pair = under_pair[::-1]",
     "under_pair = under_pair"),
    ("slide leaves its pairs in place", "moves.py",
     "passages[pos], passages[nxt] = (q, p) if move.kind == R3_SLIDE else (None, None)",
     "passages[pos], passages[nxt] = (p, q) if move.kind == R3_SLIDE else (None, None)"),
    ("R3 middle pair's orientation not checked", "moves.py",
     "if (r if x_first else s).role != UNDER:",
     "if False:"),
    ("R3 first sign relation negated", "moves.py",
     "if (x.sign * y.sign == (1 if x_first == (u.label == y.label) else -1)",
     "if (x.sign * y.sign != (1 if x_first == (u.label == y.label) else -1)"),
    ("R3 second sign relation negated", "moves.py",
     "and y.sign * z.sign == (1 if x_first == (p.label == x.label) else -1)):",
     "and y.sign * z.sign != (1 if x_first == (p.label == x.label) else -1)):"),
    ("R3 bottom pair's order read on z", "moves.py",
     "if (x.sign * y.sign == (1 if x_first == (u.label == y.label) else -1)",
     "if (x.sign * y.sign == (1 if x_first == (u.label == z.label) else -1)"),
    ("loop insertion admitted after its last passage", "moves.py",
     "if not 0 <= pos < _insert_slots(_component(code, ci)):",
     "if not 0 <= pos <= len(_component(code, ci).passages):"),
    ("R2 insertion sites admitted in reverse component order", "moves.py",
     "if (c1, i1) > (c2, i2):",
     "if c1 == c2 and i1 > i2:"),
    ("inverse R2 insertion's sites left unordered", "moves.py",
     "first, second = sorted(((c1, i1), (c2, i2)))",
     "first, second = (c1, i1), (c2, i2)"),
    ("insert flags not checked", "moves.py",
     "if flags not in _INSERT_FLAGS.get(move.kind, [()]) or not all(",
     "if not all("),
    ("R1 insert sign flipped in move_at", "moves.py",
     "return MoveSpec(R1_INSERT, (*sites[site], r < 2, -1 if r & 1 else 1))",
     "return MoveSpec(R1_INSERT, (*sites[site], r < 2, 1 if r & 1 else -1))"),
    ("R2 insert parallel bit read from the sign bit", "moves.py",
     "b, over_site, parallel = a + 1 + b, 1 + (k >> 2), bool(k & 2)",
     "b, over_site, parallel = a + 1 + b, 1 + (k >> 2), bool(k & 1)"),
)


def mutate(tree: Path, source: str, line: str, mutated: str) -> None:
    path = tree / "src" / "knotoids" / source
    lines = path.read_text().splitlines(keepends=True)
    hits = [i for i, text in enumerate(lines) if text.strip() == line]
    if len(hits) != 1:
        raise SystemExit(f"{source}: {len(hits)} lines read {line!r}, not 1")
    text = lines[hits[0]]
    lines[hits[0]] = text[: len(text) - len(text.lstrip())] + mutated + "\n"
    path.write_text("".join(lines))


def killed(mutant, timeout=None) -> bool:
    """Whether the tests fail, or outrun ``timeout`` seconds, on a copy of
    the tree with ``mutant`` applied."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        if mutant is not None:
            mutate(tree, *mutant[1:4])
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
        try:
            run = subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return True
        return run.returncode != 0


def main() -> int:
    start = time.monotonic()
    if killed(None):
        print("the unmutated tree fails its tests; no score")
        return 1
    timeout = 5 * (time.monotonic() - start)
    survivors, equivalent = [], 0
    for mutant in MUTANTS:
        dead = killed(mutant, timeout)
        status = "killed  " if dead else "survived (equivalent)" if len(mutant) > 4 else "SURVIVED"
        print(f"{status} {mutant[0]}", flush=True)
        if not dead and len(mutant) > 4:
            equivalent += 1
        elif not dead:
            survivors.append(mutant[0])
    print(f"{len(MUTANTS) - len(survivors) - equivalent}/{len(MUTANTS)} killed, "
          f"{equivalent} equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
