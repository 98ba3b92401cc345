"""Check the contracted parity bracket against the per-state reference on
every two-component code of three crossings.

    python3 tools/check_parity_family.py

The family cuts each of the 960 one-leg codes of three crossings at each of
its 7 passage gaps (a cut at either end leaves one component empty), and
makes each part open or a loop: 26,880 codes.  Each code's
``parity_bracket``, open and closed, must equal
``tests/reference.parity_reference``, which reduces every one of the 2^e
states of ``parity_states`` on its own.  Prints the codes checked, the
codes whose value has a graphical term, and every mismatch; exits 1 on a
mismatch.  Standard library only; not part of the tier-1 suite (about
15 s of CPU).
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from knotoids.codes import LOOP, OPEN, ComponentCode, KnotoidCode  # noqa: E402
from knotoids.parity_bracket import parity_bracket  # noqa: E402
from helpers import all_codes  # noqa: E402
from reference import parity_reference  # noqa: E402

CROSSINGS = 3
KINDS = list(itertools.product((OPEN, LOOP), repeat=2))


def family():
    for code in all_codes(CROSSINGS):
        passages = code.components[0].passages
        for cut, kinds in itertools.product(range(2 * CROSSINGS + 1), KINDS):
            parts = (passages[:cut], passages[cut:])
            yield KnotoidCode(tuple(ComponentCode(k, p) for k, p in zip(kinds, parts)))


def main() -> int:
    start = time.process_time()
    codes = graphical = 0
    mismatches = []
    for code in family():
        codes += 1
        for closed in (False, True):
            value = parity_bracket(code, closed=closed)
            graphical += bool(value.graphical) and not closed
            if value != parity_reference(code, closed=closed):
                mismatches.append((code, closed))
                print(f"MISMATCH closed={closed}: {code}", flush=True)
    seconds = time.process_time() - start
    print(f"{codes} codes, {graphical} with a graphical term (open), "
          f"{len(mismatches)} mismatches, {seconds:.1f} s of CPU")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
