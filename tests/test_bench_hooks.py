"""The benchmark's tracer finds every library name it wraps.

``perfbench/spans.py`` wraps knotoids functions by name from outside the
package and lists each name it cannot find in ``tracer.missing``.  A
library change that drops or renames a wrapped name fails here, in the
library's own tests, rather than only in the benchmark's self-checks.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_every_name_it_expects(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    held = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "knotoids"}
    try:
        spans = importlib.import_module("spans")
        workloads = importlib.import_module("workloads")
        tracer = spans.Tracer()
        # A fresh import of knotoids, as each benchmark set-up makes; the
        # tracer patches that copy only.
        spans.install(tracer, workloads.import_library())
        assert tracer.missing == []
    finally:
        fresh = ("knotoids", "spans", "workloads")
        for name in [n for n in sys.modules if n.split(".")[0] in fresh]:
            del sys.modules[name]
        sys.modules.update(held)
