"""Run the benchmark in alternating parent/change pairs and summarize it.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --workloads walk statesum parity cli --seeds 7001-7010 \\
        --claim statesum:ops_per_s --traced-seed 9 --out BENCH_7.json

Both directories are checkouts of the repository (for example made with
``git archive``).  For each workload, pair ``i`` runs

    python3 perfbench/run.py --workload W --seed S_i --seconds 20 --trace 0

once in each checkout, the parent first when ``i`` is even and the change
first when it is odd.  Every run gets its own fresh, empty
``PYTHONPYCACHEPREFIX`` and ``PYTHONDONTWRITEBYTECODE=1``, so that every
set-up compiles the sources: Python then reads no ``__pycache__`` that a
checkout already holds (say, after its tests ran there), and writes none.
Only the benchmark's printed result is read; nothing under ``perfbench/``
is changed.  Every finished run is written to ``<out>.runs.jsonl`` as it
ends.  The summary holds, per end-to-end metric, the quartiles of each side
(``statistics.quantiles(n=4, method='inclusive')``), the pairs the change
won, and ``change_worse_by``: the relative gap of the medians, positive
when the change is worse.  With ``--traced-seed S``, each checkout also runs
three ``--trace 1`` replays of seed ``S`` per workload, the parent first in
the first and third round and the change first in the second.  Per side,
the summary keeps each per-layer metric's median next to every replay's
value, the ``unwrapped`` names and the outputs digests of those replays, so
one replay's noise does not read as a layer's saving.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
SECONDS = 20  # the benchmark's run length, the same on both sides
TRACED_REPLAYS = 3  # per side and workload, with --traced-seed


def parse_seeds(text: str) -> list[int]:
    """``7001-7010`` or ``7001,7003`` (or both, comma separated)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One benchmark run; its result line, details line, or the failure."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def traced(root: Path, workload: str, seed: int) -> dict:
    """The per-layer metrics of one traced replay, or its failure."""
    record = run_once(root, workload, seed, trace=1)
    if "error" in record:
        return record
    detail = record["detail"]
    return {
        "metrics": {k: v["value"] for k, v in record["result"]["metrics"].items()},
        "unwrapped": detail["unwrapped"],
        "outputs_digest": detail["outputs_digest"],
        "correct": record["result"]["correct"],
    }


def traced_replays(roots: dict, workload: str, seed: int) -> dict:
    """``TRACED_REPLAYS`` traced replays of ``seed`` per side, alternating
    which side runs first; per side, each metric's median and replays."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for replay in range(TRACED_REPLAYS):
        for side in SIDES if replay % 2 == 0 else SIDES[::-1]:
            runs[side].append(traced(roots[side], workload, seed))
    out: dict = {"seed": seed, "replays": TRACED_REPLAYS}
    for side, records in runs.items():
        done = [r for r in records if "error" not in r]
        out[side] = {
            "metrics": {
                name: {
                    "median": statistics.median(r["metrics"][name] for r in done),
                    "replays": [r["metrics"][name] for r in done],
                }
                for name in (done[0]["metrics"] if done else {})
            },
            "unwrapped": sorted({name for r in done for name in r["unwrapped"]}),
            "outputs_digests": sorted({r["outputs_digest"] for r in done}),
            "correct": all(r["correct"] for r in done),
            "errors": [r["error"] for r in records if "error" in r],
        }
    return out


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        values = values * 2  # quantiles needs two points
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize_metric(spec: dict, pairs: list[dict]) -> dict:
    name, lower = spec["name"], spec["better"] == "lower"
    runs = {side: [p[side][name] for p in pairs] for side in SIDES}
    stats = {side: quartiles(runs[side]) for side in SIDES}
    parent, change = stats["parent"]["median"], stats["change"]["median"]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(runs["parent"], runs["change"]))
    worse_by = (change - parent) / parent if lower else (parent - change) / parent
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": stats["parent"],
        "change": stats["change"],
        "change_wins": f"{wins}/{len(pairs)}",
        "change_worse_by": round(worse_by, 4),
        "within_bound": worse_by <= spec["bound"],
        "median_gap_exceeds_parent_iqr": abs(change - parent) > iqr,
        "runs": {side: [round(v, 4) for v in runs[side]] for side in SIDES},
    }


def summarize(specs: list[dict], records: list[dict], workloads: list[str]) -> dict:
    out = {}
    for workload in workloads:
        mine = [r for r in records if r["workload"] == workload]
        by_pair: dict[int, dict] = {}
        for r in mine:
            if "result" in r:
                values = {k: v["value"] for k, v in r["result"]["metrics"].items()}
                by_pair.setdefault(r["pair"], {})[r["side"]] = values
        pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]

        def total(side: str, field: str):
            return sum(r["result"][field] for r in mine if r["side"] == side and "result" in r)

        out[workload] = {
            "failed_ops": {side: total(side, "failed") for side in SIDES},
            "attempted_ops": {side: total(side, "attempted") for side in SIDES},
            "correct": {
                side: all(r["result"]["correct"] for r in mine if r["side"] == side and "result" in r)
                for side in SIDES
            },
            "runs_without_result": sum("error" in r for r in mine),
            "complete_pairs": len(pairs),
            "metrics": {s["name"]: summarize_metric(s, pairs) for s in specs} if pairs else {},
        }
    return out


def claim(summary: dict, text: str, target: str) -> dict:
    workload, metric = text.split(":")
    m = summary[workload]["metrics"][metric]
    parent, change = m["parent"]["median"], m["change"]["median"]
    wins = int(m["change_wins"].split("/")[0])
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": parent,
        "change_median": change,
        "ratio": round(change / parent if m["better"] == "higher" else parent / change, 3),
        "change_wins": m["change_wins"],
        "parent_iqr": round(m["parent"]["q3"] - m["parent"]["q1"], 4),
        "target": target,
        "met": wins >= 0.9 * len(m["runs"]["parent"])
        and m["median_gap_exceeds_parent_iqr"]
        and m["change_worse_by"] < 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent-commit", default=None)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--target", default="win at least 9 of 10 pairs, median gap larger than the parent's IQR")
    parser.add_argument("--note", action="append", default=[], help="KEY=TEXT, added to the summary")
    parser.add_argument("--traced-seed", type=int, default=None,
                        help="also run three --trace 1 replays of this seed per side and workload")
    args = parser.parse_args(argv)

    log = args.out.with_name(args.out.name + ".runs.jsonl")
    log.write_text("")
    records = []
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for workload in args.workloads:
        for pair, seed in enumerate(args.seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                record = {"workload": workload, "pair": pair, "seed": seed, "side": side}
                record |= run_once(roots[side], workload, seed)
                records.append(record)
                with log.open("a") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
                ops = record.get("result", {}).get("metrics", {}).get("ops_per_s", {}).get("value")
                print(f"{workload} pair {pair} seed {seed} {side}: ops/s {ops}", flush=True)

    specs = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    machine = next((r["detail"]["machine"] for r in records if "detail" in r), {})
    summary = {
        "what": "perfbench end-to-end metrics, parent commit vs this change, alternating pairs",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "parent_commit": args.parent_commit,
        "pairs_per_workload": len(args.seeds),
        "order": "pair i runs the parent first when i is even, the change first when i is odd",
        "seeds": args.seeds,
        "quartiles": "statistics.quantiles(runs, n=4, method='inclusive'); change_worse_by is "
        "the relative gap of the medians, positive when the change is worse",
        "machine": {k: machine[k] for k in sorted(machine)},
        "workloads": summarize(specs, records, args.workloads),
    }
    if args.traced_seed is not None:
        for workload in args.workloads:
            summary["workloads"][workload]["traced"] = traced_replays(
                roots, workload, args.traced_seed
            )
    for note in args.note:
        key, _, text = note.partition("=")
        summary[key] = text
    if args.claim:
        summary["claim"] = claim(summary["workloads"], args.claim, args.target)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
