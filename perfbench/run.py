"""Run one workload of the knotoids benchmark and print its metrics.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 20 --trace 0

Run from the repository root.  The knotoids package is imported from
``src/`` next to this directory.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced replay.  The line
before it is a JSON object with details: the tail percentile and sample
counts, the failed ratio, input and output digests and the machine.  The
benchmark runs in this one process and starts no threads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "out"

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% at or below it."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def machine() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "processes": 1,
        "threads": threading.active_count(),
    }


def set_up(name: str, seed: int):
    """Import, build the inputs and warm up, SETUP_REPEATS times.

    Returns the last workload, each set-up's time and each one's time
    scaled by the host's slowdown measured just before it.
    """
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        slowdown = workloads.slowdown_now()
        t0 = workloads.clock()
        lib = workloads.import_library()
        workload = workloads.WORKLOADS[name](lib, seed)
        workload.warm_up()
        times.append(workloads.clock() - t0)
        scaled.append(times[-1] / slowdown)
    loaded = Path(lib.K.__file__).resolve().parent
    if loaded != (SRC / "knotoids").resolve():
        raise RuntimeError(f"imported knotoids from {loaded}, not from {SRC}")
    return workload, times, scaled


def measure(workload, seconds=None, rounds=None, tracer=None):
    """Run whole rounds until ``seconds`` are measured or ``rounds`` are done.

    Returns the recorder and the measured wall time: the pass's wall time
    less the time spent off the clock.  A timed pass also calibrates.
    """
    rec = workloads.Recorder(tracer, calibrate=seconds is not None)
    start = workloads.clock()
    index = 0
    while True:
        rec.keep_outputs = index == 0
        workload.run_round(index, rec)
        index += 1
        wall = workloads.clock() - start - rec.off_clock_s
        if index >= rounds if rounds is not None else wall >= seconds:
            return rec, wall


def run(name: str, seed: int, seconds: float, trace: bool, trace_rounds=None):
    """One benchmark run: (result object, details object)."""
    workload, setup_times, setup_scaled = set_up(name, seed)
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "setup_s_samples": setup_times,
        "setup_s_scaled_samples": setup_scaled,
        "inputs_digest": workloads.digest(workload.inputs()),
    }
    if trace:
        rounds = trace_rounds or workload.trace_rounds
        plain, plain_wall = measure(workload, rounds=rounds)
        tracer = spans.Tracer()
        spans.install(tracer, workload.lib)
        traced, traced_wall = measure(workload, rounds=rounds, tracer=tracer)
        values = spans.layer_metrics(tracer, plain_wall / traced_wall)
        units = spans.LAYER_UNITS
        passes = (plain, traced)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"trace-{name}-{seed}.jsonl"
        tracer.write(trace_file)
        detail |= {
            "trace_rounds": rounds,
            "untraced_wall_s": plain_wall,
            "traced_wall_s": traced_wall,
            "spans": len(tracer.spans),
            "trace_file": str(trace_file.relative_to(ROOT)),
            "unwrapped": tracer.missing,
        }
        digest_pass = plain
    else:
        rec, wall = measure(workload, seconds=seconds)
        latencies = rec.latencies
        p = workload.tail_percentile
        raw = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(latencies) / wall,
            "op_ms_p50": 1000 * statistics.median(latencies),
            "op_ms_tail": 1000 * percentile(latencies, p),
        }
        # Times scaled to the reference speed (slower > 1): each op by its
        # own slowdown, on-clock time between ops (walk generation) by the
        # pass's.
        slowdown, local = rec.slowdowns()
        scaled = [x / s for x, s in zip(latencies, local)]
        between_ops = wall - sum(latencies)
        tail = percentile(scaled, p)
        values = {
            "setup_s": statistics.median(setup_scaled),
            "ops_per_s": len(scaled) / (sum(scaled) + between_ops / slowdown),
            "op_ms_p50": 1000 * statistics.median(scaled),
            "op_ms_tail": 1000 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        passes = (rec,)
        detail |= {
            "unscaled": raw,
            "slowdown": slowdown,
            "op_slowdown_range": [min(local), max(local)],
            "calibrations": len(rec.calibrations),
            "wall_s": wall,
            "off_clock_s": rec.off_clock_s,
            "tail_percentile": p,
            "samples": len(latencies),
            "samples_beyond_tail": sum(x > tail for x in scaled),
        }
        digest_pass = rec
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    detail |= {
        "outputs_digest": workloads.digest(digest_pass.outputs),
        "failed_ratio": failed / attempted,
        "errors": [e for r in passes for e in r.errors][:5],
        "machine": machine(),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "knotoids" / "__init__.py").is_file():
        print(f"error: no knotoids sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
