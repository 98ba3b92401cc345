"""Checks of the benchmark itself (about two minutes on two cores).

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps a bare ``pytest`` from the repository root from
collecting it, so the library's own suite does not pay for it.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def declared_units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_declares_what_the_runner_prints():
    assert declared_units("end_to_end") == bench.END_TO_END_UNITS
    assert declared_units("per_layer") == spans.LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", NAMES)
def test_minimal_run_reports_every_metric_and_no_failure(name):
    result, detail = bench.run(name, seed=3, seconds=0.01, trace=False)
    assert detail["failed_ratio"] == 0, detail["errors"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared_units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())
    assert detail["machine"]["nproc"] >= 1 and detail["machine"]["threads"] == 1


# Which layers each workload must reach, and which it must never touch.
REACHED = {
    "walk": ("moves.generated", "smoothing.scan_words.states", "parity_bracket.states"),
    "statesum": ("smoothing.scan.states", "smoothing.scan_words.states", "arrow.assembly_self_s"),
    "parity": ("parity_bracket.states", "parity_bracket.canonical_s", "closures.virtual_closure.s"),
    "cli": ("codes.parse.calls", "catalog.verify.s", "cli.request.json_bytes", "closures.genus.s"),
}
BYPASSED = {
    "walk": ("cli.request.s", "codes.parse.calls"),
    "statesum": ("parity_bracket.calls", "moves.applicable.calls"),
    "parity": ("smoothing.scan.states", "smoothing.scan_words.states", "moves.applicable.calls"),
    "cli": ("moves.walk.s",),
}


@pytest.mark.parametrize("name", NAMES)
def test_traced_replay_reports_every_layer_metric(name):
    result, detail = bench.run(name, seed=3, seconds=0.01, trace=True, trace_rounds=1)
    assert result["failed"] == 0, detail["errors"]
    assert detail["unwrapped"] == []
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared_units("per_layer")
    assert all(metrics[m]["value"] > 0 for m in REACHED[name])
    assert all(metrics[m]["value"] == 0 for m in BYPASSED[name])
    assert metrics["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_inputs_are_a_function_of_the_seed(name):
    lib = workloads.import_library()
    make = workloads.WORKLOADS[name]
    first, again, other = (workloads.digest(make(lib, s).inputs()) for s in (11, 11, 12))
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", ["walk", "cli"])
def test_outputs_digest_repeats_for_a_seed(name):
    _, one = bench.run(name, seed=7, seconds=0.01, trace=False)
    _, two = bench.run(name, seed=7, seconds=0.01, trace=False)
    assert one["inputs_digest"] == two["inputs_digest"]
    assert one["outputs_digest"] == two["outputs_digest"]


def test_seed_20008_reproduces_criterion_8_first_trajectory():
    sys.path.insert(0, str(ROOT / "tests"))
    from helpers import random_code
    from knotoids.codes import serialize
    from knotoids.moves import random_walk

    rng = random.Random(20_008)
    code = random_code(rng, rng.randint(2, 5))
    seed = rng.randrange(1 << 30)
    expected = [serialize(c) for c in random_walk(code, steps=20, seed=seed, max_crossings=10)]
    lib = workloads.import_library()
    walk = workloads.Walk(lib, 20_008)
    assert [lib.codes.serialize(c) for c in walk.trajectory(0)] == expected


def test_perturbed_walk_base_tuple_fails(monkeypatch):
    real = workloads.Walk.base

    def perturbed(self, code):
        odd, *rest = real(self, code)
        return (odd + 1, *rest)

    monkeypatch.setattr(workloads.Walk, "base", perturbed)
    result, detail = bench.run("walk", seed=3, seconds=0.01, trace=False)
    assert detail["failed_ratio"] == 1 and not result["correct"]


def test_altered_expected_json_fails(monkeypatch):
    real = workloads.Cli.warm_up

    def altered(self):
        real(self)
        status, out = self.expected[0]
        self.expected[0] = (status, out.replace("{", '{"altered":1,', 1))

    monkeypatch.setattr(workloads.Cli, "warm_up", altered)
    result, detail = bench.run("cli", seed=3, seconds=0.01, trace=False)
    assert 0 < detail["failed_ratio"] < 1 and result["failed"] == 1


def test_wrong_oracle_value_fails(monkeypatch):
    def wrong(self, code):
        return self.lib.K.bracket(code) + self.lib.K.LaurentA.one()

    monkeypatch.setattr(workloads.StateSum, "reference", wrong)
    result, detail = bench.run("statesum", seed=3, seconds=0.01, trace=False)
    assert detail["failed_ratio"] == 1 and not result["correct"]


def test_broken_closure_identity_fails(monkeypatch):
    real = workloads.Parity.four_calls

    def broken(self, code):
        open_, closed, closure, flat = real(self, code)
        shifted = type(closure)(plain=closure.plain + self.lib.K.LaurentA.one(),
                                graphical=closure.graphical)
        return open_, closed, shifted, flat

    monkeypatch.setattr(workloads.Parity, "four_calls", broken)
    result, detail = bench.run("parity", seed=3, seconds=0.01, trace=False)
    assert detail["failed_ratio"] == 1 and not result["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
