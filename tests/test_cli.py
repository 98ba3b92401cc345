"""Command-line interface: commands, formats, determinism, errors."""

import argparse
import hashlib
import json
import random

import pytest

from knotoids import catalog
from knotoids.affine import affine_index
from knotoids.catalog import load_catalog
from knotoids.cli import main
from knotoids.codes import classify_crossings, serialize
from knotoids.errors import KnotoidError
from knotoids.parity_bracket import flat_parity_bracket
from knotoids.smoothing import CompiledCode
from helpers import count_calls, random_code, random_multi_code


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def test_validate(capsys):
    status, out = run(capsys, "validate", "--code", "open: O1+ U1+")
    assert status == 0
    assert "valid: True" in out


def test_affine_catalog_fig1g(capsys):
    status, out = run(capsys, "affine", "--catalog", "fig1g")
    assert status == 0
    assert "t^2+2t+2t^-1+t^-2-6" in out


def test_invariants_kink(capsys):
    status, out = run(capsys, "invariants", "--code", "open: O1+ U1+")
    assert status == 0
    assert "normalized_bracket: 1" in out
    assert "proper_evidence" in out


def test_invariants_proper_flags(capsys):
    status, out = run(capsys, "invariants", "--catalog", "fig1g", "--format", "json")
    report = json.loads(out)
    assert "nonzero odd writhe" in report["proper_evidence"]
    assert "nonzero affine index" in report["proper_evidence"]
    assert "positive Lambda-degree" in report["proper_evidence"]
    # Moves that add no crossing: fig1g has no deletion and three R3 sites.
    assert report["move_count"] == 3


def test_json_deterministic(capsys):
    status1, out1 = run(capsys, "bracket", "--catalog", "fig1g", "--format", "json")
    status2, out2 = run(capsys, "bracket", "--catalog", "fig1g", "--format", "json")
    assert status1 == status2 == 0
    assert out1 == out2


def test_height_bounds_fig1f(capsys):
    status, out = run(capsys, "height-bounds", "--catalog", "fig1f", "--format", "json")
    report = json.loads(out)
    assert report["lower"] == 1
    assert report["declared_upper"] == 2


def test_error_is_machine_readable(capsys):
    status, out = run(capsys, "bracket", "--code", "open: O1+ O1+")
    assert status == 1
    error = json.loads(out)
    assert error["error"]["type"] == "DuplicateRole"


def test_unknown_catalog_id_is_typed(capsys):
    status, out = run(capsys, "invariants", "--catalog", "nope", "--format", "json")
    assert status == 1
    assert json.loads(out)["error"] == {
        "type": "UnknownEntry",
        "message": "no catalog entry 'nope'",
    }
    # Only names in the data directory are read, never a path.
    for entry_id in ("../data/fig1g", "fig1g.knotoid"):
        argv = ["invariants", "--catalog", entry_id, "--format", "json"]
        assert _error_type(capsys, argv) == "UnknownEntry"


def test_state_limit_error(capsys):
    status, out = run(capsys, "bracket", "--catalog", "fig1g", "--state-limit", "2")
    assert status == 1
    assert json.loads(out)["error"]["type"] == "LimitExceeded"


def test_moves_walk_deterministic(capsys):
    args = ("moves", "walk", "--code", "open: O1+ U1+", "--steps", "5",
            "--seed", "9", "--max", "6", "--format", "json")
    status1, out1 = run(capsys, *args)
    status2, out2 = run(capsys, *args)
    assert status1 == status2 == 0
    assert out1 == out2
    assert len(json.loads(out1)["trajectory"]) == 6


def test_closure_command(capsys):
    status, out = run(capsys, "closure", "--code", "open: O1+ U1+")
    assert status == 0
    assert "loop: O1+ U1+" in out


def test_genus_command(capsys):
    status, out = run(capsys, "genus", "--code", "open: O1+ U2- U1+ O2-")
    assert status == 0
    assert "genus: 1" in out


def test_catalog_list_and_verify(capsys):
    status, out = run(capsys, "catalog", "list")
    assert status == 0
    assert "fig1g" in out
    status, out = run(capsys, "catalog", "verify")
    assert status == 0
    assert "failures: 0" in out


def test_parity_bracket_command(capsys):
    status, out = run(capsys, "parity-bracket", "--code", "open: O1+ U2- U1+ O2-")
    assert status == 0
    assert "graphical_count: 1" in out


def _as_option(code) -> str:
    return serialize(code).strip().replace("\n", ";")


def _pinned(capsys, requests) -> str:
    outputs = []
    for request in requests:
        status = main(["invariants", *request, "--format", "json"])
        outputs.append([status, capsys.readouterr().out])
    return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()


def _seeded_requests():
    """30 seeded codes, ten each of one leg, one leg plus a loop and several
    components, then one code over the crossing limit."""
    rng = random.Random(6006)
    codes = [random_code(rng, rng.randint(0, 7)) for _ in range(10)]
    codes += [random_code(rng, rng.randint(1, 7), loops=1) for _ in range(10)]
    codes += [random_multi_code(rng, rng.randint(2, 7), empty=i % 4 == 0) for i in range(10)]
    requests = [["--code", _as_option(code)] for code in codes]
    return codes, requests + [["--code", _as_option(random_code(rng, 9)), "--state-limit", "8"]]


# Digests of the output recorded with the engine that computed the bracket,
# the height bounds and the virtuality evidence from fresh state sums.
def test_golden_invariants_on_catalog(capsys):
    requests = [["--catalog", entry.id] for entry in load_catalog()]
    digest = _pinned(capsys, requests)
    assert digest == "05a18540b87088f109bcd8c0e02f3b641fb7fae4e536d366d0efdd3b0e03f067"


def test_golden_invariants_on_seeded_codes(capsys):
    codes, requests = _seeded_requests()
    assert any(len(c.open_components) > 1 for c in codes)
    assert any(c.loop_components for c in codes)
    assert main(["invariants", *requests[-1], "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "LimitExceeded"
    assert _pinned(capsys, requests) == "2532fc08c9ff42945cc3c1b5c5e6efd1a059fcf8e438b27fbe7ecf63fd066340"


def test_invariants_computes_each_state_sum_once(monkeypatch, capsys):
    calls = []

    def counted_init(self, code):
        calls.append("CompiledCode")
        init(self, code)

    def counted_contract(self, want_words):
        calls.append(f"contract({want_words})")
        return contract(self, want_words)

    def counted_frontier(self, *args, **kwargs):
        calls.append("frontier")
        return frontier(self, *args, **kwargs)

    init, contract, frontier = CompiledCode.__init__, CompiledCode.contract, CompiledCode.frontier
    monkeypatch.setattr(CompiledCode, "__init__", counted_init)
    monkeypatch.setattr(CompiledCode, "contract", counted_contract)
    monkeypatch.setattr(CompiledCode, "frontier", counted_frontier)
    for fn in (affine_index, flat_parity_bracket, classify_crossings):
        count_calls(monkeypatch, calls, fn)
    assert main(["invariants", "--catalog", "fig1g", "--format", "json"]) == 0
    # The arrow and the parity bracket; the bracket is read off the arrow and
    # the flat parity bracket off the parity bracket at A = -1.  Both state
    # sums, the genus and the affine index read one compiled diagram, and
    # its one classification serves the parity bracket, the odd writhe and
    # evenly-intersticed; the affine index reads no classification.
    assert sorted(calls) == [
        "CompiledCode", "affine_index", "classify_crossings",
        "contract(True)", "frontier", "frontier",
    ]


def test_only_typed_errors_are_reported(monkeypatch, capsys):
    def broken(code):
        raise KeyError("an internal fault")

    monkeypatch.setattr(catalog, "carter_genus", broken)
    with pytest.raises(KeyError, match="an internal fault"):
        main(["invariants", "--code", "open: O1+ U1+", "--format", "json"])
    assert capsys.readouterr().out == ""


def _error_type(capsys, argv) -> str:
    status = main(argv)
    out = capsys.readouterr().out
    assert status == 1, (argv, out)
    return json.loads(out)["error"]["type"]


def _knotoid_error_names() -> set[str]:
    names, todo = set(), [KnotoidError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def test_unreadable_file_is_typed(capsys, tmp_path):
    (tmp_path / "latin1.knotoid").write_bytes("open: O\xe91+ U\xe91+".encode("latin-1"))
    for path in (tmp_path / "missing.knotoid", tmp_path, tmp_path / "latin1.knotoid"):
        argv = ["invariants", "--file", str(path), "--format", "json"]
        assert _error_type(capsys, argv) == "InputFileError"
    main(["bracket", "--file", str(tmp_path / "missing.knotoid")])
    assert json.loads(capsys.readouterr().out)["error"]["message"] == (
        f"cannot read --file {str(tmp_path / 'missing.knotoid')!r}: No such file or directory"
    )


def test_negative_numbers_are_refused_and_zero_is_valid(capsys):
    walk = ["moves", "walk", "--code", "open: O1+ U1+", "--format", "json"]
    assert _error_type(capsys, walk + ["--steps", "-3"]) == "BadArgument"
    assert _error_type(capsys, walk + ["--max", "-5"]) == "BadArgument"
    assert _error_type(capsys, ["invariants", "--code", "open:", "--state-limit", "-1"]) == (
        "BadArgument"
    )
    assert _error_type(capsys, ["catalog", "verify", "--state-limit", "-1"]) == "BadArgument"
    main(walk + ["--steps", "-3"])
    assert json.loads(capsys.readouterr().out)["error"]["message"] == (
        "--steps must be non-negative, got -3"
    )
    assert main(walk + ["--steps", "0", "--max", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["trajectory"] == ["open: O1+ U1+"]
    assert main(["invariants", "--code", "open:", "--state-limit", "0"]) == 0
    capsys.readouterr()


def test_one_input_source_is_required(capsys):
    assert _error_type(capsys, ["invariants", "--format", "json"]) == "BadArgument"
    argv = ["bracket", "--code", "open:", "--catalog", "fig1g", "--format", "json"]
    assert _error_type(capsys, argv) == "BadArgument"


def test_argparse_refusals_are_typed(capsys):
    refused = {
        ("invariants", "--state-limit", "abc", "--code", "x"): "invalid int value: 'abc'",
        ("frobnicate",): "invalid choice: 'frobnicate'",
        ("catalog", "--format", "json"): "the following arguments are required: action",
        ("invariants", "--code", "x", "--bogus", "1"): "unrecognized arguments: --bogus 1",
    }
    for argv, message in refused.items():
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error["type"] == "BadArgument"
        assert message in error["message"]
        assert captured.err == ""
    # Help is not a refusal: usage on stdout and exit status 0, as before.
    with pytest.raises(SystemExit) as exit_info:
        main(["invariants", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: knotoids invariants")


def _request_mix():
    return [
        ["moves", "walk", "--code", "open: O1+ U2- U1+ O2-", "--steps", "3", "--seed", "5",
         "--format", "json"],
        ["invariants", "--catalog", "fig1g", "--format", "json"],
        ["invariants", "--code", "open: O1- O2+ U1- U2+ ; loop: O3+ U3+", "--format", "json"],
        ["odd-writhe", "--catalog", "fig1f"],
        ["catalog", "verify", "--state-limit", "3"],
        ["invariants", "--code", "x", "--bogus", "1"],
    ]


def _answer(capsys, argv) -> tuple[int, str]:
    status = main(argv)
    # Text mode ends with its wall time, the one line allowed to vary.
    out = "".join(line for line in capsys.readouterr().out.splitlines(keepends=True)
                  if not line.startswith("timing_ms: "))
    return status, out


def test_requests_do_not_leak_into_each_other(capsys):
    mix = _request_mix()
    first = [_answer(capsys, argv) for argv in mix]
    assert [status for status, _ in first] == [0, 0, 0, 0, 1, 1]
    again = [_answer(capsys, argv) for argv in reversed(mix)]
    assert again[::-1] == first


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    main(["validate", "--code", "open: O1+ U1+"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    for argv in (_request_mix() * 2)[:10]:
        main(argv)
    capsys.readouterr()
    assert built == []


def test_malformed_declared_height_is_typed(capsys):
    for command in ("invariants", "height-bounds"):
        argv = [command, "--code", "meta declared_height=1..x;open: O1+ U1+"]
        assert _error_type(capsys, argv) == "CodeSyntaxError"


def _mutated(rng, code) -> str:
    """The code's text with one token dropped, re-signed, re-roled or garbled."""
    lines = [line.split() for line in serialize(code).strip().splitlines()]
    at = [(i, j) for i, line in enumerate(lines) for j in range(1, len(line))]
    i, j = rng.choice(at)
    token = lines[i][j]
    kind = rng.choice(("drop", "sign", "role", "garble"))
    if kind == "drop":
        del lines[i][j]
    elif kind == "sign":
        lines[i][j] = token[:-1] + {"+": "-", "-": "+"}[token[-1]]
    elif kind == "role":
        lines[i][j] = {"O": "U", "U": "O"}[token[0]] + token[1:]
    else:
        lines[i][j] = rng.choice(("X", "", "O?")) + token[1:rng.randint(1, len(token))]
    return ";".join(" ".join(line) for line in lines)


def test_seeded_fuzz_of_malformed_input(capsys, tmp_path):
    names = _knotoid_error_names()
    commands = ["validate", "invariants", "bracket", "arrow", "affine", "parity-bracket",
                "odd-writhe", "genus", "closure", "height-bounds"]
    rng = random.Random(6060)
    (tmp_path / "binary.knotoid").write_bytes(bytes(rng.randrange(128, 256) for _ in range(16)))
    for case in range(120):
        command = ["moves", "walk"] if case % 11 == 0 else [rng.choice(commands)]
        kind = case % 4
        options = ["--format", "json"]
        if kind < 2:
            code = random_multi_code(rng, rng.randint(1, 6), empty=rng.random() < 0.3)
            text = _mutated(rng, code)
            source = ["--code", text]
            if kind == 1:
                path = tmp_path / f"case{case}.knotoid"
                path.write_text(text.replace(";", "\n"))
                source = ["--file", str(path)]
        elif kind == 2:
            source = ["--file", str(rng.choice((tmp_path / "missing", tmp_path,
                                                 tmp_path / "binary.knotoid")))]
        else:
            source = ["--code", _as_option(random_code(rng, rng.randint(0, 4)))]
            numbers = ["--state-limit"] + (["--steps", "--max"] if command[0] == "moves" else [])
            options += [rng.choice(numbers), str(-rng.randint(1, 1000))]
        argv = command + source + options
        assert _error_type(capsys, argv) in names - {"KnotoidError"}, argv
