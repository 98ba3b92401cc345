"""Command-line interface: commands, formats, determinism, errors."""

import json

from knotoids.cli import main


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
