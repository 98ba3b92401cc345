"""Command-line front end.

Every command takes one diagram (--code, --file or --catalog) and prints a
report as text or JSON.  JSON output is deterministic: identical inputs
give byte-identical documents; timing appears only in text mode.  Errors
exit with status 1 and a machine-readable JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import (
    affine_index,
    applicable_moves,
    arrow_polynomial,
    carter_genus,
    classify_crossings,
    detect_virtuality,
    evenly_intersticed,
    flat_projection,
    height_bounds,
    normalized_bracket,
    odd_writhe,
    parse,
    random_walk,
    serialize,
    virtual_closure,
    weight_chart,
    writhe,
    writhe_normalize,
)
from .codes import KnotoidCode
from .catalog import catalog_entry, load_catalog, verify_entry
from .errors import KnotoidError, ShapeError
from .parity_bracket import flat_parity_bracket, normalize_parity, parity_bracket
from .smoothing import DEFAULT_STATE_LIMIT


def _echo(code: KnotoidCode) -> list[str]:
    return [
        line
        for line in serialize(KnotoidCode(code.components)).strip().splitlines()
        if not line.startswith("meta ")
    ]


def _load_code(args):
    sources = [s for s in (args.code, args.file, args.catalog) if s]
    if len(sources) != 1:
        raise KnotoidError("give exactly one of --code, --file, --catalog")
    if args.code:
        return parse(args.code.replace(";", "\n"))
    if args.file:
        with open(args.file) as fh:
            return parse(fh.read())
    return catalog_entry(args.catalog).code


def _emit(args, report: dict, started: float) -> None:
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {v}")
        elif isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print(f"  {item}")
        else:
            print(f"{key}: {value}")
    print(f"timing_ms: {1000 * (time.monotonic() - started):.1f}")


def _run(args) -> int:
    started = time.monotonic()
    limit = args.state_limit

    if args.command == "catalog":
        if args.action == "list":
            report = {
                "entries": [
                    f"{e.id} [{e.source}]"
                    + (" quarantined" if e.quarantined else "")
                    for e in load_catalog()
                ]
            }
            _emit(args, report, started)
            return 0
        failures = 0
        lines = []
        for entry in load_catalog():
            if entry.quarantined:
                lines.append(f"{entry.id}: quarantined ({entry.note})")
                continue
            result = verify_entry(entry, state_limit=limit)
            for item in result.items:
                mark = "ok" if item.ok else f"FAIL expected={item.expected} got={item.computed}"
                lines.append(f"{entry.id}.{item.invariant}: {mark}")
                failures += 0 if item.ok else 1
        _emit(args, {"verify": lines, "failures": failures}, started)
        return 1 if failures else 0

    code = _load_code(args)

    if args.command == "validate":
        _emit(args, {"input": _echo(code), "valid": True}, started)
        return 0

    if args.command == "moves":
        trajectory = random_walk(code, steps=args.steps, seed=args.seed, max_crossings=args.max)
        report = {
            "input": _echo(code),
            "steps": args.steps,
            "seed": args.seed,
            "max_crossings": args.max,
            "trajectory": [serialize(c).strip().replace("\n", " ; ") for c in trajectory],
        }
        _emit(args, report, started)
        return 0

    report: dict = {"input": _echo(code)}

    if args.command == "bracket":
        rep = normalized_bracket(code, limit)
        report |= {
            "bracket": rep.raw.render(),
            "writhe": rep.writhe,
            "normalized_bracket": rep.normalized.render(),
        }
        if args.format == "json":
            report |= {
                "bracket_terms": rep.raw.to_json(),
                "normalized_terms": rep.normalized.to_json(),
            }
    elif args.command == "arrow":
        poly = arrow_polynomial(code, limit)
        report |= {
            "arrow": poly.render(),
            "normalized_arrow": writhe_normalize(poly, writhe(code)).render(),
            "k_degree": poly.k_degree(),
            "lambda_degree": poly.lambda_degree(),
        }
        if args.format == "json":
            report["arrow_terms"] = poly.to_json()
    elif args.command == "affine":
        poly = affine_index(code)
        chart = weight_chart(code)
        report |= {
            "affine": poly.render(),
            "max_degree": poly.max_degree(),
            "symmetric": poly.is_symmetric(),
            "weights": chart.to_json() if args.format == "json"
            else chart.render().splitlines(),
        }
    elif args.command == "parity-bracket":
        value = parity_bracket(code, limit)
        report |= {
            "parity_bracket": value.render(),
            "normalized": normalize_parity(value, writhe(code)).render(),
            "graphical_count": len(value.graphical),
        }
        if args.format == "json":
            report["parity_terms"] = value.to_json()
    elif args.command == "odd-writhe":
        rep = odd_writhe(code)
        report |= {
            "odd_writhe": rep.value,
            "odd_crossings": sorted(rep.odd_crossings),
            "parity": {i.label: i.parity for i in classify_crossings(code)},
        }
    elif args.command == "genus":
        report["genus"] = carter_genus(code)
    elif args.command == "closure":
        closed = virtual_closure(code)
        report |= {
            "closure": serialize(closed).strip().splitlines(),
            "normalized_bracket": normalized_bracket(closed, limit).normalized.render(),
        }
    elif args.command == "height-bounds":
        bound = height_bounds(code, limit)
        report |= bound.to_json()
    elif args.command == "invariants":
        rep = normalized_bracket(code, limit)
        arrow = arrow_polynomial(code, limit)
        parity = parity_bracket(code, limit)
        ow = odd_writhe(code)
        report |= {
            "writhe": rep.writhe,
            "odd_writhe": ow.value,
            "bracket": rep.raw.render(),
            "normalized_bracket": rep.normalized.render(),
            "arrow": arrow.render(),
            "normalized_arrow": writhe_normalize(arrow, rep.writhe).render(),
            "k_degree": arrow.k_degree(),
            "lambda_degree": arrow.lambda_degree(),
            "parity_bracket": parity.render(),
            "normalized_parity_bracket": normalize_parity(parity, rep.writhe).render(),
            "flat_parity_trivial": flat_parity_bracket(flat_projection(code), limit).is_trivial(),
        }
        try:
            affine = affine_index(code)
            report |= {"affine": affine.render(), "affine_symmetric": affine.is_symmetric()}
        except ShapeError:
            report["affine"] = None
        try:
            report["genus"] = carter_genus(code)
        except ShapeError:
            report["genus"] = None
        try:
            report["evenly_intersticed"] = evenly_intersticed(code)
        except ShapeError:
            report["evenly_intersticed"] = None
        try:
            bound = height_bounds(code, limit)
            report["height_bounds"] = bound.to_json()
        except ShapeError:
            report["height_bounds"] = None
        proper = []
        if ow.value != 0:
            proper.append("nonzero odd writhe")
        if report.get("affine") not in (None, "0"):
            proper.append("nonzero affine index")
        if arrow.lambda_degree() > 0:
            proper.append("positive Lambda-degree")
        report["proper_evidence"] = proper
        if code.is_standard_knotoid():
            report["virtuality"] = detect_virtuality(code, limit).to_json()
        report["move_count"] = len(applicable_moves(code, include_inserts=False))
    else:
        raise KnotoidError(f"unknown command {args.command!r}")

    _emit(args, report, started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotoids",
        description="Knotoid invariants from signed Gauss codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        "validate", "invariants", "bracket", "arrow", "affine",
        "parity-bracket", "odd-writhe", "genus", "closure", "height-bounds",
    ]
    for name in commands:
        p = sub.add_parser(name)
        _input_options(p)
    moves = sub.add_parser("moves")
    moves.add_argument("action", choices=["walk"])
    _input_options(moves)
    moves.add_argument("--steps", type=int, default=20)
    moves.add_argument("--seed", type=int, default=0)
    moves.add_argument("--max", type=int, default=12)
    catalog = sub.add_parser("catalog")
    catalog.add_argument("action", choices=["list", "verify"])
    _common_options(catalog)
    return parser


def _common_options(p) -> None:
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--state-limit", type=int, default=DEFAULT_STATE_LIMIT)


def _input_options(p) -> None:
    p.add_argument("--code")
    p.add_argument("--file")
    p.add_argument("--catalog")
    _common_options(p)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except KnotoidError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}},
                         sort_keys=True))
        return 1
    except KeyError as exc:
        print(json.dumps({"error": {"type": "KeyError", "message": str(exc)}}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
