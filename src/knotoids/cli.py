"""Command-line front end.

Every command takes one diagram (--code, --file or --catalog) and prints a
report as text or JSON.  JSON output is deterministic: identical inputs
give byte-identical documents; timing appears only in text mode.  Errors
exit with status 1 and a machine-readable JSON object on stdout, arguments
that argparse refuses included (``BadArgument``).  The parser is built once
per process and holds no request's data, so ``main`` may be called repeatedly.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import (
    height_bounds,
    normalized_bracket,
    parse,
    random_walk,
    serialize,
    virtual_closure,
    weight_chart,
)
from .affine import VirtualityReport
from .codes import KnotoidCode
from .catalog import Invariants, catalog_entry, load_catalog, verify_entry
from .errors import BadArgument, InputFileError, KnotoidError, ShapeError
from .moves import _move_table
from .smoothing import DEFAULT_STATE_LIMIT, compiled_form

ARROW_KEYS = ("arrow", "normalized_arrow", "k_degree", "lambda_degree")
# The record's values that ``invariants`` reports, in report order.
INVARIANTS_KEYS = (
    "writhe", "odd_writhe", "bracket", "normalized_bracket", *ARROW_KEYS,
    "parity_bracket", "normalized_parity_bracket", "flat_parity_trivial",
    "affine", "affine_symmetric", "genus", "evenly_intersticed",
)


def _echo(code: KnotoidCode) -> list[str]:
    return serialize(KnotoidCode(code.components)).strip().splitlines()


def _load_code(args):
    sources = [s for s in (args.code, args.file, args.catalog) if s]
    if len(sources) != 1:
        raise BadArgument("give exactly one of --code, --file, --catalog")
    if args.code:
        return parse(args.code.replace(";", "\n"))
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                return parse(fh.read())
        except OSError as exc:
            raise InputFileError(f"cannot read --file {args.file!r}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise InputFileError(f"--file {args.file!r} is not UTF-8 text") from None
    return catalog_entry(args.catalog).code


def _emit(args, report: dict, started: float) -> None:
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
        return
    for key, value in report.items():
        if isinstance(value, (dict, list)):
            print(f"{key}:")
            rows = [f"{k}: {v}" for k, v in value.items()] if isinstance(value, dict) else value
            for row in rows:
                print(f"  {row}")
        else:
            print(f"{key}: {value}")
    print(f"timing_ms: {1000 * (time.monotonic() - started):.1f}")


def _run(args) -> int:
    started = time.monotonic()
    limit = args.state_limit
    for option in ("steps", "max", "state_limit"):
        value = getattr(args, option, 0)
        if value < 0:
            raise BadArgument(f"--{option.replace('_', '-')} must be non-negative, got {value}")

    if args.command == "catalog":
        if args.action == "list":
            entries = [f"{e.id} [{e.source}]" + (" quarantined" if e.quarantined else "")
                       for e in load_catalog()]
            _emit(args, {"entries": entries}, started)
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
    values = Invariants(code, limit)

    if args.command == "bracket":
        rep = normalized_bracket(code, limit)
        report |= {
            "bracket": rep.raw.render(),
            "writhe": rep.writhe,
            "normalized_bracket": rep.normalized.render(),
        }
        if args.format == "json":
            report |= {"bracket_terms": rep.raw.to_json(),
                       "normalized_terms": rep.normalized.to_json()}
    elif args.command == "arrow":
        report |= {key: values[key] for key in ARROW_KEYS}
        if args.format == "json":
            report["arrow_terms"] = values.arrow.to_json()
    elif args.command == "affine":
        report |= {
            "affine": values["affine"],
            "max_degree": values["affine_max_degree"],
            "symmetric": values["affine_symmetric"],
        }
        chart = weight_chart(code)
        report["weights"] = chart.to_json() if args.format == "json" else chart.render().splitlines()
    elif args.command == "parity-bracket":
        report |= {
            "parity_bracket": values["parity_bracket"],
            "normalized": values["normalized_parity_bracket"],
            "graphical_count": values["parity_graphical_count"],
        }
        if args.format == "json":
            report["parity_terms"] = values.parity.to_json()
    elif args.command == "odd-writhe":
        compiled = compiled_form(code)
        report |= {
            "odd_writhe": values["odd_writhe"],
            "odd_crossings": sorted(values.odd.odd_crossings),
            "parity": dict(zip(compiled.labels, compiled.parity)),
        }
    elif args.command == "genus":
        report["genus"] = values["genus"]
    elif args.command == "closure":
        closed = virtual_closure(code)
        report |= {
            "closure": serialize(closed).strip().splitlines(),
            "normalized_bracket": normalized_bracket(closed, limit).normalized.render(),
        }
    elif args.command == "height-bounds":
        report |= height_bounds(code, limit).to_json()
    elif args.command == "invariants":
        for key in INVARIANTS_KEYS:
            try:
                report[key] = values[key]
            except ShapeError:  # affine, genus, evenly-intersticed: undefined for the shape
                report[key] = None
        if report["affine"] is None:
            del report["affine_symmetric"]
        standard = code.is_standard_knotoid()
        report["height_bounds"] = values.height.to_json() if standard else None
        evidence = {
            "nonzero odd writhe": report["odd_writhe"] != 0,
            "nonzero affine index": report["affine"] not in (None, "0"),
            "positive Lambda-degree": report["lambda_degree"] > 0,
        }
        report["proper_evidence"] = [claim for claim, holds in evidence.items() if holds]
        if standard:
            report["virtuality"] = VirtualityReport.of(
                values.affine, values.arrow, values.parity
            ).to_json()
        report["move_count"] = _move_table(code, code.crossing_count()).total
    else:
        raise KnotoidError(f"unknown command {args.command!r}")

    _emit(args, report, started)
    return 0


class _Parser(argparse.ArgumentParser):
    """Refuses with ``BadArgument``, not exit 2; sub-parsers share the class."""

    def error(self, message):
        raise BadArgument(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by every call: do not modify it."""
    parser = _Parser(
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
    try:
        return _run(build_parser().parse_args(argv))
    except KnotoidError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}},
                         sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
