"""Command line entry point.

    sodlab <analyze|partition|sod|nccr|hilbert> --config cfg.json [options]
    sodlab sod --preset pfaffian:n=1,h=3

Exit codes: 0 success, 2 configuration/validation error, 3 precondition
failure (the report with the failure context is still emitted).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .linprog import InputError
from .partition import PreconditionError
from .report import (SUBCOMMANDS, error_document, parse_config,
                     preset_config, render, run_job)
from .sod import preset


def _preset_int(text: str, context: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"bad preset integer {text!r} in {context!r}") from None


def _parse_preset_spec(spec: str):
    """Parse preset strings like pfaffian:n=1,h=3 | determinantal:n=2,h=3 |
    sl2:3,1 | toric | toric:1,1,-1,-1."""
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name in ("pfaffian", "determinantal"):
        params = {}
        for part in filter(None, (p.strip() for p in rest.split(","))):
            key, _, val = part.partition("=")
            if key.strip() not in ("n", "h"):
                raise InputError(f"bad preset parameter {part!r}")
            params[key.strip()] = _preset_int(val, part)
        if set(params) != {"n", "h"}:
            raise InputError(f"preset {name} needs n=<int>,h=<int>")
        return preset(name, **params)
    if name == "sl2":
        if not rest.strip():
            raise InputError("sl2 preset needs a degree list, e.g. sl2:3 or sl2:1,2")
        degrees = [_preset_int(p, spec) for p in rest.split(",")]
        return preset("sl2", degrees=degrees)
    if name == "toric":
        if rest.strip():
            weights = [((_preset_int(p, spec),), 1) for p in rest.split(",")]
        else:
            weights = None
        return preset("toric", weights=weights)
    raise InputError(f"unknown preset {name!r}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a parser is a web of
    reference cycles, so one per call would be garbage for the cycle
    collector after every job."""
    parser = argparse.ArgumentParser(
        prog="sodlab",
        description="Exact combinatorics of windowed ordered decompositions "
                    "for linearized quotient data.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="path to a JSON job configuration")
    parser.add_argument("--preset",
                        help="pfaffian:n=1,h=3 | determinantal:n=1,h=2 | "
                             "sl2:d1,d2,... | toric[:w1,w2,...]")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    cfg = rep = None
    try:
        if (args.config is None) == (args.preset is None):
            raise InputError("provide exactly one of --config or --preset")
        if args.config is not None:
            try:
                raw = json.loads(Path(args.config).read_text())
            except OSError as e:
                raise InputError(f"cannot read config: {e}") from None
            except (ValueError, RecursionError) as e:
                # bad JSON or UTF-8, too many digits, too deep a nesting
                raise InputError(f"config is not valid JSON: {e}") from None
            cfg = parse_config(raw)
        else:
            p = _parse_preset_spec(args.preset)
            cfg, rep = preset_config(p), p.rep
        doc = run_job(args.subcommand, cfg, rep)
        code = 0
    except InputError as e:
        sys.stderr.write(f"sodlab: configuration error: {e}\n")
        return 2
    except PreconditionError as e:
        doc = error_document(args.subcommand, cfg, e)
        code = 3

    payload = render(doc, args.format)
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
