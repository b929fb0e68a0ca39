"""capcheck command line.

    capcheck validate --geometry 2,4 cap.txt
    capcheck check    --geometry 12,4 --shards 8 --workers 4 big_cap.txt
    capcheck extend   --geometry 3,4 --seed 7 partial.txt
    capcheck quantum  --geometry 2,4 hyperoval.txt

Each command reads one cap file; input `-` (the default) reads stdin.
`check --algorithm naive --format json` reports `elapsed_ms` as the
fast check does, to compare the two.  Exit codes: 0 success or
complete, 1 incomplete (or not a quantum cap), 2 not a cap, 3 parse or
usage error (or an unreadable input or unwritable --output), 4 resource
or geometry bound exceeded, 141 stdout closed early (as by `| head`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .cap import Cap, greedy_extend, parse_cap, validate_cap, write_cap
from .completeness import CompletenessReport, check_fast, check_naive, check_oracle, check_split
from .errors import (
    CapFormatError,
    GeometryTooLargeError,
    InvalidCapError,
    OutOfRangeError,
    ReduciblePolynomialError,
    UnsupportedFieldError,
    ZeroVectorError,
)
from .geometry import Geometry, decode_point
from .quantum import verify_quantum_cap

EXIT_OK = 0
EXIT_INCOMPLETE = 1
EXIT_NOT_A_CAP = 2
EXIT_PARSE = 3
EXIT_BOUND = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by one

WITNESS_CAP = 10


class _Parser(argparse.ArgumentParser):
    """argparse that exits 3 on usage errors instead of 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def geometry_arg(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected r,q but got {text!r}")
    try:
        r, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers r,q but got {text!r}")
    return r, q


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer but got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--geometry", type=geometry_arg, required=True, metavar="r,q",
        help="projective space PG(r,q), q a power of two",
    )
    common.add_argument(
        "--modulus", type=int, default=None, metavar="m",
        help="irreducible polynomial for GF(q), as an integer bit-mask",
    )
    common.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="report format (default: human)",
    )
    common.add_argument(
        "--output", default=None, metavar="path",
        help="write the report or cap here instead of stdout",
    )

    parser = _Parser(prog="capcheck", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=summary)
        p.add_argument("input", nargs="?", default="-")
        p.set_defaults(func=func)
        return p

    add_command("validate", cmd_validate, "check the cap property")

    p_check = add_command("check", cmd_check, "check completeness")
    p_check.add_argument("--algorithm", choices=("fast", "naive", "oracle"), default="fast")
    p_check.add_argument("--shards", type=positive_int, default=1, metavar="s",
                         help="run the next power of two >= s bit-map windows")
    p_check.add_argument("--workers", type=positive_int, default=1, metavar="w")
    p_check.add_argument(
        "--no-validate", dest="validate", action="store_false",
        help="report completeness even if the input is not a cap",
    )
    p_check.add_argument(
        "--all-witnesses", action="store_true",
        help="list every uncovered point instead of the first 10",
    )

    p_extend = add_command("extend", cmd_extend, "grow to a complete cap")
    p_extend.add_argument("--seed", type=int, default=0, metavar="n")

    add_command("quantum", cmd_quantum, "quantum-cap verdict (q=4)")

    return parser


# ---------------------------------------------------------------------------


class _InputError(Exception):
    """The input could not be read."""


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise _InputError(exc) from exc


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.output:
        Path(args.output).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text, flush=True)  # a closed stdout fails here, inside main


def _load_cap(args: argparse.Namespace) -> Cap:
    g = Geometry(*args.geometry, args.modulus)
    return parse_cap(_read_input(args.input), g)


def _coords(code: int, g: Geometry) -> str:
    return "(" + " ".join(str(x) for x in decode_point(code, g)) + ")"


def _report_human(rep: CompletenessReport, g: Geometry, all_witnesses: bool) -> str:
    lines = [
        f"{rep.geometry}  n={rep.n}  algorithm={rep.algorithm}  shards={rep.shards}",
        f"complete: {'yes' if rep.complete else 'no'}",
        f"pairs_processed: {rep.pairs_processed}",
        f"marks_issued: {rep.marks_issued}",
        f"elapsed: {rep.elapsed_ms:.2f} ms",
        f"peak_coverage_bytes: {rep.peak_coverage_bytes}",
    ]
    if not rep.complete:
        lines.append(f"uncovered_count: {rep.uncovered_count}")
        shown = rep.uncovered if all_witnesses else rep.witnesses(WITNESS_CAP)
        for u in shown.tolist():
            lines.append(f"  uncovered {u:#x} {_coords(u, g)}")
        if not all_witnesses and rep.uncovered_count > WITNESS_CAP:
            lines.append(f"  ... {rep.uncovered_count - WITNESS_CAP} more")
    return "\n".join(lines)


# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    c = _load_cap(args)
    violation = validate_cap(c)
    if args.format == "json":
        payload = {
            "valid": violation is None,
            "n": c.n,
            "geometry": c.geometry.label,
            "witness": list(violation.triple) if violation else None,
        }
        _emit(json.dumps(payload), args)
    elif violation is None:
        _emit(f"cap: {c.n} points in {c.geometry.label}", args)
    else:
        triple = " ".join(_coords(p, c.geometry) for p in violation.triple)
        _emit(f"not a cap: {violation} = {triple}", args)
    return EXIT_OK if violation is None else EXIT_NOT_A_CAP


def _run_check(c: Cap, args: argparse.Namespace) -> CompletenessReport:
    if args.algorithm == "naive":
        return check_naive(c)
    if args.algorithm == "oracle":
        return check_oracle(c)
    if args.shards > 1 or args.workers > 1:
        return check_split(c, args.shards, args.workers)
    return check_fast(c)


def cmd_check(args: argparse.Namespace) -> int:
    if args.algorithm != "fast" and (args.shards > 1 or args.workers > 1):
        raise ValueError(f"--shards and --workers need --algorithm fast, not {args.algorithm}")
    c = _load_cap(args)
    rep = _run_check(c, args)
    if args.validate and rep.violation is not None:
        _emit(f"not a cap: {rep.violation}", args)
        return EXIT_NOT_A_CAP
    if args.format == "json":
        _emit(json.dumps(rep.to_json_dict(WITNESS_CAP, args.all_witnesses)), args)
    else:
        _emit(_report_human(rep, c.geometry, args.all_witnesses), args)
    return EXIT_OK if rep.complete else EXIT_INCOMPLETE


def cmd_extend(args: argparse.Namespace) -> int:
    c = _load_cap(args)
    ext = greedy_extend(c, order_seed=args.seed)
    _emit(write_cap(ext, fmt="text", header=True), args)
    return EXIT_OK


def cmd_quantum(args: argparse.Namespace) -> int:
    c = _load_cap(args)
    violation = validate_cap(c)
    if violation is not None:
        _emit(f"not a cap: {violation}", args)
        return EXIT_NOT_A_CAP
    verdict = verify_quantum_cap(c)
    if args.format == "json":
        _emit(json.dumps(verdict.to_json_dict()), args)
    else:
        lines = [f"{key}: {value}" for key, value in verdict.to_json_dict().items()]
        _emit("\n".join(lines), args)
    return EXIT_OK if verdict.is_quantum_cap else EXIT_INCOMPLETE


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapFormatError, ZeroVectorError, OutOfRangeError) as exc:
        print(f"capcheck: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UnsupportedFieldError, ReduciblePolynomialError, ValueError) as exc:
        print(f"capcheck: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GeometryTooLargeError as exc:
        print(f"capcheck: bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except InvalidCapError as exc:
        print(f"capcheck: not a cap: {exc}", file=sys.stderr)
        return EXIT_NOT_A_CAP
    except _InputError as exc:
        print(f"capcheck: cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except OSError as exc:
        print(f"capcheck: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
