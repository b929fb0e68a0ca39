"""capcheck command line.

    capcheck validate --geometry 2,4 cap.txt
    capcheck check    --geometry 12,4 --shards 8 --workers 4 big_cap.txt
    capcheck extend   --geometry 3,4 --seed 7 partial.txt
    capcheck quantum  --geometry 2,4 hyperoval.txt
    capcheck bench    --geometry 3,4 cap_a.txt cap_b.txt

Input `-` reads stdin.  Exit codes: 0 success or complete, 1 incomplete
(or not a quantum cap), 2 not a cap, 3 parse or usage error, 4 resource
or geometry bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .cap import Cap, greedy_extend, parse_cap, validate_cap, write_cap
from .completeness import CompletenessReport, check_fast, check_naive, check_oracle, check_split
from .errors import (
    CapFormatError,
    CapTooLargeError,
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

WITNESS_CAP = 10


@dataclass(frozen=True)
class RunConfig:
    r: int
    q: int
    modulus: Optional[int]
    inputs: tuple[str, ...]
    algorithm: str
    shards: int
    workers: int
    seed: int
    fmt: str
    output: Optional[str]
    validate: bool
    all_witnesses: bool

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        inputs = args.inputs if isinstance(args.inputs, list) else [args.inputs]
        return cls(
            r=args.geometry[0],
            q=args.geometry[1],
            modulus=args.modulus,
            inputs=tuple(inputs),
            algorithm=args.algorithm,
            shards=args.shards,
            workers=args.workers,
            seed=args.seed,
            fmt=args.format,
            output=args.output,
            validate=args.validate,
            all_witnesses=args.all_witnesses,
        )


class _Parser(argparse.ArgumentParser):
    """argparse that exits 3 on usage errors instead of 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _geometry_arg(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected r,q but got {text!r}")
    try:
        r, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers r,q but got {text!r}")
    return r, q


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--geometry", type=_geometry_arg, required=True, metavar="r,q",
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

    def add_command(name: str, func, summary: str, nargs: str = "?") -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=summary)
        p.add_argument("inputs", nargs=nargs, default="-", metavar="input")
        # RunConfig fields the command has no option for; its own options override these
        p.set_defaults(func=func, algorithm="fast", shards=1, workers=1, seed=0, validate=True,
                       all_witnesses=False)
        return p

    add_command("validate", cmd_validate, "check the cap property")

    p_check = add_command("check", cmd_check, "check completeness")
    p_check.add_argument("--algorithm", choices=("fast", "naive", "oracle"), default="fast")
    p_check.add_argument("--shards", type=int, default=1, metavar="s",
                         help="run the next power of two >= s bit-map windows")
    p_check.add_argument("--workers", type=int, default=1, metavar="w")
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
    add_command("bench", cmd_bench, "time fast vs naive", nargs="+")

    return parser


# ---------------------------------------------------------------------------


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="ascii")


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.output:
        Path(cfg.output).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _load_cap(cfg: RunConfig, path: str) -> Cap:
    g = Geometry(cfg.r, cfg.q, cfg.modulus)
    return parse_cap(_read_input(path), g)


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
        shown = rep.uncovered if all_witnesses else rep.uncovered[:WITNESS_CAP]
        for u in shown:
            lines.append(f"  uncovered {int(u):#x} {_coords(int(u), g)}")
        if not all_witnesses and rep.uncovered_count > WITNESS_CAP:
            lines.append(f"  ... {rep.uncovered_count - WITNESS_CAP} more")
    return "\n".join(lines)


# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    c = _load_cap(cfg, cfg.inputs[0])
    violation = validate_cap(c)
    if cfg.fmt == "json":
        payload = {
            "valid": violation is None,
            "n": c.n,
            "geometry": c.geometry.label,
            "witness": list(violation.triple) if violation else None,
        }
        _emit(json.dumps(payload), cfg)
    elif violation is None:
        _emit(f"cap: {c.n} points in {c.geometry.label}", cfg)
    else:
        triple = " ".join(_coords(p, c.geometry) for p in violation.triple)
        _emit(f"not a cap: {violation} = {triple}", cfg)
    return EXIT_OK if violation is None else EXIT_NOT_A_CAP


def _run_check(c: Cap, cfg: RunConfig) -> CompletenessReport:
    if cfg.algorithm == "naive":
        return check_naive(c)
    if cfg.algorithm == "oracle":
        return check_oracle(c)
    if cfg.shards > 1 or cfg.workers > 1:
        return check_split(c, cfg.shards, cfg.workers)
    return check_fast(c)


def cmd_check(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    c = _load_cap(cfg, cfg.inputs[0])
    rep = _run_check(c, cfg)
    if cfg.validate and not rep.is_cap:
        _emit(f"not a cap: {validate_cap(c)}", cfg)  # the slow path, for the witness
        return EXIT_NOT_A_CAP
    if cfg.fmt == "json":
        _emit(json.dumps(rep.to_json_dict(WITNESS_CAP, cfg.all_witnesses)), cfg)
    else:
        _emit(_report_human(rep, c.geometry, cfg.all_witnesses), cfg)
    return EXIT_OK if rep.complete else EXIT_INCOMPLETE


def cmd_extend(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    c = _load_cap(cfg, cfg.inputs[0])
    ext = greedy_extend(c, order_seed=cfg.seed)
    _emit(write_cap(ext, fmt="text", header=True), cfg)
    return EXIT_OK


def cmd_quantum(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    c = _load_cap(cfg, cfg.inputs[0])
    violation = validate_cap(c)
    if violation is not None:
        _emit(f"not a cap: {violation}", cfg)
        return EXIT_NOT_A_CAP
    verdict = verify_quantum_cap(c)
    if cfg.fmt == "json":
        _emit(json.dumps(verdict.to_json_dict()), cfg)
    else:
        lines = [f"{key}: {value}" for key, value in verdict.to_json_dict().items()]
        _emit("\n".join(lines), cfg)
    return EXIT_OK if verdict.is_quantum_cap else EXIT_INCOMPLETE


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    rows = []
    for path in cfg.inputs:
        c = _load_cap(cfg, path)
        fast = check_fast(c)
        if not fast.is_cap:
            _emit(f"not a cap ({path}): {validate_cap(c)}", cfg)
            return EXIT_NOT_A_CAP
        for rep in (fast, check_naive(c)):
            rows.append(
                {
                    "n": rep.n,
                    "algorithm": rep.algorithm,
                    "elapsed_ms": rep.elapsed_ms,
                    "peak_coverage_bytes": rep.peak_coverage_bytes,
                    "pairs_processed": rep.pairs_processed,
                }
            )
    if cfg.fmt == "json":
        _emit(json.dumps(rows), cfg)
        return EXIT_OK
    header = f"{'n':>8} {'algorithm':>9} {'elapsed_ms':>12} {'peak_bytes':>12} {'pairs':>12}"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['n']:>8} {row['algorithm']:>9} {row['elapsed_ms']:>12.2f} "
            f"{row['peak_coverage_bytes']:>12} {row['pairs_processed']:>12}"
        )
    for i in range(0, len(rows), 2):
        fast_ms, naive_ms = rows[i]["elapsed_ms"], rows[i + 1]["elapsed_ms"]
        if fast_ms > 0:
            lines.append(f"n={rows[i]['n']}: naive/fast ratio {naive_ms / fast_ms:.1f}x")
    _emit("\n".join(lines), cfg)
    return EXIT_OK


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
    except (GeometryTooLargeError, CapTooLargeError) as exc:
        print(f"capcheck: bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except InvalidCapError as exc:
        print(f"capcheck: not a cap: {exc}", file=sys.stderr)
        return EXIT_NOT_A_CAP
    except OSError as exc:
        print(f"capcheck: cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
