#!/usr/bin/env python3
"""Large-geometry demonstration: completeness in PG(12,4).

Loads a cap file, or draws a seeded pseudorandom cap of --size points
(a complete cap, if the greedy growth completes first), and runs the
sharded checker, which also decides the cap property from its marks
and, on a non-cap, prints the collinear triple found from them.
The coverage windows bound the bit-map memory: with --shards 32
--workers 4 the bit-maps alive at any moment total 1 MiB instead of the
full 8 MiB, next to one 1 MiB marking stage per worker.  The covered
flags, a bit per point (2.7 MiB), are not split: each worker holds a
copy, ORed into one at the end.  Each window forms only its own
secant codes, so the shard count costs little time.  Growing the cap
marks the secants through each point it accepts a byte per code
(64 MiB) until it is complete.  Examples:

    python3 scripts/pg12_stress.py --size 10000
    python3 scripts/pg12_stress.py --cap-file cap12.txt --shards 32 --workers 4
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from capcheck import Geometry, check_split, parse_cap, random_cap
from capcheck.cli import positive_int


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cap-file", default=None, metavar="path")
    ap.add_argument("--size", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--shards", type=positive_int, default=1)
    ap.add_argument("--workers", type=positive_int, default=1)
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    g = Geometry(12, 4)
    t0 = time.perf_counter()
    if args.cap_file:
        c = parse_cap(Path(args.cap_file).read_text(), g)
        print(f"loaded {c.n} points from {args.cap_file}")
    else:
        c = random_cap(g, args.size, args.seed)
        print(f"grew a {c.n}-point cap (seed {args.seed}) in {time.perf_counter() - t0:.1f}s")

    rep = check_split(c, args.shards, args.workers)
    if rep.violation is not None:
        print(f"not a cap: {rep.violation}")
        return 2
    print(json.dumps(rep.to_json_dict(), indent=2))
    print(
        f"a cap, {'complete' if rep.complete else f'{rep.uncovered_count} uncovered'}; "
        f"{rep.marks_issued} marks in {rep.elapsed_ms / 1e3:.1f}s, "
        f"peak window memory {rep.peak_coverage_bytes} bytes"
    )
    return 0 if rep.complete else 1


if __name__ == "__main__":
    sys.exit(main())
