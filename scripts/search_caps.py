#!/usr/bin/env python3
"""Greedy cap search over a range of seeds.

Runs the greedy completion from the empty cap once per seed, prints the
size histogram and the best seed, and optionally writes the largest cap
found.  Example:

    python3 scripts/search_caps.py --geometry 3,4 --seeds 2000 --best-out best17.txt
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

from capcheck import Cap, Geometry, greedy_extend, write_cap
from capcheck.cli import geometry_arg, positive_int


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--geometry", type=geometry_arg, required=True, metavar="r,q")
    ap.add_argument("--seeds", type=positive_int, default=1000)
    ap.add_argument("--start", type=int, default=0, help="first seed (default 0)")
    ap.add_argument("--best-out", default=None, metavar="path")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    g = Geometry(*args.geometry)
    empty = Cap(g, ())
    sizes: Counter[int] = Counter()
    best: Cap | None = None
    best_seed = -1
    t0 = time.perf_counter()
    for seed in range(args.start, args.start + args.seeds):
        c = greedy_extend(empty, order_seed=seed)
        sizes[c.n] += 1
        if best is None or c.n > best.n:
            best, best_seed = c, seed
    elapsed = time.perf_counter() - t0

    print(f"{g.label}: {args.seeds} greedy runs in {elapsed:.1f}s")
    for size in sorted(sizes):
        print(f"  n={size:<4} x{sizes[size]}")
    print(f"best: n={best.n} at seed {best_seed}")
    if args.best_out:
        Path(args.best_out).write_text(write_cap(best, header=True))
        print(f"wrote {args.best_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
