"""Seeded greedy cap search, one seed after another.

For each seed s: `greedy_extend(Cap(PG(r,q), ()), s)`, then `check_fast`,
which must report the cap complete, then `verify_quantum_cap`.  The
seeds run in one process with no extra threads.

run.py starts this file as a child process, so that the child's own
peak RSS is the search's, and imports `run_search` for the traced pass:

    PYTHONPATH=src python3 perfbench/searchloop.py --geometry 3,4 --seed 0 --seeds 1000

The child first runs WARMUP_SEEDS seeds untimed, then prints one JSON
object: each seed's wall time, the size histogram and quantum-cap count
of the seeds, and how many seeds broke an invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter

WARMUP_SEEDS = 20


def run_search(r: int, q: int, start: int, seeds: int) -> dict:
    """Search seeds start, start+1, ..., start+seeds-1.

    Functions are looked up on their modules at call time, so a tracer
    that patched them sees every call.
    """
    import capcheck.cap as cap_mod
    import capcheck.completeness as comp_mod
    import capcheck.geometry as geo_mod
    import capcheck.quantum as quantum_mod

    g = geo_mod.Geometry(r, q)
    empty = cap_mod.Cap(g, ())
    # no cap of PG(2,q), q even, exceeds q+2 points; none of PG(3,q), q > 2, exceeds q^2+1
    max_size = {2: q + 2, 3: q * q + 1}.get(r, g.point_count)
    times_ms: list[float] = []
    sizes: Counter[int] = Counter()
    quantum = 0
    bad = 0
    for seed in range(start, start + seeds):
        t0 = time.perf_counter()
        c = cap_mod.greedy_extend(empty, seed)
        report = comp_mod.check_fast(c)
        verdict = quantum_mod.verify_quantum_cap(c)
        times_ms.append((time.perf_counter() - t0) * 1e3)
        if not report.complete or not 0 < c.n <= max_size:
            bad += 1
        sizes[c.n] += 1
        quantum += verdict.is_quantum_cap
    return {
        "seeds": seeds,
        "times_ms": times_ms,
        "sizes": {str(k): v for k, v in sorted(sizes.items())},
        "quantum": quantum,
        "bad": bad,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--geometry", required=True, metavar="r,q")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seeds", type=int, required=True)
    ns = ap.parse_args(argv)
    r, q = (int(t) for t in ns.geometry.split(","))
    run_search(r, q, ns.seed, WARMUP_SEEDS)  # first calls run slower; not timed
    print(json.dumps(run_search(r, q, ns.seed, ns.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
