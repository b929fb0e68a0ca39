"""Completeness checking: is every outside point on a secant of the cap?

Three interchangeable checkers plus a sharded variant:

fast    marks the raw (non-normalized) code of every combination
        alpha*P1 + P2 in a bit-map over the whole code range, then
        reads the marked codes back and flags the point each is a
        multiple of, by one split-table multiply (geometry.py).  The
        codes are formed in clusters of at most 2^20 by their top bits,
        each staged a byte per code in cache and packed into the map
        once (coverage.py).  No normalization anywhere on the hot path.
naive   the baseline it replaces: normalizes every generated point and
        marks a byte per normalized point.
oracle  the definition, point by point, with no coverage map at all;
        only for small geometries.
split   the fast checker over the next power of two >= shards windows
        of the code range, one bit-map per window and one alive per
        worker.  Each window holds whole clusters of the generators by
        top code bits (coverage.py), so it forms only the secant codes
        that land in it and reads back only its own marked codes.
        Verdict, uncovered set and counters are identical to fast for
        every (shards, workers); the report keeps the requested shard
        count.  At most 2^16 windows run, on at most 64 threads.

Each also reads the cap property off its own marks: the first cap point
on a secant of two others gives the witness triple (`violation`).  All
four agree exactly on the verdict, the uncovered set and `violation`;
the test suite holds them to that.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cap import Cap, CapViolation, _collinear_triple
from .coverage import (DEFAULT_MAX_COVERAGE_BYTES, CoverageMap, SecantClusters, check_secant_counts,
                       mark_pair_secants, multiples_table)
from .errors import GeometryTooLargeError
from .geometry import (
    Geometry,
    enumerate_points,
    index_of_point,
    normalize,
    points_by_index,
    scalar_mul_codes,
    scalar_mul_point,
)

ORACLE_POINT_LIMIT = 1_000_000
_MAX_WINDOW_BITS = 16
_MAX_WORKERS = 64
# codes per scan step: its uint64 temporaries stay in the L2 cache
_SCAN_CHUNK = 1 << 15


@dataclass(eq=False)
class CompletenessReport:
    complete: bool
    uncovered: np.ndarray  # normalized codes, ascending
    pairs_processed: int
    marks_issued: int
    algorithm: str  # fast | naive | oracle
    shards: int
    n: int
    geometry: str
    elapsed_ms: float
    peak_coverage_bytes: int
    violation: CapViolation | None  # a collinear triple of cap points; not part of the report

    @property
    def is_cap(self) -> bool:
        return self.violation is None

    @property
    def uncovered_count(self) -> int:
        return int(self.uncovered.size)

    def to_json_dict(self, max_witnesses: int = 10, all_witnesses: bool = False) -> dict:
        sample = self.uncovered if all_witnesses else self.uncovered[:max_witnesses]
        return {
            "complete": self.complete,
            "n": self.n,
            "geometry": self.geometry,
            "algorithm": self.algorithm,
            "shards": self.shards,
            "uncovered_count": self.uncovered_count,
            "uncovered_sample": [int(u) for u in sample],
            "pairs_processed": self.pairs_processed,
            "elapsed_ms": self.elapsed_ms,
            "peak_coverage_bytes": self.peak_coverage_bytes,
        }


def _finish(
    c: Cap,
    on_secant: list[int],
    uncovered: np.ndarray,
    pairs: int,
    marks: int,
    algorithm: str,
    shards: int,
    peak: int,
    t0: float,
) -> CompletenessReport:
    return CompletenessReport(
        complete=uncovered.size == 0,
        uncovered=uncovered,
        pairs_processed=pairs,
        marks_issued=marks,
        algorithm=algorithm,
        shards=shards,
        n=c.n,
        geometry=c.geometry.label,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
        peak_coverage_bytes=peak,
        violation=_collinear_triple(c, on_secant[0]) if on_secant else None,
    )


# ---------------------------------------------------------------------------
# fast checker and its windows
# ---------------------------------------------------------------------------


def _scan_window(cov: CoverageMap, g: Geometry, covered: np.ndarray) -> None:
    """Flag, in enumeration order, the points with a multiple marked in cov.

    The representative alpha*Q of the block-d point Q = q^d + s is
    alpha*q^d + alpha*s, in the strip [alpha*q^d, (alpha+1)*q^d).  Each
    strip part inside the window is read from its marked codes x, in
    cache-sized chunks: x covers s = alpha^-1 * (x - alpha*q^d).  Flags
    are only ever set, so windows may scan into one array at once.
    """
    pos = 0
    for d in range(g.r + 1):
        base = 1 << (g.k * d)
        flags = covered[pos : pos + base]
        for alpha in g.field.nonzero_elements():
            strip_lo = alpha * base
            lo, hi = max(cov.lo, strip_lo), min(cov.hi, strip_lo + base)
            inv = g.field.inv(alpha)
            for start in range(lo, hi, _SCAN_CHUNK):
                x = cov.marked_codes(start, min(hi, start + _SCAN_CHUNK))
                flags[scalar_mul_codes(inv, x - np.uint64(strip_lo), g).astype(np.intp)] = True
        pos += base


def check_fast(c: Cap) -> CompletenessReport:
    """The normalization-free checker over the full code range."""
    return check_split(c, 1)


def check_split(c: Cap, shards: int, workers: int = 1) -> CompletenessReport:
    """Fast checker over the next power of two >= `shards` windows; same report for any (shards, workers).

    At most 2^16 windows run, on at most 64 threads: each window replays
    the clustering of every pair (1024 windows of a PG(10,4) 1500-cap
    take 11.8 s on a 2-vCPU Xeon), and the pool starts a thread per
    window handed to it while none is idle.
    """
    if shards < 1 or workers < 1:
        raise ValueError("shards and workers must be >= 1")
    t0 = time.perf_counter()
    g = c.geometry
    _require_point_flags(g)
    codes = c.codes()
    mult = multiples_table(codes, g)
    # 2^bits >= shards windows, each a whole number of clusters
    bits = min(g.code_bits, _MAX_WINDOW_BITS, (shards - 1).bit_length())
    width = g.code_span >> bits
    windows = [(lo, lo + width) for lo in range(0, g.code_span, width)]
    workers = min(workers, len(windows), _MAX_WORKERS)
    clusters = SecantClusters(mult, codes, g, bits)
    covered = np.zeros(g.point_count, dtype=bool)

    def run_window(window: tuple[int, int]) -> tuple[int, int]:
        cov = CoverageMap(g, window[0], window[1])
        counts = mark_pair_secants(cov, mult, codes, clusters)
        _scan_window(cov, g, covered)
        return counts

    if workers == 1:
        counts = [run_window(w) for w in windows]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(run_window, windows))
    pairs = sum(p for p, _ in counts)
    marks = sum(m for _, m in counts)
    check_secant_counts(c.n, g.q, pairs, marks)
    # a cap point on a secant makes a collinear triple; cap points are never uncovered
    cap_idx = np.array([index_of_point(p, g) for p in c.points], dtype=np.intp)
    on_secant = np.flatnonzero(covered[cap_idx]).tolist()
    covered[cap_idx] = True
    uncovered = points_by_index(np.flatnonzero(~covered).astype(np.uint64), g)
    peak = workers * (-(-width // 8))
    return _finish(c, on_secant, uncovered, pairs, marks, "fast", shards, peak, t0)


def _require_point_flags(g: Geometry) -> None:
    """Raise GeometryTooLargeError, allocating nothing, unless a flag byte per point is within the bound."""
    if g.point_count > DEFAULT_MAX_COVERAGE_BYTES:
        raise GeometryTooLargeError(
            f"{g.label} needs {g.point_count} bytes of per-point flags (> {DEFAULT_MAX_COVERAGE_BYTES})"
        )


# ---------------------------------------------------------------------------
# normalizing baseline
# ---------------------------------------------------------------------------


def check_naive(c: Cap) -> CompletenessReport:
    """Baseline: normalize every generated point, mark normalized codes."""
    t0 = time.perf_counter()
    g = c.geometry
    _require_point_flags(g)
    codes = list(c.points)
    n = c.n
    rows = [[scalar_mul_point(a, p, g) for a in g.field.nonzero_elements()] for p in codes]
    covered = bytearray(g.point_count)
    for i in range(n):
        row_i = rows[i]
        for j in range(i + 1, n):
            cj = codes[j]
            for ai in row_i:
                covered[index_of_point(normalize(ai ^ cj, g), g)] = 1
    on_secant = [t for t, p in enumerate(codes) if covered[index_of_point(p, g)]]
    capset = set(codes)
    uncovered = np.array(
        [
            p
            for idx, p in enumerate(enumerate_points(g))
            if not covered[idx] and p not in capset
        ],
        dtype=np.uint64,
    )
    pairs = n * (n - 1) // 2
    return _finish(c, on_secant, uncovered, pairs, pairs * (g.q - 1), "naive", 1, g.point_count, t0)


# ---------------------------------------------------------------------------
# definition-level oracle
# ---------------------------------------------------------------------------


def check_oracle(c: Cap) -> CompletenessReport:
    """Point-by-point application of the covering definition.

    A point is covered when one of the lines joining it to a cap point
    passes through a second cap point; the input is a cap when no cap
    point is covered by the others.  Quadratic per point and happily
    so; restricted to geometries with at most ORACLE_POINT_LIMIT points.
    """
    g = c.geometry
    if g.point_count > ORACLE_POINT_LIMIT:
        raise GeometryTooLargeError(
            f"{g.label} has {g.point_count} points; oracle limit is {ORACLE_POINT_LIMIT}"
        )
    t0 = time.perf_counter()
    cap_index = {p: t for t, p in enumerate(c.points)}
    nonzero = list(g.field.nonzero_elements())
    uncovered = []
    on_secant = []
    for qpt in enumerate_points(g):
        reps = [scalar_mul_point(a, qpt, g) for a in nonzero]
        covered = False
        for p in c.points:
            if p == qpt:
                continue
            for rep in reps:
                if normalize(rep ^ p, g) in cap_index:
                    covered = True
                    break
            if covered:
                break
        if qpt in cap_index:
            if covered:
                on_secant.append(cap_index[qpt])
        elif not covered:
            uncovered.append(qpt)
    return _finish(c, sorted(on_secant), np.array(uncovered, dtype=np.uint64), 0, 0, "oracle", 1, 0, t0)


# ---------------------------------------------------------------------------


def reports_agree(a: CompletenessReport, b: CompletenessReport) -> bool:
    """Same verdict, the same uncovered set and the same witness of a non-cap."""
    return bool((a.complete, a.violation) == (b.complete, b.violation) and np.array_equal(a.uncovered, b.uncovered))
