"""Completeness checking: is every outside point on a secant of the cap?

Three interchangeable checkers plus a sharded variant:

fast    marks the raw (non-normalized) code of every combination
        alpha*P1 + P2 in a bit-map over the whole code range, then
        reads the map back in aligned chunks and sets the covered bit
        of every point with a marked multiple.  Scaling acts on each
        coordinate alone, so a chunk of a strip of alpha-multiples,
        read through one fixed permutation per alpha, is the covered
        bits of one run of points.  The codes are formed in clusters
        of at most 2^20 by their top bits, each staged a byte per code
        in cache and packed into the map once (coverage.py).  No
        normalization anywhere on the hot path.
naive   the baseline it replaces: normalizes every generated point and
        marks a byte per normalized point.
oracle  the definition, point by point, with no coverage map at all;
        only for small geometries.
split   the fast checker over the next power of two >= shards windows
        of the code range, one bit-map per window and one alive per
        worker.  Each window holds whole clusters of the generators by
        top code bits (coverage.py), so it forms only the secant codes
        that land in it and scans only its own codes.
        Verdict, uncovered set and counters are identical to fast for
        every (shards, workers); the report keeps the requested shard
        count.  At most 2^16 windows run, on at most 64 threads.

Fast and split hold a covered bit per point (PointFlags), 2.7 MiB for
PG(12,4), besides their maps; split holds a copy per worker, ORed into
one when the workers are done.  Bit t stands for the point of index t
in enumerate_points order, the one point order of the package.  They
count the uncovered points by popcount and build them only when asked:
a report reads its witnesses off the clear bits run by run, through
points_by_index, and `uncovered` holds them all once read.

Each also reads the cap property off its own marks: the first cap point
on a secant of two others gives the witness triple (`violation`).  All
four agree exactly on the verdict, the uncovered set and `violation`;
the test suite holds them to that.  Fast and split mark and scan
through one function, _mark_and_scan, the package's one secant-marking
path: validate_cap reads check_fast's violation, and greedy_extend
grows from the covered bits it returns.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .cap import Cap, CapViolation, _collinear_triple
from .coverage import (DEFAULT_MAX_COVERAGE_BYTES, CoverageMap, SecantClusters, check_secant_counts,
                       mark_pair_secants, multiples_table, require_map_fits)
from .errors import GeometryTooLargeError, InvariantError
from .geometry import (
    Geometry,
    enumerate_points,
    index_of_point,
    indices_of_points,
    normalize,
    points_by_index,
    scalar_mul_codes,
    scalar_mul_point,
)

ORACLE_POINT_LIMIT = 1_000_000
_MAX_WINDOW_BITS = 16
_MAX_WORKERS = 64
# a scan chunk holds about 2^this codes, rounded to a power of q: its
# gather table, 8 bytes a code, stays in the L2 cache
_SCAN_BITS = 14
# covered-bit bytes read at a time, per run of witnesses and per popcount step
_WITNESS_RUN_BYTES = 1 << 12
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


@dataclass(eq=False)
class CompletenessReport:
    complete: bool
    uncovered_count: int
    # the uncovered points, normalized codes ascending, in runs: read on demand from
    # the checker's covered bits, which the report keeps
    uncovered_runs: Callable[[], Iterator[np.ndarray]]
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

    @cached_property
    def uncovered(self) -> np.ndarray:
        """Every uncovered point, normalized codes ascending: built on first access."""
        return self.witnesses(self.uncovered_count)

    def witnesses(self, limit: int) -> np.ndarray:
        """The first `limit` uncovered points, ascending; reads only the runs that hold them."""
        out = np.empty(min(limit, self.uncovered_count), dtype=np.uint64)
        filled = 0
        runs = self.uncovered_runs()
        while filled < out.size:
            run = next(runs)[: out.size - filled]
            out[filled : filled + run.size] = run
            filled += run.size
        return out

    def to_json_dict(self, max_witnesses: int = 10, all_witnesses: bool = False) -> dict:
        sample = self.uncovered if all_witnesses else self.witnesses(max_witnesses)
        return {
            "complete": self.complete,
            "n": self.n,
            "geometry": self.geometry,
            "algorithm": self.algorithm,
            "shards": self.shards,
            "uncovered_count": self.uncovered_count,
            "uncovered_sample": sample.tolist(),
            "pairs_processed": self.pairs_processed,
            "elapsed_ms": self.elapsed_ms,
            "peak_coverage_bytes": self.peak_coverage_bytes,
        }


def _finish(
    c: Cap,
    on_secant: list[int],
    uncovered: np.ndarray | PointFlags,
    pairs: int,
    marks: int,
    algorithm: str,
    shards: int,
    peak: int,
    t0: float,
) -> CompletenessReport:
    if isinstance(uncovered, np.ndarray):
        count, runs = uncovered.size, lambda: iter((uncovered,))
    else:
        count, runs = uncovered.uncovered_count(), uncovered.uncovered_runs
    return CompletenessReport(
        complete=count == 0,
        uncovered_count=count,
        uncovered_runs=runs,
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
# covered bits, a bit per point
# ---------------------------------------------------------------------------


class PointFlags:
    """A covered bit per point of g, in the order of enumerate_points.

    Bit t of `bits` (little bit order) stands for points_by_index(t), so
    block d, the points q^d + s, starts at bit index_of_point(q^d).
    Bits are only ever set.  One thread writes an object: each worker
    of check_split scans its windows into its own, and the copies are
    ORed once the workers are done.
    """

    __slots__ = ("geometry", "bits")

    def __init__(self, g: Geometry):
        self.geometry = g
        self.bits = np.zeros(-(-g.point_count // 8), dtype=np.uint8)

    def test_and_set(self, codes: np.ndarray) -> np.ndarray:
        """Set the bits of normalized codes; returns whether each was set before."""
        pos = indices_of_points(codes, self.geometry)
        at, masks = (pos >> np.uint64(3)).astype(np.intp), np.left_shift(1, pos & np.uint64(7)).astype(np.uint8)
        was = (self.bits[at] & masks) != 0
        np.bitwise_or.at(self.bits, at, masks)
        return was

    def set_run(self, d: int, run: int, covered: np.ndarray) -> None:
        """Set the bit of the point q^d + run + i of block d wherever covered[i], a byte per point, is 1."""
        if run + covered.size > 1 << (self.geometry.k * d):
            raise InvariantError(f"a run of {covered.size} points from {run} overruns block {d}")
        t = index_of_point(1 << (self.geometry.k * d), self.geometry) + run
        first, end = t >> 3, -(-(t + covered.size) // 8)
        bits = np.unpackbits(self.bits[first:end], bitorder="little")
        bits[t & 7 : (t & 7) + covered.size] |= covered
        self.bits[first:end] = np.packbits(bits, bitorder="little")

    def uncovered_count(self) -> int:
        """Points whose bit is clear, by popcount in steps: take widens its indices to 8 bytes each."""
        steps = range(0, self.bits.size, _WITNESS_RUN_BYTES)
        return self.geometry.point_count - sum(
            int(_POPCOUNT.take(self.bits[a : a + _WITNESS_RUN_BYTES]).sum(dtype=np.int64)) for a in steps)

    def uncovered_runs(self) -> Iterator[np.ndarray]:
        """The points whose bit is clear, ascending, in runs of a slice of `bits` each."""
        g = self.geometry
        for a in range(0, self.bits.size, _WITNESS_RUN_BYTES):
            part = self.bits[a : a + _WITNESS_RUN_BYTES]
            clear = np.unpackbits(part, count=min(8 * part.size, g.point_count - 8 * a), bitorder="little") == 0
            t = np.flatnonzero(clear).view(np.uint64)
            t += np.uint64(8 * a)
            yield points_by_index(t, g)


# ---------------------------------------------------------------------------
# fast checker and its windows
# ---------------------------------------------------------------------------


def _scan_digits(g: Geometry, width: int) -> int:
    """m such that the scan reads q^m codes at a time: about 2^_SCAN_BITS, at most `width`."""
    return min(max(1, round(_SCAN_BITS / g.k)), (width.bit_length() - 1) // g.k)


def _scan_window(cov: CoverageMap, flags: PointFlags) -> None:
    """Set the covered bit of every point with a multiple marked in cov.

    A code x in the strip [alpha*q^d, (alpha+1)*q^d) is a multiple of
    the block-d point alpha^-1 * x = q^d + s, s = alpha^-1 * (x - alpha*q^d).
    Scaling acts on each coordinate alone, so alpha^-1 maps an aligned
    chunk of q^m codes of the strip onto the aligned run of q^m values
    of s that starts at alpha^-1 times the chunk's offset, and bit u of
    the run is the chunk's bit alpha*u: the chunk's bits read through
    gather = alpha * [0, q^m), the same for every chunk.  The window
    is q^m codes wide or more, so for d >= m each strip splits into
    whole chunks; the blocks d < m lie below q^m, in the window at 0,
    and are read there in one pass.
    """
    g = cov.geometry
    m = _scan_digits(g, cov.hi - cov.lo)
    size = 1 << (g.k * m)
    # a byte per code below q^m, and which of them have a marked multiple
    low = cov.bits(0, size) if cov.lo == 0 else None
    low_covered = np.zeros(size, dtype=np.uint8)
    for alpha in g.field.nonzero_elements():
        # the strips [alpha*q^d, (alpha+1)*q^d), d >= m, that meet the window
        strips = [(d, alpha << (g.k * d)) for d in range(m, g.r + 1)
                  if cov.lo < (alpha + 1) << (g.k * d) and alpha << (g.k * d) < cov.hi]
        if low is None and not strips:
            continue
        gather = scalar_mul_codes(alpha, np.arange(size, dtype=np.uint64), g).view(np.intp)
        if low is not None:
            low_covered |= low[gather]
        inv = g.field.inv(alpha)
        for d, strip_lo in strips:
            lo, hi = max(cov.lo, strip_lo), min(cov.hi, strip_lo + (1 << (g.k * d)))
            runs = scalar_mul_codes(inv, np.arange(lo - strip_lo, hi - strip_lo, size, dtype=np.uint64), g)
            for start, run in zip(range(lo, hi, size), runs.tolist()):
                flags.set_run(d, run, cov.bits(start, start + size)[gather])
    if low is not None:
        for d in range(m):
            flags.set_run(d, 0, low_covered[1 << (g.k * d) : 2 << (g.k * d)])


def check_fast(c: Cap) -> CompletenessReport:
    """The normalization-free checker over the full code range."""
    return check_split(c, 1)


def check_split(c: Cap, shards: int, workers: int = 1) -> CompletenessReport:
    """Fast checker over the next power of two >= `shards` windows; same report for any (shards, workers).

    Worker i scans the windows i, i + workers, ... into its own covered
    bits; the workers' bits are ORed once they are all done.  At most
    2^16 windows run, on at most 64 workers: each window replays the
    clustering of every pair (1024 windows of a PG(10,4) 1500-cap take
    11.8 s on a 2-vCPU Xeon), and each worker holds a copy of the bits.
    """
    if shards < 1 or workers < 1:
        raise ValueError("shards and workers must be >= 1")
    t0 = time.perf_counter()
    flags, on_secant, pairs, marks, peak = _mark_and_scan(c, shards, workers)
    return _finish(c, on_secant, flags, pairs, marks, "fast", shards, peak, t0)


def _mark_and_scan(c: Cap, shards: int = 1, workers: int = 1) -> tuple[PointFlags, list[int], int, int, int]:
    """Mark c's secants in check_split's windows and scan them into covered bits: the one secant-marking path.

    Returns the covered bits, with the cap points' bits set as well; the
    indices of the cap points that lie on a secant of two others,
    ascending; the pairs and marks, checked whole; and the peak bytes of
    the bit-maps.
    """
    g = c.geometry
    # 2^bits >= shards windows, each a whole number of clusters
    bits = min(g.code_bits, _MAX_WINDOW_BITS, (shards - 1).bit_length())
    width = g.code_span >> bits
    workers = min(workers, 1 << bits, _MAX_WORKERS)
    _require_point_flags(g, -(-g.point_count // 8), workers)
    require_map_fits(width)
    codes = c.codes()
    mult = multiples_table(codes, g)
    clusters = SecantClusters(mult, codes, g, bits)

    def run_worker(i: int) -> tuple[PointFlags, int, int]:
        flags = PointFlags(g)
        pairs = marks = 0
        for lo in range(i * width, g.code_span, workers * width):
            cov = CoverageMap(g, lo, lo + width)
            p, m = mark_pair_secants(cov, mult, codes, clusters)
            _scan_window(cov, flags)
            pairs, marks = pairs + p, marks + m
        return flags, pairs, marks

    if workers == 1:
        results = [run_worker(0)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_worker, range(workers)))
    flags, pairs, marks = results[0]
    for other, p, m in results[1:]:
        flags.bits |= other.bits
        pairs, marks = pairs + p, marks + m
    check_secant_counts(c.n, g.q, pairs, marks)
    # a cap point on a secant makes a collinear triple; cap points are never uncovered
    on_secant = np.flatnonzero(flags.test_and_set(codes)).tolist()
    return flags, on_secant, pairs, marks, workers * (-(-width // 8))


def _require_point_flags(g: Geometry, nbytes: int, copies: int = 1) -> None:
    """Raise GeometryTooLargeError, allocating nothing, unless `copies` of nbytes of per-point flags are within the bound."""
    if nbytes > DEFAULT_MAX_COVERAGE_BYTES:
        raise GeometryTooLargeError(
            f"{g.label} needs {nbytes} bytes of per-point flags (> {DEFAULT_MAX_COVERAGE_BYTES})"
        )
    if copies * nbytes > DEFAULT_MAX_COVERAGE_BYTES:
        raise GeometryTooLargeError(
            f"{g.label} needs {copies} x {nbytes} bytes of per-point flags, a copy per worker "
            f"(> {DEFAULT_MAX_COVERAGE_BYTES}); lower the worker count"
        )


# ---------------------------------------------------------------------------
# normalizing baseline
# ---------------------------------------------------------------------------


def check_naive(c: Cap) -> CompletenessReport:
    """Baseline: normalize every generated point, mark normalized codes."""
    t0 = time.perf_counter()
    g = c.geometry
    _require_point_flags(g, g.point_count)
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
