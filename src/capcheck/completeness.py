"""Completeness checking: is every outside point on a secant of the cap?

Three interchangeable checkers plus a sharded variant:

fast    marks the raw (non-normalized) code of every combination
        alpha*P1 + P2 in a bit-map over the whole code range, then
        reads the marked codes back and sets the covered bit of the
        point each is a multiple of, by one split-table multiply
        (geometry.py).  The codes are formed in clusters of at most
        2^20 by their top bits, each staged a byte per code in cache
        and packed into the map once (coverage.py).  No normalization
        anywhere on the hot path.
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

Fast and split hold a covered bit per point (PointFlags), 2.7 MiB for
PG(12,4), besides their maps.  They count the uncovered points by
popcount and build them only when asked: a report's witnesses are read
off the bits block by block, and `uncovered` holds them all once read.

Each also reads the cap property off its own marks: the first cap point
on a secant of two others gives the witness triple (`violation`).  All
four agree exactly on the verdict, the uncovered set and `violation`;
the test suite holds them to that.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .cap import Cap, CapViolation, _collinear_triple
from .coverage import (DEFAULT_MAX_COVERAGE_BYTES, CoverageMap, SecantClusters, check_secant_counts,
                       mark_pair_secants, multiples_table)
from .errors import GeometryTooLargeError
from .geometry import (  # noqa: F401  points_by_index: the benchmark's tracer wraps it here
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
# about 2^this codes per scan step, rounded to a power of q: its uint64
# temporaries stay in the L2 cache
_SCAN_BITS = 14
# covered bits unpacked per run of witnesses
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


def _flag_block_bytes(g: Geometry) -> list[int]:
    """Bytes of each block's bits: block d holds the q^d points q^d + s, s < q^d."""
    return [-(-(1 << (g.k * d)) // 8) for d in range(g.r + 1)]


class PointFlags:
    """A covered bit per point of g, one packed array per block.

    Bit s of blocks[d] (little bit order) stands for the point q^d + s.
    The blocks lie one after another in `bits`, each from a byte
    boundary, so a run of points aligned to 8 in its block packs onto
    whole bytes.  Bits are only ever set; windows on several threads OR
    into the same bytes, under `lock`, as numpy may release the
    interpreter lock during an OR.

    The scan reads a window's marks in chunks of q^m codes, 2^chunk_bits
    at most.  The strips of the first `head` blocks are the codes below
    2^chunk_bits, read at once; their bits are the first head_bytes of
    `bits`.  For each of those strips [alpha*q^d, (alpha+1)*q^d),
    head_lo, head_inv and head_shift hold its start, alpha^-1, and the
    bit of the point q^d in `bits` minus q^d.
    """

    __slots__ = ("geometry", "bits", "blocks", "lock", "chunk_bits", "head", "head_lo", "head_inv",
                 "head_shift", "head_bytes", "_starts", "_offsets")

    def __init__(self, g: Geometry):
        sizes = _flag_block_bytes(g)
        ends = np.cumsum(sizes)
        self.geometry = g
        self.bits = np.zeros(int(ends[-1]), dtype=np.uint8)
        self.blocks = [self.bits[end - size : end] for size, end in zip(sizes, ends)]
        self.lock = threading.Lock()
        self.chunk_bits = g.k * max(1, round(_SCAN_BITS / g.k))
        self.head = min(g.r + 1, self.chunk_bits // g.k)
        self.head_bytes = int(ends[self.head - 1])
        self._starts = np.array([1 << (g.k * d) for d in range(g.r + 1)], dtype=np.uint64)
        self._offsets = (ends - sizes).astype(np.uint64) << np.uint64(3)
        starts = self._starts[: self.head]
        self.head_lo = (starts[:, None] * np.arange(1, g.q, dtype=np.uint64)).ravel()
        self.head_inv = np.array([g.field.inv(alpha) for alpha in g.field.nonzero_elements()] * self.head)
        self.head_shift = np.repeat(self._offsets[: self.head].astype(np.int64) - starts.astype(np.int64), g.q - 1)

    def test_and_set(self, codes: np.ndarray) -> np.ndarray:
        """Set the bits of normalized codes; returns whether each was set before."""
        d = np.searchsorted(self._starts, codes, side="right") - 1
        pos = self._offsets[d] + (codes - self._starts[d])
        at, masks = (pos >> np.uint64(3)).astype(np.intp), np.left_shift(1, pos & np.uint64(7)).astype(np.uint8)
        with self.lock:
            was = (self.bits[at] & masks) != 0
            np.bitwise_or.at(self.bits, at, masks)
        return was

    def merge(self, dest: np.ndarray, pos: np.ndarray, lo: int, size: int, stage: np.ndarray) -> None:
        """Set bits pos of dest, a block or `bits`; every pos lies in [lo, lo + size).

        They are stored a byte each into stage, from the byte boundary at
        or below lo, packed, and ORed into dest at once.
        """
        first = lo >> 3
        buf = stage[: ((lo & 7) + size + 7) & ~7]
        buf[pos.view(np.intp) - (first << 3)] = 1
        packed = np.packbits(buf, bitorder="little")
        buf[:] = 0
        with self.lock:
            dest[first : first + packed.size] |= packed

    def uncovered_count(self) -> int:
        """Points whose bit is clear, by popcount."""
        return self.geometry.point_count - int(_POPCOUNT.take(self.bits).sum(dtype=np.int64))

    def uncovered_runs(self) -> Iterator[np.ndarray]:
        """The points whose bit is clear, ascending, in runs of a block slice each."""
        g = self.geometry
        for d, block in enumerate(self.blocks):
            base = 1 << (g.k * d)
            for a in range(0, block.size, _WITNESS_RUN_BYTES):
                part = block[a : a + _WITNESS_RUN_BYTES]
                bits = np.unpackbits(part, count=min(8 * part.size, base - 8 * a), bitorder="little")
                s = np.flatnonzero(bits == 0).view(np.uint64)
                s += np.uint64(base + 8 * a)
                yield s


# ---------------------------------------------------------------------------
# fast checker and its windows
# ---------------------------------------------------------------------------


def _scan_window(cov: CoverageMap, flags: PointFlags) -> None:
    """Set the covered bit of every point with a multiple marked in cov.

    A code x in the strip [alpha*q^d, (alpha+1)*q^d) is a multiple of
    the block-d point alpha^-1 * x = q^d + s, s = alpha^-1 * (x - alpha*q^d).
    The strips below one scan chunk (flags.head) are read with one
    marked_codes call.  A larger strip is read in chunks of q^m codes,
    aligned in the strip: alpha^-1 maps such a chunk onto one aligned
    run of q^m values of s, which starts at alpha^-1 times the chunk's
    offset in the strip, not at that offset.
    """
    g = cov.geometry
    stage = np.zeros(max(8 * flags.head_bytes, (1 << flags.chunk_bits) + 8), dtype=np.uint8)
    lo, hi = max(cov.lo, 1), min(cov.hi, 1 << (g.k * flags.head))
    if lo < hi:
        x = cov.marked_codes(lo, hi)
        if x.size:
            strip = np.searchsorted(flags.head_lo, x, side="right") - 1
            points = scalar_mul_codes(flags.head_inv[strip], x, g)
            pos = points.view(np.int64) + flags.head_shift[strip]
            flags.merge(flags.bits, pos, 0, 8 * flags.head_bytes, stage)
    for d in range(flags.head, g.r + 1):
        base = 1 << (g.k * d)
        block = flags.blocks[d]
        for alpha in g.field.nonzero_elements():
            strip_lo = alpha * base
            lo, hi = max(cov.lo, strip_lo), min(cov.hi, strip_lo + base)
            if lo >= hi:
                continue
            inv = g.field.inv(alpha)
            # hi - lo is a power of two, lo - strip_lo a multiple of it
            size = 1 << (min(flags.chunk_bits, (hi - lo).bit_length() - 1) // g.k * g.k)
            for start in range(lo, hi, size):
                x = cov.marked_codes(start, start + size)
                if x.size:
                    s = scalar_mul_codes(inv, x - np.uint64(strip_lo), g)
                    flags.merge(block, s, int(s[0]) & -size, size, stage)


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
    _require_point_flags(g, sum(_flag_block_bytes(g)))
    codes = c.codes()
    mult = multiples_table(codes, g)
    # 2^bits >= shards windows, each a whole number of clusters
    bits = min(g.code_bits, _MAX_WINDOW_BITS, (shards - 1).bit_length())
    width = g.code_span >> bits
    windows = [(lo, lo + width) for lo in range(0, g.code_span, width)]
    workers = min(workers, len(windows), _MAX_WORKERS)
    clusters = SecantClusters(mult, codes, g, bits)
    flags = PointFlags(g)

    def run_window(window: tuple[int, int]) -> tuple[int, int]:
        cov = CoverageMap(g, window[0], window[1])
        counts = mark_pair_secants(cov, mult, codes, clusters)
        _scan_window(cov, flags)
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
    on_secant = np.flatnonzero(flags.test_and_set(codes)).tolist()
    peak = workers * (-(-width // 8))
    return _finish(c, on_secant, flags, pairs, marks, "fast", shards, peak, t0)


def _require_point_flags(g: Geometry, nbytes: int) -> None:
    """Raise GeometryTooLargeError, allocating nothing, unless nbytes of per-point flags are within the bound."""
    if nbytes > DEFAULT_MAX_COVERAGE_BYTES:
        raise GeometryTooLargeError(
            f"{g.label} needs {nbytes} bytes of per-point flags (> {DEFAULT_MAX_COVERAGE_BYTES})"
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
