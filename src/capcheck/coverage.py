"""Coverage maps over raw point codes, and the secant marking loop.

A check's map spans a window [lo, hi) of the raw code range [0, q^(r+1)) at
one bit per code, so the whole of PG(12,4) costs 4^13 bits = 8 MiB.
A sharded check gives each window its own map.  The top bits of a
secant code alpha*P_i ^ P_j are the XOR of the top bits of alpha*P_i
and of P_j, so with the cap codes and their multiples clustered by top
bits (SecantClusters), a window pairs each multiple only with the cap
codes whose secants can land in it, and the marking work summed over
all windows equals that of one full map.  A window holds whole
clusters; each is stored a byte per code into a cache-sized stage,
then packed into the window's bit-map in one pass (_Stage), the only
way a window map is written; the clustered values keep only their low
bits, so each XOR is already a code's offset in its stage.  A window
map is read only by the check's scan (completeness.py), which is also
how validation and growth read a cap's secants.  Growth marks the
secants through the points it accepts a byte per code instead
(ByteMap): a plain store per code, at 8 times the memory, read by
covered_codes.

Every code fits a uint64: a Geometry refuses codes over 64 bits when it
is built.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import GeometryTooLargeError, InvariantError
from .geometry import Geometry, scalar_mul_codes

# refuse to allocate absurd coverage windows (2 GiB); split instead
DEFAULT_MAX_COVERAGE_BYTES = 1 << 31

# a staircase of at most this many generated codes is marked in one shot,
# a larger one in pieces of about this size (the temporaries stay in cache)
_ONESHOT_LIMIT = 1 << 15

# a radix cluster spans at most 2^this codes, so its stage of a byte per
# code (1 MiB) stays in cache
_STAGE_BITS = 20


def require_map_fits(width: int) -> None:
    """Raise GeometryTooLargeError, allocating nothing, unless a bit-map of `width` codes is within the bound."""
    nbytes = -(-width // 8)
    if nbytes > DEFAULT_MAX_COVERAGE_BYTES:
        raise GeometryTooLargeError(
            f"coverage window needs {nbytes} bytes (> {DEFAULT_MAX_COVERAGE_BYTES}); raise the shard count"
        )


class CoverageMap:
    """Bit array over the raw codes in [lo, hi)."""

    __slots__ = ("geometry", "lo", "hi", "nbytes", "_bits", "_stage")

    def __init__(self, g: Geometry, lo: int = 0, hi: int | None = None):
        if hi is None:
            hi = g.code_span
        if not 0 <= lo < hi <= g.code_span:
            raise ValueError(f"bad window [{lo}, {hi}) for span {g.code_span}")
        require_map_fits(hi - lo)
        self.geometry = g
        self.lo = lo
        self.hi = hi
        self.nbytes = -(-(hi - lo) // 8)
        self._bits = np.zeros(self.nbytes, dtype=np.uint8)
        self._stage: _Stage | None = None

    def mark_codes(self, offsets: np.ndarray) -> int:
        """Store codes, as offsets in the cluster mark_pair_secants has staged; returns how many."""
        if self._stage is None:
            raise ValueError("mark_codes needs a staged cluster; mark through mark_pair_secants")
        return self._stage.store(offsets)

    def bits(self, lo: int, hi: int) -> np.ndarray:
        """A byte per code in [lo, hi), 1 where marked; [lo, hi) must lie in the window."""
        a, b = lo - self.lo, hi - self.lo
        return np.unpackbits(self._bits[a >> 3 : -(-b // 8)], bitorder="little")[a & 7 : (a & 7) + (b - a)]


class ByteMap:
    """A byte per raw code over the whole span, zeroed: the secants of the points growth accepts.

    Marking one is a plain store, a few ns a code, where a bit-map
    needs np.bitwise_or.at or a stage.  It holds 8 times the bit-map's
    bytes: 4 MiB at PG(10,4), 64 MiB at PG(12,4).
    """

    __slots__ = ("geometry", "_marked")

    def __init__(self, g: Geometry):
        self.require_fits(g)
        self.geometry = g
        self._marked = np.zeros(g.code_span, dtype=bool)

    @staticmethod
    def require_fits(g: Geometry) -> None:
        """Raise GeometryTooLargeError, allocating nothing, unless g's byte map is within the bound."""
        if g.code_span > DEFAULT_MAX_COVERAGE_BYTES:
            raise GeometryTooLargeError(
                f"growth map needs {g.code_span} bytes, one per code (> {DEFAULT_MAX_COVERAGE_BYTES})"
            )

    @property
    def marked(self) -> memoryview:
        """Read-only view of the map, a bool per code: marked[x] for one int code x."""
        return self._marked.data.toreadonly()

    def test_codes(self, codes: np.ndarray) -> np.ndarray:
        """Marked or not, for an array of uint64 codes."""
        return self._marked[codes.view(np.intp)]

    def mark_codes(self, codes: np.ndarray) -> None:
        self._marked[codes.view(np.intp)] = True


class _Stage:
    """One radix cluster [lo, lo + size) of a window, a byte per code.

    A byte store into this cache-sized buffer costs a few ns, against
    tens of ns for np.bitwise_or.at into the bit-map; `pack` ORs the
    cluster into the map once it is done.  The window holds whole
    clusters, so every code stored lands; it comes as its offset
    x - lo, its low bits, so it cannot leave the stage.  The buffer
    starts on the map's byte grid, so a cluster narrower than a byte,
    or one that starts inside a byte, still packs onto whole map bytes.
    """

    __slots__ = ("buf", "view", "first", "stored")

    def __init__(self, cov: CoverageMap, buf: np.ndarray, lo: int, size: int):
        rel = lo - cov.lo
        self.first = rel >> 3
        self.buf = buf[: ((rel & 7) + size + 7) & ~7]
        self.view = self.buf[rel & 7 :]  # view[x - lo] is the byte of code x
        self.stored = False

    def store(self, offsets: np.ndarray) -> int:
        self.view[offsets.view(np.intp)] = 1
        self.stored |= offsets.size > 0
        return offsets.size

    def pack(self, cov: CoverageMap) -> None:
        if self.stored:
            packed = np.packbits(self.buf, bitorder="little")
            cov._bits[self.first : self.first + packed.size] |= packed
            self.buf[:] = 0


def multiples_table(codes: np.ndarray, g: Geometry) -> np.ndarray:
    """(n, q-1) array of scalar multiples: column j holds (j+1) * P_i.

    Column 0 (alpha = 1) is the cap code itself; every row normalizes
    back to its cap point.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    out = np.empty((codes.size, g.q - 1), dtype=np.uint64)
    for alpha in g.field.nonzero_elements():
        out[:, alpha - 1] = scalar_mul_codes(alpha, codes, g)
    return out


class SecantClusters:
    """The secant generators of a cap, clustered by the top `bits` code bits.

    Generator (i, j, alpha), i < j, yields the code alpha*P_i ^ P_j.  The
    cap codes and their multiples are each clustered by top bits, every
    cluster in ascending cap index.  The top bits of a code are the XOR
    of its operands' top bits, so the codes with top bits b pair the
    multiples with top bits u only with the cap codes with top bits
    u ^ b: the radix clustering of Manegold, Boncz and Kersten
    ("Optimizing main-memory join on modern hardware", IEEE TKDE 2002).
    Build it once per cap and mark any number of windows from it.  It
    uses at least code_bits - _STAGE_BITS bits, so that every cluster
    of secant codes fits one stage.
    """

    __slots__ = ("shift", "cap_codes", "cap_index", "cap_clusters", "mult_codes", "mult_index",
                 "mult_clusters")

    def __init__(self, mult: np.ndarray, codes: np.ndarray, g: Geometry, bits: int = 0):
        if not 0 <= bits <= g.code_bits:
            raise ValueError(f"cluster bits {bits} outside [0, {g.code_bits}]")
        self.shift = min(g.code_bits - bits, _STAGE_BITS)
        shift = np.uint64(self.shift)  # a shift by all 64 bits yields 0
        self.cap_codes, self.cap_index, self.cap_clusters = _cluster(codes, shift)
        self.mult_codes, order, self.mult_clusters = _cluster(mult.ravel(), shift)
        self.mult_index = order // mult.shape[1]


def _cluster(values: np.ndarray, shift: np.uint64) -> tuple[np.ndarray, np.ndarray, dict[int, slice]]:
    """The low `shift` bits of the values stably sorted by top bits, the sorting order, and top bits -> slice of its run."""
    top = values >> shift
    order = np.argsort(top, kind="stable")
    top = top[order]
    one_run = not top.size or top[0] == top[-1]
    starts = [] if one_run else ((top[1:] != top[:-1]).nonzero()[0] + 1).tolist()
    bounds = [0, *starts, top.size]
    runs = {int(top[a]): slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a}
    return values[order] & ((np.uint64(1) << shift) - np.uint64(1)), order, runs


def mark_pair_secants(
    cov: CoverageMap,
    mult: np.ndarray,
    codes: np.ndarray,
    clusters: SecantClusters | None = None,
) -> tuple[int, int]:
    """Mark alpha*P_i + P_j for every pair i < j and every nonzero alpha.

    `clusters` (by default clustered for this window's width) must tile
    the window with whole clusters, else ValueError; so the window forms
    only the codes that fall in it.  Each cluster's codes are formed as
    offsets in it, staged a byte each, then packed into cov.  Returns
    (pairs whose code P_i ^ P_j lies in the window, marks landed): over
    the windows of a partition these sum to n(n-1)/2 and (q-1) n(n-1)/2.
    Nothing is normalized.
    """
    width = cov.hi - cov.lo
    if clusters is None:
        clusters = SecantClusters(mult, codes, cov.geometry, cov.geometry.code_bits + 1 - width.bit_length())
    c = clusters
    size = 1 << c.shift
    if (cov.lo | width) & (size - 1):
        raise ValueError(f"window [{cov.lo}, {cov.hi}) is not a whole number of {size}-code clusters")
    # one stage per call, so each window and thread has its own
    buf = np.zeros((size + 14) & ~7, dtype=np.uint8)
    pairs = landed = 0
    for b in range(cov.lo >> c.shift, cov.hi >> c.shift):
        stage = cov._stage = _Stage(cov, buf, b << c.shift, size)
        try:
            for u, mult_slice in c.mult_clusters.items():
                partner = c.cap_clusters.get(u ^ b)
                if partner is None:
                    continue
                cv, ci = c.cap_codes[partner], c.cap_index[partner]
                for marks in _staircase(c.mult_codes[mult_slice], c.mult_index[mult_slice], cv, ci):
                    landed += cov.mark_codes(marks)
                # the alpha = 1 multiples with top bits u are the cap codes with top bits u
                own = c.cap_clusters.get(u)
                if own is not None:
                    pairs += int((ci.size - np.searchsorted(ci, c.cap_index[own], side="right")).sum())
        finally:
            cov._stage = None
        stage.pack(cov)
    return pairs, landed


def check_secant_counts(n: int, q: int, pairs: int, landed: int) -> None:
    """Raise InvariantError unless an n-cap's secant marking is whole.

    Its windows together formed each of the n(n-1)/2 pairs once and
    landed q-1 marks for each.
    """
    expect = n * (n - 1) // 2
    if (pairs, landed) != (expect, expect * (q - 1)):
        raise InvariantError(
            f"windows landed {landed} marks from {pairs} pairs; "
            f"expected {expect * (q - 1)} from {expect}"
        )


def _staircase(mv: np.ndarray, mi: np.ndarray, cv: np.ndarray, ci: np.ndarray) -> Iterator[np.ndarray]:
    """The codes mv[e] ^ cv[c] with ci[c] > mi[e], in pieces; mi and ci ascend.

    Entry e pairs with the suffix cv[s[e]:].  A block of consecutive
    entries is a full rectangle against cv[s_last:] plus a masked strip
    against cv[s_first:s_last], so little is formed only to be dropped.
    """
    s = np.searchsorted(ci, mi, side="right")
    h, width = mv.size, cv.size
    step = max(1, _ONESHOT_LIMIT // width) if h * width > _ONESHOT_LIMIT else h
    for a in range(0, h, step):
        b = min(h, a + step)
        first, last = int(s[a]), int(s[b - 1])
        if last < width:
            yield (mv[a:b, None] ^ cv[None, last:]).ravel()
        if first < last:
            strip = mv[a:b, None] ^ cv[None, first:last]
            yield strip[np.arange(first, last) >= s[a:b, None]]


def covered_codes(cov: ByteMap, codes: np.ndarray, g: Geometry) -> np.ndarray:
    """For each code, whether any of its q-1 scalar multiples is marked in growth's byte map."""
    covered = cov.test_codes(codes)
    for alpha in range(2, g.q):
        covered |= cov.test_codes(scalar_mul_codes(alpha, codes, g))
    return covered
