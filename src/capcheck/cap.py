"""Caps: ordered sets of normalized points with no three collinear.

File formats
------------
text:    one point per line, r+1 coordinates (integer encodings in
         [0, q-1]) separated by single spaces, x0 first
packed:  one lowercase hex code per line (the packed value of the
         normalized representative)

Either format may start with a header comment  # PG(r,q)  which is
checked against the geometry the caller supplies.  Input points are
normalized on parse; two lines landing on the same projective point are
an error, not a merge.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .coverage import ByteMap, covered_codes, multiples_table
from .coverage import mark_pair_secants  # noqa: F401  perfbench/spans.py wraps this name
from .errors import (
    BadCoordinateError,
    DuplicatePointError,
    GeometryMismatchError,
    GeometryTooLargeError,
    InvalidCapError,
    InvariantError,
    OutOfRangeError,
    WrongArityError,
    ZeroVectorError,
)
from .geometry import (
    Geometry,
    decode_point,
    encode_point,
    is_normalized,
    normalize,
    points_by_index,
    scalar_mul_point,
)

if TYPE_CHECKING:
    from .completeness import PointFlags

_HEADER_RE = re.compile(r"#\s*PG\(\s*(\d+)\s*,\s*(\d+)\s*\)")


@dataclass(frozen=True)
class Cap:
    """An ordered, duplicate-free set of normalized point codes.

    The no-three-collinear property is not checked on construction;
    call validate_cap for that.
    """

    geometry: Geometry
    points: tuple[int, ...]

    def __post_init__(self) -> None:
        g = self.geometry
        seen = set()
        for code in self.points:
            if code == 0:
                raise ZeroVectorError("cap contains the zero vector")
            if code >= g.code_span:
                raise OutOfRangeError(f"code {code} outside [1, {g.code_span})")
            if not is_normalized(code, g):
                raise BadCoordinateError(f"cap code {code:#x} is not normalized")
            if code in seen:
                raise DuplicatePointError(f"duplicate point {code:#x}")
            seen.add(code)

    @property
    def n(self) -> int:
        return len(self.points)

    def codes(self) -> np.ndarray:
        return np.array(self.points, dtype=np.uint64)

    def coordinates(self) -> list[list[int]]:
        return [decode_point(p, self.geometry) for p in self.points]

    def __iter__(self) -> Iterator[int]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class CapViolation:
    """Witness for a failed cap check: three collinear cap points, ascending."""

    triple: tuple[int, int, int]

    def __str__(self) -> str:
        a, b, c = self.triple
        return f"collinear points {a:#x}, {b:#x}, {c:#x}"


# ---------------------------------------------------------------------------
# parsing / writing
# ---------------------------------------------------------------------------


def parse_cap(data: str | bytes, g: Geometry) -> Cap:
    """Parse a cap file in either format; see the module docstring."""
    if isinstance(data, bytes):
        data = data.decode("ascii")
    points: list[int] = []
    seen: dict[int, int] = {}
    packed: bool | None = None  # decided by the first data line
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m and (int(m.group(1)), int(m.group(2))) != (g.r, g.q):
                raise GeometryMismatchError(
                    f"line {lineno}: header says PG({m.group(1)},{m.group(2)}), "
                    f"expected {g.label}"
                )
            continue
        tokens = line.split()
        if packed is None:
            packed = len(tokens) == 1
        if packed:
            if len(tokens) != 1:
                raise WrongArityError(f"line {lineno}: expected a single hex code")
            try:
                code = int(tokens[0], 16)
            except ValueError:
                raise BadCoordinateError(f"line {lineno}: bad hex code {tokens[0]!r}") from None
            if code == 0:
                raise ZeroVectorError(f"line {lineno}: code 0 is not a point")
            if code >= g.code_span:
                raise OutOfRangeError(f"line {lineno}: code {code:#x} out of range")
        else:
            if len(tokens) != g.r + 1:
                raise WrongArityError(
                    f"line {lineno}: expected {g.r + 1} coordinates, got {len(tokens)}"
                )
            try:
                coords = [int(t) for t in tokens]
            except ValueError:
                raise BadCoordinateError(f"line {lineno}: non-integer coordinate") from None
            for x in coords:
                if not 0 <= x < g.q:
                    raise BadCoordinateError(
                        f"line {lineno}: coordinate {x} outside [0, {g.q - 1}]"
                    )
            if not any(coords):
                raise ZeroVectorError(f"line {lineno}: zero vector")
            code = encode_point(coords, g)
        code = normalize(code, g)
        if code in seen:
            raise DuplicatePointError(
                f"line {lineno}: same projective point as line {seen[code]}"
            )
        seen[code] = lineno
        points.append(code)
    return Cap(g, tuple(points))


def write_cap(c: Cap, fmt: str = "text", header: bool = False) -> str:
    """Serialize a cap; round-trips through parse_cap bit-exactly."""
    lines = []
    if header:
        lines.append(f"# {c.geometry.label}")
    if fmt == "text":
        lines.extend(" ".join(map(str, coords)) for coords in c.coordinates())
    elif fmt == "packed":
        lines.extend(format(p, "x") for p in c.points)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# cap property validation
# ---------------------------------------------------------------------------


def validate_cap(c: Cap) -> CapViolation | None:
    """None if no three points are collinear, else one witness triple.

    The violation of check_fast: it marks the q-1 interior points of
    every secant, scans the map into a covered bit per point and takes
    the first cap point whose bit is set; quadratic in n, never cubic.
    Where check_fast refuses its bit-map or its covered bits, looks the
    secants up among the cap points' multiples instead, in O(n q) memory.
    """
    from .completeness import check_fast  # completeness imports this module

    if c.n < 3:
        return None
    try:
        return check_fast(c).violation
    except GeometryTooLargeError:
        return _secant_lookup(c)


def _secant_lookup(c: Cap) -> CapViolation | None:
    """What check_fast finds, without a map: each secant code searched among the sorted multiples.

    Secant alpha*P_i ^ P_j equals some beta*P_t exactly when P_t is on
    the line through P_i and P_j.  The witness starts from the least
    such t over every pair, the map's first covered cap point.
    """
    g = c.geometry
    codes = c.codes()
    mult = multiples_table(codes, g)
    order = np.argsort(mult, axis=None)
    table = mult.ravel()[order]
    owner = order // (g.q - 1)  # cap index of each sorted multiple
    first = c.n
    for i in range(c.n - 1):
        secants = mult[i][:, None] ^ codes[i + 1 :]
        pos = np.searchsorted(table, secants)
        hit = table.take(pos, mode="clip") == secants  # a code past the last multiple clips to a smaller one
        if hit.any():
            first = min(first, int(owner[pos[hit]].min()))
    return _collinear_triple(c, first) if first < c.n else None


def _collinear_triple(c: Cap, t: int) -> CapViolation:
    """The witness for cap point t, which lies on a secant of two others.

    Takes the first i in cap order, then the first alpha, for which
    alpha*P_i ^ beta*P_t is another cap point P_j for some beta, and the
    least such j.  Scalar: O(n * q^2) steps.
    """
    g = c.geometry
    others = {p: j for j, p in enumerate(c.points) if j != t}  # i = t finds none: its sums are multiples of P_t
    nonzero = g.field.nonzero_elements()
    on_t = [scalar_mul_point(beta, c.points[t], g) for beta in nonzero]
    for p in c.points:
        for alpha in nonzero:
            ap = scalar_mul_point(alpha, p, g)
            found = [others[ap ^ x] for x in on_t if ap ^ x in others]
            if found:
                a, b, d = sorted((p, c.points[min(found)], c.points[t]))
                return CapViolation((a, b, d))
    raise InvariantError("covered cap point without a generating pair")


# ---------------------------------------------------------------------------
# greedy growth
# ---------------------------------------------------------------------------

# candidates tested per vector step; the scan order does not depend on it
_GROW_CHUNK = 1 << 14


def _lcg_chunks(m: int, seed: int, chunk: int = 1 << 16) -> Iterator[np.ndarray]:
    """Seeded pseudorandom permutation of range(m), in vector chunks.

    Full-period affine generator x -> a*x + c over the next power of
    two >= m, walking past out-of-range values.  Deterministic for a
    given (m, seed) regardless of chunk size.
    """
    bits = max(2, (m - 1).bit_length() if m > 1 else 1)
    big = 1 << bits
    rng = random.Random(seed)
    a = 4 * rng.randrange(big // 4) + 1
    cadd = 2 * rng.randrange(big // 2) + 1
    x = rng.randrange(big)
    size = min(chunk, big)
    aa, cc = _lcg_jumps(a, cadd, big, size)
    mask = np.uint64(big - 1)
    remaining = big
    while remaining > 0:
        take = min(size, remaining)
        vals = (aa[:take] * np.uint64(x) + cc[:take]) & mask
        vals = vals[vals < m]
        if vals.size:
            yield vals
        x = (int(aa[take]) * x + int(cc[take])) % big
        remaining -= take


def _lcg_jumps(a: int, cadd: int, big: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Jump tables of x -> a*x + cadd (mod big): x_(t+u) = aa[u] * x_t + cc[u], u <= size.

    aa[u] = a^u and cc[u] = cadd * (a^0 + ... + a^(u-1)).  uint64
    products and sums wrap mod 2^64, which big (a power of two <= 2^64)
    divides, so the tables are exact mod big.
    """
    steps = np.full(size + 1, a, dtype=np.uint64)
    steps[0] = 1
    aa = np.multiply.accumulate(steps)
    cc = np.zeros(size + 1, dtype=np.uint64)
    np.cumsum(aa[:-1], out=cc[1:])
    cc *= np.uint64(cadd)
    mask = np.uint64(big - 1)
    return aa & mask, cc & mask


def _grow_greedily(
    grow: ByteMap, covered: PointFlags, start: Sequence[int], seed: int, limit: int | None = None
) -> list[int]:
    """Extend a cap by scanning candidates in seeded permutation order.

    A point is added exactly when it lies on no secant of the current
    cap: its bit in `covered` (set on the secants of `start` and on
    `start` itself) is clear, and no multiple of it is marked in grow
    (the secants through points accepted since).  One pass suffices:
    coverage only grows, and each index is a candidate once, so no
    point of the cap comes up again.  A chunk of
    candidate indices is cut to those whose bit is clear, and then, once
    a point has been accepted, tested against grow at once.  Each
    survivor is rechecked against grow one multiple at a time from
    alpha = 1, as marks may have landed within the chunk; an accepted
    point marks its secants from the multiples its recheck formed.
    """
    g = grow.geometry
    n = n0 = len(start)
    if limit is not None and n >= limit:
        return list(start)
    buf = np.empty(max(64, 2 * n), dtype=np.uint64)  # the cap so far, doubled when full
    buf[:n] = start
    nonzero = list(g.field.nonzero_elements())
    marked = grow.marked
    for idx in _lcg_chunks(g.point_count, seed, _GROW_CHUNK):
        bits = covered.bits[(idx >> np.uint64(3)).view(np.intp)] >> (idx & np.uint64(7)).astype(np.uint8)
        idx = idx[bits & 1 == 0]
        if not idx.size:
            continue
        codes = points_by_index(idx, g)
        if n > n0:
            codes = codes[~covered_codes(grow, codes, g)]
        for code in codes.tolist():
            row = []
            for alpha in nonzero:
                x = scalar_mul_point(alpha, code, g)
                if marked[x]:
                    break
                row.append(x)
            if len(row) < len(nonzero):
                continue
            if n:
                grow.mark_codes((np.array(row, dtype=np.uint64)[:, None] ^ buf[None, :n]).ravel())
            if n == buf.size:
                buf = np.concatenate((buf, np.empty_like(buf)))
            buf[n] = code
            n += 1
            if limit is not None and n >= limit:
                return buf[:n].tolist()
    return buf[:n].tolist()


def greedy_extend(c: Cap, order_seed: int) -> Cap:
    """Complete cap containing c, deterministic for a given (c, seed).

    Marks and scans c's secants as check_fast does, which validates c
    and sets the covered bits of its secant points and of c itself:
    growth starts from those bits.  A start of fewer than 2 points has
    no secants, and only its own bits are set.  Refuses a geometry whose
    byte map is past the bound before building either map.
    """
    from .completeness import PointFlags, _mark_and_scan  # completeness imports this module

    g = c.geometry
    ByteMap.require_fits(g)
    if c.n >= 2:
        covered, on_secant, *_ = _mark_and_scan(c)
        if on_secant:
            raise InvalidCapError(str(_collinear_triple(c, on_secant[0])))
    else:
        covered = PointFlags(g)
        if c.n:  # an empty test_and_set still costs a few numpy calls, in every seed of a search
            covered.test_and_set(c.codes())
    return Cap(g, tuple(_grow_greedily(ByteMap(g), covered, c.points, order_seed)))


def random_cap(g: Geometry, size: int, seed: int) -> Cap:
    """Seed-determined cap of the requested size (smaller only if the
    greedy pass completes first)."""
    from .completeness import PointFlags  # completeness imports this module

    return Cap(g, tuple(_grow_greedily(ByteMap(g), PointFlags(g), (), seed, limit=size)))
