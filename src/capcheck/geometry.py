"""Packed integer representation of points of PG(r, 2^k).

A point with coordinates (x0, x1, ..., xr) over GF(2^k) is packed into
one integer with x0 in the most significant k-bit block:

    code = sum over i of x_i * (2^k)^(r-i)

Because field addition is XOR on the encodings, the sum of two points is
a single XOR of their codes.  A Geometry refuses codes over 64 bits, so
every code is both a Python int and a uint64, and the numpy bulk
helpers take any geometry.  Numeric comparison of codes coincides with
lexicographic order of the coordinates, x0 first.

Normalized representative: the scalar multiple whose leftmost nonzero
coordinate is 1.  Normalized codes are exactly the minima of their
projective classes, and `enumerate_points` yields them in increasing
order without any normalization work.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BadCoordinateError,
    GeometryTooLargeError,
    OutOfRangeError,
    SamePointError,
    UnsupportedFieldError,
    WrongArityError,
    ZeroScalarError,
    ZeroVectorError,
)
from .field import FieldTable, build_field


class Geometry:
    """The projective space PG(r, 2^k) together with its field tables.

    Refuses a field past GF(2^8) (UnsupportedFieldError, from
    build_field) and codes over 64 bits (GeometryTooLargeError).
    Immutable; shareable between threads.
    """

    __slots__ = (
        "r",
        "k",
        "q",
        "field",
        "code_bits",
        "code_span",
        "point_count",
        "_powers",
        "_cum",
        "_powers_arr",
        "_cum_arr",
        "split_tables",
    )

    def __init__(self, r: int, q: int, modulus: int | None = None):
        if r < 1:
            raise GeometryTooLargeError(f"projective dimension r={r} must be >= 1")
        k = q.bit_length() - 1
        if q < 2 or q != 1 << k:
            raise UnsupportedFieldError(f"field order q={q} is not a power of two")
        self.r = r
        self.k = k
        self.q = q
        self.field: FieldTable = build_field(k, modulus)
        self.code_bits = k * (r + 1)
        if self.code_bits > 64:  # every code fits a uint64
            raise GeometryTooLargeError(f"{self.label} needs {self.code_bits}-bit codes; the limit is 64")
        self.code_span = 1 << self.code_bits  # q^(r+1); valid codes are [1, span)
        self.point_count = (self.code_span - 1) // (q - 1)
        # q^d and the number of normalized codes below q^d, d = 0 .. r+1
        self._powers = [1 << (k * d) for d in range(r + 2)]
        self._cum = [(p - 1) // (q - 1) for p in self._powers]
        # d = 0 .. r only: q^(r+1) itself does not fit 64-bit codes
        self._powers_arr = np.array(self._powers[:-1], dtype=np.uint64)
        self._cum_arr = np.array(self._cum[:-1], dtype=np.uint64)
        self.split_tables = _split_tables(self)  # for scalar_mul_codes

    @property
    def label(self) -> str:
        return f"PG({self.r},{self.q})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Geometry):
            return NotImplemented
        return (self.r, self.k, self.field.modulus) == (other.r, other.k, other.field.modulus)

    def __hash__(self) -> int:
        return hash((self.r, self.k, self.field.modulus))

    def __repr__(self) -> str:
        return f"Geometry(r={self.r}, q={self.q})"


def _split_tables(g: Geometry) -> np.ndarray:
    """T[alpha, i, v] = alpha * (v << 8i), a q x ceil(code_bits/8) x 256 array.

    Scaling is GF(2)-linear in the code bits: bit p maps to
    alpha * 2^(p mod k) in coordinate p // k, even where a coordinate
    straddles two bytes, and a byte maps to the XOR of its bits' images.
    """
    nbytes = -(-g.code_bits // 8)
    images = np.zeros((g.q, nbytes * 8), dtype=np.uint64)
    for p in range(g.code_bits):
        images[:, p] = g.field.mul_array[:, 1 << (p % g.k)] << np.uint64(g.k * (p // g.k))
    images = images.reshape(g.q, nbytes, 8)
    v = np.arange(256, dtype=np.uint64)
    tables = np.zeros((g.q, nbytes, 256), dtype=np.uint64)
    for b in range(8):
        tables ^= ((v >> np.uint64(b)) & np.uint64(1)) * images[:, :, b, None]
    return tables


# ---------------------------------------------------------------------------
# scalar point operations
# ---------------------------------------------------------------------------


def encode_point(coords: Sequence[int], g: Geometry) -> int:
    """Pack r+1 field elements into a point code (x0 most significant)."""
    if len(coords) != g.r + 1:
        raise WrongArityError(f"expected {g.r + 1} coordinates, got {len(coords)}")
    code = 0
    for x in coords:
        if not 0 <= x < g.q:
            raise BadCoordinateError(f"coordinate {x} outside [0, {g.q - 1}]")
        code = (code << g.k) | x
    if code == 0:
        raise ZeroVectorError("the zero vector is not a projective point")
    return code


def decode_point(code: int, g: Geometry) -> list[int]:
    """Unpack a code into its r+1 coordinates."""
    if code == 0:
        raise ZeroVectorError("code 0 is not a point")
    if not 0 < code < g.code_span:
        raise OutOfRangeError(f"code {code} outside [1, {g.code_span})")
    mask = g.q - 1
    return [(code >> (g.k * (g.r - i))) & mask for i in range(g.r + 1)]


def scalar_mul_point(alpha: int, code: int, g: Geometry) -> int:
    """Coordinate-wise product of a point by a nonzero scalar."""
    if alpha == 0:
        raise ZeroScalarError("scalar multiple by 0")
    if code == 0:
        raise ZeroVectorError("scalar multiple of the zero vector")
    if alpha == 1:
        return code
    mul = g.field.mul
    mask = g.q - 1
    out = 0
    for shift in range(0, g.code_bits, g.k):
        block = (code >> shift) & mask
        if block:
            out |= mul(alpha, block) << shift
    return out


def leading_coefficient(code: int, g: Geometry) -> int:
    """Leftmost nonzero coordinate of the code."""
    if code == 0:
        raise ZeroVectorError("zero vector has no leading coefficient")
    # highest k-bit block that is occupied
    top_block = (code.bit_length() - 1) // g.k
    return (code >> (g.k * top_block)) & (g.q - 1)


def normalize(code: int, g: Geometry) -> int:
    """Representative with the leftmost nonzero coordinate equal to 1."""
    lead = leading_coefficient(code, g)
    if lead == 1:
        return code
    return scalar_mul_point(g.field.inv(lead), code, g)


def is_normalized(code: int, g: Geometry) -> bool:
    return code != 0 and leading_coefficient(code, g) == 1


def line_points(p1: int, p2: int, g: Geometry) -> list[int]:
    """All q+1 points of the line through two projectively distinct points.

    Returns [p1, p2] followed by alpha*p1 + p2 for each nonzero alpha.
    Codes are not normalized.
    """
    if normalize(p1, g) == normalize(p2, g):
        raise SamePointError(f"codes {p1} and {p2} are the same projective point")
    pts = [p1, p2]
    for alpha in g.field.nonzero_elements():
        pts.append(scalar_mul_point(alpha, p1, g) ^ p2)
    return pts


# ---------------------------------------------------------------------------
# enumeration of normalized codes
# ---------------------------------------------------------------------------


def enumerate_points(g: Geometry) -> Iterator[int]:
    """Yield all point_count normalized codes in strictly increasing order.

    Block d (d = 0 .. r) holds the codes with leading 1 in coordinate
    x_(r-d): exactly the integers q^d + s for s in [0, q^d).
    """
    for d in range(g.r + 1):
        base = g._powers[d]
        for s in range(base):
            yield base + s


def point_by_index(t: int, g: Geometry) -> int:
    """The t-th code of enumerate_points order, 0 <= t < point_count."""
    if not 0 <= t < g.point_count:
        raise OutOfRangeError(f"point index {t} outside [0, {g.point_count})")
    d = g.r
    while g._cum[d] > t:
        d -= 1
    return g._powers[d] + (t - g._cum[d])


def index_of_point(code: int, g: Geometry) -> int:
    """Inverse of point_by_index; code must be normalized."""
    if code == 0:
        raise ZeroVectorError("code 0 is not a point")
    if code >= g.code_span:
        raise OutOfRangeError(f"code {code} outside [1, {g.code_span})")
    d = (code.bit_length() - 1) // g.k
    base = g._powers[d]
    if code >= 2 * base:
        raise OutOfRangeError(f"code {code} is not normalized")
    return g._cum[d] + (code - base)


# ---------------------------------------------------------------------------
# numpy bulk helpers over uint64 codes
# ---------------------------------------------------------------------------


def scalar_mul_codes(alpha: int | np.ndarray, codes: np.ndarray, g: Geometry) -> np.ndarray:
    """Vectorized scalar_mul_point over a uint64 code array of any shape.

    alpha is one scalar, or an integer array of them shaped like codes.
    The XOR of one g.split_tables lookup per code byte: the split tables
    of Plank, Greenan and Miller (FAST 2013).
    """
    if isinstance(alpha, np.ndarray):
        if not alpha.all():
            raise ZeroScalarError("scalar multiple by 0")
    elif alpha == 0:
        raise ZeroScalarError("scalar multiple by 0")
    elif alpha == 1:
        return codes.copy()
    octets = np.ascontiguousarray(codes, dtype="<u8").view(np.uint8).reshape(codes.shape + (8,))
    nbytes = g.split_tables.shape[1]
    if isinstance(alpha, np.ndarray):
        # each code's row of the tables, read from their flat form
        flat, rows = g.split_tables.reshape(-1), alpha.astype(np.intp) * (nbytes << 8)
        out = flat.take(rows + octets[..., 0])
        for i in range(1, nbytes):
            out ^= flat.take(rows + (i << 8) + octets[..., i])
        return out
    tables = g.split_tables[alpha]
    out = tables[0].take(octets[..., 0])
    for i in range(1, nbytes):
        out ^= tables[i].take(octets[..., i])
    return out


def points_by_index(idx: np.ndarray, g: Geometry) -> np.ndarray:
    """Vectorized point_by_index over a uint64 index array."""
    d = np.searchsorted(g._cum_arr, idx, side="right") - 1
    return g._powers_arr[d] + (idx - g._cum_arr[d])
