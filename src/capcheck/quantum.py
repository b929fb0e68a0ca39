"""Quantum-cap conditions for caps over GF(4).

A spanning cap whose point matrix has pairwise Hermitian-orthogonal
rows is a quantum cap (Tonchev, "Quantum codes from caps", Discrete
Math. 2008).  Two rephrasings of the orthogonality condition are
implemented as independent cross-checks: every hyperplane meets the
cap in the parity of its size, and every codeword of the row space has
even weight.  Each condition takes one CapMatrix, which refuses every
field but GF(4), and reads its products from the field's product
table.  verify_quantum_cap decodes the cap once, computes whichever
rephrasings fit their enumeration bounds, and raises InvariantError if
they disagree.

Each check is batched: one gather from the product table serves all
row pairs, a chunk of dual points, or a block of columns, and is
folded by one XOR reduction.  The chunks bound every temporary to
about 2^20 bytes, so a large cap costs time, not memory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .cap import Cap
from .errors import GeometryTooLargeError, InvariantError, UnsupportedFieldError
from .geometry import Geometry, points_by_index

HYPERPLANE_LIMIT = 100_000  # max hyperplanes for the parity check
WEIGHT_LIMIT = 1 << 18  # max codewords for the even-weight check
_TEMP_ELEMENTS = 1 << 20  # bound on the elements (bytes) of each batched temporary


def _chunk(per_item: int) -> int:
    """Items per batch when each item needs per_item temporary elements: at least 1."""
    return max(1, _TEMP_ELEMENTS // max(1, per_item))


def _products(g: Geometry) -> np.ndarray:
    """The GF(4) product table in bytes, so every gathered temporary is a byte an element."""
    return g.field.mul_array.astype(np.uint8)


def _coordinates(codes: np.ndarray, g: Geometry) -> np.ndarray:
    """(r+1, m) coordinates of m uint64 codes, x0 first."""
    shifts = np.arange(g.r, -1, -1, dtype=np.uint64) * np.uint64(g.k)
    return ((codes[None, :] >> shifts[:, None]) & np.uint64(g.q - 1)).astype(np.intp)


@dataclass(frozen=True)
class CapMatrix:
    """Cap points as columns of an (r+1) x n integer matrix over GF(4)."""

    geometry: Geometry
    array: np.ndarray

    def __post_init__(self) -> None:
        if self.geometry.q != 4:
            raise UnsupportedFieldError(f"quantum caps live over GF(4), not GF({self.geometry.q})")

    @classmethod
    def from_cap(cls, c: Cap) -> "CapMatrix":
        return cls(c.geometry, _coordinates(c.codes(), c.geometry))

    @property
    def n(self) -> int:
        return int(self.array.shape[1])


def matrix_rank(mat: CapMatrix) -> int:
    """Rank over the field, by incremental column reduction."""
    f = mat.geometry.field
    nrows = mat.geometry.r + 1
    basis: dict[int, list[int]] = {}  # pivot position -> column with 1 there
    for v in mat.array.T.tolist():
        i = 0
        while i < nrows:
            if v[i]:
                if i in basis:
                    coef, bv = v[i], basis[i]
                    v = [e ^ f.mul(coef, b) for e, b in zip(v, bv)]
                else:
                    inv = f.inv(v[i])
                    basis[i] = [f.mul(inv, e) for e in v]
                    break
            i += 1
        if len(basis) == nrows:
            break
    return len(basis)


def check_self_orthogonal(mat: CapMatrix) -> bool:
    """True iff every pair of rows, self-pairs included, is Hermitian-orthogonal.

    The Hermitian form is the sum of x_i * conj(y_i); conjugation over
    GF(4) is squaring, the diagonal of the product table.
    """
    mul = _products(mat.geometry)
    rows = mat.array
    conj = mul.diagonal()[rows]
    forms = np.zeros((rows.shape[0], rows.shape[0]), dtype=mul.dtype)  # forms[i, j] = <row i, row j>
    step = _chunk(forms.size)
    for lo in range(0, mat.n, step):
        cols = slice(lo, lo + step)
        forms ^= np.bitwise_xor.reduce(mul[rows[:, None, cols], conj[None, :, cols]], axis=2)
    return not forms.any()


def check_hyperplane_parity(mat: CapMatrix) -> bool:
    """True iff every hyperplane meets the cap in |cap| mod 2 points.

    Hyperplanes are enumerated once each through their normalized dual
    points d, as the zero sets of x -> sum d_i x_i.
    """
    g = mat.geometry
    if g.point_count > HYPERPLANE_LIMIT:
        raise GeometryTooLargeError(
            f"{g.label} has {g.point_count} hyperplanes; parity check limit is {HYPERPLANE_LIMIT}"
        )
    mul = _products(g)
    parity = mat.n & 1
    step = _chunk(mat.array.size)
    for lo in range(0, g.point_count, step):
        hi = min(g.point_count, lo + step)
        duals = _coordinates(points_by_index(np.arange(lo, hi, dtype=np.uint64), g), g).T
        acc = np.bitwise_xor.reduce(mul[duals[:, :, None], mat.array[None]], axis=1)
        hits = (acc == 0).sum(axis=1)
        if ((hits & 1) != parity).any():
            return False
    return True


def check_weights_even(mat: CapMatrix) -> bool:
    """True iff every codeword of the row space has even Hamming weight.

    Works a block of columns at a time: the contribution of one column
    over all q^(r+1) coefficient vectors is a tensor of its scalar
    multiples, and the nonzero flags of the block's tensors are
    XOR-folded into one parity flag per coefficient vector.
    """
    g = mat.geometry
    if g.code_span > WEIGHT_LIMIT:
        raise GeometryTooLargeError(
            f"{g.label} needs {g.code_span} codewords; even-weight limit is {WEIGHT_LIMIT}"
        )
    mul = _products(g)
    odd = np.zeros(g.code_span, dtype=bool)
    step = _chunk(g.code_span)
    for lo in range(0, mat.n, step):
        block = mat.array[:, lo : lo + step]
        v = np.zeros((block.shape[1], 1), dtype=mul.dtype)
        for e in block:  # v[b, a_i * len + rest] = a_i * e[b] ^ v[b, rest]
            v = (mul[:, e].T[:, :, None] ^ v[:, None, :]).reshape(block.shape[1], -1)
        odd ^= np.logical_xor.reduce(v != 0, axis=0)
    return not odd.any()


@dataclass(frozen=True)
class QuantumVerdict:
    spans_space: bool
    hermitian_self_orthogonal: bool
    hyperplane_parity_ok: Optional[bool]
    all_weights_even: Optional[bool]
    is_quantum_cap: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def verify_quantum_cap(c: Cap) -> QuantumVerdict:
    """Full verdict for a cap over GF(4).

    The orthogonality condition is always computed from the matrix rows;
    the hyperplane and weight rephrasings are added when their
    enumerations fit, and any disagreement is raised rather than
    reported, since the three are provably the same predicate.
    """
    mat = CapMatrix.from_cap(c)
    g = mat.geometry
    orthogonal = check_self_orthogonal(mat)
    spans = matrix_rank(mat) == g.r + 1
    parity = check_hyperplane_parity(mat) if g.point_count <= HYPERPLANE_LIMIT else None
    weights = check_weights_even(mat) if g.code_span <= WEIGHT_LIMIT else None
    computed = {flag for flag in (orthogonal, parity, weights) if flag is not None}
    if len(computed) > 1:
        raise InvariantError(
            "equivalent quantum-cap conditions disagree: "
            f"orthogonal={orthogonal} parity={parity} weights={weights}"
        )
    return QuantumVerdict(
        spans_space=spans,
        hermitian_self_orthogonal=orthogonal,
        hyperplane_parity_ok=parity,
        all_weights_even=weights,
        is_quantum_cap=spans and orthogonal,
    )
