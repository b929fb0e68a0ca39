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
_DUAL_CHUNK = 1 << 12


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
        cols = np.array(c.coordinates(), dtype=np.intp).reshape(c.n, c.geometry.r + 1)
        return cls(c.geometry, cols.T.copy())

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
    mul = mat.geometry.field.mul_array
    rows = mat.array
    conj = mul.diagonal()[rows]
    nrows = rows.shape[0]
    for i in range(nrows):
        for j in range(i, nrows):
            if np.bitwise_xor.reduce(mul[rows[i], conj[j]]) != 0:
                return False
    return True


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
    mul = g.field.mul_array
    parity = mat.n & 1
    shifts = [g.k * (g.r - i) for i in range(g.r + 1)]
    mask = np.uint64(g.q - 1)
    for lo in range(0, g.point_count, _DUAL_CHUNK):
        hi = min(g.point_count, lo + _DUAL_CHUNK)
        duals = points_by_index(np.arange(lo, hi, dtype=np.uint64), g)
        acc = np.zeros((hi - lo, mat.n), dtype=mul.dtype)
        for i, shift in enumerate(shifts):
            dcol = ((duals >> np.uint64(shift)) & mask).astype(np.intp)
            acc ^= mul[dcol[:, None], mat.array[i][None, :]]
        hits = (acc == 0).sum(axis=1)
        if ((hits & 1) != parity).any():
            return False
    return True


def check_weights_even(mat: CapMatrix) -> bool:
    """True iff every codeword of the row space has even Hamming weight.

    Works column by column: the parity contribution of one column over
    all q^(r+1) coefficient vectors is a tensor of its scalar multiples,
    XOR-folded into one parity flag per coefficient vector.
    """
    g = mat.geometry
    if g.code_span > WEIGHT_LIMIT:
        raise GeometryTooLargeError(
            f"{g.label} needs {g.code_span} codewords; even-weight limit is {WEIGHT_LIMIT}"
        )
    mul = g.field.mul_array
    odd = np.zeros(g.code_span, dtype=bool)
    for col in mat.array.T.tolist():
        v = np.zeros(1, dtype=mul.dtype)
        for e in col:
            v = (mul[:, e, None] ^ v[None, :]).ravel()
        odd ^= v != 0
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
