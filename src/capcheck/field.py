"""GF(2^k) arithmetic on integer-encoded elements.

An element is a plain Python int in [0, 2^k - 1] whose binary digits are
the coefficients of a polynomial over GF(2): the polynomial p(x) is
encoded as p(2).  Addition is then bitwise XOR; multiplication is
carry-less polynomial multiplication reduced modulo a fixed irreducible
polynomial of degree k.

The default modulus for each k is the smallest irreducible polynomial of
degree k in this integer encoding:

    k=1: x             -> 2
    k=2: x^2+x+1       -> 7
    k=3: x^3+x+1       -> 11
    k=4: x^4+x+1       -> 19
    k=5: x^5+x^2+1     -> 37
    k=6: x^6+x+1       -> 67
    k=7: x^7+x+1       -> 131
    k=8: x^8+x^4+x^3+x+1 -> 283

For k=2 this gives GF(4) = {0, 1, w, wb} encoded as {0, 1, 2, 3}, with
w^2 = wb, w*wb = 1 and wb = w+1.

Fields run from GF(2) to GF(2^8): a full 2^k x 2^k product table is
built eagerly and every operation is a table lookup.  Callers add with
`^` and list the elements as range(q); a FieldTable offers mul, inv
and square (over GF(4), squaring is conjugation), and the whole table
as the numpy array mul_array.  A FieldTable is immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import ReduciblePolynomialError, UnsupportedFieldError, ZeroInverseError

MAX_DEGREE = 8  # the largest k whose product table is built

# Smallest irreducible polynomial of degree k, integer-encoded.
DEFAULT_MODULI: dict[int, int] = {
    1: 2,
    2: 7,
    3: 11,
    4: 19,
    5: 37,
    6: 67,
    7: 131,
    8: 283,
}


def _pmod(a: int, m: int) -> int:
    """Remainder of the polynomial a modulo the polynomial m."""
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def _product_table(k: int, modulus: int) -> np.ndarray:
    """The 2^k x 2^k table of a*b mod modulus: a vectorized carry-less product, then _pmod."""
    e = np.arange(1 << k, dtype=np.uint64)
    prod = np.zeros((e.size, e.size), dtype=np.uint64)
    for i in range(k):
        prod ^= (e[:, None] << np.uint64(i)) * ((e[None, :] >> np.uint64(i)) & np.uint64(1))
    for d in range(2 * k - 2, k - 1, -1):
        prod ^= ((prod >> np.uint64(d)) & np.uint64(1)) * np.uint64(modulus << (d - k))
    return prod


def is_irreducible(poly: int) -> bool:
    """True iff the integer-encoded polynomial has no nontrivial GF(2) factor."""
    degree = poly.bit_length() - 1
    if degree < 1:
        return False
    if degree == 1:
        return True
    # trial division by everything of degree 1 .. degree//2
    for f in range(2, 1 << (degree // 2 + 1)):
        if _pmod(poly, f) == 0:
            return False
    return True


class FieldTable:
    """GF(2^k) with precomputed operation tables.

    Use :func:`build_field` to construct one.  Elements are ints in
    [0, 2^k - 1]; the table never wraps them.
    """

    __slots__ = ("k", "modulus", "q", "_mul", "_inv", "mul_array")

    def __init__(self, k: int, modulus: int):
        self.k = k
        self.modulus = modulus
        self.q = 1 << k
        table = _product_table(k, modulus)
        self._mul: list[list[int]] = table.tolist()
        inv = (table[1:] == 1).argmax(axis=1)
        self._inv: list[int] = [0, *inv.tolist()]
        self.mul_array: np.ndarray = table

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroInverseError on 0."""
        if a == 0:
            raise ZeroInverseError("0 has no multiplicative inverse")
        return self._inv[a]

    def square(self, a: int) -> int:
        return self._mul[a][a]

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    def __repr__(self) -> str:
        return f"FieldTable(k={self.k}, modulus={self.modulus})"


def build_field(k: int, modulus: int | None = None) -> FieldTable:
    """Build GF(2^k) under the given (or default) irreducible modulus.

    Raises UnsupportedFieldError for k outside [1, 8] and
    ReduciblePolynomialError when the supplied modulus factors over
    GF(2) or has the wrong degree.
    """
    if not 1 <= k <= MAX_DEGREE:
        raise UnsupportedFieldError(f"extension degree k={k} outside [1, {MAX_DEGREE}]")
    if modulus is None:
        modulus = DEFAULT_MODULI[k]
    if modulus.bit_length() - 1 != k:
        raise ReduciblePolynomialError(
            f"modulus {modulus} has degree {modulus.bit_length() - 1}, expected {k}"
        )
    if not is_irreducible(modulus):
        raise ReduciblePolynomialError(f"modulus {modulus} is reducible over GF(2)")
    return FieldTable(k, modulus)
