"""Field tables against definition-level polynomial arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capcheck import (
    DEFAULT_MODULI,
    ReduciblePolynomialError,
    UnsupportedFieldError,
    ZeroInverseError,
    build_field,
    is_irreducible,
)
from oracles import RefField, poly_mul, poly_rem


def test_documented_default_moduli():
    assert DEFAULT_MODULI[2] == 7  # x^2+x+1
    assert DEFAULT_MODULI[3] == 11  # x^3+x+1
    assert DEFAULT_MODULI[4] == 19  # x^4+x+1


def test_default_moduli_are_irreducible():
    for k, modulus in DEFAULT_MODULI.items():
        assert modulus.bit_length() - 1 == k
        assert is_irreducible(modulus), (k, modulus)
    # constants 0 and 1 have no degree; x, x+1, x^2+x+1 and the two cubics are the rest up to degree 3
    assert [p for p in range(16) if is_irreducible(p)] == [2, 3, 7, 11, 13]


def test_gf4_anchor_values():
    f = build_field(2)
    # w encodes as 2 and its conjugate as 3
    assert f.mul(2, 2) == 3  # w^2 = conj(w)
    assert f.mul(2, 3) == 1  # w^3 = 1
    assert all(f.mul(0, a) == 0 for a in range(4))
    assert f.inv(1) == 1
    assert f.inv(2) == 3


def test_gf8_inverse_of_two_is_five():
    f = build_field(3)
    ref = RefField(3, 11)
    brute = [b for b in range(1, 8) if ref.mul(2, b) == 1]
    assert brute == [5]
    assert f.inv(2) == 5


def test_conjugate_gf4():
    """GF(4) conjugation is squaring, the product table's diagonal (as quantum.py reads it)."""
    f = build_field(2)
    assert [f.square(a) for a in range(4)] == [0, 1, 3, 2] == f.mul_array.diagonal().tolist()
    assert all(f.square(f.square(a)) == a for a in range(4))


def test_gf2_multiplication_is_and():
    f = build_field(1)
    for a in (0, 1):
        for b in (0, 1):
            assert f.mul(a, b) == (a & b)


def test_reducible_modulus_rejected():
    with pytest.raises(ReduciblePolynomialError):
        build_field(2, 6)  # x^2+x = x(x+1)
    with pytest.raises(ReduciblePolynomialError):
        build_field(4, 17)  # x^4+1 = (x+1)^4
    with pytest.raises(ReduciblePolynomialError):
        build_field(3, 7)  # wrong degree


def test_degree_bounds():
    with pytest.raises(UnsupportedFieldError):
        build_field(0)
    with pytest.raises(UnsupportedFieldError):
        build_field(17)


def test_alternate_irreducible_modulus_accepted():
    f = build_field(3, 13)  # x^3+x^2+1, the other degree-3 irreducible
    for a in range(1, 8):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_field_axioms_exhaustive(k):
    f = build_field(k)
    ref = RefField(k, DEFAULT_MODULI[k])
    q = 1 << k
    elems = range(q)
    for a in elems:
        assert f.mul(a, 1) == a
        assert f.square(a) == f.mul(a, a)
        for b in elems:
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, b) == ref.mul(a, b)
            # Frobenius: squaring is additive in characteristic 2
            assert f.square(a ^ b) == f.square(a) ^ f.square(b)
            for c in elems:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
    for a in range(1, q):
        inv = f.inv(a)
        assert f.mul(a, inv) == 1
        assert [b for b in range(1, q) if f.mul(a, b) == 1] == [inv]


@pytest.mark.parametrize("k", [2, 4, 8])
def test_inverse_of_zero_raises(k):
    with pytest.raises(ZeroInverseError):
        build_field(k).inv(0)


_F256 = build_field(8)


@pytest.mark.parametrize(
    "k, modulus", [(k, DEFAULT_MODULI[k]) for k in range(1, 9)] + [(8, 285)]  # x^8+x^4+x^3+x^2+1
)
def test_product_table_matches_polynomial_oracle(k, modulus):
    """The whole vectorized table, against term-by-term polynomial products."""
    f = build_field(k, modulus)
    q = 1 << k
    want = [[poly_rem(poly_mul(a, b), modulus) for b in range(q)] for a in range(q)]
    assert f.mul_array.tolist() == want
    assert f._mul == want and all(type(x) is int for row in f._mul for x in row)
    assert [f.square(a) for a in range(q)] == [want[a][a] for a in range(q)]
    assert all(want[a][f.inv(a)] == 1 for a in range(1, q))


@given(a=st.integers(0, 255), b=st.integers(0, 255))
def test_gf256_table_matches_polynomial_oracle(a, b):
    assert _F256.mul(a, b) == RefField(8, DEFAULT_MODULI[8]).mul(a, b)


@given(a=st.integers(0, 255), b=st.integers(0, 255), c=st.integers(0, 255))
def test_gf256_distributes_over_xor(a, b, c):
    f = _F256
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_elements_views():
    assert list(build_field(2).nonzero_elements()) == [1, 2, 3]
