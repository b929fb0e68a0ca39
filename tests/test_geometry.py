"""Point encoding, arithmetic, normalization, and enumeration.

The anchors here are the packed-code values that everything else rests
on: (1,0,0) -> 16 and (1,w,conj(w)) -> 27 in PG(2,4), XOR as point
addition, and normalized codes being the minimum of each projective
class.  Cross-checks run against the coordinate-domain oracle.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capcheck import (
    BadCoordinateError,
    Geometry,
    GeometryTooLargeError,
    OutOfRangeError,
    SamePointError,
    UnsupportedFieldError,
    WrongArityError,
    ZeroVectorError,
    build_field,
    decode_point,
    encode_point,
    enumerate_points,
    index_of_point,
    is_normalized,
    leading_coefficient,
    line_points,
    normalize,
    point_by_index,
    scalar_mul_point,
)
from capcheck.coverage import multiples_table
from capcheck.geometry import indices_of_points, points_by_index, scalar_mul_codes
from oracles import RefField, all_points, encode_coords, normalize_vec, vec_add

PG24 = Geometry(2, 4)
PG22 = Geometry(2, 2)
REF4 = RefField(2, 7)


def test_encode_anchors():
    assert encode_point([1, 0, 0], PG24) == 16
    assert encode_point([0, 0, 1], PG24) == 1
    assert encode_point([1, 2, 3], PG24) == 27  # (1, w, conj(w))


def test_decode_anchors():
    assert decode_point(27, PG24) == [1, 2, 3]
    assert decode_point(16, PG24) == [1, 0, 0]
    g12 = Geometry(12, 4)
    assert decode_point(4**12, g12) == [1] + [0] * 12


def test_encode_errors():
    with pytest.raises(ZeroVectorError):
        encode_point([0, 0, 0], PG24)
    with pytest.raises(WrongArityError):
        encode_point([1, 0], PG24)
    with pytest.raises(BadCoordinateError):
        encode_point([4, 0, 0], PG24)


def test_decode_errors():
    with pytest.raises(ZeroVectorError):
        decode_point(0, PG24)
    with pytest.raises(OutOfRangeError):
        decode_point(64, PG24)
    with pytest.raises(ZeroVectorError, match="zero vector has no leading coefficient"):
        leading_coefficient(0, PG24)
    with pytest.raises(ZeroVectorError, match="code 0 is not a point"):
        index_of_point(0, PG24)
    with pytest.raises(OutOfRangeError, match=r"code 64 outside \[1, 64\)"):
        index_of_point(64, PG24)
    with pytest.raises(OutOfRangeError, match="code 32 is not normalized"):
        index_of_point(32, PG24)  # (0, w, 0)


@pytest.mark.parametrize("g,ref", [(PG22, RefField(1, 2)), (Geometry(1, 4), REF4), (PG24, REF4)])
def test_xor_homomorphism_exhaustive(g, ref):
    """encode(u) XOR encode(v) = encode(u + v) over every vector pair."""
    vectors = [v for v in product(range(g.q), repeat=g.r + 1) if any(v)]
    for u in vectors:
        cu = encode_point(list(u), g)
        assert cu == encode_coords(u, g.q)
        for v in vectors:
            s = vec_add(u, v)
            expect = 0 if not any(s) else encode_point(list(s), g)
            assert cu ^ encode_point(list(v), g) == expect


def test_scalar_mul_anchors():
    assert scalar_mul_point(2, 16, PG24) == 32  # w * (1,0,0) = (w,0,0)
    for code in (1, 16, 27, 45):
        assert scalar_mul_point(1, code, PG24) == code
        assert scalar_mul_point(3, scalar_mul_point(2, code, PG24), PG24) == code


def test_scalar_mul_matches_coordinate_oracle():
    for v in product(range(4), repeat=3):
        if not any(v):
            continue
        code = encode_point(list(v), PG24)
        for alpha in (1, 2, 3):
            expect = tuple(REF4.mul(alpha, x) for x in v)
            assert scalar_mul_point(alpha, code, PG24) == encode_coords(expect, 4)


def test_scalar_mul_errors():
    with pytest.raises(ZeroVectorError):
        scalar_mul_point(2, 0, PG24)
    from capcheck import ZeroScalarError

    with pytest.raises(ZeroScalarError):
        scalar_mul_point(0, 16, PG24)
    with pytest.raises(ZeroScalarError, match="scalar multiple by 0"):
        scalar_mul_codes(0, np.array([16], dtype=np.uint64), PG24)


def test_normalize_anchors():
    assert normalize(32, PG24) == 16
    # the three representatives of one projective class
    assert encode_point([2, 3, 1], PG24) == 45
    assert encode_point([3, 1, 2], PG24) == 54
    assert normalize(27, PG24) == 27
    assert normalize(45, PG24) == 27
    assert normalize(54, PG24) == 27


@pytest.mark.parametrize("g", [PG22, PG24, Geometry(1, 8)])
def test_normalize_class_properties_exhaustive(g):
    for code in range(1, g.code_span):
        n = normalize(code, g)
        assert normalize(n, g) == n  # idempotent
        assert is_normalized(n, g)
        assert leading_coefficient(n, g) == 1
        cls = [scalar_mul_point(a, code, g) for a in g.field.nonzero_elements()]
        assert {normalize(x, g) for x in cls} == {n}  # constant on the class
        assert n == min(cls)  # normalized code is the class minimum


def test_line_points_pg12():
    g = Geometry(1, 2)
    line = line_points(2, 1, g)
    assert sorted(line) == [1, 2, 3]  # the whole of PG(1,2)


def test_line_points_properties():
    pts = list(enumerate_points(PG24))
    for p1, p2 in combinations(pts[:9], 2):
        line = line_points(p1, p2, PG24)
        assert len(line) == 5  # q + 1
        normalized = {normalize(x, PG24) for x in line}
        assert len(normalized) == 5  # pairwise projectively distinct
        assert normalized == {normalize(x, PG24) for x in line_points(p2, p1, PG24)}
        # representative choice does not matter
        alt = line_points(scalar_mul_point(2, p1, PG24), p2, PG24)
        assert normalized == {normalize(x, PG24) for x in alt}


def test_line_points_same_point():
    with pytest.raises(SamePointError):
        line_points(16, 32, PG24)  # (1,0,0) and (w,0,0)


def test_two_points_determine_one_line():
    pts = list(enumerate_points(PG22))
    lines = {
        frozenset(normalize(x, PG22) for x in line_points(a, b, PG22))
        for a, b in combinations(pts, 2)
    }
    assert len(lines) == 7  # the Fano plane
    for a, b in combinations(pts, 2):
        assert sum(1 for ln in lines if a in ln and b in ln) == 1


@pytest.mark.parametrize(
    "g,count",
    [(Geometry(1, 2), 3), (PG22, 7), (PG24, 21), (Geometry(3, 4), 85), (Geometry(4, 4), 341)],
)
def test_enumeration_counts(g, count):
    pts = list(enumerate_points(g))
    assert len(pts) == count == g.point_count
    assert all(is_normalized(p, g) for p in pts)
    assert all(a < b for a, b in zip(pts, pts[1:]))  # strictly increasing
    assert pts == sorted(
        {normalize(c, g) for c in range(1, g.code_span)}
    )  # exactly one code per class


def test_pg12_point_count():
    g = Geometry(12, 4)
    assert g.point_count == 22369621 == (4**13 - 1) // 3
    assert g.point_count * 3 == g.code_span - 1


def test_point_index_round_trip():
    for g in (PG22, PG24, Geometry(3, 4)):
        for idx, p in enumerate(enumerate_points(g)):
            assert index_of_point(p, g) == idx
            assert point_by_index(idx, g) == p
    g12 = Geometry(12, 4)
    for idx in (0, 1, 20, 21, 4**6, 22369620):
        assert index_of_point(point_by_index(idx, g12), g12) == idx
    with pytest.raises(OutOfRangeError):
        point_by_index(22369621, g12)


def test_points_by_index_matches_scalar():
    g = Geometry(3, 4)
    idx = np.arange(g.point_count, dtype=np.uint64)
    codes = points_by_index(idx, g)
    assert [int(c) for c in codes] == list(enumerate_points(g))
    assert np.array_equal(indices_of_points(codes, g), idx)


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64, 128, 256])
def test_scalar_mul_codes_matches_scalar(q):
    """Every k <= 8 (coordinates straddling bytes at k = 3, 5, 6, 7), at
    r = 2 and at the widest r whose codes fit 64 bits (exactly 64 for
    q = 2, 4, 16, 256); flat, strided and 2-D inputs."""
    k = q.bit_length() - 1
    rng = np.random.default_rng(q)
    for r in (2, 64 // k - 1):
        g = Geometry(r, q)
        codes = rng.integers(1, g.code_span - 1, size=48, dtype=np.uint64, endpoint=True)
        column = multiples_table(codes, g)[:, -1]
        for x in (codes, column, codes.reshape(6, 8)):
            for alpha in g.field.nonzero_elements():
                got = scalar_mul_codes(alpha, x, g)
                assert got.shape == x.shape
                assert got.ravel().tolist() == [scalar_mul_point(alpha, int(c), g) for c in x.ravel()]


@pytest.mark.parametrize("r,q", [(7, 256), (15, 16), (31, 4), (63, 2)])
def test_64_bit_geometries(r, q):
    g = Geometry(r, q)
    assert g.code_bits == 64 and g.code_span == 1 << 64
    idx = np.array([0, 1, g.point_count - 2, g.point_count - 1], dtype=np.uint64)
    codes = points_by_index(idx, g)
    assert codes.tolist() == [point_by_index(int(t), g) for t in idx]
    assert np.array_equal(indices_of_points(codes, g), idx)


def test_geometry_identities():
    for r, q in [(1, 2), (2, 4), (3, 8), (12, 4), (4, 256)]:
        g = Geometry(r, q)
        assert g.point_count * (q - 1) == g.code_span - 1
        assert g.code_bits == g.k * (r + 1)
    assert Geometry(12, 4).label == "PG(12,4)"
    assert Geometry(3, 8) == Geometry(3, 8) and hash(Geometry(3, 8)) == hash(Geometry(3, 8))
    assert Geometry(3, 8) != Geometry(3, 8, 13)  # x^3+x^2+1, the other cubic
    assert Geometry(3, 8).__eq__("PG(3,8)") is NotImplemented
    assert Geometry(3, 8) != "PG(3,8)"


def test_geometry_rejects_bad_parameters():
    with pytest.raises(UnsupportedFieldError):
        Geometry(2, 9)
    with pytest.raises(UnsupportedFieldError):
        Geometry(2, 1)
    with pytest.raises(GeometryTooLargeError):
        Geometry(0, 4)
    with pytest.raises(GeometryTooLargeError, match="72-bit codes"):
        Geometry(8, 256)
    with pytest.raises(UnsupportedFieldError):
        Geometry(1, 512)
    with pytest.raises(UnsupportedFieldError):
        build_field(9)


@given(coords=st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any))
def test_encode_decode_round_trip(coords):
    g = Geometry(3, 4)
    assert decode_point(encode_point(coords, g), g) == coords


@given(code=st.integers(1, 4**4 - 1), alpha=st.integers(1, 3))
def test_normalize_absorbs_scaling(code, alpha):
    g = Geometry(3, 4)
    assert normalize(scalar_mul_point(alpha, code, g), g) == normalize(code, g)


@given(code=st.integers(1, 4**4 - 1))
def test_index_round_trip_random_codes(code):
    g = Geometry(3, 4)
    n = normalize(code, g)
    assert point_by_index(index_of_point(n, g), g) == n
