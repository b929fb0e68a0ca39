"""Quantum-cap conditions and the equivalence of their three phrasings."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from capcheck import (
    Cap,
    CapMatrix,
    Geometry,
    GeometryTooLargeError,
    InvariantError,
    UnsupportedFieldError,
    build_field,
    check_hyperplane_parity,
    check_self_orthogonal,
    check_weights_even,
    decode_point,
    encode_point,
    enumerate_points,
    matrix_rank,
    verify_quantum_cap,
)
from oracles import RefField

F4 = build_field(2)


# ---------------------------------------------------------------------------
# matrix rank
# ---------------------------------------------------------------------------


def _codeword_count(mat: CapMatrix) -> int:
    """4^rank, counted the slow way: distinct row-space elements."""
    f = RefField(mat.geometry.k, mat.geometry.field.modulus)
    rows = mat.array.tolist()
    seen = set()
    for coeffs in product(range(mat.geometry.q), repeat=len(rows)):
        word = [0] * mat.n
        for coef, row in zip(coeffs, rows):
            word = [w ^ f.mul(coef, e) for w, e in zip(word, row)]
        seen.add(tuple(word))
    return len(seen)


def test_rank_identity(frame3):
    assert matrix_rank(CapMatrix.from_cap(frame3)) == 3


def test_rank_of_empty_matrix(pg24):
    assert matrix_rank(CapMatrix.from_cap(Cap(pg24, ()))) == 0


def test_rank_spanning_and_degenerate(hyperoval, pg34):
    assert matrix_rank(CapMatrix.from_cap(hyperoval)) == 3
    embedded = Cap(pg34, hyperoval.points)  # lives in the hyperplane x0 = 0
    assert matrix_rank(CapMatrix.from_cap(embedded)) == 3


@pytest.mark.parametrize("points", [(16, 4, 1), (16, 4), (21, 26)])
def test_rank_matches_codeword_count(pg24, points):
    mat = CapMatrix.from_cap(Cap(pg24, points))
    assert _codeword_count(mat) == 4 ** matrix_rank(mat)


# ---------------------------------------------------------------------------
# the three conditions on anchors
# ---------------------------------------------------------------------------


def test_self_orthogonal_zero_matrix(pg24):
    mat = CapMatrix(pg24, np.zeros((3, 4), dtype=np.uint8))
    assert check_self_orthogonal(mat)


def test_self_orthogonal_anchors(hyperoval, frame3):
    assert check_self_orthogonal(CapMatrix.from_cap(hyperoval))
    assert not check_self_orthogonal(CapMatrix.from_cap(frame3))


def test_hyperplane_parity_anchors(hyperoval, frame3, arc5, pg24):
    assert check_hyperplane_parity(CapMatrix.from_cap(hyperoval))
    assert not check_hyperplane_parity(CapMatrix.from_cap(frame3))
    assert not check_hyperplane_parity(CapMatrix.from_cap(arc5[0]))
    assert check_hyperplane_parity(CapMatrix.from_cap(Cap(pg24, ())))


def test_hyperoval_meets_every_line_evenly(hyperoval, pg24):
    """Brute-force form of the parity condition for the 6-point oval."""
    cols = [decode_point(p, pg24) for p in hyperoval.points]
    for d in enumerate_points(pg24):
        dc = decode_point(d, pg24)
        hits = 0
        for col in cols:
            acc = 0
            for a, b in zip(dc, col):
                acc ^= F4.mul(a, b)
            hits += acc == 0
        assert hits in (0, 2)


def test_hyperplane_parity_refuses_large_geometry():
    g = Geometry(12, 4)
    pts = [encode_point([0] * i + [1] + [0] * (12 - i), g) for i in range(3)]
    with pytest.raises(GeometryTooLargeError):
        check_hyperplane_parity(CapMatrix.from_cap(Cap(g, tuple(sorted(pts)))))


def test_weights_even_anchors(hyperoval, frame3, pg24):
    assert check_weights_even(CapMatrix(pg24, np.zeros((3, 2), dtype=np.uint8)))
    assert check_weights_even(CapMatrix.from_cap(hyperoval))
    assert not check_weights_even(CapMatrix.from_cap(frame3))


def test_weights_even_matches_exhaustive_oracle(hyperoval, frame3):
    for cap in (hyperoval, frame3):
        mat = CapMatrix.from_cap(cap)
        f = RefField(2, mat.geometry.field.modulus)
        rows = mat.array.tolist()
        all_even = True
        for coeffs in product(range(4), repeat=len(rows)):
            word = [0] * mat.n
            for coef, row in zip(coeffs, rows):
                word = [w ^ f.mul(coef, e) for w, e in zip(word, row)]
            if sum(1 for w in word if w) & 1:
                all_even = False
        assert check_weights_even(mat) == all_even


def test_weights_even_refuses_large_geometry():
    g = Geometry(9, 4)  # 4^10 codewords is past the enumeration bound
    mat = CapMatrix(g, np.zeros((10, 3), dtype=np.uint8))
    with pytest.raises(GeometryTooLargeError):
        check_weights_even(mat)


def test_conditions_invariant_under_column_scaling(hyperoval, frame3):
    """Rescaling a point's representative changes nothing."""
    for cap, expect in ((hyperoval, True), (frame3, False)):
        base = CapMatrix.from_cap(cap)
        for alpha in (2, 3):
            arr = base.array.copy()
            arr[:, 1] = [F4.mul(alpha, int(e)) for e in arr[:, 1]]
            scaled = CapMatrix(base.geometry, arr)
            assert check_self_orthogonal(scaled) is expect
            assert check_weights_even(scaled) is expect


# ---------------------------------------------------------------------------
# full verdicts
# ---------------------------------------------------------------------------


def test_hyperoval_is_quantum(hyperoval):
    v = verify_quantum_cap(hyperoval)
    assert v.spans_space
    assert v.hermitian_self_orthogonal
    assert v.hyperplane_parity_ok is True
    assert v.all_weights_even is True
    assert v.is_quantum_cap


def test_frames_are_not_quantum(frame3, frame4):
    for c in (frame3, frame4):
        v = verify_quantum_cap(c)
        assert v.spans_space
        assert not v.hermitian_self_orthogonal
        assert v.hyperplane_parity_ok is False
        assert v.all_weights_even is False
        assert not v.is_quantum_cap


def test_non_spanning_cap_is_not_quantum(hyperoval, pg34):
    v = verify_quantum_cap(Cap(pg34, hyperoval.points))
    assert not v.spans_space
    assert v.hermitian_self_orthogonal  # the conditions hold, the span does not
    assert not v.is_quantum_cap


def test_quantum_requires_gf4(pg22):
    with pytest.raises(UnsupportedFieldError, match=r"GF\(4\), not GF\(2\)"):
        verify_quantum_cap(Cap(pg22, (4, 2, 1)))


@pytest.mark.parametrize("r, q", [(2, 2), (3, 8)])
def test_cap_matrix_requires_gf4(r, q):
    """Every condition takes a CapMatrix, so this one check guards them all."""
    g = Geometry(r, q)
    with pytest.raises(UnsupportedFieldError, match=rf"not GF\({q}\)"):
        CapMatrix(g, np.zeros((r + 1, 2), dtype=np.intp))
    with pytest.raises(UnsupportedFieldError):
        CapMatrix.from_cap(Cap(g, (1, 1 << g.k)))


def test_verdict_json_shape(hyperoval):
    d = verify_quantum_cap(hyperoval).to_json_dict()
    assert list(d) == [
        "spans_space",
        "hermitian_self_orthogonal",
        "hyperplane_parity_ok",
        "all_weights_even",
        "is_quantum_cap",
    ]


def test_disagreeing_conditions_raise(hyperoval, monkeypatch):
    import capcheck.quantum as quantum_mod

    monkeypatch.setattr(quantum_mod, "check_weights_even", lambda mat: False)
    with pytest.raises(InvariantError, match="disagree"):
        verify_quantum_cap(hyperoval)


def test_three_conditions_agree_on_corpus(corpus):
    """The cross-check inside verify_quantum_cap never fires."""
    seen = 0
    for entry in corpus:
        c = entry.cap
        if c.geometry.q != 4:
            continue
        v = verify_quantum_cap(c)  # raises InvariantError on any disagreement
        assert v.hyperplane_parity_ok is not None
        assert v.all_weights_even is not None
        assert (
            v.hermitian_self_orthogonal
            == v.hyperplane_parity_ok
            == v.all_weights_even
        )
        assert v.is_quantum_cap == (v.spans_space and v.hermitian_self_orthogonal)
        seen += 1
    assert seen >= 150


@pytest.mark.parametrize("size", [1, 2])
def test_batch_sizes_do_not_change_verdicts(corpus, pg24, monkeypatch, size):
    """Dual chunks and column blocks of 1 or 2 give the verdicts of the default batches."""
    import capcheck.quantum as quantum_mod

    caps = [e.cap for e in corpus if e.cap.geometry.q == 4] + [Cap(pg24, ())]
    default = [verify_quantum_cap(c) for c in caps]
    monkeypatch.setattr(quantum_mod, "_chunk", lambda per_item: size)
    assert [verify_quantum_cap(c) for c in caps] == default
    empty = CapMatrix(pg24, np.zeros((3, 0), dtype=np.intp))
    assert check_self_orthogonal(empty)
    assert check_hyperplane_parity(empty)
    assert check_weights_even(empty)
