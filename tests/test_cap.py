"""Cap container, parsing, validation, and greedy completion."""

from __future__ import annotations

import hashlib
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capcheck import (
    BadCoordinateError,
    Cap,
    DuplicatePointError,
    Geometry,
    GeometryMismatchError,
    GeometryTooLargeError,
    InvalidCapError,
    InvariantError,
    OutOfRangeError,
    WrongArityError,
    ZeroVectorError,
    check_fast,
    decode_point,
    greedy_extend,
    normalize,
    parse_cap,
    random_cap,
    scalar_mul_point,
    validate_cap,
    write_cap,
)
import capcheck.cap as cap_mod
import capcheck.completeness as comp_mod
from capcheck.cap import _lcg_chunks, _lcg_jumps
from capcheck.coverage import DEFAULT_MAX_COVERAGE_BYTES
from oracles import RefField, collinear, find_collinear_triple, greedy_cap, normalize_vec, vec_add, vec_scale

PG24 = Geometry(2, 4)
PG22 = Geometry(2, 2)


# ---------------------------------------------------------------------------
# parsing and writing
# ---------------------------------------------------------------------------


def test_parse_text_frame():
    c = parse_cap("1 0 0\n0 1 0\n0 0 1\n", PG24)
    assert c.n == 3
    assert c.points == (16, 4, 1)  # file order preserved
    assert parse_cap(b"1 0 0\n0 1 0\n0 0 1\n", PG24) == c  # ASCII bytes parse as text


def test_parse_packed():
    c = parse_cap("10\n4\n1\n", PG24)
    assert c.points == (16, 4, 1)


def test_parse_header_checked():
    assert parse_cap("# PG(2,4)\n1 0 0\n", PG24).n == 1
    with pytest.raises(GeometryMismatchError):
        parse_cap("# PG(3,4)\n1 0 0 0\n", PG24)


def test_parse_skips_blanks_and_comments():
    c = parse_cap("\n# a comment\n1 0 0\n\n0 1 0\n", PG24)
    assert c.n == 2


def test_parse_normalizes_input():
    c = parse_cap("2 0 0\n", PG24)  # (w,0,0) ~ (1,0,0)
    assert c.points == (16,)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(BadCoordinateError, match="line 1"):
        parse_cap("4 0 0\n", PG24)
    with pytest.raises(WrongArityError, match="line 2"):
        parse_cap("1 0 0\n1 0\n", PG24)
    with pytest.raises(ZeroVectorError, match="line 1"):
        parse_cap("0 0 0\n", PG24)
    with pytest.raises(DuplicatePointError, match="line 2"):
        parse_cap("2 0 0\n1 0 0\n", PG24)  # both normalize to (1,0,0)
    with pytest.raises(BadCoordinateError, match="line 1: non-integer coordinate"):
        parse_cap("1 0 x\n", PG24)
    with pytest.raises(BadCoordinateError, match="line 1"):
        parse_cap("zz\n", PG24)
    with pytest.raises(WrongArityError, match="line 2: expected a single hex code"):
        parse_cap("10\n4 0\n", PG24)  # the first line made the file packed
    with pytest.raises(ZeroVectorError):
        parse_cap("0\n", PG24)
    with pytest.raises(OutOfRangeError):
        parse_cap("40\n", PG24)  # 0x40 = 64 = code span


def test_write_cap_anchors(frame3):
    assert write_cap(frame3) == "0 0 1\n0 1 0\n1 0 0\n"
    assert write_cap(parse_cap("1 0 0\n", PG24), fmt="packed") == "10\n"
    out = write_cap(frame3, header=True)
    assert out.startswith("# PG(2,4)\n")
    with pytest.raises(ValueError, match="unknown format 'bogus'"):
        write_cap(frame3, fmt="bogus")


@pytest.mark.parametrize("fmt", ["text", "packed"])
@pytest.mark.parametrize("header", [False, True])
def test_round_trip(fmt, header, hyperoval):
    data = write_cap(hyperoval, fmt=fmt, header=header)
    assert parse_cap(data, PG24).points == hyperoval.points


@given(seed=st.integers(0, 10**6))
def test_round_trip_random_caps(seed):
    g = Geometry(3, 4)
    c = random_cap(g, 8, seed=seed)
    for fmt in ("text", "packed"):
        assert parse_cap(write_cap(c, fmt=fmt), g).points == c.points


# ---------------------------------------------------------------------------
# the Cap container
# ---------------------------------------------------------------------------


def test_cap_rejects_bad_points():
    with pytest.raises(ZeroVectorError):
        Cap(PG24, (0,))
    with pytest.raises(OutOfRangeError):
        Cap(PG24, (64,))
    with pytest.raises(BadCoordinateError):
        Cap(PG24, (32,))  # (w,0,0) is not normalized
    with pytest.raises(DuplicatePointError):
        Cap(PG24, (16, 16))


def test_cap_views(hyperoval):
    assert len(hyperoval) == hyperoval.n == 6
    assert list(hyperoval) == list(hyperoval.points)
    assert [int(c) for c in hyperoval.codes()] == list(hyperoval.points)
    assert hyperoval.coordinates()[0] == decode_point(hyperoval.points[0], PG24)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_frame_ok(frame3):
    assert validate_cap(frame3) is None


def test_validate_collinear_triple():
    c = Cap(PG24, (1, 16, 17))  # (0,0,1), (1,0,0), (1,0,1)
    violation = validate_cap(c)
    assert violation is not None
    assert sorted(violation.triple) == [1, 16, 17]


def test_validate_hyperoval_ok(hyperoval):
    assert validate_cap(hyperoval) is None


def test_validate_small_caps_trivially_ok():
    assert validate_cap(Cap(PG24, ())) is None
    assert validate_cap(Cap(PG24, (16, 4))) is None


def _oracle_has_collinear_triple(c: Cap) -> bool:
    ref = RefField(c.geometry.k, c.geometry.field.modulus)
    vecs = [tuple(decode_point(p, c.geometry)) for p in c.points]
    return find_collinear_triple(ref, vecs) is not None


@pytest.mark.parametrize("seed", range(12))
def test_validate_agrees_with_cubic_oracle(random_point_sets, seed):
    """Random point sets, cap or not: same verdict as testing all triples."""
    c = random_point_sets[seed]
    g, sample = c.geometry, c.points
    violation = validate_cap(c)
    assert (violation is not None) == _oracle_has_collinear_triple(c)
    if violation is not None:
        a, b, x = violation.triple
        assert len({a, b, x}) == 3
        assert {a, b, x} <= set(sample)
        ref = RefField(g.k, g.field.modulus)
        from oracles import collinear

        va, vb, vx = (tuple(decode_point(p, g)) for p in (a, b, x))
        assert collinear(ref, va, vb, vx)


def _past_the_bound(width: int) -> None:
    """Stands in for the check's require_map_fits, as past the bit-map bound, to force validate_cap's secant lookup."""
    raise GeometryTooLargeError("forced secant lookup")


def _non_cap(g: Geometry, seed: int) -> Cap:
    """A greedy-complete cap with 1 to 3 points of its secants inserted at seeded positions."""
    return _with_secant_points(greedy_extend(Cap(g, ()), seed), seed)


def _with_secant_points(c: Cap, seed: int) -> Cap:
    """c with 1 to 3 points of its secants inserted at seeded positions."""
    g = c.geometry
    pts = list(c.points)
    rng = random.Random(seed)
    for _ in range(1 + seed % 3):
        a, b = rng.sample(range(len(pts)), 2)
        p = normalize(scalar_mul_point(rng.randrange(1, g.q), pts[a], g) ^ pts[b], g)
        if p not in pts:
            pts.insert(rng.randrange(len(pts) + 1), p)
    return Cap(g, tuple(pts))


def _first_on_secant(f: RefField, vecs: list[tuple[int, ...]]) -> int:
    """Index of the first point on a line through two others, in reference arithmetic."""
    points = set(vecs)
    for t, v in enumerate(vecs):
        for u in vecs:
            if u != v and any(
                normalize_vec(f, vec_add(vec_scale(f, lam, u), v)) in points for lam in range(1, f.q)
            ):
                return t
    raise AssertionError("no point on a secant")


@pytest.mark.parametrize(
    "rq", [(2, 4), (3, 4), (4, 4), (5, 4), (6, 4), (3, 8), (4, 2), (5, 2)], ids=lambda rq: "PG(%d,%d)" % rq
)
def test_validate_paths_give_one_witness(monkeypatch, rq):
    """The map path and the secant lookup return the same triple, through the first point on a secant."""
    g = Geometry(*rq)
    ref = RefField(g.k, g.field.modulus)
    non_caps = [_non_cap(g, seed) for seed in range(10)]
    on_map = [validate_cap(c) for c in non_caps]
    monkeypatch.setattr(comp_mod, "require_map_fits", _past_the_bound)
    for c, want in zip(non_caps, on_map):
        assert want is not None and validate_cap(c) == want
        vecs = [tuple(decode_point(p, g)) for p in c.points]
        assert collinear(ref, *(tuple(decode_point(p, g)) for p in want.triple))
        assert c.points[_first_on_secant(ref, vecs)] in want.triple


@pytest.mark.parametrize(
    "points, triple",
    [((1, 16, 4, 5, 17), (1, 16, 17)), ((1, 4, 7, 6, 5), (1, 4, 7))],
    ids=["first-partner", "least-third"],
)
def test_witness_rule(monkeypatch, points, triple):
    """Through the first point on a secant: its first partner in cap order, then the least third point."""
    c = Cap(PG24, points)
    assert validate_cap(c).triple == triple
    monkeypatch.setattr(comp_mod, "require_map_fits", _past_the_bound)
    assert validate_cap(c).triple == triple


PG10 = Geometry(10, 4)
PG17 = Geometry(17, 4)  # 36-bit codes: its 8 GiB bit-map is past the bound


def _in_pg17(c: Cap) -> Cap:
    """The same codes as points of PG(17,4): seven zero coordinates in front, and lines stay lines."""
    return Cap(PG17, c.points)


@pytest.mark.parametrize("seed", range(3))
def test_secant_lookup_matches_the_map(seed):
    """Past the bit-map bound, validate_cap gives the PG(10,4) map path's triple."""
    c = _with_secant_points(random_cap(PG10, 1500, seed), seed)
    want = validate_cap(c)
    assert want is not None
    assert validate_cap(_in_pg17(c)) == want


def _collinear_indices(c: Cap) -> set[tuple[int, int, int]]:
    g = c.geometry
    ref = RefField(g.k, g.field.modulus)
    vecs = [tuple(decode_point(p, g)) for p in c.points]
    return {t for t in combinations(range(c.n), 3) if collinear(ref, *(vecs[i] for i in t))}


@pytest.mark.parametrize("earlier_triple", [False, True], ids=["only-triple", "with-earlier-triple"])
def test_secant_lookup_reads_the_last_pair(earlier_triple):
    """P_1 lies on the line through the last two points and on no other secant.

    Only the pair (n-2, n-1) has a secant through P_1, and the witness
    starts from the least cap index on any secant, so the triple is
    {P_1, P_(n-2), P_(n-1)}.  The second case adds the triple
    {P_2, P_3, P_4}, found from earlier pairs: a lookup that skipped the
    last pair would start from P_2 and return that one.
    """
    g = Geometry(5, 4)
    base = list(random_cap(g, 12, 0).points)
    if earlier_triple:
        base.insert(4, normalize(base[2] ^ base[3], g))
    n = len(base) + 1
    want = {(1, n - 2, n - 1), (2, 3, 4)} if earlier_triple else {(1, n - 2, n - 1)}
    caps = [Cap(g, (*base, normalize(scalar_mul_point(beta, base[1], g) ^ base[-1], g))) for beta in (1, 2, 3)]
    c = next(c for c in caps if _collinear_indices(c) == want)
    triple = tuple(sorted(c.points[t] for t in (1, n - 2, n - 1)))
    assert validate_cap(c).triple == triple
    assert validate_cap(_in_pg17(c)).triple == triple


def test_secant_lookup_memory():
    """The lookup holds O(n q) codes: under 8 MiB for a 1500-cap with 36-bit codes."""
    c = _in_pg17(random_cap(PG10, 1500, 0))
    tracemalloc.start()
    try:
        assert validate_cap(c) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_subsets_of_caps_are_caps(hyperoval):
    for size in (3, 4, 5):
        for sub in combinations(hyperoval.points, size):
            assert validate_cap(Cap(PG24, tuple(sorted(sub)))) is None


# ---------------------------------------------------------------------------
# greedy completion
# ---------------------------------------------------------------------------


def test_greedy_complete_input_unchanged(hyperoval):
    assert greedy_extend(hyperoval, order_seed=9).points == hyperoval.points


@pytest.mark.parametrize("seed", range(25))
def test_greedy_pg24_always_reaches_six(seed):
    c = greedy_extend(Cap(PG24, ()), order_seed=seed)
    assert c.n == 6
    assert validate_cap(c) is None
    assert check_fast(c).complete


@pytest.mark.parametrize("seed", range(25))
def test_greedy_fano_always_reaches_four(seed):
    c = greedy_extend(Cap(PG22, ()), order_seed=seed)
    assert c.n == 4
    assert check_fast(c).complete


def test_greedy_deterministic_and_extending(frame3):
    a = greedy_extend(frame3, order_seed=5)
    b = greedy_extend(frame3, order_seed=5)
    assert a.points == b.points
    assert set(frame3.points) <= set(a.points)
    assert check_fast(a).complete


def test_greedy_rejects_non_cap():
    with pytest.raises(InvalidCapError):
        greedy_extend(Cap(PG24, (1, 16, 17)), order_seed=0)


@pytest.mark.parametrize("under", [(1, 0), (0, 1)])
def test_secant_map_checks_its_counts(hyperoval, monkeypatch, under):
    """Validation and growth check the (pairs, marks) of their secant map, marked through the check."""
    mark = comp_mod.mark_pair_secants

    def short(*args):
        pairs, landed = mark(*args)
        return pairs - under[0], landed - under[1]

    monkeypatch.setattr(comp_mod, "mark_pair_secants", short)
    with pytest.raises(InvariantError, match="windows landed"):
        validate_cap(hyperoval)
    with pytest.raises(InvariantError, match="windows landed"):
        greedy_extend(hyperoval, order_seed=0)


# seed -> sha256 of write_cap(c, "packed") and size of random_cap(PG(5,4), 200, seed),
# then of greedy_extend(its first 10 points, seed + 100) and of its first point;
# computed on the bit-map growth that preceded the byte map
GROWN_PG54 = {
    0: [(70, "9a0820df3d94ced33a427b3271541b9cd2d92709531f2b01f351fbccc2ff634c"),
        (74, "f56f3fe33729571b63d339f9ae13ea5ea12e6f159514ad6101518231e3fce015"),
        (66, "50a05a5a5bcd572c8536ecad5f00726326b6ef6089c3aecdf4cdcb02d106b4a3")],
    1: [(70, "2467830f222ed0c0a72c6bff7e9c6cfafbdf872b0e1a98da1a9a4eb901fdfd25"),
        (70, "94d2ac730f7c9ab2c1ee62bfd9624bff2b61bb1cff7437abe916831c0b0543d8"),
        (65, "c415f1065dc4d04b1fcca053cf93bdc2832c4898d2660c73474e916e6b89effd")],
    2: [(66, "03a0c918df7649a6ad83a20b2d7c4ef5295f9f78cb9d6692e28df03ceeac07d8"),
        (66, "b6e96d0da1737d736fe7189e7c806458688a227177970322543ff295e5fdf15f"),
        (69, "0cf83d2913c27f7a5287b73ae2f2b29f010ae05b6b60e5287d7667e41079b055")],
}


@pytest.mark.parametrize("chunk", [None, 1 << 4, 1 << 16], ids=["default", "2^4", "2^16"])
@pytest.mark.parametrize("seed", sorted(GROWN_PG54))
def test_grown_caps_pinned(monkeypatch, seed, chunk):
    """Growth from empty and from a validated start, at any candidate chunk size."""
    if chunk is not None:
        monkeypatch.setattr(cap_mod, "_GROW_CHUNK", chunk)
    g = Geometry(5, 4)
    c = random_cap(g, 200, seed)
    assert greedy_extend(c, seed).points == c.points  # already complete
    grown = [c] + [greedy_extend(Cap(g, c.points[:k]), seed + 100) for k in (10, 1)]
    digests = [(x.n, hashlib.sha256(write_cap(x, "packed").encode()).hexdigest()) for x in grown]
    assert digests == GROWN_PG54[seed]


# (r, q) -> size and sha256 of write_cap(c, "packed") of greedy_extend(its first k points,
# 100) for k = 10 and 2, c = random_cap(PG(r,q), 200, 0); computed on the growth that
# unpacked its start's secant map into the byte map
GROWN_FROM_STARTS = {
    (15, 2): [(967, "a142e1a710b47be290c6c094700ece8dad762218af464fcb0f1e4a83eb5323b1"),
              (969, "bfc16e6c4bb45f8679a176594f16ea0fd591b71245bc5a2ccd0b4accdaa92d13")],
    (5, 4): [(74, "f56f3fe33729571b63d339f9ae13ea5ea12e6f159514ad6101518231e3fce015"),
             (65, "e4a797aa6c166c0871bdbfcac5a1c98890658de0a438d8124f6947862373832a")],
    (5, 8): [(269, "46bb46a929c4f2ed753699e189850ba163ad35edb104bda731e7cca7f72099e9"),
             (281, "a09237981158dfd6da2a5ef6d5d5eab1a996d40fe58a4101b94c67f478de09e2")],
    (4, 16): [(270, "5edc013f8f8e8ad9ab964360789c61ceac87962eb7ab7a92e85428e4a2c956ba"),
              (270, "d4c512a8a760e76772f277b0f83c90e8eb1625fce1fc9afbd3d856f17fa5c576")],
}


@pytest.mark.parametrize("r, q", sorted(GROWN_FROM_STARTS), ids=lambda v: str(v))
def test_growth_from_starts_pinned(r, q):
    """Growth from the covered bits of a 10- and a 2-point start, in fields other than GF(4) too."""
    g = Geometry(r, q)
    c = random_cap(g, 200, 0)
    grown = [greedy_extend(Cap(g, c.points[:k]), 100) for k in (10, 2)]
    digests = [(x.n, hashlib.sha256(write_cap(x, "packed").encode()).hexdigest()) for x in grown]
    assert digests == GROWN_FROM_STARTS[(r, q)]


@pytest.mark.parametrize(
    "r, q, seed", [(3, 4, s) for s in range(4)] + [(4, 4, s) for s in range(2)] + [(3, 8, s) for s in range(2)]
)
def test_growth_matches_reference_greedy(r, q, seed):
    """Growth keeps exactly the points that the definition keeps, walking the same order."""
    g = Geometry(r, q)
    f = RefField(g.k, g.field.modulus)

    def order(s):
        return [t for chunk in _lcg_chunks(g.point_count, s) for t in chunk.tolist()]

    assert list(random_cap(g, g.point_count, seed).points) == greedy_cap(f, r, order(seed))
    assert list(random_cap(g, 5, seed).points) == greedy_cap(f, r, order(seed), limit=5)
    start = random_cap(g, 3, seed).points
    grown = greedy_extend(Cap(g, start), seed + 7).points
    assert list(grown) == greedy_cap(f, r, order(seed + 7), start)


def test_growth_past_the_byte_bound_allocates_nothing():
    """PG(15,4): the 512 MiB bit-map fits the bound, the 4 GiB byte map does not."""
    g = Geometry(15, 4)
    assert g.code_span // 8 <= DEFAULT_MAX_COVERAGE_BYTES < g.code_span
    starts = [Cap(g, ()), Cap(g, (1,)), Cap(g, (1, 4))]
    tracemalloc.start()
    try:
        for start in starts:
            with pytest.raises(GeometryTooLargeError, match="one per code"):
                greedy_extend(start, order_seed=0)
        with pytest.raises(GeometryTooLargeError, match="one per code"):
            random_cap(g, 5, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_random_cap_deterministic():
    g = Geometry(3, 4)
    a = random_cap(g, 10, seed=4)
    b = random_cap(g, 10, seed=4)
    assert a.points == b.points and a.n == 10
    assert validate_cap(a) is None
    assert random_cap(g, 0, seed=4).points == ()


# ---------------------------------------------------------------------------
# the seeded permutation behind greedy scanning
# ---------------------------------------------------------------------------


@given(m=st.integers(1, 3000), seed=st.integers(0, 2**32))
def test_lcg_visits_every_index_once(m, seed):
    out = [int(x) for chunk in _lcg_chunks(m, seed) for x in chunk]
    assert sorted(out) == list(range(m))


def _reference_jumps(a: int, cadd: int, big: int, size: int) -> tuple[list[int], list[int]]:
    """The jump tables step by step: x_(t+u) = aa[u] * x_t + cc[u] (mod big)."""
    aa = [1] * (size + 1)
    cc = [0] * (size + 1)
    for u in range(size):
        aa[u + 1] = (aa[u] * a) % big
        cc[u + 1] = (cc[u] * a + cadd) % big
    return aa, cc


def _reference_chunks(m: int, seed: int, chunk: int = 1 << 16):
    """_lcg_chunks with the step-by-step tables and scalar arithmetic."""
    bits = max(2, (m - 1).bit_length() if m > 1 else 1)
    big = 1 << bits
    rng = random.Random(seed)
    a = 4 * rng.randrange(big // 4) + 1
    cadd = 2 * rng.randrange(big // 2) + 1
    x = rng.randrange(big)
    size = min(chunk, big)
    aa, cc = _reference_jumps(a, cadd, big, size)
    remaining = big
    while remaining > 0:
        take = min(size, remaining)
        vals = [(aa[u] * x + cc[u]) % big for u in range(take)]
        yield [v for v in vals if v < m]
        x = (aa[take] * x + cc[take]) % big
        remaining -= take


@pytest.mark.parametrize("bits", [2, 7, 22, 63, 64])
def test_lcg_jump_tables_match_stepwise(bits):
    big = 1 << bits
    rng = random.Random(bits)
    a, cadd = 4 * rng.randrange(big // 4) + 1, 2 * rng.randrange(big // 2) + 1
    size = min(1 << 16, big)
    aa, cc = _lcg_jumps(a, cadd, big, size)
    assert (aa.tolist(), cc.tolist()) == _reference_jumps(a, cadd, big, size)


@pytest.mark.parametrize("m", [1, 2, 85, Geometry(10, 4).point_count])
def test_lcg_permutation_matches_stepwise(m):
    got = [int(x) for chunk in _lcg_chunks(m, 7) for x in chunk]
    assert got == [x for chunk in _reference_chunks(m, 7) for x in chunk]


def test_lcg_63_bit_chunks_match_stepwise():
    m = (1 << 62) + 1  # a 63-bit generator
    got, want = _lcg_chunks(m, 3), _reference_chunks(m, 3)
    for _ in range(2):  # the second chunk starts from a jump
        assert next(got).tolist() == next(want)
