"""Bit-map marking engine: windows, counting, and the pair loop."""

from __future__ import annotations

import numpy as np
import pytest

from capcheck import Cap, CoverageMap, Geometry, GeometryTooLargeError, normalize, random_cap
from capcheck.coverage import ByteMap, SecantClusters, covered_codes, mark_pair_secants, multiples_table
import capcheck.coverage as coverage_mod

PG24 = Geometry(2, 4)


def _marked(cov: CoverageMap, lo: int, hi: int) -> list[int]:
    """The marked codes in [lo, hi), ascending, read through cov.bits."""
    return (np.flatnonzero(cov.bits(lo, hi)) + lo).tolist()


def test_mark_and_get_scalar():
    """A byte map marks by plain store; a bit-map takes marks only through a stage."""
    grow = ByteMap(PG24)
    one = np.array([17], dtype=np.uint64)
    assert not grow.test_codes(one).any()
    grow.mark_codes(one)
    assert grow.test_codes(np.array([17, 16], dtype=np.uint64)).tolist() == [True, False]
    with pytest.raises(ValueError):
        CoverageMap(PG24).mark_codes(one)


def test_byte_map_unpacks_the_bit_map():
    """A byte map starts zeroed: growth reads the start cap's secants as covered bits instead."""
    every = np.arange(PG24.code_span, dtype=np.uint64)
    assert not ByteMap(PG24).test_codes(every).any()


def test_window_map_takes_marks_only_through_a_stage(hyperoval):
    """A window map is written by mark_pair_secants and read by bits."""
    cov = CoverageMap(PG24, lo=16, hi=32)
    codes = np.array([1, 16, 31, 32, 63], dtype=np.uint64)
    with pytest.raises(ValueError):
        cov.mark_codes(codes)
    t = multiples_table(hyperoval.codes(), PG24)
    mark_pair_secants(cov, t, hyperoval.codes())
    full = CoverageMap(PG24)
    mark_pair_secants(full, t, hyperoval.codes())
    assert _marked(cov, 16, 32) == _marked(full, 16, 32)


def test_full_span_flag():
    """A map spans the whole code range unless given a window."""
    full, window = CoverageMap(PG24), CoverageMap(PG24, lo=0, hi=32)
    assert (full.lo, full.hi, full.nbytes) == (0, PG24.code_span, 8)
    assert (window.lo, window.hi, window.nbytes) == (0, 32, 4)
    with pytest.raises(ValueError, match=r"bad window \[5, 3\) for span 64"):
        CoverageMap(PG24, 5, 3)


def test_memory_bound_enforced():
    g = Geometry(17, 4)
    with pytest.raises(GeometryTooLargeError):
        CoverageMap(g)  # 8 GiB, refused before allocating
    CoverageMap(g, 0, 8192)  # a window that fits


def test_multiples_table_shape(hyperoval):
    t = multiples_table(hyperoval.codes(), PG24)
    assert t.shape == (6, 3)
    assert t.size == 18  # n(q-1)
    assert t[:, 0].tolist() == list(hyperoval.points)  # alpha=1 column
    for i, p in enumerate(hyperoval.points):
        for code in t[i]:
            assert normalize(int(code), PG24) == p


def test_multiples_table_gf2_degenerates():
    g = Geometry(2, 2)
    c = Cap(g, (1, 2, 4))
    t = multiples_table(c.codes(), g)
    assert t.shape == (3, 1)
    assert t[:, 0].tolist() == [1, 2, 4]


def test_pair_secants_counts(hyperoval):
    cov = CoverageMap(PG24)
    t = multiples_table(hyperoval.codes(), PG24)
    pairs, landed = mark_pair_secants(cov, t, hyperoval.codes())
    assert pairs == 15  # n(n-1)/2
    assert landed == 45  # (q-1) * pairs, nothing outside a full-span window


def test_pair_secants_marks_expected_codes(frame3):
    cov = CoverageMap(PG24)
    t = multiples_table(frame3.codes(), PG24)
    mark_pair_secants(cov, t, frame3.codes())
    expected = set()
    for i, p in enumerate(frame3.points):
        for q_ in frame3.points[i + 1 :]:
            for alpha in (1, 2, 3):
                from capcheck import scalar_mul_point

                expected.add(scalar_mul_point(alpha, p, PG24) ^ q_)
    assert _marked(cov, 0, 64) == sorted(expected)


def test_windowed_marks_partition_exactly(hyperoval):
    """Each mark lands in exactly one window of a partition."""
    t = multiples_table(hyperoval.codes(), PG24)
    full = CoverageMap(PG24)
    _, total = mark_pair_secants(full, t, hyperoval.codes())
    landed_sum = 0
    for lo in range(0, 64, 16):
        cov = CoverageMap(PG24, lo=lo, hi=lo + 16)
        _, landed = mark_pair_secants(cov, t, hyperoval.codes())
        landed_sum += landed
        assert _marked(cov, lo, lo + 16) == _marked(full, lo, lo + 16)
    assert landed_sum == total


def test_blocked_path_matches_oneshot(monkeypatch, hyperoval):
    t = multiples_table(hyperoval.codes(), PG24)
    reference = CoverageMap(PG24)
    mark_pair_secants(reference, t, hyperoval.codes())
    monkeypatch.setattr(coverage_mod, "_ONESHOT_LIMIT", 4)
    blocked = CoverageMap(PG24)
    pairs, landed = mark_pair_secants(blocked, t, hyperoval.codes())
    assert pairs == 15 and landed == 45
    assert np.array_equal(blocked._bits, reference._bits)


def test_covered_codes_oracle(frame4):
    """covered_codes reads growth's byte map, here marked with the secants a check marks."""
    cov = CoverageMap(PG24)
    t = multiples_table(frame4.codes(), PG24)
    mark_pair_secants(cov, t, frame4.codes())
    from capcheck import enumerate_points, scalar_mul_point

    marked = set(_marked(cov, 0, 64))
    grow = ByteMap(PG24)
    grow.mark_codes(np.array(sorted(marked), dtype=np.uint64))
    pts = np.array(list(enumerate_points(PG24)), dtype=np.uint64)
    got = covered_codes(grow, pts, PG24)
    for p, flag in zip(pts, got):
        reps_marked = any(scalar_mul_point(a, int(p), PG24) in marked for a in (1, 2, 3))
        assert bool(flag) == reps_marked


@pytest.mark.parametrize("bits", [0, 1, 3, 6])
@pytest.mark.parametrize("width", [5, 16, 23, 64])
def test_clustered_windows_match_full_map(hyperoval, bits, width):
    """Windows of whole clusters: same bits, exact counts; any other window raises."""
    codes = hyperoval.codes()
    t = multiples_table(codes, PG24)
    full = CoverageMap(PG24)
    mark_pair_secants(full, t, codes)
    clusters = SecantClusters(t, codes, PG24, bits)
    if width % (1 << clusters.shift):  # narrower than a cluster, or cutting one
        with pytest.raises(ValueError):
            mark_pair_secants(CoverageMap(PG24, width, min(64, 2 * width)), t, codes, clusters)
        return
    pairs = landed = 0
    for lo in range(0, 64, width):
        hi = min(64, lo + width)
        cov = CoverageMap(PG24, lo, hi)
        p, m = mark_pair_secants(cov, t, codes, clusters)
        pairs += p
        landed += m
        assert _marked(cov, lo, hi) == _marked(full, lo, hi)
    assert (pairs, landed) == (15, 45)


def test_cluster_bits_checked(hyperoval):
    t = multiples_table(hyperoval.codes(), PG24)
    with pytest.raises(ValueError):
        SecantClusters(t, hyperoval.codes(), PG24, PG24.code_bits + 1)


def test_window_must_hold_whole_clusters(hyperoval):
    codes = hyperoval.codes()
    t = multiples_table(codes, PG24)
    clusters = SecantClusters(t, codes, PG24, 2)  # clusters of 16 codes
    with pytest.raises(ValueError):  # misaligned
        mark_pair_secants(CoverageMap(PG24, 8, 24), t, codes, clusters)
    with pytest.raises(ValueError):  # narrower than its clusters
        mark_pair_secants(CoverageMap(PG24, 16, 24), t, codes, clusters)
    with pytest.raises(ValueError):  # clustered for its own width, still misaligned
        mark_pair_secants(CoverageMap(PG24, 8, 24), t, codes)
    assert mark_pair_secants(CoverageMap(PG24, 16, 48), t, codes, clusters)[1] > 0


def test_marked_codes_reads_a_range():
    cov = CoverageMap(PG24)
    flags = np.zeros(PG24.code_span, dtype=bool)
    flags[[5, 12, 13, 40, 49]] = True
    cov._bits[:] = np.packbits(flags, bitorder="little")
    assert _marked(cov, 0, 64) == np.flatnonzero(flags).tolist()
    assert _marked(cov, 5, 50) == [5, 12, 13, 40, 49]
    assert _marked(cov, 13, 41) == [13, 40]
    assert _marked(cov, 14, 40) == []


# ---------------------------------------------------------------------------
# staged marking: a byte per code per radix bucket, packed into the map
# ---------------------------------------------------------------------------

PG48 = Geometry(4, 8)  # k = 3: window and bucket edges fall inside a coordinate


def _secant_flags(t: np.ndarray, codes: np.ndarray, span: int) -> np.ndarray:
    """One flag per code of the span, set one generated secant code at a time."""
    flags = np.zeros(span, dtype=bool)
    for i in range(codes.size):
        for j in range(i + 1, codes.size):
            for x in (t[i] ^ codes[j]).tolist():
                flags[x] = True
    return flags


def _windows(span: int, shards: int) -> list[tuple[int, int]]:
    """The windows check_split runs for `shards`: the next power of two of them."""
    width = span >> min(span.bit_length() - 1, (shards - 1).bit_length())
    return [(lo, lo + width) for lo in range(0, span, width)]


@pytest.mark.parametrize("stage_bits", [20, 6, 2])
@pytest.mark.parametrize(
    "windows",
    [
        [(0, 1 << 15)],
        _windows(1 << 15, 4),
        _windows(1 << 15, 16),
        _windows(1 << 15, 3),
        _windows(1 << 15, 7),
        _windows(1 << 15, 100),
        _windows(1 << 15, 1 << 13),  # 4-code windows: lo not a multiple of 8
    ],
    ids=["full", "4", "16", "3", "7", "100", "odd-lo"],
)
def test_staged_marks_match_code_by_code(monkeypatch, stage_bits, windows):
    """Every window's bits equal those of marking each secant code on its own."""
    codes = random_cap(PG48, 40, seed=5).codes()
    t = multiples_table(codes, PG48)
    monkeypatch.setattr(coverage_mod, "_STAGE_BITS", stage_bits)
    original = coverage_mod.CoverageMap.mark_codes

    def staged_only(self, codes):
        assert self._stage is not None  # never np.bitwise_or.at inside mark_pair_secants
        return original(self, codes)

    monkeypatch.setattr(coverage_mod.CoverageMap, "mark_codes", staged_only)
    flags = _secant_flags(t, codes, PG48.code_span)
    bits = min(PG48.code_bits, (len(windows) - 1).bit_length())
    clusters = SecantClusters(t, codes, PG48, bits)
    pairs = landed = 0
    for lo, hi in windows:
        cov = CoverageMap(PG48, lo, hi)
        p, m = mark_pair_secants(cov, t, codes, clusters)
        pairs += p
        landed += m
        assert np.array_equal(cov._bits, np.packbits(flags[lo:hi], bitorder="little")), (lo, hi)
    assert (pairs, landed) == (780, 7 * 780)
