"""Agreement and exactness of the four completeness checkers."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from capcheck import (
    Cap,
    CapViolation,
    Geometry,
    GeometryTooLargeError,
    check_fast,
    check_naive,
    check_oracle,
    check_split,
    decode_point,
    encode_point,
    enumerate_points,
    greedy_extend,
    normalize,
    random_cap,
    reports_agree,
    validate_cap,
)
from oracles import RefField, covered
from product_caps import affine_cap, product_cap

ALL_CHECKERS = [check_fast, check_naive, check_oracle]


def _pairwise_agree(reports):
    first = reports[0]
    assert all(reports_agree(first, r) for r in reports[1:])


# ---------------------------------------------------------------------------
# anchor verdicts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("checker", ALL_CHECKERS)
def test_hyperoval_complete(hyperoval, checker):
    rep = checker(hyperoval)
    assert rep.complete
    assert rep.uncovered_count == 0
    assert rep.n == 6
    assert rep.geometry == "PG(2,4)"


def test_hyperoval_complete_split(hyperoval):
    for shards, workers in [(1, 1), (2, 1), (4, 2)]:
        rep = check_split(hyperoval, shards, workers)
        assert rep.complete and rep.shards == shards


def test_frame3_leaves_diagonal_uncovered(frame3, pg24):
    rep = check_fast(frame3)
    assert not rep.complete
    assert encode_point([1, 1, 1], pg24) in rep.uncovered.tolist()


def test_frame4_uncovered_exactly(frame4):
    for checker in ALL_CHECKERS:
        rep = checker(frame4)
        assert not rep.complete
        assert rep.uncovered.tolist() == [27, 30]
    assert decode_point(27, frame4.geometry) == [1, 2, 3]
    assert decode_point(30, frame4.geometry) == [1, 3, 2]


def test_removing_a_point_uncovers_it(arc5):
    c, removed = arc5
    rep = check_fast(c)
    assert not rep.complete
    assert removed in rep.uncovered.tolist()


def test_empty_cap_uncovers_everything(pg24):
    rep = check_fast(Cap(pg24, ()))
    assert not rep.complete
    assert rep.n == 0
    assert rep.pairs_processed == 0
    assert rep.marks_issued == 0
    assert rep.uncovered_count == pg24.point_count


def test_single_point_covers_nothing(pg24):
    rep = check_fast(Cap(pg24, (16,)))
    assert rep.uncovered_count == pg24.point_count - 1
    assert 16 not in rep.uncovered.tolist()


def test_two_points_cover_their_secant(pg24):
    rep = check_fast(Cap(pg24, (16, 4)))
    # the one secant holds q+1 points, two of them in the cap
    assert rep.uncovered_count == pg24.point_count - 2 - (pg24.q - 1)


# ---------------------------------------------------------------------------
# soundness against the coordinate-domain definition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r,q,size", [(2, 2, 3), (2, 4, 4), (2, 4, 6)])
def test_covered_verdict_matches_definition(r, q, size):
    g = Geometry(r, q)
    c = random_cap(g, size, seed=7)
    rep = check_fast(c)
    f = RefField(g.k, g.field.modulus)
    cap_vecs = [tuple(decode_point(p, g)) for p in c.points]
    uncov = set(rep.uncovered.tolist())
    for p in enumerate_points(g):
        if p in c.points:
            continue
        expect = covered(f, cap_vecs, tuple(decode_point(p, g)))
        assert (p not in uncov) == expect


# ---------------------------------------------------------------------------
# split grid: identical content for every (shards, workers)
# ---------------------------------------------------------------------------


def test_split_grid_matches_fast():
    pg34 = greedy_extend(Cap(Geometry(3, 4), ()), order_seed=3)
    grids = [
        (pg34, [(s, w) for s in (1, 2, 3, 4, 8) for w in (1, 2, 4)]),
        # PG(3,4) has 256 codes: the cluster bits clamp at code_bits,
        # and from 256 shards on every window is one code
        (pg34, [(s, w) for s in (16, 64, 256, 1000) for w in (1, 2)]),
        # in PG(4,8) (k = 3) the window edges fall inside a coordinate
        (random_cap(Geometry(4, 8), 40, seed=5), [(s, w) for s in (2, 3, 7, 16, 100) for w in (1, 2)]),
    ]
    for c, grid in grids:
        base = check_fast(c)
        for shards, workers in grid:
            rep = check_split(c, shards, workers)
            assert reports_agree(base, rep)
            assert rep.pairs_processed == base.pairs_processed
            assert rep.marks_issued == base.marks_issued
            assert rep.algorithm == "fast"
            assert rep.shards == shards


@pytest.mark.parametrize("shards", [2, 3, 4, 7, 16, 64, 100, 256])
def test_split_marks_each_code_once(monkeypatch, shards):
    """Every code handed to a window lands in it; shards round up to a power of two."""
    import capcheck.completeness as completeness_mod
    import capcheck.coverage as coverage_mod

    g = Geometry(3, 4)
    c = greedy_extend(Cap(g, ()), order_seed=3)
    generated = []
    original = coverage_mod.CoverageMap.mark_codes

    def counting(self, codes):
        landed = original(self, codes)
        assert landed == codes.size
        generated.append(int(codes.size))
        return landed

    monkeypatch.setattr(coverage_mod.CoverageMap, "mark_codes", counting)
    windows = []

    def window_map(geometry, lo, hi):
        windows.append((lo, hi))
        return coverage_mod.CoverageMap(geometry, lo, hi)

    monkeypatch.setattr(completeness_mod, "CoverageMap", window_map)
    rep = check_split(c, shards, 2)
    assert sum(generated) == (g.q - 1) * c.n * (c.n - 1) // 2 == rep.marks_issued
    count = min(g.code_span, 1 << (shards - 1).bit_length())  # 3 shards run 4 windows
    width = g.code_span // count
    assert sorted(windows) == [(lo, lo + width) for lo in range(0, g.code_span, width)]
    assert rep.shards == shards


def test_tiny_stages_keep_the_four_checkers_in_agreement(monkeypatch, corpus, corpus_reports):
    """Buckets of 4 codes, so many and sub-byte stages: fast and split still agree with naive and oracle."""
    import capcheck.coverage as coverage_mod

    monkeypatch.setattr(coverage_mod, "_STAGE_BITS", 2)
    checked = 0
    for entry, reps in zip(corpus, corpus_reports):
        c = entry.cap
        if c.geometry.code_bits > 9:  # PG(4,4) and up: 2^8+ buckets each, slow here
            continue
        # 3 shards run 4 windows; in PG(2,2) and PG(3,2) they are narrower
        # than a byte, and 4-code stages start off the byte grid everywhere
        for rep in (check_fast(c), check_split(c, 3, 2)):
            assert reports_agree(rep, reps["naive"]) and reports_agree(rep, reps["oracle"])
            assert rep.is_cap == reps["oracle"].is_cap
            assert (rep.pairs_processed, rep.marks_issued) == (reps["fast"].pairs_processed, reps["fast"].marks_issued)
        checked += 1
    assert checked >= 400


def test_small_scan_chunks_keep_the_checkers_in_agreement(monkeypatch, corpus, corpus_reports):
    """Scan chunks of q codes (4 when q = 2), so every geometry has strips read in many chunks.

    Each chunk's bits are staged at its image, alpha^-1 times its offset
    in the strip; the chunks narrower than a byte start off the byte grid.
    """
    import capcheck.completeness as completeness_mod

    monkeypatch.setattr(completeness_mod, "_SCAN_BITS", 2)
    checked = 0
    for entry, reps in zip(corpus, corpus_reports):
        c = entry.cap
        g = c.geometry
        if g.code_bits > 12:  # PG(4,8): 4096 chunks a check, slow here
            continue
        flags = completeness_mod.PointFlags(g)
        assert flags.chunk_bits == max(2, g.k) and flags.head <= 2 < g.r + 1
        for rep in (check_fast(c), check_split(c, 3, 2), check_split(c, 16, 2)):
            assert reports_agree(rep, reps["naive"]) and reports_agree(rep, reps["oracle"])
            assert rep.uncovered_count == reps["oracle"].uncovered_count
        checked += 1
    assert checked >= 400


def test_check_memory_is_bounded_by_its_maps():
    """A 50-cap of PG(9,4) leaves 345812 of 349525 points uncovered; the report of ten holds none of them."""
    import capcheck.coverage as coverage_mod

    g = Geometry(9, 4)
    c = random_cap(g, 50, seed=0)
    check_fast(c)  # numpy's first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        d = check_fast(c).to_json_dict(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d["uncovered_count"] == 345812 and len(d["uncovered_sample"]) == 10
    bitmap, stage, flags = g.code_span // 8, 1 << coverage_mod._STAGE_BITS, g.point_count // 8
    assert peak < bitmap + stage + flags + (1 << 19)


def test_split_workers_share_flags_without_losing_any():
    """More workers than cores, switching threads often: no covered flag lost."""
    import sys

    g = Geometry(6, 4)
    c = random_cap(g, 60, seed=9)
    base = check_fast(c)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert reports_agree(base, check_split(c, 64, 8))
    finally:
        sys.setswitchinterval(interval)


def test_split_rejects_bad_arguments(hyperoval):
    with pytest.raises(ValueError):
        check_split(hyperoval, 0)
    with pytest.raises(ValueError):
        check_split(hyperoval, 2, workers=0)


def test_split_runs_at_most_the_window_cap(monkeypatch):
    """More shards than 2^_MAX_WINDOW_BITS run that many windows; the report keeps the request."""
    import capcheck.completeness as completeness_mod
    import capcheck.coverage as coverage_mod

    g = Geometry(3, 4)
    c = greedy_extend(Cap(g, ()), order_seed=3)
    base = check_fast(c)
    maps = []
    init = coverage_mod.CoverageMap.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        maps.append((self.lo, self.hi))

    monkeypatch.setattr(coverage_mod.CoverageMap, "__init__", counting_init)
    monkeypatch.setattr(completeness_mod, "_MAX_WINDOW_BITS", 2)
    for shards in (4, 5, 64, 1 << 20):
        maps.clear()
        rep = check_split(c, shards)
        assert maps == [(0, 64), (64, 128), (128, 192), (192, 256)]
        assert reports_agree(base, rep) and rep.marks_issued == base.marks_issued
        assert rep.shards == shards and rep.peak_coverage_bytes == 8


@pytest.mark.parametrize("cap, workers, want", [(3, 10, 3), (64, 3, 3), (64, 2, 2), (None, 1 << 20, 64)])
def test_split_starts_at_most_the_worker_cap(monkeypatch, cap, workers, want):
    """The pool is asked for min(workers, windows, _MAX_WORKERS) threads; none is started here."""
    import capcheck.completeness as completeness_mod

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    if cap is not None:
        monkeypatch.setattr(completeness_mod, "_MAX_WORKERS", cap)
    monkeypatch.setattr(completeness_mod, "ThreadPoolExecutor", SerialPool)
    c = greedy_extend(Cap(Geometry(3, 4), ()), order_seed=3)
    rep = check_split(c, 1 << 20, workers)  # 256 windows, one a code
    assert asked == [want]
    assert reports_agree(check_fast(c), rep) and rep.peak_coverage_bytes == want


@pytest.mark.parametrize(
    "checker, flag_bits",
    [(check_fast, 1), (lambda c: check_split(c, 4, 2), 1), (check_naive, 8)],
    ids=["fast", "split", "naive"],
)
def test_point_flags_past_the_bound_allocate_nothing(checker, flag_bits):
    """PG(7,256): a flag bit (fast, split) or byte (naive) for each of its 7.2e16 points is refused before anything is built."""
    g = Geometry(7, 256)
    c = Cap(g, (1, 1 << 8, 1 << 16))
    nbytes = -(-g.point_count * flag_bits // 8)
    tracemalloc.start()
    try:
        with pytest.raises(GeometryTooLargeError, match=rf"PG\(7,256\) needs {nbytes} bytes of per-point flags"):
            checker(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_peak_bytes_formulas():
    g = Geometry(3, 4)  # span 256
    c = greedy_extend(Cap(g, ()), order_seed=1)
    assert check_fast(c).peak_coverage_bytes == 32
    assert check_split(c, 4).peak_coverage_bytes == 8
    assert check_split(c, 4, workers=2).peak_coverage_bytes == 16
    assert check_naive(c).peak_coverage_bytes == g.point_count
    assert check_oracle(c).peak_coverage_bytes == 0


# ---------------------------------------------------------------------------
# exact work counters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r,q,size", [(2, 4, 5), (3, 2, 5), (3, 4, 9), (4, 8, 8)])
def test_counters_exact(r, q, size):
    g = Geometry(r, q)
    c = random_cap(g, size, seed=2)
    n = c.n
    for rep in (check_fast(c), check_split(c, 3, 2)):
        assert rep.pairs_processed == n * (n - 1) // 2
        assert rep.marks_issued == (q - 1) * n * (n - 1) // 2
    nv = check_naive(c)
    assert nv.pairs_processed == n * (n - 1) // 2
    assert nv.marks_issued == (q - 1) * n * (n - 1) // 2


# ---------------------------------------------------------------------------
# report structure
# ---------------------------------------------------------------------------


def test_uncovered_sorted_ascending(frame3):
    for checker in ALL_CHECKERS:
        u = checker(frame3).uncovered
        assert np.array_equal(u, np.sort(u))


def test_complete_iff_no_uncovered(hyperoval, frame4):
    for c in (hyperoval, frame4):
        for checker in ALL_CHECKERS:
            rep = checker(c)
            assert rep.complete == (rep.uncovered_count == 0)


def test_json_dict_shape(frame3):
    d = check_fast(frame3).to_json_dict()
    assert set(d) == {
        "complete",
        "n",
        "geometry",
        "algorithm",
        "shards",
        "uncovered_count",
        "uncovered_sample",
        "pairs_processed",
        "elapsed_ms",
        "peak_coverage_bytes",
    }
    assert d["geometry"] == "PG(2,4)"
    assert d["algorithm"] == "fast"


def test_json_witness_truncation(pg34):
    rep = check_fast(Cap(pg34, ()))
    assert rep.uncovered_count == pg34.point_count
    short = rep.to_json_dict()
    assert len(short["uncovered_sample"]) == 10
    full = rep.to_json_dict(all_witnesses=True)
    assert len(full["uncovered_sample"]) == pg34.point_count
    assert full["uncovered_sample"][:10] == short["uncovered_sample"]


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def test_extending_never_uncovers(pg34):
    """Adding points can only shrink the uncovered set."""
    c = random_cap(pg34, 6, seed=11)
    full = greedy_extend(c, order_seed=0)
    before = set(check_fast(c).uncovered.tolist())
    after = set(check_fast(full).uncovered.tolist())
    assert after <= before


def test_oracle_refuses_large_geometry():
    g = Geometry(12, 4)
    unit_points = [encode_point([0] * i + [1] + [0] * (12 - i), g) for i in range(5)]
    c = Cap(g, tuple(sorted(unit_points)))
    with pytest.raises(GeometryTooLargeError):
        check_oracle(c)


def test_reports_agree_function(frame3, frame4):
    a = check_fast(frame3)
    assert reports_agree(a, check_oracle(frame3))
    assert not reports_agree(a, check_fast(frame4))
    assert not reports_agree(a, dataclasses.replace(a, violation=CapViolation((1, 2, 3))))


def test_cap_verdicts_agree(corpus, corpus_reports, random_point_sets, checker_reports):
    """Every checker's violation is validate_cap's witness, for caps and non-caps."""
    caps = [entry.cap for entry in corpus]
    # a cap of each corpus geometry plus a point on the line of its first two points
    per_geometry = {c.geometry: c for c in caps if c.n >= 2}.values()
    lines = [
        Cap(c.geometry, c.points + (normalize(c.points[0] ^ c.points[1], c.geometry),))
        for c in per_geometry
    ]
    extra = random_point_sets + lines
    reports = corpus_reports + [checker_reports(c) for c in extra]
    non_caps = 0
    for c, reps in zip(caps + extra, reports):
        want = validate_cap(c)
        non_caps += want is not None
        assert set(reps) == {"fast", "split(3,2)", "split(16,2)", "naive", "oracle"}
        for name, rep in reps.items():
            assert rep.violation == want, (c, name)
    assert non_caps >= len(lines) == 9


def test_product_caps(checker_reports):
    """Product caps of affine caps: the 36-cap of PG(4,4), the 96-cap of PG(5,4), and that cap plus a secant point."""
    plane, solid = affine_cap(2, 4, seed=1), affine_cap(3, 4, seed=6)
    assert (len(plane), len(solid)) == (6, 16)
    c36, c96 = product_cap(plane, plane, 4), product_cap(plane, solid, 4)
    g = c96.geometry
    on_secant = Cap(g, c96.points + (normalize(c96.points[0] ^ c96.points[1], g),))
    for c, uncovered, is_cap in ((c36, 0, True), (c96, 16, True), (on_secant, 16, False)):
        want = validate_cap(c)
        assert (want is None) == is_cap
        reps = checker_reports(c)
        for name, rep in reps.items():
            assert (rep.uncovered_count, rep.violation) == (uncovered, want), name
            assert reports_agree(rep, reps["oracle"]), name


def test_non_cap_report_leaves_out_its_points(pg24):
    """A collinear cap point is neither uncovered nor in the report."""
    line = Cap(pg24, (1, 4, 5))  # (0,0,1), (0,1,0), (0,1,1)
    for rep in (check_fast(line), check_split(line, 4, 2), check_naive(line), check_oracle(line)):
        assert not rep.is_cap
        assert not set(line.points) & set(rep.uncovered.tolist())
        assert "is_cap" not in rep.to_json_dict()


# ---------------------------------------------------------------------------
# internal invariants are errors, also under python -O
# ---------------------------------------------------------------------------

_BROKEN_INVARIANTS = """
import numpy as np
import capcheck.cap as cap_mod
import capcheck.completeness as comp_mod
from capcheck import Cap, Geometry, InvariantError, check_split, greedy_extend, validate_cap

g = Geometry(3, 4)
c = greedy_extend(Cap(g, ()), 3)
mark = comp_mod.mark_pair_secants


def one_mark_short(*args):
    pairs, landed = mark(*args)
    return pairs, landed - 1


comp_mod.mark_pair_secants = one_mark_short
try:
    check_split(c, 4, 2)
except InvariantError as exc:
    print("check:", exc)
cap_mod.covered_codes = lambda cov, codes, g: np.ones(codes.shape, dtype=bool)
try:
    validate_cap(c)
except InvariantError as exc:
    print("validate:", exc)
"""


def test_invariants_raise_under_optimize():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_INVARIANTS],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert "check: windows landed" in out
    assert "validate: covered cap point without a generating pair" in out
