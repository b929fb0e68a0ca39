"""Acceptance gate: one test per advertised guarantee, timed at its budget.

Each test prints a single PASS line with its measurement; a failed
assert (or blown budget) is the corresponding FAIL.
"""

from __future__ import annotations

import json
import time
from itertools import product

import numpy as np

from capcheck import (
    Cap,
    Geometry,
    build_field,
    check_fast,
    check_naive,
    check_oracle,
    check_split,
    encode_point,
    enumerate_points,
    greedy_extend,
    line_points,
    normalize,
    random_cap,
    reports_agree,
    verify_quantum_cap,
)
from oracles import RefField, encode_coords, vec_add

MASKED = ("elapsed_ms", "shards", "peak_coverage_bytes")


def _masked_json(rep) -> str:
    d = rep.to_json_dict(all_witnesses=True)
    for key in MASKED:
        del d[key]
    return json.dumps(d, sort_keys=True)


def test_criterion_01_hyperoval_complete_everywhere(hyperoval):
    budget = 1.0
    t0 = time.perf_counter()
    for rep in (check_fast(hyperoval), check_naive(hyperoval), check_oracle(hyperoval)):
        assert rep.complete
    for shards in (1, 2, 4):
        assert check_split(hyperoval, shards).complete
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    print(
        f"PASS criterion 1: 6-point PG(2,4) cap complete under "
        f"fast/naive/oracle/split(1,2,4) in {elapsed:.3f}s < {budget}s"
    )


def test_criterion_02_every_complete_pg24_cap_has_six_points(pg24):
    budget = 10.0
    t0 = time.perf_counter()
    pts = list(enumerate_points(pg24))
    line = {}
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            s = frozenset(normalize(p, pg24) for p in line_points(a, b, pg24))
            line[(a, b)] = s
            line[(b, a)] = s

    caps_seen = 0
    complete_sizes = []

    def rec(cap: list[int], allowed: set[int]) -> None:
        nonlocal caps_seen
        caps_seen += 1
        if not allowed:
            complete_sizes.append(len(cap))
            return
        last = cap[-1] if cap else -1
        for p in sorted(allowed):
            if p <= last:
                continue
            new_allowed = {
                x
                for x in allowed
                if x != p and all(x not in line[(c, p)] for c in cap)
            }
            rec(cap + [p], new_allowed)

    rec([], set(pts))
    assert caps_seen == 5048  # [DERIVED] caps of PG(2,4), empty included
    assert len(complete_sizes) == 168  # [DERIVED] the known hyperoval count
    assert set(complete_sizes) == {6}

    for seed in range(100):
        grown = greedy_extend(Cap(pg24, ()), order_seed=seed)
        assert grown.n == 6
        assert check_fast(grown).complete
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    print(
        f"PASS criterion 2: all 168 complete PG(2,4) caps have 6 points; "
        f"100 greedy runs agree in {elapsed:.2f}s < {budget}s"
    )


def test_criterion_03_greedy_pg34_tops_out_at_17(pg34):
    budget = 120.0
    seeds = 10_000
    t0 = time.perf_counter()
    best = None
    sizes = set()
    for seed in range(seeds):
        grown = greedy_extend(Cap(pg34, ()), order_seed=seed)
        sizes.add(grown.n)
        if grown.n == 17 and best is None:
            best = grown
    assert max(sizes) == 17  # found, and never exceeded
    assert best is not None
    for rep in (
        check_fast(best),
        check_naive(best),
        check_oracle(best),
        check_split(best, 4, 2),
    ):
        assert rep.complete
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    print(
        f"PASS criterion 3: {seeds} greedy PG(3,4) runs, sizes {min(sizes)}..17, "
        f"17-cap confirmed by all four checkers in {elapsed:.1f}s < {budget}s"
    )


def test_criterion_04_checkers_agree_on_corpus(corpus, corpus_reports):
    t0 = time.perf_counter()
    assert len(corpus) >= 500
    cells = set()
    for entry, reps in zip(corpus, corpus_reports):
        c = entry.cap
        cells.add((c.geometry.r, c.geometry.q))
        fast = reps["fast"]
        for other in (reps["naive"], reps["oracle"], reps["split(3,2)"]):
            assert reports_agree(fast, other)
        if entry.kind == "greedy":
            assert fast.complete
        else:
            assert not fast.complete
            uncovered = set(fast.uncovered.tolist())
            assert set(entry.dropped) <= uncovered
    assert cells == set(product((2, 3, 4), (2, 4, 8)))
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 4: {len(corpus)} caps over 9 geometries, "
        f"4 checkers in exact agreement ({elapsed:.1f}s)"
    )


def test_criterion_05_work_counters_exact():
    t0 = time.perf_counter()
    runs = 0
    for r, q, size, seed in [
        (2, 4, 6, 0),
        (3, 2, 5, 1),
        (3, 4, 14, 2),
        (4, 4, 20, 3),
        (3, 8, 30, 4),
        (4, 8, 50, 5),
    ]:
        c = random_cap(Geometry(r, q), size, seed)
        n = c.n
        expect_pairs = n * (n - 1) // 2
        expect_marks = (q - 1) * expect_pairs
        for rep in (check_fast(c), check_naive(c), check_split(c, 4, 2)):
            assert rep.pairs_processed == expect_pairs
            assert rep.marks_issued == expect_marks
            runs += 1
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 5: pairs=n(n-1)/2 and marks=(q-1)n(n-1)/2 "
        f"exact on {runs} runs ({elapsed:.2f}s)"
    )


def test_criterion_06_encoding_is_additive_and_fields_check_out():
    t0 = time.perf_counter()
    for r, q in ((2, 2), (2, 4)):
        g = Geometry(r, q)
        f = RefField(g.k, g.field.modulus)
        vecs = list(product(range(q), repeat=r + 1))
        for u in vecs:
            if any(u):
                assert encode_point(list(u), g) == encode_coords(u, q)
        for u in vecs:
            for v in vecs:
                assert encode_coords(vec_add(u, v), q) == (
                    encode_coords(u, q) ^ encode_coords(v, q)
                )
    for k in (1, 2, 3, 4):
        ft = build_field(k)
        ref = RefField(k, ft.modulus)
        els = range(ft.q)
        for a in els:
            for b in els:
                assert ft.mul(a, b) == ref.mul(a, b)
                assert ft.mul(a, b) == ft.mul(b, a)
                assert ft.square(a) ^ ft.square(b) == ft.square(a ^ b)
            if a:
                assert ft.mul(a, ft.inv(a)) == 1
        for a, b, c in product(els, repeat=3):
            assert ft.mul(ft.mul(a, b), c) == ft.mul(a, ft.mul(b, c))
            assert ft.mul(a, b ^ c) == ft.mul(a, b) ^ ft.mul(a, c)
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 6: encoding XOR-additive on PG(2,2)/PG(2,4); "
        f"GF(2^k) axioms hold vs oracle for k<=4 ({elapsed:.1f}s)"
    )


def test_criterion_07_quantum_conditions_agree(corpus, hyperoval):
    t0 = time.perf_counter()
    assert verify_quantum_cap(hyperoval).is_quantum_cap
    checked = 0
    for entry in corpus:
        if entry.cap.geometry.q != 4:
            continue
        v = verify_quantum_cap(entry.cap)  # raises if the conditions split
        assert (
            v.hermitian_self_orthogonal
            == v.hyperplane_parity_ok
            == v.all_weights_even
        )
        checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 7: orthogonality/parity/weights agree on "
        f"{checked} GF(4) caps; 6-point oval is a quantum cap ({elapsed:.1f}s)"
    )


def test_criterion_08_pg12_workload_within_budget():
    budget = 600.0
    t0 = time.perf_counter()
    g = Geometry(12, 4)
    assert g.point_count == 22_369_621
    c = random_cap(g, 10_000, seed=0)
    assert c.n == 10_000
    rep = check_fast(c)
    assert rep.pairs_processed == 49_995_000
    assert rep.marks_issued == 149_985_000
    assert rep.peak_coverage_bytes == 8_388_608  # full 4^13-bit map
    assert not rep.complete  # 10^4 points cannot cover 2.2e7
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    print(
        f"PASS criterion 8: PG(12,4) 10000-point cap, 8 MiB coverage, "
        f"5.0e7 pairs checked in {elapsed:.1f}s < {budget}s"
    )


def test_criterion_09_split_reports_identical_after_timing_mask():
    t0 = time.perf_counter()
    g = Geometry(4, 4)
    c = greedy_extend(Cap(g, ()), order_seed=1)
    reference = _masked_json(check_fast(c))
    grid = 0
    for shards in (1, 2, 4, 8):
        for workers in (1, 2, 4):
            assert _masked_json(check_split(c, shards, workers)) == reference
            grid += 1
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 9: {grid} (shards, workers) runs on PG(4,4) "
        f"byte-identical after masking timings ({elapsed:.2f}s)"
    )
