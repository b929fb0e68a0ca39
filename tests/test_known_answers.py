"""Theorem-backed completeness answers in every field GF(2^k), k = 1..8.

The checkers are held to agree with each other elsewhere; these answers
do not depend on any of them (see classical_caps.py).  Validation and
the fast and split checks share one marking path, so each must match
the answer on its own, and the naive checker must too where it runs in
well under a second (q <= 64).
"""

from __future__ import annotations

import pytest

from capcheck import Cap, Geometry, check_fast, check_naive, check_split, validate_cap
from classical_caps import conic, nucleus, regular_hyperoval, without

FIELDS = range(1, 9)


def _assert_answer(c: Cap, uncovered: list[int]) -> None:
    """c is a cap that leaves exactly the points `uncovered` off its secants, for every checker."""
    assert validate_cap(c) is None
    checkers = {"fast": check_fast, "split(8,2)": lambda c: check_split(c, 8, 2)}
    if c.geometry.q <= 64:
        checkers["naive"] = check_naive
    for name, check in checkers.items():
        rep = check(c)
        assert rep.is_cap, name
        assert rep.uncovered_count == len(uncovered), name
        assert rep.complete == (not uncovered), name
        assert rep.uncovered.tolist() == sorted(uncovered), name


@pytest.mark.parametrize("k", FIELDS)
def test_conic_leaves_only_its_nucleus(k):
    g = Geometry(2, 1 << k)
    c = conic(g)
    assert c.n == g.q + 1
    _assert_answer(c, [nucleus(g)])


@pytest.mark.parametrize("k", FIELDS)
def test_regular_hyperoval_is_complete(k):
    g = Geometry(2, 1 << k)
    c = regular_hyperoval(g)
    assert c.n == g.q + 2
    _assert_answer(c, [])


@pytest.mark.parametrize("k", FIELDS)
def test_hyperoval_less_a_point_leaves_only_that_point(k):
    """Every point removed for q <= 16, else one: conic points and the nucleus across the fields."""
    g = Geometry(2, 1 << k)
    h = regular_hyperoval(g)
    removed = range(h.n) if g.q <= 16 else [7 * k % h.n]
    for t in removed:
        _assert_answer(without(h, t), [h.points[t]])
