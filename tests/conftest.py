from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, settings

from capcheck import (
    Cap,
    CompletenessReport,
    Geometry,
    check_fast,
    check_naive,
    check_oracle,
    check_split,
    encode_point,
    enumerate_points,
    greedy_extend,
)

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def pg22() -> Geometry:
    return Geometry(2, 2)


@pytest.fixture(scope="session")
def pg24() -> Geometry:
    return Geometry(2, 4)


@pytest.fixture(scope="session")
def pg34() -> Geometry:
    return Geometry(3, 4)


def hyperoval_points(g: Geometry) -> tuple[int, ...]:
    # conic x0*x2 = x1^2 plus its nucleus: the unique 6-cap shape of PG(2,4)
    f = g.field
    pts = [encode_point([0, 0, 1], g), encode_point([0, 1, 0], g)]
    for t in range(4):
        pts.append(encode_point([1, t, f.mul(t, t)], g))
    return tuple(sorted(pts))


@pytest.fixture(scope="session")
def hyperoval(pg24: Geometry) -> Cap:
    return Cap(pg24, hyperoval_points(pg24))


@pytest.fixture(scope="session")
def frame3(pg24: Geometry) -> Cap:
    pts = [encode_point(c, pg24) for c in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    return Cap(pg24, tuple(sorted(pts)))


@pytest.fixture(scope="session")
def frame4(pg24: Geometry) -> Cap:
    pts = [
        encode_point(c, pg24)
        for c in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])
    ]
    return Cap(pg24, tuple(sorted(pts)))


@pytest.fixture(scope="session")
def arc5(hyperoval: Cap) -> tuple[Cap, int]:
    """Hyperoval minus its last point, plus the removed point."""
    removed = hyperoval.points[-1]
    return Cap(hyperoval.geometry, hyperoval.points[:-1]), removed


# ---------------------------------------------------------------------------
# shared corpus: greedy-complete caps and their provably incomplete
# truncations, across the (r, q) matrix the equivalence suites require
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    cap: Cap
    kind: str  # "greedy" (complete by construction) | "truncated"
    dropped: tuple[int, ...]  # points removed from the greedy parent


CORPUS_CELLS = (
    # (r, q, seeds); each seed yields one greedy cap and one truncation
    (2, 2, 40),
    (2, 4, 40),
    (2, 8, 25),
    (3, 2, 40),
    (3, 4, 35),
    (3, 8, 15),
    (4, 2, 30),
    (4, 4, 20),
    (4, 8, 6),
)


@pytest.fixture(scope="session")
def corpus() -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []
    for r, q, seeds in CORPUS_CELLS:
        g = Geometry(r, q)
        empty = Cap(g, ())
        for seed in range(seeds):
            full = greedy_extend(empty, order_seed=seed)
            entries.append(CorpusEntry(full, "greedy", ()))
            drop = 1 + seed % 3
            entries.append(
                CorpusEntry(
                    Cap(g, full.points[:-drop]), "truncated", full.points[-drop:]
                )
            )
    return entries


# every checker configuration the agreement tests compare, by name
CHECKERS = {
    "fast": check_fast,
    "split(3,2)": lambda c: check_split(c, 3, 2),
    "split(16,2)": lambda c: check_split(c, 16, 2),
    "naive": check_naive,
    "oracle": check_oracle,
}


def _reports(c: Cap) -> dict[str, CompletenessReport]:
    return {name: check(c) for name, check in CHECKERS.items()}


@pytest.fixture(scope="session")
def checker_reports():
    """A function: a cap's report from every checker in CHECKERS, by name."""
    return _reports


@pytest.fixture(scope="session")
def corpus_reports(corpus: list[CorpusEntry]) -> list[dict[str, CompletenessReport]]:
    """Each corpus cap's reports, computed once for all the tests that compare them."""
    return [_reports(entry.cap) for entry in corpus]


# ---------------------------------------------------------------------------
# random point sets of 3 to 9 points, caps or not
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def random_point_sets() -> list[Cap]:
    """Seed s draws from PG(3,4) when s is odd, else from PG(2,4)."""
    sets = []
    for seed in range(12):
        rng = random.Random(seed)
        g = Geometry(3, 4) if seed % 2 else Geometry(2, 4)
        pts = list(enumerate_points(g))
        sets.append(Cap(g, tuple(sorted(rng.sample(pts, rng.randint(3, 9))))))
    return sets
