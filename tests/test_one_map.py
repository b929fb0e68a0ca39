"""Each command marks a cap's secants once, into one map per window, through the check's one path."""

from __future__ import annotations

import pytest

import capcheck.completeness as completeness_mod
import capcheck.coverage as coverage_mod
from capcheck import Cap, CoverageMap, Geometry, greedy_extend, normalize, random_cap, write_cap
from capcheck.cli import main


def _full_span(m: CoverageMap) -> bool:
    return (m.lo, m.hi) == (0, m.geometry.code_span)


@pytest.fixture
def counted(monkeypatch):
    """Lists that collect every CoverageMap built and every map the check's path marks secants into."""
    maps, marked = [], []
    init = coverage_mod.CoverageMap.__init__
    mark = completeness_mod.mark_pair_secants

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        maps.append(self)

    def counting_mark(cov, *args):
        marked.append(cov)
        return mark(cov, *args)

    monkeypatch.setattr(coverage_mod.CoverageMap, "__init__", counting_init)
    monkeypatch.setattr(completeness_mod, "mark_pair_secants", counting_mark)
    return maps, marked


@pytest.fixture
def cap_file(tmp_path):
    p = tmp_path / "cap.txt"
    p.write_text(write_cap(random_cap(Geometry(4, 4), 12, seed=2)))
    return str(p)


@pytest.fixture
def non_cap_file(tmp_path):
    """The 12-cap of cap_file with a point of one of its secants inserted."""
    g = Geometry(4, 4)
    pts = list(random_cap(g, 12, seed=2).points)
    pts.insert(5, normalize(pts[7] ^ pts[9], g))
    p = tmp_path / "non_cap.txt"
    p.write_text(write_cap(Cap(g, tuple(pts))))
    return str(p)


@pytest.mark.parametrize("size", [2, 3, 12])
def test_extend_marks_once(counted, monkeypatch, size):
    """One full-span map, marked once and scanned once into the covered bits growth reads."""
    maps, marked = counted
    scanned = []
    scan = completeness_mod._scan_window

    def counting_scan(cov, flags):
        scanned.append(cov)
        return scan(cov, flags)

    monkeypatch.setattr(completeness_mod, "_scan_window", counting_scan)
    c = random_cap(Geometry(3, 4), size, seed=1)
    maps.clear()
    ext = greedy_extend(c, order_seed=4)
    assert ext.points[:size] == c.points
    assert len(maps) == 1 and _full_span(maps[0])
    assert len(marked) == 1 and marked[0] is maps[0]
    assert len(scanned) == 1 and scanned[0] is maps[0]


def test_extend_from_fewer_than_two_points_marks_nothing(counted):
    """No secants to mark: growth starts from the start's own covered bits, and no bit-map is built."""
    maps, marked = counted
    g = Geometry(3, 4)
    for start in [(), greedy_extend(Cap(g, ()), 0).points[:1]]:
        maps.clear()
        assert greedy_extend(Cap(g, start), order_seed=4).points[: len(start)] == start
        assert not maps and not marked


def test_cli_extend_builds_one_map(cap_file, counted, capsys):
    maps, marked = counted
    assert main(["extend", "--geometry", "4,4", cap_file]) == 0
    assert len(maps) == 1 and len(marked) == 1


def test_cli_check_builds_one_map(cap_file, counted, capsys):
    maps, marked = counted
    assert main(["check", "--geometry", "4,4", cap_file]) == 1
    assert len(maps) == 1 and _full_span(maps[0])
    assert len(marked) == 1 and marked[0] is maps[0]


def test_cli_check_of_non_cap_builds_one_map(non_cap_file, counted, capsys):
    """The check's own marks give the witness: no second map, and the triple validate prints."""
    maps, marked = counted
    assert main(["check", "--geometry", "4,4", non_cap_file]) == 2
    assert len(maps) == 1 and len(marked) == 1
    checked = capsys.readouterr().out.strip()
    assert main(["validate", "--geometry", "4,4", non_cap_file]) == 2
    assert capsys.readouterr().out.startswith(checked + " = ")


@pytest.mark.parametrize("command", ["validate", "quantum"])
@pytest.mark.parametrize("is_cap", [True, False], ids=["cap", "non-cap"])
def test_cli_validation_builds_one_map(cap_file, non_cap_file, counted, capsys, command, is_cap):
    """validate and quantum mark one full-span map once, through the check; a non-cap prints check's triple."""
    maps, marked = counted
    path = cap_file if is_cap else non_cap_file
    code = main([command, "--geometry", "4,4", path])
    assert len(maps) == 1 and _full_span(maps[0])
    assert len(marked) == 1 and marked[0] is maps[0]
    out = capsys.readouterr().out
    if is_cap:
        assert code in (0, 1) and not out.startswith("not a cap")
        return
    assert code == 2
    assert main(["check", "--geometry", "4,4", path]) == 2
    assert out.startswith(capsys.readouterr().out.strip())


def test_cli_sharded_check_builds_no_full_map(cap_file, counted, capsys):
    maps, _ = counted
    assert main(["check", "--geometry", "4,4", "--shards", "4", "--workers", "2", cap_file]) == 1
    assert len(maps) == 4
    assert not any(_full_span(m) for m in maps)
