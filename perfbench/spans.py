"""Span recording around capcheck's layer boundaries, from outside the program.

A Tracer patches the names each capcheck module imports from the layer
below (for example `capcheck.cap.mark_pair_secants`) with wrappers that
record one span per call: name, start, end, parent and a few work
counts.  Spans stay in memory until the caller reads them.  Nothing in
the program is edited; `uninstall` puts every original back.

When a wrap target no longer exists (a renamed function), its span name
is recorded in `Tracer.absent` instead of failing, and the metrics that
need that span are left out of the result.

Spans opened on a worker thread with no open span of their own take as
parent the innermost open span of the thread that installed the tracer:
the checker that is waiting on the pool.  A span's self time is the
part of it that no child span, on any thread, covers; so while two
workers overlap, their parent's self time is small, and the self times
of one operation add up to more than its wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time

# (module, attribute, span name).  The module is the importer, so a span
# sits at the boundary between that module and the layer below it.
WRAP_POINTS = [
    ("capcheck.cli", "parse_cap", "cap.parse_cap"),
    ("capcheck.cli", "validate_cap", "cap.validate_cap"),
    ("capcheck.cli", "greedy_extend", "cap.greedy_extend"),
    ("capcheck.cli", "check_fast", "completeness.check_fast"),
    ("capcheck.cli", "check_split", "completeness.check_split"),
    ("capcheck.cap", "validate_cap", "cap.validate_cap"),
    ("capcheck.cap", "greedy_extend", "cap.greedy_extend"),
    ("capcheck.cap", "covered_codes", "coverage.covered_codes"),
    ("capcheck.cap", "mark_pair_secants", "coverage.mark_pair_secants"),
    ("capcheck.cap", "multiples_table", "coverage.multiples_table"),
    ("capcheck.cap", "points_by_index", "geometry.points_by_index"),
    ("capcheck.cap", "scalar_mul_point", "geometry.scalar_mul_point"),
    ("capcheck.completeness", "check_fast", "completeness.check_fast"),
    ("capcheck.completeness", "mark_pair_secants", "coverage.mark_pair_secants"),
    ("capcheck.completeness", "multiples_table", "coverage.multiples_table"),
    ("capcheck.completeness", "points_by_index", "geometry.points_by_index"),
    ("capcheck.completeness", "scalar_mul_codes", "geometry.scalar_mul_codes"),
    ("capcheck.coverage", "scalar_mul_codes", "geometry.scalar_mul_codes"),
    ("capcheck.quantum", "verify_quantum_cap", "quantum.verify_quantum_cap"),
    ("capcheck.quantum", "points_by_index", "geometry.points_by_index"),
    ("capcheck.geometry", "build_field", "field.build_field"),
]
# methods of CoverageMap, which cap and completeness import as a class
METHOD_POINTS = [
    ("capcheck.coverage", "CoverageMap", "__init__", "coverage.CoverageMap"),
    ("capcheck.coverage", "CoverageMap", "mark_codes", "coverage.mark_codes"),
]


def _count_mark_codes(args, result):
    return {"generated": int(args[1].size), "landed": int(result)}


def _count_pairs(args, result):
    return {"pairs": int(result[0])}


def _count_codes(args, result):
    return {"codes": int(args[1].size)}


def _count_alpha_one(args, result):
    return {"alpha_one": int(args[0] == 1)}


def _count_map(args, result):
    return {"bytes": int(args[0].nbytes)}


def _count_accepted(args, result):
    return {"accepted": result.n - args[0].n}


def _count_peak(args, result):
    return {"peak": int(result.peak_coverage_bytes)}


COUNTERS = {
    "coverage.mark_codes": _count_mark_codes,
    "coverage.mark_pair_secants": _count_pairs,
    "coverage.covered_codes": _count_codes,
    "geometry.scalar_mul_codes": _count_codes,
    "geometry.scalar_mul_point": _count_alpha_one,
    "coverage.CoverageMap": _count_map,
    "cap.greedy_extend": _count_accepted,
    "completeness.check_fast": _count_peak,
    "completeness.check_split": _count_peak,
}


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "counts")

    def __init__(self, sid: int, name: str, start: int, parent: int | None):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict | None = None


class Tracer:
    """Records spans from the wrappers it installs; times in perf_counter ns."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: set[str] = set()  # span names with a missing wrap target
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack: list[Span] = []
        self._home_thread = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home_thread:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._home_stack:
            parent = self._home_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), name, time.perf_counter_ns(), parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for modname, attr, name in WRAP_POINTS:
            mod = _module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.add(name)
                continue
            self._undo.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn))
        for modname, clsname, attr, name in METHOD_POINTS:
            cls = getattr(_module(modname), clsname, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if fn is None:
                self.absent.add(name)
                continue
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part of it that child spans cover (ns)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def orphans(spans: list[Span]) -> list[Span]:
    """Spans whose parent id names no recorded span (roots excluded)."""
    ids = {s.id for s in spans}
    return [s for s in spans if s.parent is not None and s.parent not in ids]


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


class _Absent(Exception):
    """A metric needs a span whose wrap target is missing."""


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    Keys without a value are left out: a layer that did not run, and
    every metric that reads a span whose wrap target is absent.  Each
    metric is computed on its own, so reading an absent span drops just
    the metrics that read it.
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def named(*names):
        for name in names:
            if name in tracer.absent:
                raise _Absent(name)
        return [s for s in spans if s.name in names]

    def parent_name(s):
        p = by_id.get(s.parent)
        return p.name if p is not None else None

    def under(name):
        return lambda s: parent_name(s) == name

    def secs(ss):
        return sum(s.end - s.start for s in ss) / 1e9

    def total(ss, key):
        return sum(s.counts[key] for s in ss if s.counts)

    def checks():
        return named("completeness.check_fast", "completeness.check_split")

    def in_check(ss):
        """The spans of ss that run inside a completeness check."""
        check_ids = {s.id for s in checks()}

        def inside(s):
            while s.parent is not None:
                if s.parent in check_ids:
                    return True
                s = by_id.get(s.parent)
                if s is None:
                    return False
            return False

        return [s for s in ss if inside(s)]

    def greedy_child(name):
        named("cap.greedy_extend")
        return list(filter(under("cap.greedy_extend"), named(name)))

    def rechecks():
        return total(greedy_child("geometry.scalar_mul_point"), "alpha_one")

    def accepted():
        return total(named("cap.greedy_extend"), "accepted")

    def mark_s():
        loose = [s for s in named("coverage.mark_codes") if parent_name(s) != "coverage.mark_pair_secants"]
        return secs(named("coverage.mark_pair_secants")) + secs(loose)

    def mul_s():
        return secs(named("geometry.scalar_mul_codes"))

    def mul_n():
        return total(named("geometry.scalar_mul_codes"), "codes")

    def check_marks(key):
        return total(in_check(named("coverage.mark_codes")), key)

    def direct_check_children(name):
        check_ids = {s.id for s in checks()}
        return [s for s in named(name) if s.parent in check_ids]

    def peak_mb():
        peaks = [s.counts["peak"] for s in checks() if s.counts]
        return max(peaks) / 2**20 if peaks else None

    formulas = {
        "cap.parse_s": lambda: secs(named("cap.parse_cap")),
        "cap.validate_s": lambda: secs(named("cap.validate_cap")),
        "cap.validate_calls": lambda: len(named("cap.validate_cap")),
        "cap.grow_s": lambda: secs(named("cap.greedy_extend")) - secs(greedy_child("cap.validate_cap")),
        "cap.greedy_candidates": lambda: total(greedy_child("coverage.covered_codes"), "codes"),
        "cap.greedy_rechecks": rechecks,
        "cap.greedy_accepted": accepted,
        "cap.greedy_accept_ratio": lambda: _ratio(accepted(), rechecks()),
        "coverage.multiples_s": lambda: secs(named("coverage.multiples_table")),
        "coverage.mark_s": mark_s,
        "coverage.marks_generated": lambda: total(named("coverage.mark_codes"), "generated"),
        "coverage.marks_landed": lambda: total(named("coverage.mark_codes"), "landed"),
        "coverage.mark_ns_per_code": lambda: _ratio(
            mark_s() * 1e9, total(named("coverage.mark_codes"), "generated")
        ),
        "coverage.landed_ratio": lambda: _ratio(
            total(named("coverage.mark_codes"), "landed"),
            total(named("coverage.mark_codes"), "generated"),
        ),
        "coverage.test_s": lambda: secs(named("coverage.covered_codes")),
        "coverage.codes_tested": lambda: total(named("coverage.covered_codes"), "codes"),
        "coverage.maps_built": lambda: len(named("coverage.CoverageMap")),
        "coverage.map_bytes": lambda: total(named("coverage.CoverageMap"), "bytes"),
        "geometry.scalar_mul_codes_s": mul_s,
        "geometry.scalar_mul_codes_n": mul_n,
        "geometry.scalar_mul_ns_per_code": lambda: _ratio(mul_s() * 1e9, mul_n()),
        "geometry.scalar_mul_point_calls": lambda: len(named("geometry.scalar_mul_point")),
        "geometry.scalar_mul_point_s": lambda: secs(named("geometry.scalar_mul_point")),
        "geometry.points_by_index_s": lambda: secs(named("geometry.points_by_index")),
        "completeness.check_s": lambda: secs(checks()),
        "completeness.self_s": lambda: sum(selfs[s.id] for s in checks()) / 1e9,
        "completeness.windows": lambda: len(direct_check_children("coverage.CoverageMap")),
        "completeness.pairs_replayed": lambda: total(
            direct_check_children("coverage.mark_pair_secants"), "pairs"
        ),
        "completeness.landed_ratio": lambda: _ratio(check_marks("landed"), check_marks("generated")),
        "completeness.reported_peak_mb": peak_mb,
        "quantum.verify_s": lambda: secs(named("quantum.verify_quantum_cap")),
        "quantum.verify_calls": lambda: len(named("quantum.verify_quantum_cap")),
        "field.build_s": lambda: secs(named("field.build_field")),
    }
    out = {}
    for key, formula in formulas.items():
        try:
            value = formula()
        except _Absent:
            continue
        if value is not None:
            out[key] = value
    return out
