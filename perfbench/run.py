#!/usr/bin/env python3
"""capcheck benchmark: end-to-end and per-layer metrics from one command.

    python3 perfbench/run.py --workload pg10-dense --seed 0 --seconds 50 --trace 0

Run it from anywhere inside a checkout; it uses the program in `src/`
next to this directory and writes working files to `.bench_work/`.

Every workload runs the three things a capcheck user does, on one cap
file generated from the seed:

check    `capcheck check --format json` as a fresh child process
extend   `capcheck extend --seed <seed+1>` as a fresh child process
search   1000 PG(3,4) seeds in one child process: greedy_extend
         from the empty cap, check_fast (must be complete),
         verify_quantum_cap

pg10-dense   random_cap(PG(10,4), 2500, seed), checked without shards.
pg10-sparse  random_cap(PG(10,4), 1500, seed), checked with --shards 16
             --workers 2.

With --trace 0 the metrics are end to end.  The run is a series of
rounds until --seconds have passed (at least MIN_ROUNDS); each round
runs setup, check, extend and search once, as fresh children, so a
change in the host's speed falls on every operation alike.  Times are
wall times.  A shared virtual machine runs the same code up to 2x
slower in phases of a fraction of a second to minutes, so one timing
is a sample of those phases; every metric is a median over the rounds
of a run, which spreads less from run to run than a single child or
the fastest round.  check_s and extend_s are the median child;
setup_s the median of a fresh process that imports capcheck and builds
the workload's Geometry.  Each search seed takes the same work every
round, so its time is its median over the rounds, and the search
metrics are the median, the 99th percentile and the rate of those
seed times.  Peak RSS is each child's own (see spawner.py).

With --trace 1 each operation runs in this process TRACE_REPS times
untraced and TRACE_REPS times with span wrappers around capcheck's
layer boundaries (see spans.py), alternately; the metrics are per layer
and per operation, from the first traced pass, plus each operation's
trace overhead: the traced median wall time minus the untraced one.

Inputs come from --seed and are generated before anything is timed.
For the default seed 0 the input digests and the outputs are compared
with expected.json; for other seeds invariants are checked instead.
Any mismatch counts as a failed operation; the workload is never
changed to fit.  The last line of stdout is the result JSON; the lines
before it describe the machine, give each timing's median and highest
percentile with at least ten samples beyond it, and list the values
that expected.json pins.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 0
MIN_ROUNDS = 3
TRACE_REPS = 3
CHILD_TIMEOUT_S = 60
WITNESSES = 10
MASKED_KEYS = ("elapsed_ms", "shards", "peak_coverage_bytes")
# capcheck uses no BLAS; keep numpy's thread pools from starting threads,
# here and in every child, so that --workers 2 are the only extra threads
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Scale:
    big: tuple[int, int]  # geometry of the dense and sparse caps
    dense_n: int
    sparse_n: int
    shards: int
    workers: int
    search: tuple[int, int]
    search_seeds: int  # seeds of one search child, also pinned and traced


SCALES = {
    "full": Scale((10, 4), 2_500, 1_500, 16, 2, (3, 4), 1_000),
    # the harness self-test runs the same shapes on PG(4,4) and PG(2,4)
    "toy": Scale((4, 4), 20, 10, 16, 2, (2, 4), 100),
}

# workload -> kind of the cap file it checks and extends
WORKLOADS = {
    "pg10-dense": "dense",
    "pg10-sparse": "sparse",
}

# per-layer metrics reported for each traced operation
OP_LAYER_METRICS = {
    "check": [
        "cap.parse_s", "cap.validate_s", "cap.validate_calls",
        "coverage.multiples_s", "coverage.mark_s", "coverage.marks_generated",
        "coverage.marks_landed", "coverage.mark_ns_per_code", "coverage.landed_ratio",
        "coverage.test_s", "coverage.codes_tested", "coverage.maps_built", "coverage.map_bytes",
        "geometry.scalar_mul_codes_s", "geometry.scalar_mul_codes_n",
        "geometry.scalar_mul_ns_per_code", "geometry.points_by_index_s",
        "completeness.check_s", "completeness.self_s", "completeness.windows",
        "completeness.pairs_replayed", "completeness.landed_ratio",
        "completeness.reported_peak_mb", "field.build_s",
        "cli.cpu_s", "cli.cpu_per_wall", "trace_overhead_s",
    ],
    "extend": [
        "cap.parse_s", "cap.validate_s", "cap.validate_calls", "cap.grow_s",
        "cap.greedy_candidates", "cap.greedy_rechecks", "cap.greedy_accepted",
        "cap.greedy_accept_ratio",
        "coverage.multiples_s", "coverage.mark_s", "coverage.marks_generated",
        "coverage.marks_landed", "coverage.mark_ns_per_code", "coverage.landed_ratio",
        "coverage.test_s", "coverage.codes_tested", "coverage.maps_built", "coverage.map_bytes",
        "geometry.scalar_mul_codes_s", "geometry.scalar_mul_codes_n",
        "geometry.scalar_mul_ns_per_code", "geometry.scalar_mul_point_calls",
        "geometry.scalar_mul_point_s", "geometry.points_by_index_s", "field.build_s",
        "cli.cpu_s", "cli.cpu_per_wall", "trace_overhead_s",
    ],
    "search": [
        "cap.grow_s", "cap.greedy_candidates", "cap.greedy_rechecks", "cap.greedy_accepted",
        "cap.greedy_accept_ratio",
        "coverage.multiples_s", "coverage.mark_s", "coverage.marks_generated",
        "coverage.marks_landed", "coverage.mark_ns_per_code", "coverage.landed_ratio",
        "coverage.test_s", "coverage.codes_tested", "coverage.maps_built", "coverage.map_bytes",
        "geometry.scalar_mul_codes_s", "geometry.scalar_mul_codes_n",
        "geometry.scalar_mul_ns_per_code", "geometry.scalar_mul_point_calls",
        "geometry.scalar_mul_point_s", "geometry.points_by_index_s",
        "completeness.check_s", "completeness.self_s",
        "quantum.verify_s", "quantum.verify_calls", "field.build_s", "trace_overhead_s",
    ],
}

END_TO_END_UNITS = {
    "check_s": "s",
    "extend_s": "s",
    "search_caps_per_s": "1/s",
    "search_cap_ms_p50": "ms",
    "search_cap_ms_p99": "ms",
    "check_peak_rss_mb": "MiB",
    "extend_peak_rss_mb": "MiB",
    "search_peak_rss_mb": "MiB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_code"):
        return "ns"
    if name.endswith(("_ratio", "_per_wall")):
        return "ratio"
    return "count"


def layer_metric_names() -> list[str]:
    return [f"{op}.{m}" for op, ms in OP_LAYER_METRICS.items() for m in ms]


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str], count: int = 1) -> None:
        self.attempted += count
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def mismatch(self, what: str) -> None:
        """A pinned value differs: one more failed operation, none attempted."""
        self.failed = min(self.failed + 1, self.attempted)
        self.problems.append(what)


@dataclass
class Input:
    kind: str  # dense | sparse
    cap: object  # capcheck.Cap
    path: Path
    sha256: str


@dataclass
class OpTrace:
    tracer: object  # spans.Tracer of the first traced pass
    traced_s: float  # wall time of that pass
    overhead_s: float  # traced median minus untraced median


@dataclass
class Outcome:
    metrics: dict[str, float]
    tally: Tally
    pins: dict = field(default_factory=dict)
    timings: dict[str, list[float]] = field(default_factory=dict)
    traces: dict[str, OpTrace] = field(default_factory=dict)
    absent: set = field(default_factory=set)


def percentile_line(name: str, unit: str, values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None or best == 50:
        tail = "no percentile above the median has ten samples beyond it"
    else:
        cuts = statistics.quantiles(values, n=1000, method="inclusive")
        tail = f"p{best:g} {cuts[int(best * 10) - 1]:.6g} {unit}"
    return f"{name}: median {med:.6g} {unit}, min {min(values):.6g} {unit}, {tail}, n={n}"


def masked(report: dict) -> dict:
    return {k: v for k, v in report.items() if k not in MASKED_KEYS}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# machine
# ---------------------------------------------------------------------------


def _cache_sizes() -> dict[str, int]:
    """Data and unified cache sizes in bytes by level, from /sys."""
    out = {}
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return out


def machine_info(scale: Scale) -> dict:
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = _cache_sizes()
    l2 = caches.get("L2")
    llc = caches[max(caches)] if caches else None

    def against(nbytes: int) -> str:
        if not l2 or not llc:
            return f"{nbytes} bytes"
        return f"{nbytes} bytes = {nbytes / l2:.3g} x L2, {nbytes / llc:.3g} x LLC"

    r, q = scale.big
    full_map = q ** (r + 1) // 8
    sr, sq = scale.search
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "l2_bytes": l2,
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "working_sets": {
            "dense coverage map": against(full_map),
            "sparse window": against(full_map // scale.shards)
            + f", {scale.workers} alive at once",
            "search coverage map": against(sq ** (sr + 1) // 8) + f" ({sq ** (sr + 1)} codes)",
        },
    }


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_input(scale_name: str, kind: str, seed: int) -> Input:
    """random_cap for this seed, written to a cap file under .bench_work."""
    from capcheck import Geometry, random_cap, write_cap

    scale = SCALES[scale_name]
    n = scale.dense_n if kind == "dense" else scale.sparse_n
    c = random_cap(Geometry(*scale.big), n, seed)
    text = write_cap(c, header=True)
    path = WORK / f"{os.getpid()}-{scale_name}-{kind}-{seed}.txt"
    path.write_text(text, encoding="ascii")
    return Input(kind, c, path, sha256(text))


def check_argv(scale: Scale, inp: Input) -> list[str]:
    g = inp.cap.geometry
    argv = ["check", "--geometry", f"{g.r},{g.q}", "--format", "json"]
    if inp.kind == "sparse":
        argv += ["--shards", str(scale.shards), "--workers", str(scale.workers)]
    return argv + [str(inp.path)]


def extend_argv(inp: Input, seed: int) -> list[str]:
    g = inp.cap.geometry
    return ["extend", "--geometry", f"{g.r},{g.q}", "--seed", str(seed + 1), str(inp.path)]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mib: float
    cpu_s: float
    out: str


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **ONE_THREAD)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(args: list[str], out_path: Path) -> Child:
    """Run `python3 <args>` with stdout to out_path, through spawner.py.

    The spawner reaps the command with os.wait4, so the peak RSS and CPU
    time are the command's own, unlike RUSAGE_CHILDREN, which keeps the
    maximum over every child reaped so far.
    """
    helper = subprocess.run(
        [sys.executable, str(HERE / "spawner.py"), str(CHILD_TIMEOUT_S), str(out_path),
         sys.executable, *args],
        env=_child_env(), stdout=subprocess.PIPE, check=True, timeout=CHILD_TIMEOUT_S + 20,
    )
    r = json.loads(helper.stdout)
    out = out_path.read_text(encoding="ascii", errors="replace")
    out_path.unlink()
    return Child(r["code"], r["wall_s"], r["rss_mib"], r["cpu_s"], out)


def run_inprocess(argv: list[str]) -> tuple[int, str]:
    """capcheck.cli.main(argv) in this process: exit code and stdout."""
    from capcheck import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _normalize_all(codes, g):
    """Normalized representatives of nonzero uint64 codes (k-bit blocks)."""
    import numpy as np

    mul = g.field.mul_array
    inv = np.zeros(g.q, dtype=np.intp)
    for a in range(1, g.q):
        inv[a] = g.field.inv(a)
    mask = np.uint64(g.q - 1)
    top = np.zeros(codes.shape, dtype=np.uint64)
    for b in range(g.r + 1):
        top[(codes >> np.uint64(g.k * b)) != 0] = b
    lead = ((codes >> (top * np.uint64(g.k))) & mask).astype(np.intp)
    scale = inv[lead]
    out = np.zeros_like(codes)
    for b in range(g.r + 1):
        shift = np.uint64(g.k * b)
        out |= mul[scale, ((codes >> shift) & mask).astype(np.intp)] << shift
    return out


def truly_uncovered(points: list[int], cap_points, g) -> bool:
    """Every point lies on no secant of the cap, by the definition.

    Q is covered when some line through Q and a cap point P holds a
    second cap point, i.e. normalize(alpha*Q + P) is in the cap.
    """
    import numpy as np

    capset = set(cap_points)
    codes = np.array(cap_points, dtype=np.uint64)
    ordered = np.sort(codes)
    mul = g.field.mul_array
    mask = g.q - 1
    for p in points:
        if p in capset or p <= 0 or p >= g.code_span:
            return False
        for alpha in range(1, g.q):
            aq = 0
            for b in range(g.r + 1):
                aq |= int(mul[alpha, (p >> (g.k * b)) & mask]) << (g.k * b)
            third = _normalize_all(codes ^ np.uint64(aq), g)
            pos = np.minimum(np.searchsorted(ordered, third), ordered.size - 1)
            if (ordered[pos] == third).any():
                return False
    return True


def verify_check(inp: Input, code: int, text: str, reference: dict) -> list[str]:
    """Check a report against the definition and against check_fast on the same cap."""
    try:
        rep = json.loads(text)
        complete = bool(rep["complete"])
        count = int(rep["uncovered_count"])
        sample = [int(u) for u in rep["uncovered_sample"]]
    except (ValueError, KeyError, TypeError):
        return [f"exit {code}, output is not a check report"]
    c = inp.cap
    problems = []
    if code != (0 if complete else 1):
        problems.append(f"exit {code} with complete={complete}")
    if rep.get("n") != c.n or rep.get("geometry") != c.geometry.label:
        problems.append("wrong n or geometry")
    if rep.get("pairs_processed") != c.n * (c.n - 1) // 2:
        problems.append(f"pairs_processed {rep.get('pairs_processed')}")
    if complete != (count == 0):
        problems.append(f"complete={complete} with {count} uncovered")
    if sample != sorted(sample) or len(sample) != min(WITNESSES, count):
        problems.append("witness sample not the first uncovered points")
    if not truly_uncovered(sample, c.points, c.geometry):
        problems.append("a witness is covered or is a cap point")
    if masked(rep) != reference:
        problems.append("report differs from check_fast on the same cap")
    return problems


def verify_extend(inp: Input, code: int, text: str) -> tuple[list[str], object]:
    """Parse an extend output: it must start with its input, be a cap and be complete."""
    from capcheck import CapcheckError, check_fast, parse_cap, validate_cap

    if code != 0:
        return [f"exit {code}"], None
    try:
        ext = parse_cap(text, inp.cap.geometry)
    except CapcheckError as exc:
        return [f"output does not parse: {exc}"], None
    problems = []
    if ext.points[: inp.cap.n] != inp.cap.points:
        problems.append("extended cap does not start with its input")
    if validate_cap(ext) is not None:
        problems.append("extended cap has three collinear points")
    elif not check_fast(ext).complete:
        problems.append("extended cap is not complete")
    return problems, ext


def reference_report(inp: Input) -> dict:
    from capcheck import check_fast

    return masked(check_fast(inp.cap).to_json_dict(WITNESSES))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def load_expected(path: Path, scale_name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(path.read_text())[scale_name]


def compare_pins(observed: dict, expected: dict | None, tally: Tally) -> None:
    if expected is None:
        return
    for kind, values in observed.items():
        for key, value in values.items():
            want = expected.get(kind, {}).get(key)
            if want != value:
                tally.mismatch(f"{kind}.{key} differs from expected.json")


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, scale_name: str, workload: str, seed: int, seconds: float, expected: Path):
        self.scale = SCALES[scale_name]
        self.seed = seed
        self.seconds = seconds
        self.expected = load_expected(expected, scale_name, seed)
        self.tally = Tally()
        self.pins: dict[str, dict] = {}
        WORK.mkdir(exist_ok=True)
        self.inp = make_input(scale_name, WORKLOADS[workload], seed)
        self.pin(self.inp.kind, "input_sha256", self.inp.sha256)
        self.check_cmd = check_argv(self.scale, self.inp)
        self.extend_cmd = extend_argv(self.inp, seed)
        self._verified: dict[tuple[str, int, str], list[str]] = {}

    def pin(self, kind: str, key: str, value) -> None:
        self.pins.setdefault(kind, {})[key] = value

    def once(self, what: str, code: int, text: str, verify) -> list[str]:
        """verify() for the first of identical outputs; the same problems for the rest."""
        key = (what, code, text)
        if key not in self._verified:
            self._verified[key] = verify()
        return self._verified[key]

    # -- checks shared by both modes ------------------------------------

    def verify_checks(self, results: list[tuple[int, str]]) -> dict | None:
        """Check every report; return the last one that parsed."""
        inp = self.inp
        reference = reference_report(inp)
        last = None
        for code, text in results:
            problems = self.once("check", code, text,
                                 lambda: verify_check(inp, code, text, reference))
            self.tally.record(f"check {inp.kind}", problems)
            try:
                last = json.loads(text)
            except ValueError:
                continue
            self.pin(inp.kind, "check_report", masked(last))
            self.pin(inp.kind, "check_exit", code)
        return last

    def verify_extends(self, results: list[tuple[int, str]], report: dict | None) -> None:
        inp = self.inp
        uncovered = report.get("uncovered_count") if isinstance(report, dict) else None

        def verify(code, text):
            problems, ext = verify_extend(inp, code, text)
            # every point greedy adds was uncovered by the input cap
            if ext is not None and isinstance(uncovered, int) and ext.n - inp.cap.n > uncovered:
                problems.append(f"added {ext.n - inp.cap.n} points, only {uncovered} uncovered")
            return problems

        for code, text in results:
            problems = self.once("extend", code, text, lambda: verify(code, text))
            self.tally.record(f"extend {inp.kind}", problems)
            self.pin(inp.kind, "extend_sha256", sha256(text))

    def verify_search(self, result: dict) -> None:
        self.tally.record("search", [], count=result["seeds"])
        if result["bad"]:
            self.tally.failed += result["bad"]
            self.tally.problems.append(f"search: {result['bad']} seeds incomplete or oversized")
        self.pin("search", "sizes", result["sizes"])
        self.pin("search", "quantum", result["quantum"])

    def finish(self, outcome: Outcome) -> Outcome:
        compare_pins(self.pins, self.expected, self.tally)
        outcome.pins = self.pins
        self.inp.path.unlink(missing_ok=True)
        return outcome

    # -- end to end -----------------------------------------------------

    def untraced(self) -> Outcome:
        sc = self.scale
        g = self.inp.cap.geometry
        sr, sq = sc.search
        out = WORK / f"{os.getpid()}.out"
        commands = {
            "setup": ["-c", f"import capcheck; capcheck.Geometry({g.r}, {g.q})"],
            "check": ["-m", "capcheck", *self.check_cmd],
            "extend": ["-m", "capcheck", *self.extend_cmd],
            "search": [str(HERE / "searchloop.py"), "--geometry", f"{sr},{sq}",
                       "--seed", str(self.seed), "--seeds", str(sc.search_seeds)],
        }
        run_child(commands["setup"], out)  # warms the bytecode cache; not timed
        runs: dict[str, list[Child]] = {name: [] for name in commands}
        deadline = time.perf_counter() + self.seconds
        while len(runs["setup"]) < MIN_ROUNDS or time.perf_counter() < deadline:
            for name, args in commands.items():
                runs[name].append(run_child(args, out))

        for child in runs["setup"]:
            self.tally.record("setup", [] if child.code == 0 else [f"exit {child.code}"])
        report = self.verify_checks([(c.code, c.out) for c in runs["check"]])
        self.verify_extends([(c.code, c.out) for c in runs["extend"]], report)
        searches = []
        for child in runs["search"]:
            try:
                result = json.loads(child.out) if child.code == 0 else None
            except ValueError:
                result = None
            if result is None:
                self.tally.record("search", [f"exit {child.code}"])
            else:
                self.verify_search(result)
                searches.append(result)
        if len(searches) < len(runs["search"]):
            return self.finish(Outcome({}, self.tally))

        seed_ms = [statistics.median(ts) for ts in zip(*(s["times_ms"] for s in searches))]
        metrics = {
            "check_s": statistics.median(c.wall_s for c in runs["check"]),
            "extend_s": statistics.median(c.wall_s for c in runs["extend"]),
            "search_caps_per_s": len(seed_ms) / (sum(seed_ms) / 1e3),
            "search_cap_ms_p50": statistics.median(seed_ms),
            "search_cap_ms_p99": statistics.quantiles(seed_ms, n=100, method="inclusive")[98],
            "check_peak_rss_mb": statistics.median(c.rss_mib for c in runs["check"]),
            "extend_peak_rss_mb": statistics.median(c.rss_mib for c in runs["extend"]),
            "search_peak_rss_mb": statistics.median(c.rss_mib for c in runs["search"]),
            "setup_s": statistics.median(c.wall_s for c in runs["setup"]),
        }
        timings = {}
        for name, group in runs.items():
            timings[f"{name}_wall_s"] = [c.wall_s for c in group]
            timings[f"{name}_cpu_s"] = [c.cpu_s for c in group]
        timings["search_seed_ms"] = [t for s in searches for t in s["times_ms"]]
        timings["search_seed_median_ms"] = seed_ms
        if isinstance(report, dict) and isinstance(report.get("peak_coverage_bytes"), int):
            timings["check_reported_peak_mb"] = [report["peak_coverage_bytes"] / 2**20]
        return self.finish(Outcome(metrics, self.tally, timings=timings))

    # -- traced ---------------------------------------------------------

    def traced(self) -> Outcome:
        from searchloop import run_search
        from spans import Tracer, layer_metrics

        sc = self.scale
        sr, sq = sc.search
        metrics: dict[str, float] = {}
        traces: dict[str, OpTrace] = {}
        absent: set[str] = set()
        results: dict[str, list] = {}
        out = WORK / f"{os.getpid()}.out"

        def timed(fn):
            t0 = time.perf_counter()
            value = fn()
            return value, time.perf_counter() - t0

        def traced_call(fn):
            tracer = Tracer()
            with tracer:
                t0 = time.perf_counter()
                root = tracer.open("op")
                try:
                    value = fn()
                finally:
                    tracer.close(root)
                wall = time.perf_counter() - t0
            return tracer, value, wall

        ops = {
            "check": lambda: run_inprocess(self.check_cmd),
            "extend": lambda: run_inprocess(self.extend_cmd),
            "search": lambda: run_search(sr, sq, self.seed, sc.search_seeds),
        }
        for op, fn in ops.items():
            results[op] = []
            walls: dict[bool, list[float]] = {False: [], True: []}
            for _ in range(TRACE_REPS):
                value, wall = timed(fn)
                results[op].append(value)
                walls[False].append(wall)
                t, value, wall = traced_call(fn)
                results[op].append(value)
                walls[True].append(wall)
                if op not in traces:
                    traces[op] = OpTrace(t, wall, 0.0)
                del t  # the spans of later passes are not kept
            tracer = traces[op].tracer
            overhead = statistics.median(walls[True]) - statistics.median(walls[False])
            traces[op].overhead_s = overhead
            absent.update(tracer.absent)
            layer = layer_metrics(tracer)
            layer["trace_overhead_s"] = overhead
            if op != "search":
                # the command's own rusage, from one fresh child
                child = run_child(["-m", "capcheck", *(self.check_cmd if op == "check"
                                                       else self.extend_cmd)], out)
                results[op].append((child.code, child.out))
                layer["cli.cpu_s"] = child.cpu_s
                layer["cli.cpu_per_wall"] = child.cpu_s / child.wall_s
            for name in OP_LAYER_METRICS[op]:
                if name in layer:
                    metrics[f"{op}.{name}"] = layer[name]

        report = self.verify_checks(results["check"])
        self.verify_extends(results["extend"], report)
        for result in results["search"]:
            self.verify_search(result)
        return self.finish(Outcome(metrics, self.tally, traces=traces, absent=absent))


def run_workload(scale_name: str, workload: str, seed: int, seconds: float, trace: bool,
                 expected: Path = EXPECTED) -> Outcome:
    run = Run(scale_name, workload, seed, seconds, expected)
    return run.traced() if trace else run.untraced()


# ---------------------------------------------------------------------------


def result_json(outcome: Outcome, trace: bool) -> dict:
    units = (
        {name: layer_unit(name.split(".", 1)[1]) for name in layer_metric_names()}
        if trace
        else END_TO_END_UNITS
    )
    tally = outcome.tally
    return {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in outcome.metrics
        },
    }


def library_ok() -> bool:
    """Import capcheck from this checkout's src/, and only from there."""
    if not (SRC / "capcheck" / "__init__.py").is_file():
        return False
    os.environ.update(ONE_THREAD)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    try:
        import capcheck
    except ImportError:
        return False
    return Path(capcheck.__file__).resolve().is_relative_to(SRC)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not library_ok():
        print(f"error: no capcheck package under {SRC}", file=sys.stderr)
        return 2

    outcome = run_workload("full", args.workload, args.seed, args.seconds, bool(args.trace))
    print("machine " + json.dumps(machine_info(SCALES["full"])))
    for name, values in outcome.timings.items():
        unit = "ms" if name.endswith("_ms") else "MiB" if name.endswith("_mb") else "s"
        print(percentile_line(name, unit, values))
    for op, tr in outcome.traces.items():
        print(f"{op}: first traced pass {tr.traced_s:.6g} s, {len(tr.tracer.spans)} spans; "
              f"trace overhead {tr.overhead_s:.6g} s")
    if outcome.absent:
        print("absent spans: " + ", ".join(sorted(outcome.absent)))
    tally = outcome.tally
    print(f"failed_ops_frac: {tally.failed}/{tally.attempted}")
    for problem in tally.problems:
        print(f"problem: {problem}")
    print("pins " + json.dumps(outcome.pins, sort_keys=True))
    print(json.dumps(result_json(outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
