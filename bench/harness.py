"""Shared machinery of the torex benchmark.

Every command runs `torex` as a fresh process from this checkout's `src`,
one at a time (a closed loop with one client), and its standard output is
checked against a recorded sha256 digest.  The traced path runs the same
commands through `trace_child.py` and turns the spans it writes into
per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import trace_child

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
GOLDEN_PATH = BENCH / "golden.json"
WORK_ROOT = ROOT / ".bench_build"

# the console script `torex = "torex.cli:main"`, spelled out so that the
# checkout's own source runs, not an installed copy
TOREX = [sys.executable, "-c", "import sys; from torex.cli import main; sys.exit(main())"]
TRACE_CHILD = [sys.executable, str(BENCH / "trace_child.py")]
IMPORT_PROBE = [sys.executable, "-c",
                "import sys, torex.cli; sys.stdout.write(torex.cli.__file__)"]

COMMAND_TIMEOUT_S = 150
# after each timed command, one import probe per started this many seconds of
# its wall time, so that set-up is sampled across the whole timed window
SETUP_PROBE_EVERY_S = 2.0
# a pass is one run of every command; two at least, so that a workload whose
# pass nearly fills --seconds always yields the same number of passes, and
# traced counts are always seen to repeat
MIN_PASSES = 2

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]

POLY_OPS = ("substitute", "graded_part", "exact_divide", "elem_sym_rewrite",
            "series_inverse", "taylor_part")
LAYERS = ("cli", "trees", "excess", "polyring", "strata", "agring", "products", "verify")
PER_LAYER = (
    [("trees.enumerate_s", "s"), ("trees.smoothings_s", "s"),
     ("trees.smoothings_calls", "count"), ("trees.depth_s", "s"),
     ("trees.count", "count"), ("trees.smoothings", "count")]
    + [("excess.recursion.depth%d_s" % d, "s") for d in range(4)]
    + [("excess.transports", "count"), ("excess.closed_s", "s"),
       ("excess.closed.max_tree_s", "s"), ("excess.closed_calls", "count"),
       ("excess.cache_load_s", "s"), ("excess.cache_store_s", "s"),
       ("excess.cache_bytes", "bytes")]
    + [(name, unit) for op in POLY_OPS
       for name, unit in (("polyring.%s_s" % op, "s"), ("polyring.%s_calls" % op, "count"))]
    + [("polyring.contrib_terms_total", "count"), ("polyring.contrib_terms_max", "count"),
       ("strata.substitute_s", "s"), ("strata.serialize_s", "s"),
       ("strata.summands", "count"), ("strata.output_bytes", "bytes"),
       ("agring.ring_s", "s"), ("products.zeroint_s", "s"), ("products.pairs", "count"),
       ("verify.checks_s", "s"), ("cli.import_s", "s")]
    + [("%s.self_s" % layer, "s") for layer in LAYERS]
    + [("trace.unattributed_s", "s"), ("trace.overhead_ratio", "ratio")]
)
MAX_METRICS = {"excess.closed.max_tree_s", "polyring.contrib_terms_max"}
# counts fixed by the output alone; they must equal the recorded values
INVARIANT_COUNTS = ("trees.count", "trees.smoothings", "polyring.contrib_terms_total",
                    "polyring.contrib_terms_max", "strata.summands",
                    "strata.output_bytes", "products.pairs")


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy number."""


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # of argv tuples
    cached: bool = False  # run from a cache the benchmark fills first


def workloads(scale: str = "full") -> dict:
    """Workloads by name (BENCHMARK.json says why each is there).  "full" is
    what the benchmark times; "small" runs the same paths at small genus
    for the self-test."""
    small = scale == "small"
    g8, g7 = ("5", "5") if small else ("8", "7")
    ring_g, zeroint_g = ("5", "4") if small else ("11", "6")
    out = [
        Workload("pullback-recursion-g8",
                 (("pullback", "--genus", g8, "--jobs", "1", "--format", "json"),)),
        Workload("pullback-closed-g7",
                 (("pullback", "--genus", g7, "--method", "pixton", "--jobs", "2"),)),
        Workload("pullback-cached-g8",
                 (("pullback", "--genus", g8, "--format", "json"),
                  ("pullback", "--genus", g8, "--format", "admcycles")),
                 cached=True),
        Workload("lambda-products",
                 (("ring", "--genus", ring_g), ("zeroint", "--genus", zeroint_g),
                  ("verify-paper",))),
    ]
    return {w.name: w for w in out}


def command_key(argv) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


@dataclass
class CommandResult:
    argv: tuple
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env(cache_dir: Path | None = None) -> dict:
    """The caller's environment with this checkout's source on the path and
    no contribution cache unless the benchmark owns it."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("EXCESS_CACHE_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    if cache_dir is not None:
        env["EXCESS_CACHE_DIR"] = str(cache_dir)
    return env


def run_process(argv, env: dict, workdir: Path) -> CommandResult:
    """Run one child to completion; wall from before spawn to after reaping,
    CPU and max RSS from that child's own rusage."""
    err_path = workdir / "stderr.txt"
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            watchdog.cancel()
        wall = time.perf_counter() - t0
        err.seek(0)
        stderr = err.read()
    return CommandResult(argv=tuple(argv), returncode=proc.returncode, stdout=out,
                         stderr=stderr, wall_s=wall,
                         cpu_s=usage.ru_utime + usage.ru_stime,
                         rss_mb=usage.ru_maxrss / 1024.0)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    try:
        with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (GOLDEN_PATH, exc)) from exc


_CHECKS_PASSED = re.compile(rb"^(\d+)/(\d+) checks passed$", re.M)


def output_problem(result: CommandResult, digests: dict) -> str | None:
    """Why a command's result is wrong, or None when it is right."""
    key = command_key(_torex_args(result.argv))
    if result.returncode != 0:
        tail = result.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return "%s: exit %d %s" % (key, result.returncode, " ".join(tail))
    expected = digests.get(key)
    if expected is None:
        return "%s: no recorded digest" % key
    if sha256(result.stdout) != expected:
        return "%s: stdout digest %s != recorded %s" % (
            key, sha256(result.stdout)[:16], expected[:16])
    command = _torex_args(result.argv)[0]
    if command == "ring" and json.loads(result.stdout).get("gorenstein") is not True:
        return "%s: not gorenstein" % key
    if command == "zeroint" and json.loads(result.stdout).get("all_vanish") is not True:
        return "%s: not all_vanish" % key
    if command == "verify-paper":
        m = _CHECKS_PASSED.search(result.stdout)
        if m is None or m.group(1) != m.group(2):
            return "%s: not every check passed" % key
    return None


def _torex_args(argv) -> tuple:
    """The torex arguments of a plain or traced command line."""
    argv = tuple(argv)
    if "--" in argv:
        return argv[argv.index("--") + 1:]
    return argv[len(TOREX):]


def check_source() -> None:
    if not (SRC / "torex" / "cli.py").is_file():
        raise BenchError("no torex source at %s; run from a full checkout" % SRC)


def measure_setup(workdir: Path, samples: int) -> list:
    """Walls of a fresh interpreter importing torex.cli, checked to be this
    checkout's copy."""
    walls = []
    for _ in range(samples):
        res = run_process(IMPORT_PROBE, child_env(), workdir)
        if res.returncode != 0:
            raise BenchError("import torex.cli failed: %s"
                             % res.stderr.decode("utf-8", "replace").strip())
        path = Path(res.stdout.decode("utf-8")).resolve()
        if SRC.resolve() not in path.parents:
            raise BenchError("imported torex from %s, not %s" % (path, SRC))
        walls.append(res.wall_s)
    return walls


# ---------------------------------------------------------------------------
# benchmark-owned contribution cache
# ---------------------------------------------------------------------------


def fingerprint(cache_dir: Path) -> dict:
    return {p.name: sha256(p.read_bytes()) for p in sorted(cache_dir.iterdir())}


def fill_cache(workload: Workload, cache_dir: Path, digests: dict, workdir: Path) -> dict:
    """Fill an empty cache by running the workload's first command against
    it (untimed, output checked); returns the files' digests."""
    if any(cache_dir.iterdir()):
        raise BenchError("cache dir %s is not empty before filling" % cache_dir)
    res = run_process(TOREX + list(workload.commands[0]), child_env(cache_dir), workdir)
    problem = output_problem(res, digests)
    if problem:
        raise BenchError("filling the cache: %s" % problem)
    fp = fingerprint(cache_dir)
    if not fp or not all(p.stat().st_size for p in cache_dir.iterdir()):
        raise BenchError("filling the cache left no non-empty file in %s" % cache_dir)
    return fp


def check_cache(cache_dir: Path, expected: dict, when: str) -> None:
    got = fingerprint(cache_dir)
    if got != expected:
        raise BenchError("cache files changed %s: %r != %r" % (when, got, expected))


def cache_bytes(cache_dir: Path | None) -> int:
    if cache_dir is None:
        return 0
    return sum(p.stat().st_size for p in cache_dir.iterdir())


# ---------------------------------------------------------------------------
# passes: one run of every command of a workload
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float  # the sum of its commands' walls
    cpu_s: float
    rss_mb: float
    attempted: int
    problems: list
    layers: dict = field(default_factory=dict)


def run_pass(workload: Workload, order, digests: dict, workdir: Path,
             cache_dir: Path | None = None, trace_id: str | None = None,
             golden_counts: dict | None = None, setup_walls: list | None = None) -> Pass:
    """Run the commands in the given order, each in a fresh process.

    Untraced, import probes follow each command and their walls go to
    setup_walls.  With trace_id set, each command runs under trace_child.py
    and the pass carries per-layer metrics summed (or maxed) over its
    commands."""
    env = child_env(cache_dir if workload.cached else None)
    problems, results, layers = [], [], {}
    for i, argv in enumerate(order):
        if trace_id is None:
            res, spans = run_process(TOREX + list(argv), env, workdir), None
            setup_walls += measure_setup(
                workdir, math.ceil(res.wall_s / SETUP_PROBE_EVERY_S))
        else:
            res, spans = run_traced(argv, env, workdir, "%s-%d" % (trace_id, i))
        results.append(res)
        problem = output_problem(res, digests)
        if problem:
            problems.append(problem)
        elif spans is not None:
            merge_layers(layers, command_layers(spans, res.wall_s))
    if trace_id is not None and not problems:
        layers["excess.cache_bytes"] = cache_bytes(cache_dir if workload.cached else None)
        check_counts(workload, layers, golden_counts)
    return Pass(wall_s=sum(r.wall_s for r in results), cpu_s=sum(r.cpu_s for r in results),
                rss_mb=max(r.rss_mb for r in results), attempted=len(results),
                problems=problems, layers=layers)


def run_traced(argv, env: dict, workdir: Path, run_id: str):
    """Run one command under trace_child.py; returns its result and its
    checked span list, or None for the spans when the command failed."""
    spans_path = workdir / "spans.json"
    spans_path.unlink(missing_ok=True)
    res = run_process(TRACE_CHILD + [str(spans_path), run_id, "--"] + list(argv),
                      env, workdir)
    if res.returncode == trace_child.MISSING_TARGET:
        raise BenchError(res.stderr.decode("utf-8", "replace").strip())
    if res.returncode != 0:
        return res, None
    with open(spans_path, "r", encoding="utf-8") as fh:
        trace = json.load(fh)
    problems = span_tree_problems(trace["spans"])
    if trace["run_id"] != run_id:
        problems.append("run id %r, expected %r" % (trace["run_id"], run_id))
    if problems:
        raise BenchError("%s: bad span tree: %s"
                         % (command_key(argv), "; ".join(problems[:3])))
    return res, trace["spans"]


def check_counts(workload: Workload, layers: dict, golden_counts: dict | None) -> None:
    """The traced-run guard on counts fixed by the program's output."""
    if workload.cached and layers.get("_recursion_calls", 0) + layers.get(
            "excess.closed_calls", 0):
        raise BenchError("%s recomputed contributions instead of reading the cache"
                         % workload.name)
    for name, expected in (golden_counts or {}).items():
        if layers.get(name) != expected:
            raise BenchError("%s: traced %s = %r, recorded %r"
                             % (workload.name, name, layers.get(name), expected))


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

# span record fields, as written by trace_child.py
ID, PARENT, NAME, START, END, CPU0, CPU1, TAG, MEASURE = range(9)
ROOT_SPANS = ("cli.import", "cli.main")


def span_tree_problems(spans) -> list:
    """Structural faults: unknown parents, children outside their parent's
    interval, roots other than the import and the command."""
    by_id = {s[ID]: s for s in spans}
    problems = []
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    names = [s[NAME] for s in spans if s[PARENT] is None]
    if names != list(ROOT_SPANS):
        problems.append("root spans %r" % names)
    for s in spans:
        if s[END] < s[START]:
            problems.append("%s ends before it starts" % s[NAME])
        if s[PARENT] is None:
            continue
        p = by_id.get(s[PARENT])
        if p is None:
            problems.append("%s has unknown parent %r" % (s[NAME], s[PARENT]))
        elif s[START] < p[START] or s[END] > p[END]:
            problems.append("%s outside its parent %s" % (s[NAME], p[NAME]))
    return problems


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def command_layers(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced command.

    A name's time is the wall time of its outermost spans (a span nested in
    another of the same name is not counted twice).  A layer's self time
    is its spans' wall time minus the part covered by their children."""
    by_id = {s[ID]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    ancestors = {}
    for s in sorted(spans, key=lambda s: s[ID]):
        p = by_id.get(s[PARENT])
        ancestors[s[ID]] = frozenset() if p is None else ancestors[p[ID]] | {p[NAME]}

    def outer(name):
        return [s for s in spans if s[NAME] == name and name not in ancestors[s[ID]]]

    def time_of(name):
        return sum(s[END] - s[START] for s in outer(name))

    def calls(name):
        return sum(1 for s in spans if s[NAME] == name)

    def parent_name(s):
        p = by_id.get(s[PARENT])
        return p[NAME] if p is not None else ""

    def from_cli(layer):
        return [s for s in spans if s[NAME].startswith(layer + ".")
                and parent_name(s).startswith("cli.")]

    m = {name: 0 for name, _ in PER_LAYER}
    smoothings_by_tree = {s[TAG]: s[MEASURE] for s in spans if s[NAME] == "trees.smoothings"}
    m.update({
        "trees.enumerate_s": time_of("trees.enumerate"),
        "trees.count": sum(s[MEASURE] for s in outer("trees.enumerate")),
        "trees.smoothings_s": time_of("trees.smoothings"),
        "trees.smoothings_calls": calls("trees.smoothings"),
        "trees.smoothings": sum(smoothings_by_tree.values()),
        "trees.depth_s": time_of("trees.depth"),
        "excess.transports": sum(s[MEASURE] for s in spans if s[NAME] == "trees.smoothings"
                                 and parent_name(s) == "excess.recursion"),
        "excess.closed_s": time_of("excess.closed"),
        "excess.closed.max_tree_s": max((s[CPU1] - s[CPU0] for s in spans
                                         if s[NAME] == "excess.closed"), default=0),
        "excess.closed_calls": calls("excess.closed"),
        "excess.cache_load_s": time_of("excess.cache_load"),
        "excess.cache_store_s": time_of("excess.cache_store"),
        "_recursion_calls": calls("excess.recursion"),
        "_recursion_s": time_of("excess.recursion"),
        "polyring.contrib_terms_total": sum(s[MEASURE][0]
                                            for s in outer("excess.all_contributions")),
        "polyring.contrib_terms_max": max((s[MEASURE][1]
                                           for s in outer("excess.all_contributions")),
                                          default=0),
        "strata.substitute_s": time_of("strata.substitute"),
        "strata.serialize_s": time_of("strata.serialize"),
        "strata.summands": sum(s[MEASURE] for s in outer("strata.substitute")),
        "strata.output_bytes": sum(s[MEASURE] for s in outer("strata.serialize")),
        "agring.ring_s": sum(s[END] - s[START] for s in from_cli("agring")),
        "products.zeroint_s": sum(s[END] - s[START] for s in from_cli("products")),
        "products.pairs": sum(1 for s in from_cli("products")
                              if s[NAME] == "products.zeroint_check"),
        "verify.checks_s": time_of("verify.run_checks"),
        "cli.import_s": time_of("cli.import"),
        "trace.unattributed_s": wall_s - time_of("cli.import") - time_of("cli.main"),
    })
    for d in range(4):
        m["excess.recursion.depth%d_s" % d] = sum(
            s[END] - s[START] for s in outer("excess.recursion") if s[TAG] == d)
    for op in POLY_OPS:
        m["polyring.%s_s" % op] = time_of("polyring." + op)
        m["polyring.%s_calls" % op] = calls("polyring." + op)
    for s in spans:
        layer = s[NAME].split(".", 1)[0]
        covered = _union_length((max(c[START], s[START]), min(c[END], s[END]))
                                for c in children[s[ID]])
        name = "%s.self_s" % layer
        m[name] = m.get(name, 0) + (s[END] - s[START]) - covered
    return m


def merge_layers(total: dict, new: dict) -> None:
    for name, value in new.items():
        if name in MAX_METRICS:
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    passes: list
    traced: list
    setup_walls: list
    problems: list

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes + self.traced)

    @property
    def failed(self) -> int:
        return len(self.problems)


def run_workload(workload: Workload, seconds: float, rng, trace: bool,
                 golden: dict, scale: str = "full") -> RunResult:
    """Set up, then run passes until `seconds` have gone by and at least
    MIN_PASSES have run.

    Untraced, every pass is timed, and set-up is sampled between its
    commands.  Traced, each untraced pass is followed by a traced one, and
    the pair gives the tracing overhead."""
    check_source()
    digests = golden["digests"][scale]
    golden_counts = golden["counts"].get(scale, {}).get(workload.name)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        setup_walls = []
        cache_dir, cache_fp = None, None
        if workload.cached:
            cache_dir = workdir / "excess-cache"
            cache_dir.mkdir()
            cache_fp = fill_cache(workload, cache_dir, digests, workdir)
            check_cache(cache_dir, cache_fp, "before timing")
        passes, traced, problems = [], [], []
        start = time.perf_counter()
        while True:
            order = rng.sample(workload.commands, len(workload.commands))
            p = run_pass(workload, order, digests, workdir, cache_dir,
                         setup_walls=setup_walls)
            passes.append(p)
            problems += p.problems
            if trace:
                t = run_pass(workload, order, digests, workdir, cache_dir,
                             trace_id="%s-%d" % (workload.name, len(traced)),
                             golden_counts=golden_counts)
                if t.problems:
                    raise BenchError("traced run: %s" % "; ".join(t.problems))
                t.layers["trace.overhead_ratio"] = t.wall_s / p.wall_s
                traced.append(t)
            if time.perf_counter() - start >= seconds and len(passes) >= MIN_PASSES:
                break
        if workload.cached:
            check_cache(cache_dir, cache_fp, "during timing")
        return RunResult(passes=passes, traced=traced, setup_walls=setup_walls,
                         problems=problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end_metrics(run: RunResult) -> dict:
    return {
        "wall_s": statistics.median(p.wall_s for p in run.passes),
        "cpu_s": statistics.median(p.cpu_s for p in run.passes),
        "peak_rss_mb": max(p.rss_mb for p in run.passes),
        "setup_s": statistics.median(run.setup_walls),
    }


def per_layer_metrics(run: RunResult) -> dict:
    """Medians over the traced passes for times; counts must repeat."""
    out = {}
    for name, unit in PER_LAYER:
        values = [t.layers.get(name, 0) for t in run.traced]
        if unit in ("count", "bytes"):
            if len(set(values)) != 1:
                raise BenchError("count %s differs between traced passes: %r"
                                 % (name, values))
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "torex").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(**extra) -> dict:
    return dict(
        python=platform.python_version(),
        nproc=os.cpu_count(),
        cpu_model=_cpu_model(),
        platform=platform.platform(),
        git_commit=_git_commit(),
        source_sha256=source_digest(),
        **extra,
    )
