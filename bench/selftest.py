"""Self-test of the benchmark itself, in about 10 s.

    python3 bench/selftest.py

Runs every workload once at small genus through both the timed and the
traced path, with the same digest checks as the benchmark, and checks the
span tree, that each workload reaches the layers it is there for, that
BENCHMARK.json names exactly the metrics and workloads the harness
reports, and that the benchmark refuses to run without the program's
source.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import harness

# traced metrics that must be nonzero on each workload: the layers it exists for
REACHES = {
    "pullback-recursion-g8": ("_recursion_calls", "excess.transports",
                              "trees.smoothings_calls", "polyring.substitute_calls",
                              "strata.summands", "strata.output_bytes"),
    "pullback-closed-g7": ("excess.closed_calls", "polyring.series_inverse_calls",
                           "polyring.taylor_part_calls", "strata.summands"),
    "pullback-cached-g8": ("excess.cache_load_s", "excess.cache_bytes",
                           "strata.summands", "strata.output_bytes"),
    "lambda-products": ("agring.ring_s", "products.zeroint_s", "products.pairs",
                        "verify.checks_s"),
}


def check_manifest() -> list:
    with open(harness.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems = []
    pairs = [("workloads", [(w, None) for w in harness.workloads()]),
             ("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)]
    for key, expected in pairs:
        got = [(m["name"], m.get("unit")) for m in manifest[key]]
        if got != list(expected):
            problems.append("BENCHMARK.json %s differ from the harness" % key)
    return problems


def check_workload(w: harness.Workload, golden: dict) -> list:
    run = harness.run_workload(w, 0, random.Random(0), True, golden, "small")
    problems = list(run.problems)
    e2e = harness.end_to_end_metrics(run)
    problems += ["%s: %s is %r" % (w.name, k, v) for k, v in e2e.items() if not v > 0]
    harness.per_layer_metrics(run)  # counts repeat, all names present
    layers = run.traced[0].layers
    problems += ["%s: traced %s is 0" % (w.name, name)
                 for name in REACHES[w.name] if not layers.get(name)]
    if not 0.2 < layers["trace.overhead_ratio"] < 10:
        problems.append("%s: tracing overhead ratio %r" % (w.name, layers["trace.overhead_ratio"]))
    return problems


def check_refuses_without_source() -> list:
    """In a directory holding only BENCHMARK.json and bench/, run.py must
    fail without printing a result."""
    harness.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=harness.WORK_ROOT))
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(harness.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = subprocess.run([sys.executable, "bench/run.py", "--workload",
                              "lambda-products", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=bare, capture_output=True,
                             timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if res.returncode == 0 or b'"correct"' in res.stdout:
        return ["run.py without the program's source: exit %d" % res.returncode]
    return []


def main() -> int:
    try:
        golden = harness.load_golden()
        problems = check_manifest() + check_refuses_without_source()
        for w in harness.workloads("small").values():
            found = check_workload(w, golden)
            print("%-24s %s" % (w.name, "ok" if not found else "FAIL"), flush=True)
            problems += found
    except harness.BenchError as exc:
        problems = [str(exc)]
    for problem in problems:
        print("FAIL %s" % problem)
    print("selftest: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
