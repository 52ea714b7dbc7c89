"""Record bench/golden.json: the stdout digest of every benchmark command and
the traced counts that the output fixes, at both scales (full, and the
self-test's small genera).

    python3 bench/record_golden.py

A digest is recorded only for verified bytes.  Each `pullback` JSON
expression is first computed by both independent methods (recursion and
the closed formula, about 92 s for the closed formula at genus 8), and the
cached workload's bytes must equal the uncached ones.  The lambda-products
outputs must report gorenstein, all_vanish and N/N checks passed.  Run it
only when the program's output is meant to change.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import harness


def run_torex(argv, workdir: Path, cache_dir: Path | None = None) -> bytes:
    res = harness.run_process(harness.TOREX + list(argv), harness.child_env(cache_dir),
                              workdir)
    if res.returncode != 0:
        raise harness.BenchError("%s: exit %d: %s" % (
            harness.command_key(argv), res.returncode,
            res.stderr.decode("utf-8", "replace").strip()))
    print("  %-58s %7.2f s  %s" % (harness.command_key(argv), res.wall_s,
                                   harness.sha256(res.stdout)[:16]), flush=True)
    return res.stdout


def pullback_bytes(genus: str, fmt: str, workdir: Path) -> bytes:
    """The expression by recursion; as JSON, only after checking that the
    closed formula gives the same bytes."""
    by_recursion = run_torex(("pullback", "--genus", genus, "--format", fmt), workdir)
    if fmt == "json":
        by_closed = run_torex(("pullback", "--genus", genus, "--method", "pixton",
                               "--format", fmt), workdir)
        if by_recursion != by_closed:
            raise harness.BenchError("genus %s: recursion and closed formula differ"
                                     % genus)
    return by_recursion


def record_digests(scale: str, workdir: Path) -> dict:
    wl = harness.workloads(scale)
    digests = {}
    verified = {}  # (genus, format) -> bytes checked by both methods
    for w in (wl["pullback-recursion-g8"], wl["pullback-closed-g7"]):
        for argv in w.commands:
            genus = argv[argv.index("--genus") + 1]
            key = (genus, "json")
            if key not in verified:
                verified[key] = pullback_bytes(genus, "json", workdir)
            out = run_torex(argv, workdir)
            if out != verified[key]:
                raise harness.BenchError("%s differs from the verified bytes"
                                         % harness.command_key(argv))
            digests[harness.command_key(argv)] = harness.sha256(out)

    cached = wl["pullback-cached-g8"]
    cache_dir = workdir / "excess-cache"
    cache_dir.mkdir()
    for argv in cached.commands + cached.commands:  # the first pass fills the cache
        genus, fmt = argv[argv.index("--genus") + 1], argv[argv.index("--format") + 1]
        if (genus, fmt) not in verified:
            verified[(genus, fmt)] = pullback_bytes(genus, fmt, workdir)
        if run_torex(argv, workdir, cache_dir) != verified[(genus, fmt)]:
            raise harness.BenchError("cached %s differs from the uncached bytes"
                                     % harness.command_key(argv))
        digests[harness.command_key(argv)] = harness.sha256(verified[(genus, fmt)])

    for argv in wl["lambda-products"].commands:
        out = run_torex(argv, workdir)
        digests[harness.command_key(argv)] = harness.sha256(out)
        res = harness.CommandResult(argv=harness.TOREX + list(argv), returncode=0,
                                    stdout=out, stderr=b"", wall_s=0, cpu_s=0, rss_mb=0)
        problem = harness.output_problem(res, digests)
        if problem:
            raise harness.BenchError(problem)
    return digests


def record_counts(scale: str, golden: dict) -> dict:
    counts = {}
    for name, w in harness.workloads(scale).items():
        run = harness.run_workload(w, 0, random.Random(0), True, golden, scale)
        layers = harness.per_layer_metrics(run)
        counts[name] = {c: layers[c] for c in harness.INVARIANT_COUNTS}
        print("  %s: %s" % (name, counts[name]), flush=True)
    return counts


def main() -> int:
    try:
        harness.check_source()
        golden = {"digests": {}, "counts": {}}
        harness.WORK_ROOT.mkdir(exist_ok=True)
        for scale in ("small", "full"):
            print("%s scale: digests" % scale, flush=True)
            workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=harness.WORK_ROOT))
            try:
                golden["digests"][scale] = record_digests(scale, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print("%s scale: traced counts" % scale, flush=True)
            golden["counts"][scale] = record_counts(scale, golden)
    except harness.BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    golden["recorded_with"] = harness.environment()
    with open(harness.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % harness.GOLDEN_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
