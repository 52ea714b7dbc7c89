"""Reproduce the ROADMAP baseline table from the traced harness.

    python3 bench/baseline_table.py

For each genus: a traced `pullback` by recursion gives the tree and
smoothing counts, the recursion time (all per-tree recursion spans) and
the strata substitution time; a traced `pullback --method pixton --jobs 1`
gives the closed-formula time (all per-tree closed-formula spans); an
untraced `pullback` gives the end-to-end wall time and max RSS.  All three
outputs must be the same bytes.  The closed formula takes about 92 s at
genus 8.  This is an on-demand report, not part of the timed benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import harness

GENERA = (6, 7, 8)


def traced(argv, workdir: Path):
    res, spans = harness.run_traced(argv, harness.child_env(), workdir, "table")
    if spans is None:
        raise harness.BenchError("%s: exit %d" % (harness.command_key(argv), res.returncode))
    return res.stdout, harness.command_layers(spans, res.wall_s)


def row(genus: int, workdir: Path) -> str:
    g = str(genus)
    rec_out, rec = traced(("pullback", "--genus", g, "--format", "json"), workdir)
    closed_out, closed = traced(("pullback", "--genus", g, "--method", "pixton",
                                 "--jobs", "1", "--format", "json"), workdir)
    plain = harness.run_process(harness.TOREX + ["pullback", "--genus", g, "--format", "json"],
                                harness.child_env(), workdir)
    if plain.returncode != 0 or not rec_out == closed_out == plain.stdout:
        raise harness.BenchError("genus %s: traced, closed-formula and plain outputs differ" % g)
    return "| %d | %d | %d | %.2f s | %.2f s | %.2f s | %.2f s, %.0f MB |" % (
        genus, rec["trees.count"], rec["trees.smoothings"], rec["_recursion_s"],
        closed["excess.closed_s"], rec["strata.substitute_s"], plain.wall_s, plain.rss_mb)


def main() -> int:
    print(json.dumps({"environment": harness.environment()}))
    print("| genus | trees | smoothings | recursion | closed formula | strata "
          "| `torex pullback` e2e |")
    print("|---|---|---|---|---|---|---|")
    harness.WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="table-", dir=harness.WORK_ROOT))
    try:
        harness.check_source()
        for genus in GENERA:
            print(row(genus, workdir), flush=True)
    except harness.BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
