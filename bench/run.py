"""The torex benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see BENCHMARK.json) as a closed loop with one client:
each `torex` command starts as a fresh process once the previous one has
finished, and passes over the workload's commands repeat until S seconds
have gone by and at least two passes have run.  Every command's stdout is
checked against bench/golden.json.  The seed only shuffles the order of a
workload's commands within a pass.

With --trace 0 the last line reports the end-to-end metrics: median pass
wall time, median pass CPU time of the children, the highest child max
RSS, and the median set-up time (fresh interpreter plus `import torex.cli`,
sampled after each timed command).
With --trace 1 each untraced pass is followed by a traced one
(bench/trace_child.py) and the last line reports the per-layer metrics.
Earlier lines record the environment and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = harness.workloads()[args.workload]
    try:
        golden = harness.load_golden()
        run = harness.run_workload(workload, args.seconds, random.Random(args.seed),
                                   bool(args.trace), golden)
        if args.trace:
            values, units = harness.per_layer_metrics(run), harness.PER_LAYER
        else:
            values, units = harness.end_to_end_metrics(run), harness.END_TO_END
    except harness.BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    env = harness.environment(workload=workload.name, seed=args.seed,
                              seconds=args.seconds, trace=args.trace)
    print(json.dumps({"environment": env}))
    for i, p in enumerate(run.passes):
        print("pass %d: wall %.3f s, cpu %.3f s, rss %.1f MB, %d commands"
              % (i, p.wall_s, p.cpu_s, p.rss_mb, p.attempted))
    print("setup: %d import probes" % len(run.setup_walls))
    for problem in run.problems:
        print("FAILED %s" % problem)
    print("error_rate: %d/%d" % (run.failed, run.attempted))
    for name, unit in units:
        print("%-34s %14.6g %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
