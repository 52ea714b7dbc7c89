"""Run one `torex` command in-process with span recorders around its layers.

Usage (from the repository root):

    python3 bench/trace_child.py SPANS_JSON RUN_ID -- <torex arguments>

The script imports `torex.cli`, rebinds the cross-layer names listed in
TARGETS to span-recording wrappers in every `torex` module that refers to
them, and calls `torex.cli.main(argv)`.  Standard output is the command's
own output, byte for byte.  Spans stay in memory until the command returns
and are then written to SPANS_JSON; the exit code is the command's, or
MISSING_TARGET when a name in TARGETS is not in the program.

No source file is edited and no arithmetic operator is wrapped: only the
coarse entry points below, looked up by name at call time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

_perf = time.perf_counter
_cpu = time.thread_time

MISSING_TARGET = 3


def _contribution_terms(table):
    sizes = [len(c.poly.terms) for c in table.values()]
    return [sum(sizes), max(sizes, default=0)]


# (owner, attribute, span name, tag, measure).  The tag is taken from the
# arguments after the call ("code": the tree's code, "depth": the tree's
# degeneration depth); the measure from the result ("len", "terms").  A
# target missing from the program stops the run: a renamed or removed name
# must show up as a change to this list, not as metrics that read 0.
TARGETS = [
    ("torex.trees", "enumerate_trees", "trees.enumerate", None, "len"),
    ("torex.trees", "smoothings", "trees.smoothings", "code", "len"),
    ("torex.trees", "depth", "trees.depth", None, None),
    ("torex.excess", "all_contributions", "excess.all_contributions", None, "terms"),
    ("torex.excess", "recursion_contribution", "excess.recursion", "depth", None),
    ("torex.excess", "pixton_contribution", "excess.closed", None, None),
    ("torex.excess", "_cache_load", "excess.cache_load", None, None),
    ("torex.excess", "_cache_store", "excess.cache_store", None, None),
    ("torex.polyring", "elem_sym_rewrite", "polyring.elem_sym_rewrite", None, None),
    ("torex.polyring.Poly", "substitute", "polyring.substitute", None, None),
    ("torex.polyring.Poly", "graded_part", "polyring.graded_part", None, None),
    ("torex.polyring.Poly", "exact_divide", "polyring.exact_divide", None, None),
    ("torex.polyring.Poly", "series_inverse", "polyring.series_inverse", None, None),
    ("torex.polyring.Poly", "taylor_part", "polyring.taylor_part", None, None),
    ("torex.strata", "assemble_pullback", "strata.assemble", None, None),
    ("torex.strata", "stratum_class", "strata.substitute", None, "len"),
    ("torex.strata", "serialize", "strata.serialize", None, "len"),
    ("torex.agring", "socle_degree", "agring.socle_degree", None, None),
    ("torex.agring", "graded_dimension", "agring.graded_dimension", None, None),
    ("torex.agring", "socle_pairing", "agring.socle_pairing", None, None),
    ("torex.agring", "matrix_rank", "agring.matrix_rank", None, None),
    ("torex.agring", "pairing_is_perfect", "agring.pairing_is_perfect", None, None),
    ("torex.products", "extremal_refinements", "products.extremal_refinements",
     None, None),
    ("torex.products", "zeroint_check", "products.zeroint_check", None, None),
    ("torex.verify", "run_checks", "verify.run_checks", None, None),
]


class Recorder:
    """In-memory span log: [id, parent, name, start, end, cpu_start,
    cpu_end, tag, measure] per span, times from perf_counter and
    thread_time."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._local.stack = self._main_stack

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool worker's first span belongs to what the main thread waits in
        main = self._main_stack
        return main[-1] if main else None

    def span(self, name, fn, tag=None, measure=None):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            rec = [next(ids), self._parent(stack), name, 0.0, 0.0, 0.0, 0.0,
                   None, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[5] = _cpu()
            rec[3] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = _perf()
                rec[6] = _cpu()
                stack.pop()
            if tag is not None:
                rec[7] = tag(args)
            if measure is not None:
                rec[8] = measure(result)
            return result

        return wrapper


def install(recorder: Recorder) -> list:
    """Rebind every target in every loaded torex module; returns the
    targets missing from the program."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "torex" or n.startswith("torex."))]
    # depth is cached for every tree before its recursion runs, so the
    # original function answers without recording spans of its own
    tree_depth = getattr(sys.modules.get("torex.trees"), "depth", None)
    tags = {None: None, "code": lambda args: args[0].code,
            "depth": lambda args: tree_depth(args[0])}
    measures = {None: None, "len": len, "terms": _contribution_terms}
    missing = []
    for owner_path, attr, name, tag, measure in TARGETS:
        if owner_path == "torex.polyring.Poly":
            owner = getattr(sys.modules.get("torex.polyring"), "Poly", None)
        else:
            owner = sys.modules.get(owner_path)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append("%s.%s" % (owner_path, attr))
            continue
        wrapper = recorder.span(name, original, tags[tag], measures[measure])
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    return missing


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_child.py SPANS_JSON RUN_ID -- <torex arguments>",
              file=sys.stderr)
        return 2
    out_path, run_id, torex_argv = argv[0], argv[1], argv[3:]
    recorder = Recorder()
    cli = recorder.span("cli.import", importlib.import_module)("torex.cli")
    missing = install(recorder)
    if missing:
        print("trace targets not in the program: %s" % ", ".join(missing),
              file=sys.stderr)
        return MISSING_TARGET
    code = recorder.span("cli.main", cli.main)(torex_argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": run_id, "argv": torex_argv,
                   "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
