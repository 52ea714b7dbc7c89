"""Deterministic command-line front end.

Every subcommand writes JSON or aligned text to standard out; for fixed
inputs the bytes are identical across runs.  Every JSON document is the
text json.dumps(..., indent=1) gives, laid out by torex.json_list and
torex.json_object (an array streamed item by item by _write_json_list),
so no command imports json; each but pullback's ends with a newline.
A string value goes out between quotes as it is: every one is ASCII
letters, digits and "()*^+-/;, ", which JSON does not escape.  The
EXCESS_CACHE_DIR environment variable, when set, caches contribution
tables in files that excess reads and writes with json and zlib: a
header line holding the CRC-32 of the table, then the table's JSON.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

from . import TorexError, json_list, json_object


def _lazy(name: str):
    """The module torex.<name>, in sys.modules and on the package but
    compiled and executed only at its first attribute access, so that a
    command pays for the modules it runs (see README, "Start-up"); a
    module already imported is returned as it is.  Only the one-threaded
    CLI does this: on Python 3.11 a lazy module's first access is not
    guarded against a second thread."""
    fullname = "%s.%s" % (__package__, name)
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


agring = _lazy("agring")
constants = _lazy("constants")
excess = _lazy("excess")
products = _lazy("products")
strata = _lazy("strata")
trees = _lazy("trees")
verify = _lazy("verify")
# registered though cli never names it: the benchmark's tracer finds
# Poly through sys.modules["torex.polyring"] and rebinds names in it
_lazy("polyring")


def _cache_dir() -> str | None:
    return os.environ.get("EXCESS_CACHE_DIR") or None


def _write_json_list(items, indent: int) -> None:
    """Write json_list(list(items), indent) to standard out, each item as
    soon as it is made, so that no item outlives its writing."""
    pad, opening = "\n" + " " * (indent + 1), "["
    for item in items:
        sys.stdout.write(opening + pad + item)
        opening = ","
    sys.stdout.write("[]" if opening == "[" else "\n" + " " * indent + "]")


def _ints(xs, indent: int) -> str:
    """json_list of the ints xs, standing indent deep."""
    return json_list([str(x) for x in xs], indent)


def _int_at_least(low: int):
    """argparse type: an int >= low; anything else is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _tree_code(text: str) -> trees.ExtremalTree:
    """argparse type: a well-formed canonical tree code."""
    try:
        return trees.ExtremalTree.from_code(text)
    except TorexError as exc:
        raise argparse.ArgumentTypeError("malformed tree code: %s" % exc) from None


def cmd_trees(args) -> int:
    max_edges = args.max_edges if args.max_edges is not None else args.genus - 1
    ts = trees.enumerate_trees(args.genus, max_edges)
    if args.format == "json":
        _write_json_list((trees.tree_json(t, 1) for t in ts), 0)
        sys.stdout.write("\n")
    else:
        for t in ts:
            print("%-28s edges=%d aut=%d" % (t.code, t.n_edges, t.aut_order))
        print("total: %d" % len(ts))
    return 0


def cmd_contribution(args) -> int:
    g = args.genus
    methods = ["recursion", "pixton"] if args.method == "both" else [args.method]
    if args.tree is None:
        # the full table: tree code -> contribution in canonical text form
        tables = [excess.all_contributions(g, method=method, cache_dir=_cache_dir())
                  for method in methods]
        texts = [{code: str(cont.poly) for code, cont in table.items()} for table in tables]
        table = texts[0]
        if args.format == "json":
            print(json_object([(code, '"%s"' % table[code]) for code in sorted(table)], 0))
        else:
            for code in sorted(table):
                print("%-28s %s" % (code, table[code]))
        differ = [code for code in sorted(set().union(*texts))
                  if len({text.get(code) for text in texts}) > 1]
        if differ:
            print("recursion and pixton differ at tree %s (%d of %d trees differ)"
                  % (differ[0], len(differ), len(table)), file=sys.stderr)
            return 1
        return 0
    tree = args.tree
    # the contributing trees are the extremal trees of genus g with at most
    # g - 1 edges
    if tree.genus != g or tree.n_edges > g - 1:
        print("tree %s does not contribute for genus %d" % (tree.code, g), file=sys.stderr)
        return 1
    values = {method: str(excess.tree_contribution(tree, method).poly) for method in methods}
    match = len(set(values.values())) == 1
    if args.format == "json":
        out = [("tree", '"%s"' % tree.code), ("genus", str(g)), ("contribution", json_object(
            [(method, '"%s"' % text) for method, text in values.items()], 1))]
        if args.method == "both":
            out.append(("match", str(match).lower()))
        print(json_object(out, 0))
    else:
        for method in methods:
            print("%s: %s" % (method, values[method]))
        if args.method == "both":
            print("match=%s" % str(match).lower())
    return 0 if match else 1


def cmd_pullback(args) -> int:
    expr = strata.assemble_pullback(args.genus, method=args.method, cache_dir=_cache_dir())
    data = strata.serialize(expr, args.format)
    # the bytes go out as they are, not decoded into a second copy
    sys.stdout.flush()
    sys.stdout.buffer.write(data)
    return 0


def cmd_ring(args) -> int:
    g = args.genus
    D = agring.socle_degree(g)
    dims, ranks = agring.pairing_ranks(g)
    perfect = all(agring.pairing_is_perfect(g, d) for d in range(D + 1))
    socle = str(agring.socle_generator(g))
    if args.format == "json":
        print(json_object([("genus", str(g)), ("dimension", str(sum(dims))),
                           ("graded_dimensions", _ints(dims, 1)), ("socle_degree", str(D)),
                           ("socle_generator", '"%s"' % socle), ("pairing_ranks", _ints(ranks, 1)),
                           ("gorenstein", str(perfect).lower())], 0))
    else:
        print("genus %d: dim %d = 2^%d, socle degree %d, generator %s"
              % (g, sum(dims), g - 1, D, socle))
        print("degree:    " + " ".join("%4d" % d for d in range(D + 1)))
        print("dim:       " + " ".join("%4d" % d for d in dims))
        print("pair rank: " + " ".join("%4d" % r for r in ranks))
        print("gorenstein: %s" % str(perfect).lower())
    return 0


def cmd_constants(args) -> int:
    g = args.genus
    coeff = constants.product_coefficient(g)
    hc = constants.hodge_constants(g)
    variant = constants.coefficient_discrepancy(g)
    if args.format == "json":
        triple = "null" if hc.triple_lambda is None else '"%s"' % hc.triple_lambda
        out = [("genus", str(g)), ("coefficient", '"%s"' % coeff),
               ("tail_integral", '"%s"' % hc.tail_integral), ("triple_lambda", triple)]
        if variant is not None:
            out.append(("discrepancy", json_object([
                ("formula_value", '"%s"' % coeff), ("printed_variant", '"%s"' % variant),
                ("note", '"digit transposition suspected; the formula value is used"')], 1)))
        print(json_object(out, 0))
    else:
        print(str(coeff))
        print("tail integral: %s" % hc.tail_integral)
        if hc.triple_lambda is not None:
            print("triple lambda integral: %s" % hc.triple_lambda)
        if variant is not None:
            print(
                "warning: a printed value %s disagrees with the formula value %s; "
                "the formula value is used" % (variant, coeff)
            )
    return 0


def _zeroint_pair(fmt: str, p: tuple, q: tuple) -> str:
    """One pair of the zeroint report, enumerated and checked: its line of
    text, or its item of the report's "pairs" array, in the bytes
    json.dumps(..., indent=1) gives at that depth for

        {"first": p, "second": q, "vanishes": true, "components": [{"sigma":
          parts, "excess": [[a, b], ...]}]}

    written directly: json.dumps runs its pure-Python encoder when indent
    is set.  A pair that does not vanish raises, naming it."""
    # one enumeration of the pair's matrices serves the check and the text
    comps = products.extremal_refinements(p, q)
    if not products.zeroint_check(p, q, comps):
        raise TorexError("the pair %s x %s does not vanish" % (p, q))
    if fmt == "text":
        return "%s x %s -> vanishes=true  [%s]" % (p, q, "; ".join(
            "sigma=%s excess=%s" % (c.sigma, [list(ab) for ab in c.excess_bundle]) for c in comps))
    component = json_object([("sigma", "%s"), ("excess", "%s")], 4)
    items = [component % (_ints(c.sigma, 5),
                          json_list([_ints(ab, 6) for ab in c.excess_bundle], 5))
             for c in comps]
    return json_object([("first", _ints(p, 3)), ("second", _ints(q, 3)), ("vanishes", "true"),
                        ("components", json_list(items, 3))], 2)


def cmd_zeroint(args) -> int:
    # every pair vanishes (see the products docstring), so the verdict is
    # written first, and each pair is checked and written as it is made
    parts = products.split_partitions(args.genus)
    # parts descend, so the pairs p <= q are q in parts[:i + 1]
    pairs = (_zeroint_pair(args.format, p, q) for i, p in enumerate(parts) for q in parts[:i + 1])
    if args.format == "text":
        sys.stdout.writelines(line + "\n" for line in pairs)
        print("all pairs vanish: true")
    else:
        # the report's object, split where its pairs are streamed in
        head, tail = json_object([("genus", str(args.genus)), ("all_vanish", "true"),
                                  ("pairs", "%s")], 0).split("%s")
        sys.stdout.write(head)
        _write_json_list(pairs, 1)
        print(tail)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_checks()
    failures = 0
    for slug, error in results:
        print("%-36s %s" % (slug, "PASS" if error is None else "FAIL (%s)" % error))
        failures += error is not None
    print("%d/%d checks passed" % (len(results) - failures, len(results)))
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torex",
        description="Excess-intersection calculus for pullbacks of "
        "product loci along the Torelli map",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, min_genus=2, fmt=("json", "text"), jobs=False, fmt_help=None):
        p.add_argument("--genus", type=_int_at_least(min_genus), required=True)
        p.add_argument("--format", choices=fmt, default=fmt[0], help=fmt_help)
        if jobs:
            p.add_argument("--jobs", type=_int_at_least(1), default=1,
                           help="accepted for compatibility and ignored: "
                           "contributions are computed in one thread")

    p = sub.add_parser("trees", help="enumerate contributing trees")
    add_common(p)
    p.add_argument("--max-edges", type=_int_at_least(1), default=None)
    p.set_defaults(fn=cmd_trees)

    p = sub.add_parser("contribution", help="excess class of one tree")
    add_common(p, jobs=True)
    p.add_argument("--tree", type=_tree_code, default=None,
                   help="canonical tree code (omit for the full table)")
    p.add_argument("--method", choices=("recursion", "pixton", "both"),
                   default="recursion",
                   help="both methods give identical bytes; pixton's table is the "
                   "faster from g = 8 on (see README); both runs the two and compares")
    p.set_defaults(fn=cmd_contribution)

    p = sub.add_parser("pullback", help="full decorated-strata expression")
    add_common(p, fmt=("json", "admcycles"), jobs=True, fmt_help="admcycles is "
               "torex's own audit listing, not input that admcycles reads")
    p.add_argument("--method", choices=("recursion", "pixton"), default="recursion",
                   help="both methods give identical bytes; pixton's table is the "
                   "faster from g = 8 on (see README)")
    p.set_defaults(fn=cmd_pullback)

    p = sub.add_parser("ring", help="lambda-ring dimensions and pairings")
    add_common(p, min_genus=1)
    p.set_defaults(fn=cmd_ring)

    p = sub.add_parser("constants", help="projection coefficient and integrals")
    add_common(p, min_genus=1, fmt=("text", "json"))
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("zeroint", help="product-locus intersection vanishing", description=(
        "Every pair vanishes: split_partitions yields only partitions with at least two parts, so "
        "every matrix has two nonzero cells in different rows and different columns, and every "
        "excess bundle is non-empty. A failed check would end with an error naming the pair."))
    add_common(p)
    p.set_defaults(fn=cmd_zeroint)

    p = sub.add_parser("verify-paper", help="replay the bundled reference checks")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the exit flush
        return code
    except TorexError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        # one short line needs little memory, even here
        print("error: out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed standard out: end quietly, with fd 1 on
        # os.devnull so that the interpreter's last flush cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
