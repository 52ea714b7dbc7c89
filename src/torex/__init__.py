"""Excess-intersection calculus for Torelli pullbacks of product loci.

The package computes, with exact rational arithmetic: the extremal trees
indexing the strata of the pullback of a product locus, their excess
contributions (by recursion and by a closed Taylor-part formula), the
decorated boundary-strata expression ready for external
tautological-ring software, the lambda-class ring of the moduli of
abelian varieties with its virtual product classes, the vanishing of
intersections of product loci, and the Bernoulli/Hodge-integral
constants tying everything together.
"""

# the one place the version is written: pyproject.toml reads it, and the
# contribution cache stamps it
__version__ = "0.1.0"


class TorexError(Exception):
    """The one error the package raises for a failure it detects; the
    message states the reason, and the CLI prints it as one line."""


def json_list(items: list, indent: int) -> str:
    """The text json.dumps(..., indent=1) gives for an array whose items
    it writes as the given texts: one item a line, one space deeper than
    the given indent, and the closing bracket at it.  Every JSON array
    the package writes directly is laid out by it, or item by item in
    the same bytes by `cli._write_json_list`."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 1)
    return "[%s%s\n%s]" % (pad, ("," + pad).join(items), " " * indent)


def json_object(fields: list, indent: int) -> str:
    """The text json.dumps(..., indent=1) gives for an object standing
    indent deep whose (key, value text) pairs are the given ones, in
    order: one pair a line, one space deeper than indent, and the closing
    brace at it.  A key needs no escaping, and fields is not empty.  A
    value text may be a placeholder such as '%s', so that a writer builds
    its template once and fills it per item with one '%'.  Every JSON
    object the package writes directly is laid out by it."""
    pad = "\n" + " " * (indent + 1)
    return "{%s%s\n%s}" % (pad, ("," + pad).join('"%s": %s' % kv for kv in fields), " " * indent)
