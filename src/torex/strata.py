"""Decorated boundary strata: the bracket form of the pullback formula.

A contribution polynomial in edge and Chern variables becomes a class on
the product of vertex moduli by the substitutions

    z_e   ->  -(psi'_e + psi''_e)      (cotangent classes at the node)
    c(N)  ->  prod over leaves of genus >= 2 of (1 - lam_1 + lam_2 - ...)

with the top lambda class of every leaf dropped, psi classes set to zero
on 3-valent genus-0 and on 1-valent genus-1 factors, and everything
truncated vertexwise above degree 2 g(v) - 3 + val(v).  Marking m of a
vertex is its m-th incident edge, the edge toward the root first and the
child edges in canonical order.

The assembled pullback is a weighted sum over all contributing trees
with weights 1/|Aut|; each bracket summand stores one text per vertex,
in vertex order, as both formats print it ('lam1*psi2^2', or '1').

A contribution holds terms in the z_e and c_i only (`excess`), so every
variable of its `Poly` has a value.  The substitution values are built
as term dicts and expanded by `Poly.substitute`; terms past a vertex
bound are dropped before the rest are sorted.  `serialize` writes both
formats directly, the JSON one as the bytes `json.dumps(..., indent=1)`
gives for its fixed schema, each term's tree by `trees.tree_json`, the
one writer of a tree's JSON, every array by `torex.json_list` and every
object by `torex.json_object`.  The
`admcycles` format is torex's own audit listing, not input that
admcycles reads.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import gt

from . import TorexError, json_list, json_object
from .excess import Contribution, all_contributions
from .polyring import Poly, cvar, lamvar, mono_str, psivar, var_degree, zvar
from .trees import ExtremalTree, tree_json


class Summand(namedtuple("Summand", "coeff monos")):
    """A rational coefficient and one text per vertex, as printed: the
    vertex's monomial in lam and psi, such as 'lam1*psi2^2', or '1'."""

    __slots__ = ()


class TreeTerm(namedtuple("TreeTerm", "tree summands")):
    """A tree and its tuple of Summands, coefficients already weighted by
    1/|Aut|."""

    __slots__ = ()


class StrataExpression(namedtuple("StrataExpression", "genus terms")):
    """The genus and its tuple of TreeTerms, in canonical-code order."""

    __slots__ = ()


def _factor_is_rigid(t: ExtremalTree, v: int) -> bool:
    """Vertices whose moduli factor carries no psi classes."""
    g, val = t.genera[v], t.valence(v)
    return (g == 0 and val == 3) or (g == 1 and val == 1)


def _truncation_bound(t: ExtremalTree, v: int) -> int:
    return 2 * t.genera[v] - 3 + t.valence(v)


def marking_index(t: ExtremalTree, v: int, w: int) -> int:
    """1-based marking at vertex v of the edge above w, v being w or its
    parent; the edge toward the root comes first, then child edges in
    canonical order."""
    if v == w:
        return 1
    return t.children[v].index(w) + (2 if v else 1)


def _substitutions(t: ExtremalTree, max_deg: int) -> dict:
    """The values of z_e and of c_1..c_max_deg on the tree, built as term
    dicts."""
    subs = {}
    for u, w in t.edges():
        # z_e -> -(psi'_e + psi''_e), no psi at a rigid end
        subs[zvar(t.label[w])] = Poly._of({
            ((psivar(marking_index(t, v, w), v), 1),): -1
            for v in (u, w) if not _factor_is_rigid(t, v)
        })
    # (degree, monomial, coeff) of the product over leaves of genus h >= 2
    # of (1 - lam_1 + ... +- lam_{h-1}), up to max_deg; the leaves come in
    # ascending order, so appending their lambda keeps each monomial sorted
    parts = [(0, (), 1)]
    for v in t.leaves():
        h = t.genera[v]
        if h >= 2:
            parts = [(d + j, m + ((lamvar(j, v), 1),) if j else m, -c if j % 2 else c)
                     for d, m, c in parts for j in range(h) if d + j <= max_deg]
    graded: list = [{} for _ in range(max_deg + 1)]
    for d, m, c in parts:
        graded[d][m] = c
    for i in range(1, max_deg + 1):
        subs[cvar(i)] = Poly._of(graded[i])
    return subs


def substitute_stratum(c: Contribution, weight=1) -> list:
    """Expand a contribution into bracket summands (coeff, vertex texts),
    every coefficient multiplied by weight, in the graded-lex order of the
    expanded monomials."""
    t = c.tree
    expanded = c.poly.substitute(_substitutions(t, max(c.degree, 0)))
    bounds = [_truncation_bound(t, v) for v in range(t.n_vertices)]
    nv = len(bounds)
    # (var, e) -> (vertex, untagged factor text, degree), filled as met
    place: dict = {}
    kept = []
    for mono, coeff in expanded.terms.items():
        # a monomial's variables sorted by (name, vertex, index) are
        # sorted by (name, index) within each vertex once untagged
        factors = [()] * nv
        degrees = [0] * nv
        for ve in mono:
            got = place.get(ve)
            if got is None:
                var, e = ve
                got = place[ve] = (var[1], mono_str((((var[0], -1) + var[2:], e),)),
                                   var_degree(var) * e)
            v, text, d = got
            factors[v] += (text,)
            degrees[v] += d
        if any(map(gt, degrees, bounds)):
            continue
        # the expanded monomials are distinct: the sort never reaches coeff
        kept.append((sum(degrees), mono, coeff, factors))
    kept.sort()
    # one str per distinct decoration of the tree, to save memory
    texts = {(): "1"}
    scaled: dict = {}  # coeff -> weight * coeff
    out = []
    for _, _, coeff, factors in kept:
        w = scaled.get(coeff)
        if w is None:
            w = scaled[coeff] = weight * coeff
        out.append(Summand(w, tuple([
            texts.get(f) or texts.setdefault(f, "*".join(f)) for f in factors])))
    return out


def stratum_class(c: Contribution, weight: Fraction = Fraction(1)) -> tuple:
    """Summands of a contribution with an overall rational weight."""
    return tuple(substitute_stratum(c, weight))


def assemble_pullback(g: int, method: str = "recursion",
                      cache_dir: str | None = None) -> StrataExpression:
    """The full decorated-strata expression of the pullback class."""
    table = all_contributions(g, method=method, cache_dir=cache_dir)
    terms = []
    for code in sorted(table):
        cont = table[code]
        weight = Fraction(1, cont.tree.aut_order)
        summands = stratum_class(cont, weight)
        terms.append(TreeTerm(tree=cont.tree, summands=summands))
    return StrataExpression(genus=g, terms=tuple(terms))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize(s: StrataExpression, format: str = "json") -> bytes:
    if format == "json":
        return _json_text(s).encode("utf-8")
    if format == "admcycles":
        return _to_audit_text(s).encode("utf-8")
    raise TorexError("unknown format %r" % format)


def _json_text(s: StrataExpression) -> str:
    """The text json.dumps(obj, indent=1) gives for the object

        {"genus": g, "terms": [{"tree": tree, "aut": |Aut|,
          "summands": [{"coeff": "p/q", "vertex_polys": ["lam1", ...]}]}]}

    written directly, each tree by `tree_json`: json.dumps runs its
    pure-Python encoder when indent is set."""
    summand = json_object([("coeff", '"%s"'), ("vertex_polys", "%s")], 4)
    tree_term = json_object([("tree", "%s"), ("aut", "%d"), ("summands", "%s")], 2)
    # a vertex text is letters, digits, '*' and '^': nothing to escape
    terms = [tree_term % (tree_json(term.tree, 3), term.tree.aut_order, json_list(
        [summand % (sm.coeff, json_list(['"%s"' % text for text in sm.monos], 5))
         for sm in term.summands], 3)) for term in s.terms]
    # filled as a template: a value passed to json_object is copied once
    # more, and at g = 12 the terms are 274 MB
    return json_object([("genus", "%d"), ("terms", "%s")], 0) % (s.genus, json_list(terms, 1))


def _to_audit_text(s: StrataExpression) -> str:
    """torex's own human-auditable listing, one block per stratum: not
    input that admcycles reads."""
    lines = ["genus %d, %d strata" % (s.genus, len(s.terms))]
    for term in s.terms:
        t = term.tree
        vdesc = ", ".join(
            "v%d(g=%d,n=%d)" % (v, t.genera[v], t.valence(v))
            for v in range(t.n_vertices)
        )
        edesc = ", ".join("z%d=(%d-%d)" % (t.label[w], u, w) for u, w in t.edges())
        lines.append("stratum %s  aut=%d" % (t.code, t.aut_order))
        lines.append("  vertices: %s" % vdesc)
        lines.append("  edges: %s" % edesc)
        if not term.summands:
            lines.append("  class: 0")
            continue
        for sm in term.summands:
            lines.append("  %s * [%s]" % (sm.coeff, ", ".join(sm.monos)))
    return "\n".join(lines) + "\n"
