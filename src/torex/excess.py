"""Excess-intersection contributions attached to extremal trees.

Every tree T with n edges and k leaves has a torus-equivariant local
model: coordinates z_e on C^n, a rank (g-1) bundle with total Chern
class

    c(N) = prod_leaves (1 + sum_{e in path(v)} z_e) * (1 + e_1 + ... + e_ell),

where e_i, a formal variable of degree i, is the i-th elementary class
of the ell = g-1-k line bundles, and a section whose components are the
leaf path monomials.  The contribution Cont_T is the homogeneous degree
g-1-n polynomial in the z_e and the formal Chern classes c_i(N) solving

    Cont_T * prod_e z_e  =  c_{g-1}(N) - sum_{T'} (prod_{e in E(T')} z_e) * Cont_{T'}

over all smoothings T' of T; irreducible trees (no smoothings) are the
base case.  The equation is solved in the z_e and e_i; the last step
replaces each e_i by [c(N)/A]_i, A being the leaf factor.  A closed
formula computes the same polynomial as the degree g-1-n part of the
Taylor part of

    (-1)^k * prod_v (1 + sum_{e in path(v)} z_e)^(val(v)-2) / prod_e z_e

multiplied by the formal total class c(N).  The two routes are kept
independent and cross-checked against each other.

The closed formula reads only the paths and valences of T, its genus
and its number of leaves: trees with the same shape (`trees.shape`, the
tree with its leaf genera forgotten) share it up to the names of their
edges.  The table of contributions therefore runs it once per shape and
renames the result into every tree of that shape by permuting each
term's exponents through the shape labels.  The recursion still runs
per tree, so every comparison of the two tables checks the renaming as
well.  A per-shape recursion would call `smoothings` on the
representatives only, which moves the smoothing counts the benchmark
records; it waits for a refresh of the benchmark.

The closed formula forms only the numerator terms its Taylor part keeps:
a term survives the division by prod_e z_e and the truncation at degree
g-1-n only if every z_e divides it and its degree is at most g-1.  Each
factor is a series in the z's of its own path, of nonnegative degrees,
so (a) vertex v's factor is truncated at degree g-1-n+|path(v)| (each
edge off the path takes a degree from another factor), and (b) after
each product a term is dropped once an edge it lacks lies on no
remaining factor's path, or once its degree plus the number of edges it
lacks exceeds g-1.  Neither bound drops a term that survives.

Every contribution is linear in the c_i: an irreducible tree's class
is, and each step of the recursion keeps it.  The recursion therefore
holds a polynomial as c-slots, slot i the z-polynomial that multiplies
c_i (slot 0 the c-free part), and never expands A:

1. c_{g-1} - sum_{T'} (prod_{e in E(T')} z_e) * Cont_{T'} is formed in
   slots;
2. c(N) = A * (1 + e_1 + ...) is applied one leaf factor (1 + s_v) at a
   time, s_v the sum of the z's on the path to leaf v: going up in m,
   slot[m] += s_v * slot[m+1], after which slot j multiplies e_j;
3. the slots above ell are dropped, since e_j = 0 there, and each slot
   is divided by prod_e z_e exactly;
4. e -> [c/A] is applied one leaf factor at a time, going down in m:
   slot[m] -= s_v * slot[m+1], after which slot i multiplies c_i again.

The z-polynomials are packed (`polyring.PackedLayout`), one layout per
genus g: fields for z_1 .. z_{2g-3}, each (g-1).bit_length() + 1 bits
wide, under the degree; the key of z_j is `PackedLayout.unit[j]`.  The
recursion keeps each solved tree as terms (i, exps, coeff), coeff * c_i
* prod_j z_j^exps[j-1] in the tree's own edge labels, and moves a
smoothing's terms onto its source tree with one dot product of exps
against the packed keys of the mapped edges.

A `Contribution` holds these terms and nothing else, whichever route
made it: the table, the in-process memo and the cache file all hold
terms, exps a tuple of one exponent per edge.  The closed formula and
the base case derive a tuple-monomial `Poly`, which keeps them
independent references for the recursion, and convert it to terms once
at the end.  `Contribution.poly` builds the `Poly` where one is printed,
substituted or compared.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from functools import lru_cache
from math import prod
from operator import mul

from . import TorexError, __version__
from .polyring import PackedLayout, Poly, cvar, zvar
from .trees import ExtremalTree, enumerate_trees, shape, smoothings, trees_by_code


class Contribution(namedtuple("Contribution", "tree terms")):
    """Cont_T of an ExtremalTree as a tuple of terms (i, exps, coeff), each
    coeff * c_i * prod_j z_j^exps[j-1] (c_0 = 1), exps one exponent per
    edge of the tree, coeff a nonzero int, no (i, exps) twice.  Every
    route forms its class by ring operations and exact division by
    monomials only, so every coefficient is integral."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return self.tree.genus - 1 - self.tree.n_edges

    @property
    def poly(self) -> Poly:
        """Cont_T as a Poly in the z_e and c_i, built from the terms."""
        return Poly._of({((cvar(i), 1),)[:i]
                         + tuple((zvar(j), x) for j, x in enumerate(exps, 1) if x): c
                         for i, exps, c in self.terms})


def _terms_of(poly: Poly, n: int) -> tuple:
    """The terms (i, exps, coeff) of a Poly in c_i and z_1 .. z_n, in the
    order of poly's terms."""
    out = []
    for m, c in poly.terms.items():
        i, exps = 0, [0] * n
        for v, e in m:
            if v[0] == "c":
                i = v[1]
            else:
                exps[v[1] - 1] = e
        out.append((i, tuple(exps), c))
    return tuple(out)


def _formal_total_class(max_deg: int) -> Poly:
    out = Poly.const(1)
    for i in range(1, max_deg + 1):
        out = out + Poly.var(cvar(i))
    return out


def base_contribution(t: ExtremalTree) -> Contribution:
    """Excess class of an irreducible component, in (Z, c(N)) form."""
    if not t.is_irreducible():
        raise TorexError("tree %s is not irreducible" % t.code)
    d = t.genus - 1 - len(t.leaves())
    denom = prod((Poly.const(1) + Poly.var(zvar(i)) for i in range(1, t.n_edges + 1)),
                 start=Poly.const(1))
    series = _formal_total_class(d).mul(denom.series_inverse(d), d)
    return Contribution(tree=t, terms=_terms_of(series.graded_part(d), t.n_edges))


def recursion_contribution(t: ExtremalTree, solved: dict) -> tuple:
    """Solve the inductive equation for Cont_T, as the recursion's terms.

    A term (i, exps, coeff) stands for coeff * c_i * prod_j z_j^exps[j-1]
    in the tree's own edge labels, c_0 read as 1.  solved maps the
    canonical code of every smoothing of t to its terms; each is moved
    onto t's edges through the smoothing's edge map.  The arithmetic runs
    on c-slots of z-polynomials packed in the layout of t's genus g.
    """
    g = t.genus
    k = len(t.leaves())
    n = t.n_edges
    layout = _layout(g)
    unit = layout.unit
    # slot i of c_{g-1} - sum over smoothings of (prod of the mapped z's)
    # * Cont_T', with the edge variables moved through the edge map
    slots = [{} for _ in range(g)]
    slots[g - 1][0] = 1
    for rec in smoothings(t):
        got = solved.get(rec.target.code)
        if got is None:
            raise TorexError("smoothing %s of %s has no solved contribution"
                             % (rec.target.code, t.code))
        # units[j] is the key of the image of the target's z_{j+1}
        units = [unit[src] for src in rec.edge_map]
        factor = sum(units)
        for i, exps, c in got:
            slot = slots[i]
            key = factor + sum(map(mul, exps, units))
            slot[key] = slot.get(key, 0) - c
    # the factors commute; shortest path first keeps the slots smaller (at
    # g = 10 the passes took 1.3 s, against 4.3 s in leaf order, in-process
    # on a 2-core Xeon VM)
    leaves = sorted(([unit[i] for i in t.path_labels(v)] for v in t.leaves()), key=len)
    # c(N) = A * E, with e_j = 0 above ell = g - 1 - k
    _times_leaf_factors(slots, leaves)
    all_edges = sum(unit[1:n + 1])
    slots = [layout.divide({key: c for key, c in slot.items() if c}, all_edges)
             for slot in slots[:g - k]]
    # e = [c / A]: slot i is now the coefficient of c_i
    _over_leaf_factors(slots, leaves)
    d = g - 1 - n
    terms = []
    for i, slot in enumerate(slots):
        for key, c in slot.items():
            if c:
                # a tree with n >= g edges (d < 0) has the zero class
                if layout.degree(key) + i != d:
                    raise TorexError("contribution of %s not homogeneous of degree %d"
                                     % (t.code, d))
                terms.append((i, layout.exponents(key, n), c))
    return tuple(terms)


def _times_leaf_factors(slots: list, leaves: list) -> None:
    """Turn c-slots into e-slots under c = A * E, one leaf factor at a time.

    With c = (1 + s) c', sum_m slot[m] c_m = sum_m (slot[m] + s slot[m+1])
    c'_m; going up in m reads each slot[m+1] before it changes.  leaves
    holds, per leaf, the keys of the z's in s."""
    for units in leaves:
        for m in range(len(slots) - 1):
            _add_times(slots[m], slots[m + 1], units, 1)


def _over_leaf_factors(slots: list, leaves: list) -> None:
    """Turn e-slots into c-slots under e = [c / A], one leaf factor at a
    time.

    With e = e' / (1 + s), sum_m slot[m] e_m = sum_m (slot[m] - s
    slot'[m+1]) e'_m, slot' the new slots; going down in m reads each
    slot[m+1] after it changed."""
    for units in leaves:
        for m in range(len(slots) - 2, -1, -1):
            _add_times(slots[m], slots[m + 1], units, -1)


def _add_times(out: dict, p: dict, units: list, sign: int) -> None:
    """out += sign * s * p, s the sum of the monomials whose keys are units."""
    get = out.get
    for key, c in p.items():
        if c:
            c *= sign
            for u in units:
                k = key + u
                out[k] = get(k, 0) + c


@lru_cache(maxsize=None)
def _layout(g: int) -> PackedLayout:
    """The packed layout of genus g.  Every z-polynomial of the recursion
    has degree at most g - 1, and a tree has at most 2g - 3 edges: at most
    g - 1 leaves, and fewer genus-0 vertices than leaves."""
    return PackedLayout(n_z=2 * g - 3, max_deg=g - 1)


def pixton_contribution(t: ExtremalTree) -> Contribution:
    """Closed formula for Cont_T, t of genus g, via the Taylor-part
    expansion.

    The numerator prod_v (1 + s_v)^(val(v)-2), s_v the sum of the z's on
    the path of v, is formed only as far as its Taylor part by prod_e z_e,
    truncated at degree d = g - 1 - n, can see it: a term survives there
    only if every edge divides it and its degree is at most g - 1.  Every
    factor is a series in its own path's z's with no negative degrees, so
    two bounds drop nothing that survives:

    (a) vertex v's factor is truncated at degree d + |path(v)|, since the
        n - |path(v)| edges off its path each take at least one degree
        from the other factors;
    (b) after each product, a term is dropped if an edge it lacks lies on
        no remaining factor's path, or if its degree plus the number of
        edges it lacks exceeds g - 1.
    """
    g = t.genus
    n = t.n_edges
    d = g - 1 - n
    if d < 0:
        return Contribution(tree=t, terms=())
    top = g - 1  # numerator degree needed before dividing by prod z_e
    factors = [(t.path_labels(v), t.valence(v) - 2) for v in range(t.n_vertices)]
    factors = [(path, e) for path, e in factors if path and e]
    num = Poly.const(1)
    for i, (path, e) in enumerate(factors):
        cap = d + len(path)  # bound (a)
        s = Poly.const(1)
        for j in path:
            s = s + Poly.var(zvar(j))
        base = s if e > 0 else s.series_inverse(cap)
        factor = Poly.const(1)
        for _ in range(abs(e)):
            factor = factor.mul(base, cap)
        num = num.mul(factor, top)
        # bound (b): the edges no remaining factor reaches must be present
        reach = {j for path_, _ in factors[i + 1:] for j in path_}
        needed = {zvar(j) for j in range(1, n + 1) if j not in reach}
        num = Poly({m: c for m, c in num.terms.items()
                    if sum(x for _, x in m) + n - len(m) <= top
                    and needed.issubset([v for v, _ in m])})
    if len(t.leaves()) % 2:
        num = -num
    all_edges = tuple(sorted((zvar(i), 1) for i in range(1, n + 1)))
    taylor = num.taylor_part(all_edges).truncate(d)
    poly = (taylor * _formal_total_class(d)).graded_part(d)
    return Contribution(tree=t, terms=_terms_of(poly, n))


def all_contributions(g: int, method: str = "recursion",
                      cache_dir: str | None = None) -> dict:
    """Contributions of every extremal tree of genus g, keyed by code.

    One thread fills the table.  The recursion takes the trees in order
    of increasing edge count (`_recursion_table`); the closed formula
    runs once per tree shape and is renamed into each tree of the shape
    (`_closed_table`).  Results are keyed in canonical-code order.  A
    process computes or loads each table once (`_MEMO`): the cache is read
    and written only when the table is not yet in memory.
    """
    if method not in ("recursion", "pixton"):
        raise TorexError("unknown method %r" % method)
    out = _MEMO.get((g, method))
    if out is None:
        out = _cache_load(cache_dir, g, method)
        if out is None:
            trees = enumerate_trees(g, g - 1)
            out = (_closed_table if method == "pixton" else _recursion_table)(trees)
            _cache_store(cache_dir, g, method, out)
        _MEMO[g, method] = out
    return dict(out)


def _closed_table(trees) -> dict:
    """The closed formula's contributions of trees of one genus, computed
    once per shape (`trees.shape`).  A shape's representative is its first
    tree in the order given; every other tree of the shape gets the
    representative's terms with the exponent of each shape edge moved from
    the representative's label of it to this tree's label of it."""
    reps: dict = {}  # shape code -> (representative's terms, its labels)
    table = {}
    for t in trees:
        code, labels = shape(t)
        got = reps.get(code)
        if got is None:
            terms = pixton_contribution(t).terms
            reps[code] = terms, labels
        else:
            rep_terms, rep_labels = got
            # t's exponent at label b is the representative's at label a
            src = [0] * len(labels)
            for a, b in zip(rep_labels, labels):
                src[b - 1] = a - 1
            terms = tuple((i, tuple([exps[j] for j in src]), c) for i, exps, c in rep_terms)
        table[t.code] = Contribution(tree=t, terms=terms)
    return table


def _recursion_table(trees) -> dict:
    """The recursion's contributions of trees of one genus closed under
    smoothing, taken in order of increasing edge count: every smoothing
    contracts at least one edge, so each tree's smoothings are solved
    before it.  The table is keyed in the order of trees."""
    solved: dict = {}
    for t in sorted(trees, key=lambda tree: tree.n_edges):
        solved[t.code] = recursion_contribution(t, solved)
    return {t.code: Contribution(tree=t, terms=solved[t.code]) for t in trees}


def tree_contribution(t: ExtremalTree, method: str = "recursion") -> Contribution:
    """Cont_T of one tree, with no table of the other trees: the closed
    formula for t alone, or the recursion over t and the trees it
    smooths to."""
    if method == "pixton":
        return pixton_contribution(t)
    if method != "recursion":
        raise TorexError("unknown method %r" % method)
    closure = {t.code: t}
    todo = [t]
    while todo:
        for rec in smoothings(todo.pop()):
            if rec.target.code not in closure:
                closure[rec.target.code] = rec.target
                todo.append(rec.target)
    return _recursion_table(closure.values())[t.code]


_MEMO: dict = {}


def _cache_path(cache_dir, g, method):
    return os.path.join(cache_dir, "contrib-g%d-%s.json" % (g, method))


# the layout of a cache file; a file of another format or package version
# is a miss
CACHE_FORMAT = 3


def _cache_load(cache_dir, g, method):
    """The cached table, or None for a miss.  An entry holds a tree's code
    and its contribution's terms [i, exps, coeff], coeff a JSON int.  A
    file that does not parse, was written in another format, by another
    package version, or for another genus or method, does not hold each
    enumerated tree exactly once, or holds a term without the form of a
    contribution of that genus (any other coefficient, "p/q" text among
    them, has not) is a miss: the table is recomputed and the file
    rewritten.  Each entry takes its tree from the enumeration by its
    code, spelled exactly as the tree's own."""
    if not cache_dir:
        return None
    # imported here, so that a run without a cache does not execute json
    import json

    path = _cache_path(cache_dir, g, method)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # a file nested too deeply raises RecursionError
            data = json.load(fh)
        header = (data["format"], data["version"], data["genus"], data["method"])
        if header != (CACHE_FORMAT, __version__, g, method):
            return None
        trees = trees_by_code(g, g - 1)
        out = {}
        for entry in data["contributions"]:
            # an unknown or repeated code raises KeyError
            t = trees.pop(entry["code"])
            terms = _checked_terms(entry["poly"], t.n_edges, g - 1 - t.n_edges)
            if len({(i, exps) for i, exps, _ in terms}) != len(terms):
                return None  # a term given twice
            out[t.code] = Contribution(tree=t, terms=terms)
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return None
    return None if trees else out


def _checked_terms(entry, n: int, d: int) -> tuple:
    """The terms of a cache entry of a tree with n edges, exps a tuple;
    raises ValueError unless every term has the form of a contribution's:
    i and the n exponents nonnegative ints of sum d, the coefficient a
    nonzero int."""
    out = []
    for i, exps, c in entry:
        if type(c) is not int or not c:
            raise ValueError("coefficient %r" % (c,))
        if type(i) is not int or i < 0 or len(exps) != n or i + sum(exps) != d:
            raise ValueError("term %r is not of degree %d in %d edges" % ([i, exps], d, n))
        for x in exps:
            if type(x) is not int or x < 0:
                raise ValueError("exponent %r" % (x,))
        out.append((i, tuple(exps), c))
    return tuple(out)


def _cache_store(cache_dir, g, method, table) -> None:
    """Store the table; a cache that cannot be written is warned about on
    stderr, and the run goes on as if no cache were set."""
    if not cache_dir:
        return
    import json

    data = {
        "format": CACHE_FORMAT,
        "version": __version__,
        "genus": g,
        "method": method,
        "contributions": [{"code": code, "poly": cont.terms}
                          for code, cont in table.items()],
    }
    # a reader sees the old file or the new one, never a partial write
    path = _cache_path(cache_dir, g, method)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"), sort_keys=True)
        os.replace(tmp, path)
    except OSError as exc:
        print("warning: contribution cache not written: %s" % exc, file=sys.stderr)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
