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

The closed formula forms only the numerator terms its Taylor part keeps:
a term survives the division by prod_e z_e and the truncation at degree
g-1-n only if every z_e divides it and its degree is at most g-1.  Each
factor is a series in the z's of its own path, of nonnegative degrees,
so (a) vertex v's factor is truncated at degree g-1-n+|path(v)| (each
edge off the path takes a degree from another factor), and (b) after
each product a term is dropped once an edge it lacks lies on no
remaining factor's path, or once its degree plus the number of edges it
lacks exceeds g-1.  Neither bound drops a term that survives.

The recursion and the local model compute on packed monomials
(`polyring.PackedLayout`), one layout per genus g: fields for z_1 ..
z_{2g-3}, e_1 .. e_{g-1} and c_1 .. c_{g-1}, each (g-1).bit_length() + 1
bits wide, under the Chow degree.  `recursion_contribution` packs each
cached contribution as it reads it and unpacks its result, so the table
of contributions, the cache files and every other caller hold tuple
`Poly`s.  The closed formula and the base case stay on tuple monomials,
which keeps them independent oracles for the recursion.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache

from . import __version__
from .polyring import (
    PackedLayout,
    Poly,
    cvar,
    evar,
    prod,
    zvar,
)
from .trees import ExtremalTree, TreeError, enumerate_trees, smoothings, tree_codes


class ExcessError(Exception):
    pass


class NotIrreducible(ExcessError):
    pass


class MissingSmoothing(ExcessError):
    pass


@dataclass(frozen=True)
class LocalModel:
    """The local model of a tree, its classes packed in the layout of
    genus g."""

    tree: ExtremalTree
    g: int
    k: int
    n: int
    ell_count: int
    layout: PackedLayout
    leaf_factor: dict  # prod over leaves of (1 + sum of path z's)
    packed_parts: tuple  # c_0 .. c_{g-1} of leaf_factor * (1 + e_1 + ... + e_ell)

    @property
    def chern_parts(self) -> tuple:
        """c_0 .. c_{g-1} of c(N) as Polys."""
        return tuple(self.layout.unpack(part) for part in self.packed_parts)


def _leaf_count(t: ExtremalTree, g: int) -> int:
    """The number k of leaves of a tree of genus g; a tree has at most
    g - 1 of them."""
    if t.genus != g:
        raise ExcessError("tree has genus %d, expected %d" % (t.genus, g))
    k = len(t.leaves())
    if k > g - 1:
        raise ExcessError("more leaves than g-1")
    return k


def local_model(t: ExtremalTree, g: int) -> LocalModel:
    k = _leaf_count(t, g)
    n = t.n_edges
    ell_count = g - 1 - k
    layout = _layout(g)
    unit = layout.unit
    A = {0: 1}
    for v in t.leaves():
        s = {0: 1}
        for i in t.path_labels(v):
            s[unit[zvar(i)]] = 1
        A = layout.mul(A, s)
    e = {0: 1}
    for i in range(1, ell_count + 1):
        e[unit[evar(i)]] = 1
    # one pass over the terms buckets c(N) by degree
    parts = [{} for _ in range(g)]
    for key, c in layout.mul(A, e).items():
        parts[layout.degree(key)][key] = c
    return LocalModel(tree=t, g=g, k=k, n=n, ell_count=ell_count, layout=layout,
                      leaf_factor=A, packed_parts=tuple(parts))


@dataclass(frozen=True)
class Contribution:
    """Cont_T in the edge variables z_e and formal Chern classes c_i."""

    tree: ExtremalTree
    g: int
    poly: Poly

    @property
    def degree(self) -> int:
        return self.g - 1 - self.tree.n_edges

    def __str__(self) -> str:
        return str(self.poly)


def _formal_total_class(max_deg: int) -> Poly:
    out = Poly.const(1)
    for i in range(1, max_deg + 1):
        out = out + Poly.var(cvar(i))
    return out


def base_contribution(t: ExtremalTree, g: int) -> Contribution:
    """Excess class of an irreducible component, in (Z, c(N)) form."""
    if not t.is_irreducible():
        raise NotIrreducible(t.code)
    d = g - 1 - _leaf_count(t, g)
    denom = prod(
        (Poly.const(1) + Poly.var(zvar(i)) for i in range(1, t.n_edges + 1))
    )
    series = _formal_total_class(d).mul(denom.series_inverse(d), d)
    return Contribution(tree=t, g=g, poly=series.graded_part(d))


def recursion_contribution(t: ExtremalTree, g: int, cache: dict) -> Contribution:
    """Solve the inductive equation for Cont_T.

    cache maps canonical codes of all smoothings of t to their
    Contributions (transported automatically through each edge map).
    The arithmetic runs on monomials packed in the layout of genus g;
    the cached contributions are packed on entry and the result is
    unpacked on exit.
    """
    lm = local_model(t, g)
    layout = lm.layout
    # sum over smoothings of (prod of the mapped z's) * Cont_T', with the
    # edge variables moved through the edge map and the formal Chern
    # classes still formal
    smoothed: dict = {}
    for rec in smoothings(t):
        got = cache.get(rec.target.code)
        if got is None:
            raise MissingSmoothing(rec.target.code)
        rename = {zvar(tgt): zvar(src) for tgt, src in rec.edge_map}
        factor = sum(layout.unit[zvar(src)] for _, src in rec.edge_map)
        for key, c in layout.pack(got.poly, rename).items():
            key += factor
            smoothed[key] = smoothed.get(key, 0) + c
    # the formal Chern classes become the model's factorized ones
    transported = layout.substitute(
        smoothed, {cvar(i): lm.packed_parts[i] for i in range(1, g)})
    rhs = dict(lm.packed_parts[g - 1])
    for key, c in transported.items():
        rhs[key] = rhs.get(key, 0) - c
    all_edges = sum(layout.unit[zvar(i)] for i in range(1, lm.n + 1))
    quotient = layout.divide({key: c for key, c in rhs.items() if c}, all_edges)
    poly = layout.elem_sym_rewrite(quotient, lm.ell_count, lm.leaf_factor)
    d = g - 1 - lm.n
    if d < 0:
        if poly:
            raise ExcessError("tree with %d >= %d edges has nonzero class" % (lm.n, g))
    elif any(layout.degree(key) != d for key in poly):
        raise ExcessError("contribution of %s not homogeneous of degree %d" % (t.code, d))
    return Contribution(tree=t, g=g, poly=layout.unpack(poly))


@lru_cache(maxsize=None)
def _layout(g: int) -> PackedLayout:
    """The packed layout of genus g.  Every term of the recursion has Chow
    degree at most g - 1, and a tree has at most 2g - 3 edges: at most
    g - 1 leaves, and fewer genus-0 vertices than leaves."""
    return PackedLayout(n_z=2 * g - 3, n_ec=g - 1, max_deg=g - 1)


def pixton_contribution(t: ExtremalTree, g: int) -> Contribution:
    """Closed formula for Cont_T via the Taylor-part expansion.

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
    k = _leaf_count(t, g)
    n = t.n_edges
    d = g - 1 - n
    if d < 0:
        return Contribution(tree=t, g=g, poly=Poly.zero())
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
    if k % 2:
        num = -num
    all_edges = tuple(sorted((zvar(i), 1) for i in range(1, n + 1)))
    taylor = num.taylor_part(all_edges).truncate(d)
    poly = (taylor * _formal_total_class(d)).graded_part(d)
    return Contribution(tree=t, g=g, poly=poly)


def all_contributions(g: int, method: str = "recursion",
                      cache_dir: str | None = None) -> dict:
    """Contributions of every extremal tree of genus g, keyed by code.

    One thread fills the table.  The recursion takes the trees in order
    of increasing edge count: every smoothing contracts at least one
    edge, so each tree's smoothings are in the table before it.  The
    closed formula treats the trees independently.  Results are keyed in
    canonical-code order.
    """
    if method not in ("recursion", "pixton"):
        raise ExcessError("unknown method %r" % method)
    memo_key = (g, method)
    got = _MEMO.get(memo_key)
    if got is not None:
        if cache_dir and not os.path.exists(_cache_path(cache_dir, g, method)):
            _cache_store(cache_dir, g, method, got)
        return dict(got)
    cached = _cache_load(cache_dir, g, method)
    if cached is not None:
        _MEMO[memo_key] = cached
        return dict(cached)
    trees = enumerate_trees(g, g - 1)
    table: dict = {}
    if method == "pixton":
        for t in trees:
            table[t.code] = pixton_contribution(t, g)
    else:
        # the sort is stable: canonical-code order within an edge count
        for t in sorted(trees, key=lambda tree: tree.n_edges):
            table[t.code] = recursion_contribution(t, g, table)
    out = {t.code: table[t.code] for t in trees}
    _MEMO[memo_key] = out
    _cache_store(cache_dir, g, method, out)
    return dict(out)


_MEMO: dict = {}


def _cache_path(cache_dir, g, method):
    return os.path.join(cache_dir, "contrib-g%d-%s.json" % (g, method))


# the layout of a cache file; a file of another format or package version
# is a miss
CACHE_FORMAT = 2


def _cache_load(cache_dir, g, method):
    """The cached table, or None for a miss.  A file that does not parse,
    was written in another format, by another package version, or for
    another genus or method, or does not hold each enumerated tree
    exactly once is a miss: the table is recomputed and the file
    rewritten."""
    if not cache_dir:
        return None
    path = _cache_path(cache_dir, g, method)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        header = (data["format"], data["version"], data["genus"], data["method"])
        if header != (CACHE_FORMAT, __version__, g, method):
            return None
        out = {}
        for entry in data["contributions"]:
            t = ExtremalTree.from_code(entry["code"])
            out[t.code] = Contribution(tree=t, g=g, poly=Poly.from_json(entry["poly"]))
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError, TreeError):
        return None
    if len(out) != len(data["contributions"]) or set(out) != tree_codes(g, g - 1):
        return None
    return out


def _cache_store(cache_dir, g, method, table) -> None:
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    data = {
        "format": CACHE_FORMAT,
        "version": __version__,
        "genus": g,
        "method": method,
        "contributions": [
            {"code": code, "poly": cont.poly.to_json()}
            for code, cont in table.items()
        ],
    }
    # a reader sees the old file or the new one, never a partial write
    path = _cache_path(cache_dir, g, method)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
