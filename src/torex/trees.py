"""Rooted genus-labeled trees indexing product-locus strata.

An extremal tree has a genus-1 root, genus-0 internal vertices of
valence >= 3, and leaves of positive genus.  Vertices of the canonical
form are numbered in depth-first order with children sorted by
canonical code; edges carry 1-based labels assigned in breadth-first
order (these are the z-variable indices used everywhere downstream).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import itemgetter

from .polyring import Monomial, zvar


class TreeError(Exception):
    pass


class NotALeaf(TreeError):
    pass


Code = tuple  # nested (genus, (child codes...)) structure


def _code_str(code: Code) -> str:
    g, kids = code
    return "(%d%s)" % (g, "".join(_code_str(k) for k in kids))


def parse_code(s: str) -> Code:
    """Parse the printable canonical code back into its nested form."""
    pos = 0

    def node() -> Code:
        nonlocal pos
        if pos >= len(s) or s[pos] != "(":
            raise TreeError("expected '(' at %d in %r" % (pos, s))
        pos += 1
        start = pos
        while pos < len(s) and (s[pos].isdigit() or s[pos] == "-"):
            pos += 1
        try:
            g = int(s[start:pos])
        except ValueError:
            raise TreeError("expected genus at %d in %r" % (start, s)) from None
        kids = []
        while pos < len(s) and s[pos] == "(":
            kids.append(node())
        if pos >= len(s) or s[pos] != ")":
            raise TreeError("expected ')' at %d in %r" % (pos, s))
        pos += 1
        return (g, tuple(kids))

    out = node()
    if pos != len(s):
        raise TreeError("trailing input at %d in %r" % (pos, s))
    return out


def _code_aut(code: Code) -> int:
    g, kids = code
    order = 1
    for k in kids:
        order *= _code_aut(k)
    i = 0
    while i < len(kids):
        j = i
        while j < len(kids) and kids[j] == kids[i]:
            j += 1
        order *= factorial(j - i)
        i = j
    return order


def _code_edges(code: Code) -> int:
    g, kids = code
    return len(kids) + sum(_code_edges(k) for k in kids)


class ExtremalTree:
    """Canonical extremal tree.

    Attributes
    ----------
    genera : tuple of int, genus per vertex (vertex 0 is the root)
    parent : tuple, parent vertex id per vertex (None for the root)
    children : tuple of tuples, children in canonical order
    edge_label : dict, (parent, child) vertex pair -> 1-based z index
    code : printable canonical form
    aut_order : order of the root- and genus-preserving automorphism group
    """

    __slots__ = (
        "genera",
        "parent",
        "children",
        "edge_label",
        "code",
        "aut_order",
    )

    def __init__(self, code: Code):
        _validate_code(code)
        self.code = _code_str(code)
        self.aut_order = _code_aut(code)
        genera = []
        parent = []
        children = []

        def build(node: Code, par) -> int:
            vid = len(genera)
            genera.append(node[0])
            parent.append(par)
            children.append([])
            if par is not None:
                children[par].append(vid)
            for kid in node[1]:
                build(kid, vid)
            return vid

        build(code, None)
        self.genera = tuple(genera)
        self.parent = tuple(parent)
        self.children = tuple(tuple(c) for c in children)
        # breadth-first edge labels
        label = {}
        queue = [0]
        nxt = 1
        while queue:
            v = queue.pop(0)
            for w in self.children[v]:
                label[(v, w)] = nxt
                nxt += 1
                queue.append(w)
        self.edge_label = label

    # -- construction -------------------------------------------------

    @staticmethod
    def from_code(s: str) -> "ExtremalTree":
        # parsing, and building a tree that parsed, recurse once per level
        try:
            return _tree(parse_code(s))
        except RecursionError:
            raise TreeError("tree code nested too deeply") from None

    @staticmethod
    def star(leaf_genera) -> "ExtremalTree":
        kids = tuple(sorted((g, ()) for g in leaf_genera))
        return ExtremalTree((1, kids))

    # -- basic structure ------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.genera)

    @property
    def n_edges(self) -> int:
        return len(self.genera) - 1

    @property
    def genus(self) -> int:
        return sum(self.genera)

    def valence(self, v: int) -> int:
        return len(self.children[v]) + (0 if v == 0 else 1)

    def leaves(self) -> list:
        return [v for v in range(1, self.n_vertices) if not self.children[v]]

    def is_irreducible(self) -> bool:
        return all(self.parent[v] == 0 for v in range(1, self.n_vertices))

    def edges(self) -> list:
        """Edges as (parent, child) pairs in label order."""
        return sorted(self.edge_label, key=lambda e: self.edge_label[e])

    def path_labels(self, v: int) -> list:
        """z labels on the minimal path from vertex v up to the root."""
        out = []
        while self.parent[v] is not None:
            out.append(self.edge_label[(self.parent[v], v)])
            v = self.parent[v]
        return sorted(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtremalTree) and self.code == other.code

    def __hash__(self):
        return hash(self.code)

    def __repr__(self):
        return "ExtremalTree(%s)" % self.code

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "root": 0,
            "vertices": [
                {"id": v, "genus": self.genera[v]} for v in range(self.n_vertices)
            ],
            "edges": [[u, w] for (u, w) in self.edges()],
            "aut": self.aut_order,
            "code": self.code,
        }


def _validate_code(code: Code, is_root: bool = True) -> None:
    g, kids = code
    if is_root:
        if g != 1:
            raise TreeError("root genus must be 1, got %d" % g)
        if not kids:
            raise TreeError("root must have at least one child")
    else:
        if not kids:
            if g < 1:
                raise TreeError("leaf genus must be positive")
        else:
            if g != 0:
                raise TreeError("internal vertex genus must be 0")
            if len(kids) + 1 < 3:
                raise TreeError("internal vertex valence must be >= 3")
    if list(kids) != sorted(kids):
        raise TreeError("children not in canonical order")
    for k in kids:
        _validate_code(k, is_root=False)


def canonicalize(genera, edges, root):
    """Canonical code of a genus-labeled rooted tree plus the vertex map.

    genera: map vertex -> genus; edges: iterable of unordered pairs.
    Returns (code, vertex_map) where vertex_map sends original vertex
    ids to canonical depth-first ids.
    """
    adj: dict = {v: [] for v in genera}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)

    # each vertex's children sorted by code only, stable in adjacency
    # order: children with equal codes are interchangeable, and any stable
    # assignment yields the same canonical tree
    ordered: dict = {}

    def code_of(v, par) -> Code:
        kids = [(code_of(w, v), w) for w in adj[v] if w != par]
        kids.sort(key=itemgetter(0))
        ordered[v] = kids
        return (genera[v], tuple(kc for kc, _ in kids))

    code = code_of(root, None)
    # number the vertices depth-first along the sorted children
    vertex_map = {}
    stack = [root]
    while stack:
        v = stack.pop()
        vertex_map[v] = len(vertex_map)
        stack.extend(w for _, w in reversed(ordered[v]))
    return code, vertex_map


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _subtree_codes(h: int, edge_budget: int) -> tuple:
    """Canonical subtree codes of total genus h using <= edge_budget edges
    strictly below the subtree root (the edge to the parent not counted)."""
    out = [(h, ())] if h >= 1 else []
    if h >= 2 and edge_budget >= 2:
        # genus-0 vertex with >= 2 child subtrees of total genus h
        for kids in _child_multisets(h, edge_budget, 2):
            out.append((0, kids))
    return tuple(sorted(set(out)))


def _child_multisets(h: int, edge_budget: int, min_children: int) -> list:
    """Non-increasing tuples of subtree codes with genera summing to h.

    Each child consumes its own edges plus the edge joining it to the
    parent.
    """
    results = []

    def rec(remaining: int, budget: int, bound, count: int, acc: list):
        if remaining == 0:
            if count >= min_children:
                results.append(tuple(reversed(acc)))
            return
        if budget < 1:
            return
        for h1 in range(1, remaining + 1):
            for sub in _subtree_codes(h1, budget - 1):
                if bound is not None and sub > bound:
                    continue
                cost = _code_edges(sub) + 1
                if cost > budget:
                    continue
                acc.append(sub)
                rec(remaining - h1, budget - cost, sub, count + 1, acc)
                acc.pop()

    rec(h, edge_budget, None, 0, [])
    return results


def _root_codes(g: int, max_edges: int) -> set:
    if g < 2:
        raise TreeError("genus must be >= 2")
    if max_edges < 1:
        raise TreeError("max_edges must be >= 1")
    return {(1, tuple(sorted(kids)))
            for kids in _child_multisets(g - 1, max_edges, 1)}


def enumerate_trees(g: int, max_edges: int) -> list:
    """All isomorphism classes of extremal trees of genus g with at most
    max_edges edges, in canonical-code order."""
    return sorted((_tree(c) for c in _root_codes(g, max_edges)),
                  key=lambda t: t.code)


def tree_codes(g: int, max_edges: int) -> set:
    """The printable codes of enumerate_trees(g, max_edges), without
    building the trees."""
    return {_code_str(c) for c in _root_codes(g, max_edges)}


def aut_order_brute(t: ExtremalTree) -> int:
    """Automorphism order by explicit permutation search (small trees)."""
    from itertools import permutations

    n = t.n_vertices
    edges = {frozenset(e) for e in t.edges()}
    count = 0
    for perm in permutations(range(1, n)):
        full = (0,) + perm
        if any(t.genera[full[v]] != t.genera[v] for v in range(n)):
            continue
        if all(frozenset((full[u], full[w])) in edges for u, w in edges):
            count += 1
    return count


# ---------------------------------------------------------------------------
# smoothings / degenerations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Smoothing:
    """A tree T' this tree degenerates from, with its edge correspondence.

    edge_map sends each canonical z label of the target to the z label
    of the corresponding (non-contracted) edge of the degenerate tree;
    contracted holds the z labels of the edges collapsed inside parts.
    """

    target: ExtremalTree
    edge_map: tuple  # tuple of (target z label, source z label)
    contracted: frozenset


def smoothings(t: ExtremalTree) -> list:
    """All smoothings of t: one record per valid edge contraction.

    Contracting a set of edges splits t into parts, and the set is valid
    when the quotient is again an extremal tree.  A part that holds a leaf
    has positive genus, so it must be a leaf of the quotient: it is the
    whole subtree below some non-root vertex, whose edge up stays.  A
    leaf-free part is always valid: the root's part keeps genus 1, and k
    genus-0 vertices of valence >= 3 merged along k - 1 edges form one of
    genus 0 and valence >= k + 2.  So a valid set is one choice per child
    w of each vertex in a leaf-free part, walking down from the root: a
    leaf's edge stays; an internal w's edge stays or is contracted, which
    leaves w in a leaf-free part and the choices going on below it, or
    w's whole subtree collapses.  Every such choice is valid and each
    valid set arises from exactly one, so this lists them all; the empty
    set, which leaves t itself, is dropped.

    Records are sorted by target code, then by contracted labels.
    """
    out = [_smoothing(t, cut) for cut in _contractions(t, 0) if cut]
    out.sort(key=lambda s: (s.target.code, sorted(s.contracted)))
    return out


def _contractions(t: ExtremalTree, v: int) -> list:
    """The valid contraction sets below v when v's part holds no leaf,
    each a tuple of the vertices whose edge up is contracted."""
    sets = [()]
    for w in t.children[v]:
        if not t.children[w]:
            continue
        below = _contractions(t, w)
        choices = below + [(w,) + cut for cut in below]
        choices.append(tuple(_subtree(t, w)[1:]))
        sets = [a + b for a in sets for b in choices]
    return sets


def _subtree(t: ExtremalTree, v: int) -> list:
    """v and every vertex below it."""
    out = [v]
    for w in t.children[v]:
        out.extend(_subtree(t, w))
    return out


@lru_cache(maxsize=None)
def _tree(code: Code) -> ExtremalTree:
    """The one ExtremalTree built for a canonical code."""
    return ExtremalTree(code)


def _smoothing(t: ExtremalTree, cut) -> Smoothing:
    """The record of contracting the edges above the vertices in cut."""
    cut = set(cut)
    # each part is named by its top vertex; labels are breadth-first, so
    # the edge above u comes before every edge below u
    part = list(range(t.n_vertices))
    genus = {0: t.genera[0]}
    kept = []
    contracted = []
    for (u, w), label in t.edge_label.items():
        if w in cut:
            part[w] = part[u]
            genus[part[u]] += t.genera[w]
            contracted.append(label)
        else:
            genus[w] = t.genera[w]
            kept.append((label, part[u], w))
    code, vmap = canonicalize(genus, [(p, w) for _, p, w in kept], 0)
    try:
        target = _tree(code)
    except TreeError as err:
        raise TreeError("contracting edges %s of %s leaves no extremal tree: %s"
                        % (contracted, t.code, err)) from None
    edge_label = target.edge_label
    edge_map = sorted((edge_label[(vmap[p], vmap[w])], label) for label, p, w in kept)
    return Smoothing(target=target, edge_map=tuple(edge_map),
                     contracted=frozenset(contracted))


@lru_cache(maxsize=None)
def shape(t: ExtremalTree) -> tuple:
    """t's shape code and the shape labels of its edges.

    The shape is t with every leaf genus forgotten.  Its code is the
    canonical code with the genera dropped, each vertex the sorted tuple
    of its children's shape codes (a leaf is ()).  The shape's edges are
    labeled breadth-first, each vertex's children sorted stably by shape
    code; relabel[j - 1] is the shape label of t's edge z_j.  Two trees
    of one shape are matched, edge for edge, by their shape labels: the
    match keeps every path and valence.
    """
    codes = [()] * t.n_vertices
    # depth-first ids: every child comes after its parent
    for v in range(t.n_vertices - 1, -1, -1):
        codes[v] = tuple(sorted(codes[w] for w in t.children[v]))
    relabel = [0] * t.n_edges
    queue = [0]
    for v in queue:
        for w in sorted(t.children[v], key=codes.__getitem__):
            queue.append(w)
            relabel[t.edge_label[(v, w)] - 1] = len(queue) - 1
    return codes[0], tuple(relabel)


def mon(t: ExtremalTree, v: int) -> Monomial:
    """Product of edge variables on the root path of leaf v."""
    if v <= 0 or v >= t.n_vertices or t.children[v]:
        raise NotALeaf("vertex %d is not a leaf" % v)
    return tuple(sorted((zvar(i), 1) for i in t.path_labels(v)))


_depth_cache: dict = {}


def depth(t: ExtremalTree) -> int:
    """Length of the longest chain of nontrivial degenerations ending here."""
    got = _depth_cache.get(t.code)
    if got is not None:
        return got
    records = smoothings(t)
    d = 0 if not records else 1 + max(depth(r.target) for r in records)
    _depth_cache[t.code] = d
    return d
