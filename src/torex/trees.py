"""Rooted genus-labeled trees indexing product-locus strata.

An extremal tree has a genus-1 root, genus-0 internal vertices of
valence >= 3, and leaves of positive genus.  Vertices of the canonical
form are numbered in depth-first order with children sorted by
canonical code.  Each edge is named by the vertex w below it and
carries the 1-based label label[w], assigned in breadth-first order
(these are the z-variable indices used everywhere downstream).

`tree_json` is the one writer of a tree's JSON: `trees --format json`
and every term of `pullback --format json` print their trees by it,
laying out its arrays by `torex.json_list` and its objects by
`torex.json_object`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import TorexError, json_list, json_object


Code = tuple  # nested (genus, (child codes...)) structure

# the deepest code parse_code reads, in vertices on a root-to-leaf path:
# a tree of genus g has at most g, and parse_code, one frame a level,
# reads 256 well inside the default recursion limit; it checks the bound
# before the nested tuple is hashed or compared, which recurses in C
MAX_LEVELS = 256


def parse_code(s: str) -> Code:
    """Parse the printable canonical code back into its nested form; a
    code nested deeper than MAX_LEVELS is refused."""
    pos = 0

    def node(level: int) -> Code:
        nonlocal pos
        if pos >= len(s) or s[pos] != "(":
            raise TorexError("expected '(' at %d in %r" % (pos, s))
        if level > MAX_LEVELS:
            raise TorexError("tree code nested deeper than %d levels at %d"
                             % (MAX_LEVELS, pos))
        pos += 1
        start = pos
        while pos < len(s) and (s[pos].isdigit() or s[pos] == "-"):
            pos += 1
        try:
            g = int(s[start:pos])
        except ValueError:
            raise TorexError("expected genus at %d in %r" % (start, s)) from None
        kids = []
        while pos < len(s) and s[pos] == "(":
            kids.append(node(level + 1))
        if pos >= len(s) or s[pos] != ")":
            raise TorexError("expected ')' at %d in %r" % (pos, s))
        pos += 1
        return (g, tuple(kids))

    out = node(1)
    if pos != len(s):
        raise TorexError("trailing input at %d in %r" % (pos, s))
    return out


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
    label : tuple, label[w] is the 1-based z index of the edge above
        vertex w (label[0] = 0 for the root)
    code : printable canonical form
    aut_order : order of the root- and genus-preserving automorphism group
    """

    __slots__ = ("genera", "parent", "children", "label", "code", "aut_order")

    def __init__(self, code: Code):
        genera, parent, children = [], [], []
        aut = 1
        text = []
        # one pre-order walk checks, records and prints each vertex: it is
        # checked before its children's order and they after it.  The walk
        # keeps its own stack, of (node, parent) pairs and a None where a
        # ")" closes, so MAX_LEVELS alone bounds a code's depth
        stack = [(code, None)]
        while stack:
            item = stack.pop()
            if item is None:
                text.append(")")
                continue
            (g, kids), up = item
            if up is None:
                if g != 1:
                    raise TorexError("root genus must be 1, got %d" % g)
                if not kids:
                    raise TorexError("root must have at least one child")
            elif not kids:
                if g < 1:
                    raise TorexError("leaf genus must be positive")
            elif g != 0:
                raise TorexError("internal vertex genus must be 0")
            elif len(kids) < 2:
                raise TorexError("internal vertex valence must be >= 3")
            # children in canonical order; a run of r equal children
            # multiplies aut by 2 * 3 * ... * r
            run = 1
            for a, b in zip(kids, kids[1:]):
                if a > b:
                    raise TorexError("children not in canonical order")
                run = run + 1 if a == b else 1
                aut *= run
            v = len(genera)
            genera.append(g)
            parent.append(up)
            children.append([])
            if up is not None:
                children[up].append(v)
            text.append("(%d" % g)
            stack.append(None)
            stack.extend((k, v) for k in reversed(kids))
        self.code = "".join(text)
        self.aut_order = aut
        self.genera = tuple(genera)
        self.parent = tuple(parent)
        self.children = tuple(tuple(c) for c in children)
        # breadth-first edge labels
        label = [0] * len(genera)
        queue = [0]
        for v in queue:
            for w in self.children[v]:
                label[w] = len(queue)
                queue.append(w)
        self.label = tuple(label)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_code(s: str) -> "ExtremalTree":
        """The tree whose canonical code is s; raises TorexError for any
        other text, a non-canonical spelling of a tree included."""
        t = _tree(parse_code(s))
        if t.code != s:
            raise TorexError("%r is not canonical: the tree's code is %s" % (s, t.code))
        return t

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
        return [(self.parent[w], w)
                for w in sorted(range(1, self.n_vertices), key=self.label.__getitem__)]

    def path_labels(self, v: int) -> list:
        """z labels on the minimal path from vertex v up to the root."""
        out = []
        while self.parent[v] is not None:
            out.append(self.label[v])
            v = self.parent[v]
        return sorted(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtremalTree) and self.code == other.code

    def __hash__(self):
        return hash(self.code)

    def __repr__(self):
        return "ExtremalTree(%s)" % self.code


@lru_cache(maxsize=None)
def _tree_templates(level: int) -> tuple:
    """tree_json's templates for a tree standing level deep: a vertex, an
    edge and the tree."""
    return (json_object([("id", "%d"), ("genus", "%d")], level + 2),
            json_list(["%d", "%d"], level + 2),
            # a code is digits, signs and brackets: nothing to escape
            json_object([("genus", "%d"), ("root", "0"), ("vertices", "%s"), ("edges", "%s"),
                         ("aut", "%d"), ("code", '"%s"')], level))


def tree_json(t: ExtremalTree, level: int) -> str:
    """The text json.dumps(obj, indent=1) gives for the tree's object

        {"genus": g, "root": 0, "vertices": [{"id": v, "genus": g_v}, ...],
         "edges": [[u, w], ...] in label order, "aut": |Aut|, "code": code}

    standing level deep in a document.  `trees` and `pullback` print
    every tree by it: json.dumps runs its pure-Python encoder."""
    vertex, edge, tree = _tree_templates(level)
    return tree % (t.genus, json_list([vertex % vg for vg in enumerate(t.genera)], level + 1),
                   json_list([edge % uw for uw in t.edges()], level + 1), t.aut_order, t.code)


def _canonical_order(children, node) -> tuple:
    """The canonical code of a rooted tree and its edges in label order.

    children[v] lists v's children, vertex 0 is the root, and every
    vertex comes after its parent (depth-first ids do), so one reverse
    sweep finds every code bottom-up.  node(v, kids) is v's code from its
    children's codes in sorted order.  Each vertex's children are sorted
    stably by code, so children with equal codes, which are
    interchangeable, keep their given order.  Returns (code, order):
    edges labeled breadth-first along the sorted children, order[i] is
    the vertex below the edge labeled i (order[0] is the root).
    """
    codes = [None] * len(children)
    ordered = [None] * len(children)
    for v in range(len(children) - 1, -1, -1):
        kids = sorted(children[v], key=codes.__getitem__)
        ordered[v] = kids
        codes[v] = node(v, tuple(codes[w] for w in kids))
    order = [0]
    for v in order:
        order.extend(ordered[v])
    return codes[0], order


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
        raise TorexError("genus must be >= 2")
    if max_edges < 1:
        raise TorexError("max_edges must be >= 1")
    return {(1, tuple(sorted(kids)))
            for kids in _child_multisets(g - 1, max_edges, 1)}


def trees_by_code(g: int, max_edges: int) -> dict:
    """All isomorphism classes of extremal trees of genus g with at most
    max_edges edges, keyed by code in canonical-code order; a fresh dict
    on each call."""
    trees = sorted((_tree(c) for c in _root_codes(g, max_edges)), key=lambda t: t.code)
    return {t.code: t for t in trees}


def enumerate_trees(g: int, max_edges: int) -> list:
    """The trees of trees_by_code(g, max_edges), in canonical-code order."""
    return list(trees_by_code(g, max_edges).values())


# ---------------------------------------------------------------------------
# smoothings / degenerations
# ---------------------------------------------------------------------------


class Smoothing(namedtuple("Smoothing", "target edge_map")):
    """A tree T' this tree degenerates from, with its edge correspondence.

    target is T', an ExtremalTree.  edge_map[j - 1] is the z label, in the
    degenerate tree, of the (non-contracted) edge that is the target's
    z_j; the labels not in edge_map are those of the edges collapsed
    inside parts.
    """

    __slots__ = ()


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

    Records are sorted by target code, then by the sorted labels of the
    contracted edges, those not in the edge map.
    """
    out = [_smoothing(t, cut) for cut in _contractions(t, 0) if cut]
    labels = range(1, t.n_edges + 1)
    out.sort(key=lambda s: (s.target.code, [j for j in labels if j not in s.edge_map]))
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
    # the edge above u comes before every edge below u; each part's
    # children are listed in label order, which children of equal code
    # keep, and the edge map with them
    part = list(range(t.n_vertices))
    genus = list(t.genera)
    children = [[] for _ in genus]
    for u, w in t.edges():
        if w in cut:
            part[w] = part[u]
            genus[part[u]] += t.genera[w]
        else:
            children[part[u]].append(w)
    # a contracted vertex gets a code too, which nothing reads
    code, order = _canonical_order(children, lambda v, kids: (genus[v], kids))
    try:
        target = _tree(code)
    except TorexError as err:
        raise TorexError("contracting edges %s of %s leaves no extremal tree: %s"
                         % (sorted(t.label[w] for w in cut), t.code, err)) from None
    return Smoothing(target=target, edge_map=tuple(t.label[w] for w in order[1:]))


@lru_cache(maxsize=None)
def shape(t: ExtremalTree) -> tuple:
    """t's shape code and t's labels of the shape's edges.

    The shape is t with every leaf genus forgotten.  Its code is the
    canonical code with the genera dropped, each vertex the sorted tuple
    of its children's shape codes (a leaf is ()).  The shape's edges are
    labeled breadth-first, each vertex's children sorted stably by shape
    code; labels[i - 1] is t's label of the shape's edge i.  Two trees
    of one shape are matched, edge for edge, by their shape labels: the
    match keeps every path and valence.
    """
    code, order = _canonical_order(t.children, lambda v, kids: kids)
    return code, tuple(t.label[w] for w in order[1:])


@lru_cache(maxsize=None)
def depth(t: ExtremalTree) -> int:
    """Length of the longest chain of nontrivial degenerations ending here."""
    records = smoothings(t)
    return 0 if not records else 1 + max(depth(r.target) for r in records)
