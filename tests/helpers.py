"""Test-only references: a star tree, a brute-force automorphism count,
a tree's JSON object, the invariants and equality of an assembled strata
expression, and readers of `pullback`'s JSON and audit text."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import permutations

from conftest import vertex_mono

from torex.polyring import mono_degree
from torex.strata import StrataExpression, Summand, TreeTerm, _factor_is_rigid
from torex.trees import ExtremalTree


def star(leaf_genera) -> ExtremalTree:
    """The tree with every leaf, of the given genera, on the root."""
    kids = tuple(sorted((g, ()) for g in leaf_genera))
    return ExtremalTree((1, kids))


def aut_order_brute(t: ExtremalTree) -> int:
    """Automorphism order by explicit permutation search (small trees)."""
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


def tree_dict(t: ExtremalTree) -> dict:
    """The object whose json.dumps(..., indent=1) is a tree's JSON."""
    return {
        "genus": t.genus,
        "root": 0,
        "vertices": [{"id": v, "genus": t.genera[v]} for v in range(t.n_vertices)],
        "edges": [[u, w] for (u, w) in t.edges()],
        "aut": t.aut_order,
        "code": t.code,
    }


def check_degree_balance(s: StrataExpression) -> bool:
    """Tree codimension plus decoration degree equals g - 1 everywhere."""
    for term in s.terms:
        n = term.tree.n_edges
        for sm in term.summands:
            deco = sum(mono_degree(vertex_mono(m)) for m in sm.monos)
            if n + deco != s.genus - 1:
                return False
    return True


def check_vanishing_discipline(s: StrataExpression) -> bool:
    """No lambda on the root, genus-0, or genus-1 vertices; nothing at
    all on rigid factors."""
    for term in s.terms:
        t = term.tree
        for sm in term.summands:
            for v, text in enumerate(sm.monos):
                mono = vertex_mono(text)
                for var, _ in mono:
                    if var[0] == "lam" and t.genera[v] <= 1:
                        return False
                    if _factor_is_rigid(t, v) and mono:
                        return False
    return True


def expression_equal(a: StrataExpression, b: StrataExpression) -> bool:
    return a.genus == b.genus and _normal_form(a) == _normal_form(b)


def _normal_form(s: StrataExpression) -> dict:
    out: dict = {}
    for term in s.terms:
        for sm in term.summands:
            key = (term.tree.code, tuple(map(vertex_mono, sm.monos)))
            out[key] = out.get(key, Fraction(0)) + sm.coeff
    return {k: v for k, v in out.items() if v}


def parse_json(data: bytes) -> StrataExpression:
    """The expression that `serialize(..., "json")` wrote as data, each
    vertex text kept as read."""
    obj = json.loads(data.decode("utf-8"))
    terms = []
    for entry in obj["terms"]:
        tree = ExtremalTree.from_code(entry["tree"]["code"])
        summands = tuple(
            Summand(coeff=Fraction(sm["coeff"]),
                    monos=tuple(sm["vertex_polys"]))
            for sm in entry["summands"]
        )
        terms.append(TreeTerm(tree=tree, summands=summands))
    return StrataExpression(genus=obj["genus"], terms=tuple(terms))


def parse_audit_text(data: bytes) -> StrataExpression:
    """The expression that `serialize(..., "admcycles")` wrote as data:
    a header, then per stratum its code and |Aut|, its vertex and edge
    lines, and either `class: 0` or one `coeff * [t0, t1, ...]` line per
    summand."""
    lines = data.decode("utf-8").split("\n")
    if lines.pop() != "":
        raise ValueError("no final newline")
    genus, n_strata = re.fullmatch(r"genus (\d+), (\d+) strata", lines[0]).groups()
    blocks: list = []  # [tree, summands]
    for line in lines[1:]:
        if line.startswith("stratum "):
            code, aut = re.fullmatch(r"stratum (\S+)  aut=(\d+)", line).groups()
            tree = ExtremalTree.from_code(code)
            if tree.aut_order != int(aut):
                raise ValueError("aut=%s for %s" % (aut, code))
            blocks.append((tree, []))
        elif line.startswith(("  vertices: ", "  edges: ")) or line == "  class: 0":
            continue
        else:
            coeff, texts = re.fullmatch(r"  (\S+) \* \[(.*)\]", line).groups()
            blocks[-1][1].append(Summand(coeff=Fraction(coeff),
                                         monos=tuple(texts.split(", "))))
    if len(blocks) != int(n_strata):
        raise ValueError("%d strata, header says %s" % (len(blocks), n_strata))
    return StrataExpression(genus=int(genus), terms=tuple(
        TreeTerm(tree=tree, summands=tuple(summands)) for tree, summands in blocks))
