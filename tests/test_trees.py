import json
import random
from itertools import combinations

import pytest

from torex import TorexError
from torex import trees as trees_module
from torex.trees import (
    ExtremalTree,
    _canonical_order,
    depth,
    enumerate_trees,
    parse_code,
    smoothings,
    tree_json,
    trees_by_code,
)
from torex.cli import main
from torex.verify import DEPTHS, G6_IRREDUCIBLE_AUT_WEIGHTS, SMOOTHING_COUNTS, TREE_INVENTORY

from helpers import aut_order_brute, star, tree_dict


def partitions_count(n):
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


class TestEnumeration:
    @pytest.mark.parametrize(
        "g,max_edges,count", [(g, m, n) for (g, m), n in TREE_INVENTORY.items()]
    )
    def test_inventory_counts(self, g, max_edges, count):
        trees = enumerate_trees(g, max_edges)
        assert len(trees) == count
        assert [t.code for t in trees] == sorted(t.code for t in trees)
        assert all(t.genus == g and t.n_edges <= max_edges for t in trees)

    def test_each_class_once(self):
        codes = [t.code for t in enumerate_trees(6, 5)]
        assert len(codes) == len(set(codes))

    @pytest.mark.parametrize("g,max_edges", [(2, 1), (5, 2), (6, 5), (8, 7)])
    def test_codes_without_trees(self, g, max_edges):
        # keyed by code, in the enumeration's order, a fresh dict each call
        by_code = trees_by_code(g, max_edges)
        assert list(by_code.items()) == [(t.code, t) for t in enumerate_trees(g, max_edges)]
        by_code.clear()
        assert trees_by_code(g, max_edges)

    @pytest.mark.parametrize("g", range(2, 9))
    def test_contributing_trees_are_those_of_few_edges(self, g):
        # a tree of genus g contributes exactly when it has at most g - 1 edges
        contributing = trees_by_code(g, g - 1)
        for t in enumerate_trees(g, 2 * g - 3):
            assert (t.n_edges <= g - 1) == (t.code in contributing), t.code

    @pytest.mark.parametrize("g", range(2, 9))
    def test_irreducible_count_is_partitions(self, g):
        trees = enumerate_trees(g, g - 1)
        irr = [t for t in trees if t.is_irreducible()]
        assert len(irr) == partitions_count(g - 1)

    def test_validation(self):
        with pytest.raises(TorexError, match="root genus must be 1, got 2"):
            ExtremalTree.from_code("(2(1))")
        with pytest.raises(TorexError, match="valence must be >= 3"):
            ExtremalTree.from_code("(1(0(1)))")
        with pytest.raises(TorexError, match="leaf genus must be positive"):
            ExtremalTree.from_code("(1(0(0)(1)))")
        with pytest.raises(TorexError, match="expected genus at 3"):
            ExtremalTree.from_code("(1(-))")  # sign without digits

    @pytest.mark.parametrize("text,reason", [
        ("(2)", "root genus must be 1, got 2"),
        ("(1)", "root must have at least one child"),
        ("(1(-1)(1))", "leaf genus must be positive"),
        ("(1(1(1)(1)))", "internal vertex genus must be 0"),
        ("(1(0(1)))", "internal vertex valence must be >= 3"),
        ("(1(0(2)(1)))", "children not in canonical order"),
        # two faults: the first met in pre-order is the one raised, a
        # vertex's own before its children's order before its children
        ("(2(0))", "root genus must be 1, got 2"),
        ("(1(1(2)(1)))", "internal vertex genus must be 0"),
        ("(1(0(2)(0)))", "children not in canonical order"),
        ("(1(1(1))(0))", "children not in canonical order"),
        ("(1(0(0)(1))(1))", "leaf genus must be positive"),
        # a fault deep in the first child before one in the second
        ("(1(0(0(1))(1))(1(1)(1)))", "internal vertex valence must be >= 3"),
    ])
    def test_validation_order(self, capsys, text, reason):
        with pytest.raises(TorexError) as exc:
            ExtremalTree.from_code(text)
        assert str(exc.value) == reason
        with pytest.raises(SystemExit) as exc:
            main(["contribution", "--genus", "4", "--tree", text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --tree: malformed tree code: %s\n" % reason)

    @pytest.mark.parametrize("text", ["(1(01))", "(1(\uff12))", "(1(0(1)(1)(02)))"])
    def test_rejects_non_canonical_spelling(self, text):
        # each parses to a valid tree, whose code is not the text given
        assert ExtremalTree(parse_code(text)).code != text
        with pytest.raises(TorexError, match="not canonical"):
            ExtremalTree.from_code(text)


class TestAutomorphisms:
    def test_known_orders(self):
        assert star([1, 1, 1, 1]).aut_order == 24
        assert star([1, 1, 1, 1, 1]).aut_order == 120
        assert ExtremalTree.from_code("(1(4))").aut_order == 1

    def test_genus6_weight_list(self):
        irr = [t for t in enumerate_trees(6, 5) if t.is_irreducible()]
        assert sorted(t.aut_order for t in irr) == G6_IRREDUCIBLE_AUT_WEIGHTS

    def test_brute_force_agreement(self):
        for g in range(2, 7):
            for t in enumerate_trees(g, g - 1):
                if t.n_vertices <= 8:
                    assert t.aut_order == aut_order_brute(t), t.code


class TestCanonicalCode:
    @pytest.mark.parametrize("g", range(2, 8))
    def test_canonical_order(self, g):
        # shuffling each vertex's children keeps the code; on the canonical
        # children the order is t's own breadth-first labeling
        rng = random.Random(42 + g)

        def node(v, kids):
            return (t.genera[v], kids)

        for t in enumerate_trees(g, g - 1):
            for _ in range(5):
                shuffled = [rng.sample(kids, len(kids)) for kids in t.children]
                code, _ = _canonical_order(shuffled, node)
                assert code == parse_code(t.code), t.code
            code, order = _canonical_order(t.children, node)
            assert code == parse_code(t.code), t.code
            assert sorted(order) == list(range(t.n_vertices)), t.code
            assert all(t.label[w] == i for i, w in enumerate(order)), t.code

    def test_parse_roundtrip(self):
        for t in enumerate_trees(5, 4):
            assert ExtremalTree.from_code(t.code).code == t.code

    def test_parse_rejects_garbage(self):
        for bad, reason in [("", r"expected '\(' at 0"), ("(1", r"expected '\)' at 2"),
                            ("1)", r"expected '\(' at 0"), ("(1)x", "trailing input at 3"),
                            ("(x)", "expected genus at 1")]:
            with pytest.raises(TorexError, match=reason):
                parse_code(bad)


def reference_canonicalize(genera, edges, root):
    """Two-pass canonical form: codes first, then the vertex map by a
    second descent that recomputes each child's code."""
    adj = {v: [] for v in genera}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)

    def code_of(v, par):
        return (genera[v], tuple(sorted(code_of(w, v) for w in adj[v] if w != par)))

    vertex_map = {}

    def assign(v, par):
        vertex_map[v] = len(vertex_map)
        kids = [(code_of(w, v), w) for w in adj[v] if w != par]
        kids.sort(key=lambda kw: kw[0])
        for _, w in kids:
            assign(w, v)

    assign(root, None)
    return code_of(root, None), vertex_map


def reference_smoothings(t):
    """Brute-force smoothings: try every nonempty subset of edges, keep
    the contractions whose quotient is an extremal tree, and record them
    as (target code, edge_map, contracted labels) in the order of
    smoothings()."""
    edge_list = t.edges()  # label order, label = index + 1
    out = []
    for r in range(1, len(edge_list) + 1):
        for subset in combinations(range(len(edge_list)), r):
            rec = _reference_contract(t, edge_list, set(subset))
            if rec is not None:
                out.append(rec)
    out.sort(key=lambda rec: (rec[0], sorted(rec[2])))
    return out


def _reference_contract(t, edge_list, contracted_idx):
    parent = list(range(t.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in contracted_idx:
        u, w = edge_list[i]
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
    part_of = [find(v) for v in range(t.n_vertices)]
    genus = {p: 0 for p in part_of}
    for v in range(t.n_vertices):
        genus[part_of[v]] += t.genera[v]
    quotient_edges = [(part_of[u], part_of[w]) for i, (u, w) in enumerate(edge_list)
                      if i not in contracted_idx]
    root_part = part_of[0]
    if genus[root_part] != 1:
        return None
    valence = {p: 0 for p in genus}
    for u, w in quotient_edges:
        valence[u] += 1
        valence[w] += 1
    for p in genus:
        if p == root_part:
            continue
        if valence[p] == 1:
            if genus[p] < 1:
                return None
        elif genus[p] != 0 or valence[p] < 3:
            return None
    code, vmap = reference_canonicalize(genus, quotient_edges, root_part)
    target = ExtremalTree(code)
    edge_map = []
    for i, (u, w) in enumerate(edge_list):
        if i in contracted_idx:
            continue
        cu, cw = vmap[part_of[u]], vmap[part_of[w]]
        below = cw if target.parent[cw] == cu else cu
        edge_map.append((target.label[below], i + 1))
    return (target.code, tuple(src for _, src in sorted(edge_map)),
            frozenset(i + 1 for i in contracted_idx))


class TestSmoothings:
    @pytest.mark.parametrize("g", range(2, 9))
    def test_matches_all_subsets_reference(self, g):
        for t in enumerate_trees(g, g - 1):
            edges = frozenset(range(1, t.n_edges + 1))
            got = [(r.target.code, r.edge_map, edges.difference(r.edge_map))
                   for r in smoothings(t)]
            assert got == reference_smoothings(t), t.code

    def test_totals(self):
        totals = [sum(len(smoothings(t)) for t in enumerate_trees(g, g - 1))
                  for g in range(5, 9)]
        assert totals == [10, 50, 216, 928]

    def test_invalid_contraction_raises(self):
        # contracting the edge above the genus-1 leaf leaves a genus-1
        # vertex of valence 2
        t = ExtremalTree.from_code("(1(0(1)(2)))")
        leaf = next(v for v in t.leaves() if t.genera[v] == 1)
        with pytest.raises(TorexError, match="leaves no extremal tree"):
            trees_module._smoothing(t, [leaf])

    def test_targets_built_once_per_code(self):
        t = ExtremalTree.from_code("(1(0(0(1)(1))(3)))")
        first = {r.target.code: r.target for r in smoothings(t)}
        again = {r.target.code: r.target for r in smoothings(t)}
        assert all(first[code] is again[code] for code in first)

    def test_targets_are_the_enumerated_trees(self):
        # one ExtremalTree per canonical code: enumeration, parsing and
        # smoothing hand out the same object
        trees = {t.code: t for t in enumerate_trees(6, 5)}
        for t in trees.values():
            assert ExtremalTree.from_code(t.code) is t
            for r in smoothings(t):
                assert r.target is trees[r.target.code], (t.code, r.target.code)

    def test_depth_one_pair(self):
        t = ExtremalTree.from_code("(1(0(1)(2)))")
        records = smoothings(t)
        targets = sorted(r.target.code for r in records)
        assert targets == ["(1(1)(2))", "(1(3))"]

    def test_irreducible_has_none(self):
        for code in ["(1(1)(2))", "(1(4))", "(1(1)(1)(1))"]:
            assert smoothings(ExtremalTree.from_code(code)) == []

    def test_deep_tree_has_six(self):
        t = ExtremalTree.from_code("(1(0(0(1)(1))(3)))")
        records = smoothings(t)
        assert len(records) == SMOOTHING_COUNTS[t.code]
        assert sorted(r.target.code for r in records) == [
            "(1(0(1)(1)(3)))",
            "(1(0(1)(1))(3))",
            "(1(0(2)(3)))",
            "(1(1)(1)(3))",
            "(1(2)(3))",
            "(1(5))",
        ]

    def test_strict_partial_order(self):
        for t in enumerate_trees(6, 5):
            for rec in smoothings(t):
                assert rec.target.n_edges < t.n_edges
                assert rec.target.genus == t.genus

    def test_edge_maps_are_injective(self):
        for t in enumerate_trees(6, 5):
            for rec in smoothings(t):
                sources = rec.edge_map
                assert len(sources) == len(set(sources))
                assert len(sources) == rec.target.n_edges
                assert set(sources) <= set(range(1, t.n_edges + 1))


class TestDepth:
    def test_known_depths(self):
        for code, d in DEPTHS.items():
            assert depth(ExtremalTree.from_code(code)) == d, code

    def test_matches_longest_chain_oracle(self):
        # brute-force longest degeneration chain over the whole poset
        trees = enumerate_trees(6, 5)
        preds = {
            t.code: {r.target.code for r in smoothings(t)} for t in trees
        }
        longest = {}

        def chain(code):
            if code not in longest:
                below = preds[code]
                longest[code] = 0 if not below else 1 + max(chain(b) for b in below)
            return longest[code]
        for t in trees:
            assert depth(t) == chain(t.code), t.code

    def test_no_placeholder_while_computing(self, monkeypatch):
        # a concurrent reader must never see a value for a tree whose
        # depth is still being computed: whenever a tree's smoothings are
        # listed, the memo holds exactly the trees whose depth has returned
        depth.cache_clear()
        returned = set()
        seen = []

        def traced(t):
            try:
                return depth(t)
            finally:
                returned.add(t.code)

        def checked(t):
            assert t.code not in returned
            assert depth.cache_info().currsize == len(returned)
            seen.append(t.code)
            return smoothings(t)

        monkeypatch.setattr(trees_module, "depth", traced)
        monkeypatch.setattr(trees_module, "smoothings", checked)
        for t in enumerate_trees(6, 5):
            traced(t)
        assert len(seen) == len(set(seen)) == 24
        assert depth.cache_info().currsize == 24


class TestJson:
    def test_schema_fields(self):
        t = ExtremalTree.from_code("(1(0(1)(2)))")
        data = json.loads(tree_json(t, 0))
        assert data == tree_dict(t)
        assert data["genus"] == 4
        assert data["root"] == 0
        assert {v["id"] for v in data["vertices"]} == set(range(4))
        assert sorted(data["edges"]) == [[0, 1], [1, 2], [1, 3]]
        assert data["aut"] == 1
        assert data["code"] == t.code
