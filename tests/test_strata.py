import json
from fractions import Fraction

import pytest

from conftest import display_normal_form, tree_normal_form
from golden_displays import GENUS4, GENUS5, GENUS6
from helpers import (check_degree_balance, check_vanishing_discipline, expression_equal,
                     parse_audit_text, parse_json, tree_dict)

from torex.excess import all_contributions
from torex.polyring import Poly, lamvar, mono_str, psivar, var_degree, zvar
from torex.strata import (
    StrataExpression,
    Summand,
    TreeTerm,
    _factor_is_rigid,
    _truncation_bound,
    assemble_pullback,
    marking_index,
    serialize,
    stratum_class,
    substitute_stratum,
)
from torex.trees import ExtremalTree, enumerate_trees, tree_json
from torex.verify import WORKED_BRACKETS


def substitute_stratum_reference(c, weight=1):
    """substitute_stratum by Poly arithmetic: the substitutions as sums and
    products of Poly, graded parts by Poly.graded_part, and every expanded
    term placed before the vertex bounds drop any."""
    t = c.tree
    subs = {}
    for u, w in t.edges():
        acc = Poly.zero()
        for vert in (u, w):
            if not _factor_is_rigid(t, vert):
                acc = acc - Poly.var(psivar(marking_index(t, vert, w), vert))
        subs[zvar(t.label[w])] = acc
    total = Poly.const(1)
    for v in t.leaves():
        h = t.genera[v]
        if h >= 2:
            factor = Poly.const(1)
            for j in range(1, h):
                factor = factor + Poly.const((-1) ** j) * Poly.var(lamvar(j, v))
            total = total * factor
    subs.update({("c", i): total.graded_part(i) for i in range(1, max(c.degree, 0) + 1)})
    bounds = [_truncation_bound(t, v) for v in range(t.n_vertices)]
    out = []
    for mono, coeff in c.poly.substitute(subs).sorted_terms():
        runs = [[] for _ in bounds]
        degrees = [0] * len(bounds)
        for var, e in mono:
            v = var[1]
            runs[v].append(((var[0], -1) + var[2:], e))
            degrees[v] += var_degree(var) * e
        if any(d > bound for d, bound in zip(degrees, bounds)):
            continue
        out.append(Summand(coeff=weight * coeff,
                           monos=tuple(mono_str(tuple(run)) for run in runs)))
    return out


def json_obj_reference(s):
    """The object whose json.dumps(..., indent=1) is the JSON format."""
    return {
        "genus": s.genus,
        "terms": [
            {
                "tree": tree_dict(term.tree),
                "aut": term.tree.aut_order,
                "summands": [
                    {"coeff": str(sm.coeff), "vertex_polys": list(sm.monos)}
                    for sm in term.summands
                ],
            }
            for term in s.terms
        ],
    }


def audit_text_reference(s):
    """The admcycles format, written apart from the library's writer."""
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


def assert_serialized_as_reference(expr):
    assert serialize(expr, "json") == json.dumps(json_obj_reference(expr), indent=1).encode()
    assert serialize(expr, "admcycles") == audit_text_reference(expr).encode()


def bracket_set(g, code):
    cont = all_contributions(g)[code]
    return {s.monos: s.coeff for s in substitute_stratum(cont)}


class TestSubstitution:
    def test_g6_first_intersection(self):
        assert bracket_set(6, "(1(0(1)(4)))") == WORKED_BRACKETS[(6, "(1(0(1)(4)))")]

    def test_g5_first_intersection(self):
        assert bracket_set(5, "(1(0(1)(3)))") == WORKED_BRACKETS[(5, "(1(0(1)(3)))")]

    @pytest.mark.parametrize("g,method", [(g, "recursion") for g in range(2, 9)]
                             + [(g, "pixton") for g in range(2, 8)])
    def test_matches_reference(self, g, method):
        for code, cont in sorted(all_contributions(g, method=method).items()):
            for weight in (1, Fraction(1, cont.tree.aut_order)):
                got = substitute_stratum(cont, weight)
                want = substitute_stratum_reference(cont, weight)
                assert got == want, (code, weight)
                assert [type(s.coeff) for s in got] == [type(s.coeff) for s in want]
            assert stratum_class(cont, weight) == tuple(want)

    def test_equal_monomials_share_one_object(self):
        # equal vertex texts share one str within a tree, to save memory
        for cont in all_contributions(6).values():
            monos = [m for s in substitute_stratum(cont) for m in s.monos]
            assert len({id(m) for m in monos}) == len(set(monos)), cont.tree.code

    def test_constant_contribution(self):
        cont = all_contributions(4)["(1(0(1)(2)))"]
        got = substitute_stratum(cont)
        assert len(got) == 1
        assert got[0].coeff == Fraction(-3)
        assert got[0].monos == ("1", "1", "1", "1")

    @pytest.mark.parametrize("g", range(2, 8))
    def test_marking_index_matches_incident_list(self, g):
        def reference(t, v, edge):
            incident = []
            if v != 0:
                incident.append((t.parent[v], v))
            incident.extend((v, w) for w in t.children[v])
            return incident.index(edge) + 1

        for t in enumerate_trees(g, g - 1):
            for u, w in t.edges():
                for v in (u, w):
                    assert marking_index(t, v, w) == reference(t, v, (u, w)), (t.code, v, w)


class TestGoldenDisplays:
    @pytest.mark.parametrize("code", sorted(GENUS4))
    def test_genus4(self, code):
        expr = assemble_pullback(4)
        assert tree_normal_form(expr, code) == display_normal_form(GENUS4[code])

    @pytest.mark.parametrize("code", sorted(GENUS5))
    def test_genus5(self, code):
        expr = assemble_pullback(5)
        assert tree_normal_form(expr, code) == display_normal_form(GENUS5[code])

    @pytest.mark.parametrize("code", sorted(GENUS6))
    def test_genus6(self, code):
        expr = assemble_pullback(6)
        assert tree_normal_form(expr, code) == display_normal_form(GENUS6[code])

    def test_displays_are_complete(self):
        assert set(GENUS4) == {t.code for t in in_trees(4)}
        assert set(GENUS5) == {t.code for t in in_trees(5)}
        assert set(GENUS6) == {t.code for t in in_trees(6)}


def in_trees(g):
    return [term.tree for term in assemble_pullback(g).terms]


class TestInvariants:
    @pytest.mark.parametrize("g", (4, 5, 6))
    def test_degree_balance(self, g):
        assert check_degree_balance(assemble_pullback(g))

    @pytest.mark.parametrize("g", (4, 5, 6))
    def test_vanishing_discipline(self, g):
        assert check_vanishing_discipline(assemble_pullback(g))

    def test_weights_divide_aut(self):
        for term in assemble_pullback(6).terms:
            for sm in term.summands:
                assert (sm.coeff * term.tree.aut_order).denominator == 1


class TestSerialization:
    @pytest.mark.parametrize("g", range(2, 8))
    def test_json_roundtrip(self, g):
        expr = assemble_pullback(g)
        again = parse_json(serialize(expr, "json"))
        assert again.genus == g
        assert expression_equal(expr, again)
        assert again == expr

    @pytest.mark.parametrize("g", range(2, 8))
    def test_audit_text_roundtrip(self, g):
        expr = assemble_pullback(g)
        assert parse_audit_text(serialize(expr, "admcycles")) == expr

    @pytest.mark.parametrize("g", range(2, 9))
    def test_matches_reference_encoders(self, g):
        expr = assemble_pullback(g)
        assert_serialized_as_reference(expr)
        # parsed back, equal vertex texts are separate objects
        assert_serialized_as_reference(parse_json(serialize(expr, "json")))

    def test_edge_cases_match_reference_encoders(self):
        assert_serialized_as_reference(StrataExpression(genus=5, terms=()))
        tree = assemble_pullback(4).terms[0].tree
        empty = StrataExpression(genus=4, terms=(TreeTerm(tree=tree, summands=()),))
        assert_serialized_as_reference(empty)
        assert "  class: 0\n" in serialize(empty, "admcycles").decode()
        assert json.loads(serialize(empty, "json"))["terms"][0]["summands"] == []
        for expr in (StrataExpression(genus=5, terms=()), empty):
            assert parse_audit_text(serialize(expr, "admcycles")) == expr
            assert parse_json(serialize(expr, "json")) == expr

    def test_empty_expression(self):
        data = serialize(StrataExpression(genus=5, terms=()), "json")
        assert json.loads(data) == {"genus": 5, "terms": []}
        again = parse_json(data)
        assert again.genus == 5 and again.terms == ()

    def test_g5_block_count(self):
        data = serialize(assemble_pullback(5), "json")
        obj = json.loads(data)
        assert len(obj["terms"]) == 10

    def test_audit_text_mentions_every_stratum(self):
        text = serialize(assemble_pullback(4), "admcycles").decode()
        for term in assemble_pullback(4).terms:
            assert term.tree.code in text

    @pytest.mark.parametrize("g", (4, 5, 6, 7))
    def test_methods_byte_identical(self, g):
        a = serialize(assemble_pullback(g, method="recursion"), "json")
        b = serialize(assemble_pullback(g, method="pixton"), "json")
        assert a == b


class TestTreeJson:
    """The tree writer at a term's nesting level against json.dumps,
    re-indented the way a term holds it."""

    @staticmethod
    def reference(t):
        return json.dumps(tree_dict(t), indent=1).replace("\n", "\n   ")

    @pytest.mark.parametrize("g", range(2, 9))
    def test_matches_json_dumps(self, g):
        for t in enumerate_trees(g, g - 1):
            assert tree_json(t, 3) == self.reference(t), t.code

    def test_deeply_nested_code(self):
        t = ExtremalTree.from_code("(1" + "(0" * 200 + "(1)(1)" + ")(1)" * 200 + ")")
        assert t.n_edges == 402
        assert tree_json(t, 3) == self.reference(t)
