import json
from fractions import Fraction

import pytest

from conftest import display_normal_form, tree_normal_form
from golden_displays import GENUS4, GENUS5, GENUS6

from torex.excess import all_contributions
from torex.strata import (
    StrataExpression,
    assemble_pullback,
    check_degree_balance,
    check_vanishing_discipline,
    expression_equal,
    parse_json,
    serialize,
    substitute_stratum,
)
from torex.verify import WORKED_BRACKETS


def bracket_set(g, code):
    cont = all_contributions(g)[code]
    return {tuple(s.render()): s.coeff for s in substitute_stratum(cont)}


class TestSubstitution:
    def test_g6_first_intersection(self):
        assert bracket_set(6, "(1(0(1)(4)))") == WORKED_BRACKETS[(6, "(1(0(1)(4)))")]

    def test_g5_first_intersection(self):
        assert bracket_set(5, "(1(0(1)(3)))") == WORKED_BRACKETS[(5, "(1(0(1)(3)))")]

    def test_constant_contribution(self):
        cont = all_contributions(4)["(1(0(1)(2)))"]
        got = substitute_stratum(cont)
        assert len(got) == 1
        assert got[0].coeff == Fraction(-3)
        assert got[0].render() == ["1", "1", "1", "1"]


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
        text = serialize(assemble_pullback(4), "admcycles-text").decode()
        for term in assemble_pullback(4).terms:
            assert term.tree.code in text

    @pytest.mark.parametrize("g", (4, 5, 6, 7))
    def test_methods_byte_identical(self, g):
        a = serialize(assemble_pullback(g, method="recursion"), "json")
        b = serialize(assemble_pullback(g, method="pixton"), "json")
        assert a == b
