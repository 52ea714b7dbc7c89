"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest -s tests/test_acceptance.py` to see them)."""

from math import comb

import pytest

from conftest import display_normal_form, tree_normal_form
from golden_displays import GENUS4, GENUS5, GENUS6
from helpers import check_degree_balance, check_vanishing_discipline, expression_equal, parse_json

from torex import agring, constants, products, strata, verify
from torex.excess import all_contributions
from torex.trees import enumerate_trees


def report(number, title, ok):
    print("criterion %d (%s): %s" % (number, title, "PASS" if ok else "FAIL"))
    assert ok


def test_criterion_1_tree_inventories():
    ok = all(
        len(enumerate_trees(g, max_edges)) == want
        for (g, max_edges), want in verify.TREE_INVENTORY.items()
    )
    irr6 = [t for t in enumerate_trees(6, 5) if t.is_irreducible()]
    ok = ok and sorted(t.aut_order for t in irr6) == verify.G6_IRREDUCIBLE_AUT_WEIGHTS
    mixed6 = sorted(
        t.aut_order for t in enumerate_trees(6, 5) if not t.is_irreducible()
    )
    ok = ok and mixed6 == sorted([1, 1, 2, 2, 1, 2, 2, 1, 6, 2, 6, 2, 2, 1, 2, 2, 1])
    report(1, "tree inventories", ok)


def test_criterion_2_worked_contributions():
    ok = all(
        all_contributions(g)[code].poly == want
        for g, code, want in verify.WORKED_CONTRIBUTIONS
    )
    report(2, "worked contributions, exact", ok)


def test_criterion_3_oracle_equivalence():
    ok = True
    total = 0
    for g in range(2, 8):
        rec = all_contributions(g, "recursion")
        pix = all_contributions(g, "pixton")
        ok = ok and set(rec) == set(pix)
        ok = ok and all(rec[k].poly == pix[k].poly for k in rec)
        total += len(rec)
    ok = ok and total >= 100
    report(3, "recursion = closed formula, g <= 7, %d trees" % total, ok)


def test_criterion_4_strata_golden():
    ok = True
    for g, golden in ((4, GENUS4), (5, GENUS5)):
        expr = strata.assemble_pullback(g)
        ok = ok and {t.tree.code for t in expr.terms} == set(golden)
        for code, brackets in golden.items():
            ok = ok and tree_normal_form(expr, code) == display_normal_form(brackets)
    expr6 = strata.assemble_pullback(6)
    for code in ("(1(0(1)(4)))", "(1(0(2)(3)))", "(1(0(1)(1)(3)))"):
        ok = ok and tree_normal_form(expr6, code) == display_normal_form(GENUS6[code])
    report(4, "strata golden displays g=4,5 and g=6 substitutions", ok)


def test_criterion_5_constants():
    ok = (
        all(
            constants.product_coefficient(g) == want
            for g, want in verify.PROJECTION_COEFFICIENTS.items()
        )
        and constants.coefficient_discrepancy(6) == constants.PRINTED_G6_VARIANT
        and constants.hodge_constants(1).tail_integral == verify.G1_TAIL_INTEGRAL
        and constants.series_identity_check(20)
    )
    report(5, "projection coefficients and series identity", ok)


def test_criterion_6_ring_structure():
    ok = True
    for g in range(2, 9):
        D = agring.socle_degree(g)
        dims = [agring.graded_dimension(g, d) for d in range(D + 1)]
        ok = ok and sum(dims) == 2 ** (g - 1)
        ok = ok and dims[D] == 1
        ok = ok and agring.basis_subsets(g, D) == [tuple(range(1, g))]
        ok = ok and all(agring.pairing_is_perfect(g, d) for d in range(D + 1))
    report(6, "lambda ring: dimension, socle, perfect pairings, g <= 8", ok)


def test_criterion_7_virtual_classes():
    ok = True
    gen = agring.socle_generator
    for g in range(2, 9):
        ok = ok and agring.schur_wedge2(g) == gen(g)
        for k in range(1, g):
            left, right = agring.virtual_class_product(g, k)
            ok = ok and left == (-1) ** comb(k, 2) * gen(k)
            ok = ok and right == (-1) ** comb(g - k, 2) * gen(g - k)
    report(7, "wedge-square Euler classes and virtual signs, g <= 8", ok)


def test_criterion_8_product_vanishing():
    ok = True
    for g in range(2, 7):
        parts = products.split_partitions(g)
        for p in parts:
            for q in parts:
                ok = ok and products.zeroint_check(p, q)
    ok = ok and all(
        products.euler_tensor_reduce(a, b).is_zero()
        for a in range(1, 6)
        for b in range(1, 6)
    )
    report(8, "product-locus intersections vanish, g <= 6", ok)


def test_criterion_9_hodge_splitting():
    ok = all(
        products.hodge_split_pullback((g - g1, g1), g - 1) == ()
        for g in range(2, 11)
        for g1 in range(1, g // 2 + 1)
    )
    report(9, "top-degree Hodge splitting vanishes, g <= 10", ok)


def test_criterion_10_declared_export():
    # The genus-6 and genus-7 conclusions need an external
    # tautological-ring relation engine; the obligation here is to emit
    # the exact strata expression such engines consume, validated on
    # g=4,5 by criterion 4.  Emit and sanity-check both.
    ok = True
    for g in (6, 7):
        expr = strata.assemble_pullback(g)
        data = strata.serialize(expr, "json")
        again = parse_json(data)
        ok = ok and expression_equal(expr, again)
        ok = ok and check_degree_balance(expr)
        ok = ok and check_vanishing_discipline(expr)
        text = strata.serialize(expr, "admcycles")
        ok = ok and text.startswith(b"genus %d" % g)
    report(10, "declared: strata export emitted for external engines", ok)
