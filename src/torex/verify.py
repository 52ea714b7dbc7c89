"""Built-in reference checks.

Each check replays one published worked value against the library and is
identified by a short slug.  The CLI `verify-paper` subcommand runs the
whole table and reports one pass/fail line per check.  The published
values themselves are module-level data here, which the tests read too.
"""

from __future__ import annotations

from fractions import Fraction

from . import agring, constants, excess, products, strata
from .excess import all_contributions
from .polyring import PackedLayout, Poly, cvar, lamvar, psivar, zvar
from .trees import ExtremalTree, depth, enumerate_trees, smoothings


def _z(i):
    return Poly.var(zvar(i))


def _c(i):
    return Poly.var(cvar(i))


# The published reference values, each written down once: the checks
# below and the test suite both read them from here.
TREE_INVENTORY = {(4, 3): 4, (5, 4): 10, (6, 5): 24}  # (genus, max edges) -> trees
G6_IRREDUCIBLE_AUT_WEIGHTS = [1, 1, 1, 2, 2, 6, 120]
WORKED_CONTRIBUTIONS = [  # (genus, tree code, contribution)
    (4, "(1(0(1)(2)))", Poly.const(-3)),
    (5, "(1(0(1)(3)))", -3 * _c(1) + 6 * _z(1) + 4 * _z(2) + 4 * _z(3)),
    (6, "(1(0(1)(4)))",
     -3 * _c(2) + _c(1) * (6 * _z(1) + 4 * _z(2) + 4 * _z(3))
     - 10 * _z(1) ** 2 - 10 * _z(1) * (_z(2) + _z(3))
     - 5 * (_z(2) + _z(3)) ** 2 + 5 * _z(2) * _z(3)),
    (5, "(1(0(1)(1)(2)))", Poly.const(-4)),
    (6, "(1(0(1)(1)(3)))",
     -4 * _c(1) + 10 * _z(1) + 5 * (_z(2) + _z(3) + _z(4))),
    (6, "(1(0(1)(1)(1)(2)))", Poly.const(-5)),
    (6, "(1(0(1)(3))(1))",
     -3 * _c(1) + 6 * _z(1) + 3 * _z(2) + 4 * (_z(3) + _z(4))),
    (6, "(1(0(0(1)(1))(3)))", Poly.const(15)),
]
G5_FOUR_EDGE_VALUES = ["-3", "-3", "-4"]  # reducible 4-edge trees, sorted text
G6_TRIPLE_INTERSECTIONS = [Poly.const(15)] * 4  # 5-edge trees, two genus-0 vertices
WORKED_BRACKETS = {  # (genus, tree code) -> {rendered vertex monomials: coefficient}
    (6, "(1(0(1)(4)))"): {
        ("1", "1", "1", "lam2"): -3,
        ("1", "1", "1", "lam1*psi1"): 4,
        ("1", "1", "1", "psi1^2"): -5,
    },
    (5, "(1(0(1)(3)))"): {
        ("1", "1", "1", "lam1"): 3,
        ("1", "1", "1", "psi1"): -4,
    },
    (4, "(1(3))"): {
        ("1", "lam2"): 1,
        ("1", "lam1*psi1"): -1,
        ("1", "psi1^2"): 1,
    },
}
PROJECTION_COEFFICIENTS = {4: 20, 5: 11, 6: Fraction(2730, 691), 7: 1}
G1_TAIL_INTEGRAL = Fraction(1, 24)


def _contribution(g, code, method="recursion"):
    return all_contributions(g, method=method)[code].poly


def _bracket_set(g, code):
    cont = all_contributions(g)[code]
    return {
        tuple(s.render()): s.coeff for s in strata.substitute_stratum(cont)
    }


def _check_tree_counts():
    return all(len(enumerate_trees(g, m)) == n for (g, m), n in TREE_INVENTORY.items())


def _check_aut_weights():
    irr = [t for t in enumerate_trees(6, 5) if t.is_irreducible()]
    return sorted(t.aut_order for t in irr) == G6_IRREDUCIBLE_AUT_WEIGHTS


def _check_smoothing_counts():
    two = len(smoothings(ExtremalTree.from_code("(1(0(1)(2)))")))
    six = len(smoothings(ExtremalTree.from_code("(1(0(0(1)(1))(3)))")))
    none = len(smoothings(ExtremalTree.from_code("(1(1)(2))")))
    return (two, six, none) == (2, 6, 0)


def _check_depths():
    return (
        depth(ExtremalTree.from_code("(1(5))")) == 0
        and depth(ExtremalTree.from_code("(1(0(1)(2)))")) == 1
        and depth(ExtremalTree.from_code("(1(0(0(1)(1))(3)))")) == 2
    )


def _check_leaf_paths():
    # the z labels on a leaf's root path, whose product is its monomial
    t = ExtremalTree.from_code("(1(0(1)(2)))")
    leaf_a = next(v for v in t.leaves() if t.genera[v] == 1)
    weird = ExtremalTree.from_code("(1(0(1)(3))(1))")
    leaf_c = next(v for v in weird.leaves() if weird.parent[v] == 0)
    return t.path_labels(leaf_a) == [1, 2] and weird.path_labels(leaf_c) == [2]


def _check_graded_leaf():
    # degree-2 part of c(E^dual) / (1 - psi_1) on a genus-3 leaf
    ps = Poly.var(psivar(1, 0))
    ce = Poly.const(1) - Poly.var(lamvar(1, 0)) + Poly.var(lamvar(2, 0))
    series = (ce * (Poly.const(1) - ps).series_inverse(2)).graded_part(2)
    want = (
        Poly.var(lamvar(2, 0))
        - Poly.var(lamvar(1, 0)) * ps
        + ps * ps
    )
    return series == want


def _check_rewrite_example():
    # z2 + z3 - 3 e1 with A = (1+z1+z2)(1+z1+z3), two line bundles, through
    # the recursion's leaf passes: slot i multiplies e_i, then c_i
    _, z1, z2, z3 = PackedLayout(n_z=3, max_deg=2).unit
    slots = [{z2: 1, z3: 1}, {0: -3}]
    excess._over_leaf_factors(slots, [[z1, z2], [z1, z3]])
    # -3 c1 + 6 z1 + 4 z2 + 4 z3
    return slots == [{z1: 6, z2: 4, z3: 4}, {0: -3}]


def _check_contributions():
    return all(_contribution(g, code) == want for g, code, want in WORKED_CONTRIBUTIONS)


def _check_pixton_matches():
    for g in range(2, 7):
        rec = all_contributions(g, "recursion")
        pix = all_contributions(g, "pixton")
        if any(rec[k].poly != pix[k].poly for k in rec):
            return False
    return True


def _check_contribution_tables():
    tab4 = all_contributions(4)
    if tab4["(1(0(1)(2)))"].poly != Poly.const(-3):
        return False
    tab5 = all_contributions(5)
    four_edge = sorted(
        str(c.poly)
        for c in tab5.values()
        if c.tree.n_edges == 4 and not c.tree.is_irreducible()
    )
    if four_edge != G5_FOUR_EDGE_VALUES:
        return False
    tab6 = all_contributions(6)
    triples = [
        c.poly for c in tab6.values()
        if c.tree.n_edges == 5
        and sum(1 for v in range(c.tree.n_vertices)
                if c.tree.genera[v] == 0) == 2
    ]
    return triples == G6_TRIPLE_INTERSECTIONS


def _check_strata_brackets():
    return all(_bracket_set(g, code) == want for (g, code), want in WORKED_BRACKETS.items())


def _check_pullback_weights():
    expr = strata.assemble_pullback(6)
    byc = {term.tree.code: term for term in expr.terms}
    g_term = byc["(1(1)(1)(1)(1)(1))"]
    ok_g = (
        len(g_term.summands) == 1
        and g_term.summands[0].coeff == Fraction(1, 120)
        and all(m == () for m in g_term.summands[0].monos)
    )
    ten = len(strata.assemble_pullback(5).terms) == 10
    return ok_g and ten


def _check_constants():
    pc = constants.product_coefficient
    vals = all(pc(g) == want for g, want in PROJECTION_COEFFICIENTS.items())
    flag = constants.coefficient_discrepancy(6) == constants.PRINTED_G6_VARIANT
    tail = constants.hodge_constants(1).tail_integral == G1_TAIL_INTEGRAL
    series = constants.series_identity_check(20)
    return vals and flag and tail and series


def _check_ring():
    red = agring.reduce
    lam = agring.lam
    ok1 = red(4, lam(1) * lam(1)) == red(4, 2 * lam(2))
    ok2 = all(red(g, lam(g - 1) * lam(g - 1)).is_zero() for g in range(2, 8))
    ok3 = all(red(g, lam(g)).is_zero() for g in range(1, 8))
    socle = agring.schur_wedge2(3) == agring.socle_generator(3)
    return ok1 and ok2 and ok3 and socle


def _check_virtual():
    minus = -agring.lam(1)
    got = agring.virtual_class_product(4, 2)
    trivial = agring.virtual_class_product(2, 1)
    one = Poly.const(1)
    return got == (minus, minus) and trivial == (one, one)


def _check_products():
    P = products.Partition.make
    two = len(products.extremal_refinements(P([1, 4]), P([2, 3]))) == 2
    one = len(products.extremal_refinements(P([1, 5]), P([3, 3]))) == 1
    zero = products.zeroint_check(P([1, 4]), P([2, 3]))
    euler = products.euler_tensor_reduce(2, 2).is_zero()
    split = products.hodge_split_pullback(5, P([2, 3]), 4) == {}
    return two and one and zero and euler and split


CHECKS = [
    ("tree-inventory-counts", _check_tree_counts),
    ("tree-aut-weights-g6", _check_aut_weights),
    ("smoothing-counts", _check_smoothing_counts),
    ("degeneration-depths", _check_depths),
    ("leaf-path-monomials", _check_leaf_paths),
    ("graded-part-genus3-leaf", _check_graded_leaf),
    ("symmetric-rewrite-two-lines", _check_rewrite_example),
    ("worked-contributions", _check_contributions),
    ("closed-formula-agreement-g2-6", _check_pixton_matches),
    ("contribution-tables-g4-g5-g6", _check_contribution_tables),
    ("bracket-substitutions", _check_strata_brackets),
    ("pullback-weights", _check_pullback_weights),
    ("projection-coefficients", _check_constants),
    ("lambda-ring-relations", _check_ring),
    ("virtual-product-classes", _check_virtual),
    ("product-locus-vanishing", _check_products),
]


def run_checks(names=None) -> list:
    """Run the reference checks; returns (slug, passed, error) triples,
    error naming the exception a failed check raised (None otherwise)."""
    results = []
    for slug, fn in CHECKS:
        if names and slug not in names:
            continue
        try:
            results.append((slug, bool(fn()), None))
        except Exception as exc:
            results.append((slug, False, "%s: %s" % (type(exc).__name__, exc)))
    return results
