"""Built-in reference checks.

Each check replays published worked values against the library and is
identified by a short slug.  A check yields rows (what, computed,
published), each as it reaches it; `run_checks` compares them, and a
check fails at its first row that differs, with an error naming the row
and both values.  The CLI `verify-paper` subcommand runs the whole table
and reports one pass/fail line per check.  The published values
themselves are module-level data here, which the tests read too.
"""

from __future__ import annotations

from fractions import Fraction

from . import TorexError, agring, constants, excess, products, strata
from .excess import all_contributions
from .polyring import PackedLayout, Poly, cvar, lamvar, psivar, zvar
from .trees import ExtremalTree, depth, enumerate_trees, smoothings


def _z(i):
    return Poly.var(zvar(i))


def _c(i):
    return Poly.var(cvar(i))


def _lam(i):
    return Poly.var(lamvar(i, 0))


_PSI1 = Poly.var(psivar(1, 0))

# The published reference values, each written down once: the checks
# below and the test suite both read them from here.
TREE_INVENTORY = {(4, 3): 4, (5, 4): 10, (6, 5): 24}  # (genus, max edges) -> trees
G6_IRREDUCIBLE_AUT_WEIGHTS = [1, 1, 1, 2, 2, 6, 120]
SMOOTHING_COUNTS = {"(1(0(1)(2)))": 2, "(1(0(0(1)(1))(3)))": 6, "(1(1)(2))": 0}
DEPTHS = {"(1(5))": 0, "(1(0(1)(2)))": 1, "(1(0(0(1)(1))(3)))": 2}
# (tree code, leaf) -> the z labels on the leaf's root path, whose product
# is its monomial
LEAF_PATHS = {("(1(0(1)(2)))", 2): [1, 2], ("(1(0(1)(3))(1))", 4): [2]}
# degree-2 part of c(E^dual) / (1 - psi_1) on a genus-3 leaf
G3_LEAF_DEGREE2 = _lam(2) - _lam(1) * _PSI1 + _PSI1 * _PSI1
# z2 + z3 - 3 e1 over A = (1+z1+z2)(1+z1+z3) is -3 c1 + 6 z1 + 4 z2 + 4 z3:
# slot i holds the coefficient of c_i, keyed by the exponents of z1, z2, z3
REWRITE_SLOTS = [{(1, 0, 0): 6, (0, 1, 0): 4, (0, 0, 1): 4}, {(0, 0, 0): -3}]
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
WORKED_BRACKETS = {  # (genus, tree code) -> {vertex texts: coefficient}
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
# the genus-6 tree of five genus-1 leaves: one undecorated bracket of
# weight 1/|Aut| = 1/5!
G6_STAR_CODE, G6_STAR_WEIGHT = "(1(1)(1)(1)(1)(1))", Fraction(1, 120)
G5_PULLBACK_STRATA = 10  # trees in the genus-5 pullback
PROJECTION_COEFFICIENTS = {4: 20, 5: 11, 6: Fraction(2730, 691), 7: 1}
G1_TAIL_INTEGRAL = Fraction(1, 24)
REFINEMENT_COUNTS = {((1, 4), (2, 3)): 2, ((1, 5), (3, 3)): 1}  # (p, q) -> components


def _tree_counts():
    for (g, m), n in TREE_INVENTORY.items():
        yield ("trees of genus %d with at most %d edges" % (g, m),
               len(enumerate_trees(g, m)), n)


def _aut_weights():
    irr = [t for t in enumerate_trees(6, 5) if t.is_irreducible()]
    yield ("automorphism orders of the irreducible genus-6 trees",
           sorted(t.aut_order for t in irr), G6_IRREDUCIBLE_AUT_WEIGHTS)


def _smoothing_counts():
    for code, n in SMOOTHING_COUNTS.items():
        yield "smoothings of %s" % code, len(smoothings(ExtremalTree.from_code(code))), n


def _depths():
    for code, d in DEPTHS.items():
        yield "depth of %s" % code, depth(ExtremalTree.from_code(code)), d


def _leaf_paths():
    for (code, leaf), labels in LEAF_PATHS.items():
        yield ("z labels above vertex %d of %s" % (leaf, code),
               ExtremalTree.from_code(code).path_labels(leaf), labels)


def _graded_leaf():
    ce = Poly.const(1) - _lam(1) + _lam(2)
    yield ("degree-2 part of c(E^dual)/(1 - psi1) on a genus-3 leaf",
           (ce * (Poly.const(1) - _PSI1).series_inverse(2)).graded_part(2),
           G3_LEAF_DEGREE2)


def _rewrite_example():
    # two line bundles through the recursion's leaf passes: slot i
    # multiplies e_i, then c_i
    layout = PackedLayout(n_z=3, max_deg=2)
    _, z1, z2, z3 = layout.unit
    slots = [{z2: 1, z3: 1}, {0: -3}]
    excess._over_leaf_factors(slots, [[z1, z2], [z1, z3]])
    yield ("slots of z2 + z3 - 3 e1 over (1+z1+z2)(1+z1+z3)",
           [{layout.exponents(key, 3): c for key, c in slot.items()} for slot in slots],
           REWRITE_SLOTS)


def _worked_contributions():
    for g, code, want in WORKED_CONTRIBUTIONS:
        yield ("contribution of %s at genus %d" % (code, g),
               all_contributions(g, method="recursion")[code].poly, want)


def _pixton_matches():
    for g in range(2, 7):
        rec = all_contributions(g, "recursion")
        pix = all_contributions(g, "pixton")
        for code, c in rec.items():
            yield "closed formula of %s at genus %d" % (code, g), pix[code].poly, c.poly


def _contribution_tables():
    g, code, want = WORKED_CONTRIBUTIONS[0]
    yield "contribution of %s at genus %d" % (code, g), all_contributions(g)[code].poly, want
    four_edge = sorted(
        str(c.poly)
        for c in all_contributions(5).values()
        if c.tree.n_edges == 4 and not c.tree.is_irreducible()
    )
    yield "reducible 4-edge contributions at genus 5", four_edge, G5_FOUR_EDGE_VALUES
    triples = [
        c.poly for c in all_contributions(6).values()
        if c.tree.n_edges == 5
        and sum(1 for v in range(c.tree.n_vertices) if c.tree.genera[v] == 0) == 2
    ]
    yield ("5-edge contributions with two genus-0 vertices at genus 6",
           triples, G6_TRIPLE_INTERSECTIONS)


def _brackets():
    for (g, code), want in WORKED_BRACKETS.items():
        cont = all_contributions(g)[code]
        yield ("brackets of %s at genus %d" % (code, g),
               {s.monos: s.coeff for s in strata.substitute_stratum(cont)}, want)


def _pullback_weights():
    term = {t.tree.code: t for t in strata.assemble_pullback(6).terms}[G6_STAR_CODE]
    yield ("decorations of %s in the genus-6 pullback" % G6_STAR_CODE,
           [s.monos for s in term.summands], [("1",) * term.tree.n_vertices])
    yield ("weight of %s in the genus-6 pullback" % G6_STAR_CODE,
           term.summands[0].coeff, G6_STAR_WEIGHT)
    yield ("strata of the genus-5 pullback", len(strata.assemble_pullback(5).terms),
           G5_PULLBACK_STRATA)


def _constants():
    for g, want in PROJECTION_COEFFICIENTS.items():
        yield "g/(6|B_2g|) at genus %d" % g, constants.product_coefficient(g), want
    yield ("printed variant flagged at genus 6", constants.coefficient_discrepancy(6),
           constants.PRINTED_G6_VARIANT)
    yield ("genus-1 tail integral", constants.hodge_constants(1).tail_integral,
           G1_TAIL_INTEGRAL)
    yield ("-log(sin(t/2)/(t/2)) against the tail integrals through genus 20",
           constants.series_identity_check(20), True)


def _ring():
    red, lam = agring.reduce, agring.lam
    yield "lam1^2 at genus 4", red(4, lam(1) * lam(1)), red(4, 2 * lam(2))
    for g in range(2, 8):
        yield "lam%d^2 at genus %d" % (g - 1, g), red(g, lam(g - 1) * lam(g - 1)), 0
    for g in range(1, 8):
        yield "lam%d at genus %d" % (g, g), red(g, lam(g)), 0
    yield ("Euler class of wedge^2 E at genus 3", agring.schur_wedge2(3),
           agring.socle_generator(3))


def _virtual():
    minus, one = -agring.lam(1), Poly.const(1)
    yield "virtual classes of the (2, 2) split", agring.virtual_class_product(4, 2), (minus, minus)
    yield "virtual classes of the (1, 1) split", agring.virtual_class_product(2, 1), (one, one)


def _products():
    P = products.Partition.make
    for (p, q), n in REFINEMENT_COUNTS.items():
        yield ("extremal refinements of %s x %s" % (p, q),
               len(products.extremal_refinements(P(p), P(q))), n)
    yield ("every component of (1, 4) x (2, 3) vanishes",
           products.zeroint_check(P([1, 4]), P([2, 3])), True)
    yield "Euler class of E_2^dual x E_2^dual, reduced", products.euler_tensor_reduce(2, 2), 0
    yield ("lambda_4 on the (2, 3) locus of genus 5",
           products.hodge_split_pullback(5, P([2, 3]), 4), {})


CHECKS = [
    ("tree-inventory-counts", _tree_counts),
    ("tree-aut-weights-g6", _aut_weights),
    ("smoothing-counts", _smoothing_counts),
    ("degeneration-depths", _depths),
    ("leaf-path-monomials", _leaf_paths),
    ("graded-part-genus3-leaf", _graded_leaf),
    ("symmetric-rewrite-two-lines", _rewrite_example),
    ("worked-contributions", _worked_contributions),
    ("closed-formula-agreement-g2-6", _pixton_matches),
    ("contribution-tables-g4-g5-g6", _contribution_tables),
    ("bracket-substitutions", _brackets),
    ("pullback-weights", _pullback_weights),
    ("projection-coefficients", _constants),
    ("lambda-ring-relations", _ring),
    ("virtual-product-classes", _virtual),
    ("product-locus-vanishing", _products),
]


def run_checks(names=None) -> list:
    """Run the reference checks; returns (slug, error) pairs, error None
    when every row of the check agreed, and otherwise naming the first row
    that differed, or the exception the check raised."""
    results = []
    for slug, check in CHECKS:
        if names and slug not in names:
            continue
        try:
            for what, computed, published in check():
                if computed != published:
                    raise TorexError("%s: computed %s, published %s"
                                     % (what, computed, published))
            results.append((slug, None))
        except Exception as exc:
            results.append((slug, "%s: %s" % (type(exc).__name__, exc)))
    return results
