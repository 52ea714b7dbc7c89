import hashlib
import json
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import star

import torex
from torex import TorexError, excess
from torex.excess import (
    all_contributions,
    base_contribution,
    pixton_contribution,
    recursion_contribution,
    tree_contribution,
)
from torex.polyring import PackedLayout, Poly, cvar, elem_sym_rewrite, evar, mono_degree, zvar
from torex.trees import ExtremalTree, enumerate_trees, shape, smoothings
from torex.verify import (
    G5_FOUR_EDGE_VALUES,
    G6_TRIPLE_INTERSECTIONS,
    WORKED_CONTRIBUTIONS,
)


def z(i):
    return Poly.var(zvar(i))


def c(i):
    return Poly.var(cvar(i))


def T(code):
    return ExtremalTree.from_code(code)


def chern_parts(t, g):
    """c_0 .. c_{g-1} of the local model's c(N) = A * (1 + e_1 + ... +
    e_ell), ell = g - 1 - k for k leaves and A the product over leaves of
    (1 + sum of the path z's), expanded on tuple monomials: the reference
    for the leaf passes."""
    A = prod((1 + sum((z(i) for i in t.path_labels(v)), Poly.zero()) for v in t.leaves()),
             start=Poly.const(1))
    E = sum((Poly.var(evar(i)) for i in range(1, g - len(t.leaves()))), Poly.const(1))
    total = A * E
    return [total.graded_part(i) for i in range(g)]


class TestLocalModel:
    def test_total_chern_top_degree(self):
        for g, code in [(4, "(1(0(1)(2)))"), (6, "(1(0(0(1)(1))(3)))")]:
            parts = chern_parts(T(code), g)
            assert len(parts) == g
            assert all(mono_degree(m) == i for i, part in enumerate(parts) for m in part.terms)
            assert not parts[g - 1].is_zero()

    def test_factorization_shape(self):
        # c(N) for the depth-2 tree of genus a+b+c+1
        parts = chern_parts(T("(1(0(0(1)(1))(3)))"), 6)
        want = (
            (1 + z(1) + z(2) + z(4))
            * (1 + z(1) + z(2) + z(5))
            * (1 + z(1) + z(3))
            * (1 + Poly.var(evar(1)) + Poly.var(evar(2)))
        )
        assert sum(parts, Poly.zero()) == want


class TestBaseContribution:
    def test_expected_codimension_star(self):
        for g in range(3, 7):
            t = star([1] * (g - 1))
            assert base_contribution(t).poly == Poly.const(1)

    def test_single_leaf_matches_series(self):
        for g in range(3, 7):
            t = T("(1(%d))" % (g - 1))
            want = (
                (sum((c(i) for i in range(1, g - 1)), Poly.const(1)))
                * (1 + z(1)).series_inverse(g - 2)
            ).graded_part(g - 2)
            assert base_contribution(t).poly == want

    def test_two_leaf_degree_one(self):
        t = T("(1(1)(2))")
        assert base_contribution(t).poly == c(1) - z(1) - z(2)

    def test_rejects_reducible(self):
        with pytest.raises(TorexError, match=r"tree \(1\(0\(1\)\(2\)\)\) is not irreducible"):
            base_contribution(T("(1(0(1)(2)))"))

    def test_builds_no_packed_layout(self, monkeypatch):
        # the third oracle stays independent of the recursion's packed model
        g = 6
        table = all_contributions(g)
        irreducible = [t for t in enumerate_trees(g, g - 1) if t.is_irreducible()]

        def no_layout(g):
            raise AssertionError("_layout(%d) called" % g)

        monkeypatch.setattr(excess, "_layout", no_layout)
        with pytest.raises(AssertionError, match="_layout"):
            recursion_contribution(irreducible[0], {})
        assert len(irreducible) == 7
        for t in irreducible:
            assert base_contribution(t).poly == table[t.code].poly, t.code


WORKED = {code: (g, want) for g, code, want in WORKED_CONTRIBUTIONS}


def assert_worked(code):
    g, want = WORKED[code]
    assert all_contributions(g)[code].poly == want


class TestWorkedExamples:
    def test_depth_one_pair_g4(self):
        assert_worked("(1(0(1)(2)))")

    def test_depth_one_pair_g5(self):
        assert_worked("(1(0(1)(3)))")

    def test_depth_one_pair_g6(self):
        assert_worked("(1(0(1)(4)))")

    def test_depth_one_triple_g5(self):
        assert_worked("(1(0(1)(1)(2)))")

    def test_depth_one_triple_g6(self):
        assert_worked("(1(0(1)(1)(3)))")

    def test_depth_one_quadruple_g6(self):
        assert_worked("(1(0(1)(1)(1)(2)))")

    def test_mixed_tree_g6(self):
        assert_worked("(1(0(1)(3))(1))")

    def test_depth_two_tree_g6(self):
        assert_worked("(1(0(0(1)(1))(3)))")

    def test_g5_four_edge_values(self):
        tab = all_contributions(5)
        vals = sorted(
            str(cont.poly)
            for cont in tab.values()
            if cont.tree.n_edges == 4 and not cont.tree.is_irreducible()
        )
        assert vals == G5_FOUR_EDGE_VALUES

    def test_g6_triple_intersections(self):
        tab = all_contributions(6)
        trips = [
            cont.poly
            for cont in tab.values()
            if cont.tree.n_edges == 5
            and sum(1 for gv in cont.tree.genera if gv == 0) == 2
        ]
        assert trips == G6_TRIPLE_INTERSECTIONS

    def test_shape_invariance(self):
        # the same shape with different leaf genera gives the same polynomial
        a = all_contributions(6)["(1(0(1)(4)))"].poly
        b = all_contributions(6)["(1(0(2)(3)))"].poly
        assert a == b


class TestRecursionMechanics:
    def test_missing_smoothing_raises(self):
        with pytest.raises(TorexError, match="has no solved contribution"):
            recursion_contribution(T("(1(0(1)(2)))"), {})

    def test_contributions_homogeneous(self):
        for g in (4, 5, 6):
            for cont in all_contributions(g).values():
                d = g - 1 - cont.tree.n_edges
                assert all(mono_degree(m) == d for m in cont.poly.terms)
                # one exponent per edge, each term once
                assert all(len(exps) == cont.tree.n_edges for _, exps, _ in cont.terms)
                assert len({(i, exps) for i, exps, _ in cont.terms}) == len(cont.terms)

    def test_excess_edge_count_vanishing(self):
        # trees with at least g edges carry the zero class
        trees = enumerate_trees(4, 5)
        table = excess._recursion_table(trees)
        heavy = [t for t in trees if t.n_edges >= 4]
        assert heavy
        assert all(table[t.code].poly.is_zero() for t in heavy)

    def test_rewrite_roundtrip(self):
        # substituting the factorized Chern classes back recovers the
        # pre-rewrite quotient of the inductive identity, for every tree
        for g in (5, 6, 7):
            table = all_contributions(g)
            for t in enumerate_trees(g, g - 1):
                parts = chern_parts(t, g)
                chern = {cvar(i): part for i, part in enumerate(parts) if i}
                rhs = parts[g - 1]
                for rec in smoothings(t):
                    cont = table[rec.target.code].poly.substitute(
                        {zvar(j): z(src) for j, src in enumerate(rec.edge_map, 1)}
                    )
                    factor = prod((z(src) for src in rec.edge_map), start=Poly.const(1))
                    rhs = rhs - factor * cont.substitute(chern)
                quotient = rhs.exact_divide(
                    tuple(sorted((zvar(i), 1) for i in range(1, t.n_edges + 1)))
                )
                assert table[t.code].poly.substitute(chern) == quotient, (g, t.code)


# a layout wide enough for the random polynomials below and for the degree
# the leaf passes add to them
WIDE = PackedLayout(n_z=11, max_deg=31)


def unpacked(slot):
    """The tuple Poly of a WIDE-packed z-polynomial."""
    return Poly({tuple((zvar(j), x) for j, x in enumerate(WIDE.exponents(key, 11), 1) if x): c
                 for key, c in slot.items()})


def from_slots(slots, var):
    """sum_i slot_i * var(i), var(0) read as 1."""
    out = Poly.zero()
    for i, slot in enumerate(slots):
        part = unpacked(slot)
        out = out + (part * Poly.var(var(i)) if i else part)
    return out


def slot_polys(data, n_slots, n_z):
    """n_slots random packed polynomials in z_1 .. z_n_z, square-free."""
    term = st.tuples(st.integers(-9, 9), st.lists(st.integers(0, 1), min_size=n_z,
                                                  max_size=n_z))
    slots = []
    for _ in range(n_slots):
        slot = {}
        for coeff, exps in data.draw(st.lists(term, max_size=3)):
            key = sum(WIDE.unit[j] for j, x in enumerate(exps, 1) if x)
            slot[key] = slot.get(key, 0) + coeff
        slots.append(slot)
    return slots


class TestLeafPasses:
    """The recursion's one-leaf-at-a-time passes against the expanded leaf
    factor on tuple monomials."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.data())
    def test_division_passes_match_elem_sym_rewrite(self, ell, data):
        n_z = 4
        paths = data.draw(st.lists(
            st.lists(st.integers(1, n_z), min_size=1, max_size=3, unique=True),
            max_size=4))
        slots = slot_polys(data, ell + 1, n_z)
        p = from_slots(slots, evar)
        A = Poly.const(1)
        for path in paths:
            A = A * (1 + sum((z(i) for i in path), Poly.zero()))
        excess._over_leaf_factors(slots, [[WIDE.unit[i] for i in path]
                                          for path in paths])
        assert from_slots(slots, cvar) == elem_sym_rewrite(p, ell, A)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 7), st.data())
    def test_multiplication_passes_match_chern_parts(self, g, data):
        t = data.draw(st.sampled_from(enumerate_trees(g, g - 1)))
        parts = chern_parts(t, g)
        slots = slot_polys(data, g, t.n_edges)
        p = from_slots(slots, cvar)
        excess._times_leaf_factors(slots, [[WIDE.unit[i] for i in t.path_labels(v)]
                                           for v in t.leaves()])
        # e_j = 0 above ell
        want = p.substitute({cvar(i): parts[i] for i in range(1, g)})
        assert from_slots(slots[:g - len(t.leaves())], evar) == want


class TestClosedFormula:
    def test_star_is_one(self):
        for g in range(3, 7):
            t = star([1] * (g - 1))
            assert pixton_contribution(t).poly == Poly.const(1)

    def test_mixed_tree_g6(self):
        g, want = WORKED["(1(0(1)(3))(1))"]
        assert pixton_contribution(T("(1(0(1)(3))(1))")).poly == want

    def test_four_leaf_g6(self):
        g, want = WORKED["(1(0(1)(1)(1)(2)))"]
        assert pixton_contribution(T("(1(0(1)(1)(1)(2)))")).poly == want

    def test_heavy_tree_vanishes(self):
        t = T("(1(0(0(1)(1))(1)))")  # genus 4, five edges
        assert pixton_contribution(t).poly.is_zero()


def closed_formula_unpruned(t, g):
    """The closed formula without the bounds of pixton_contribution: the
    whole numerator up to degree g - 1, then its Taylor part."""
    n = t.n_edges
    d = g - 1 - n
    if d < 0:
        return Poly.zero()
    num = Poly.const(1)
    for v in range(t.n_vertices):
        s = Poly.const(1)
        for i in t.path_labels(v):
            s = s + z(i)
        e = t.valence(v) - 2
        base = s if e >= 0 else s.series_inverse(g - 1)
        for _ in range(abs(e)):
            num = num.mul(base, g - 1)
    if len(t.leaves()) % 2:
        num = -num
    all_edges = tuple((zvar(i), 1) for i in range(1, n + 1))
    taylor = num.taylor_part(all_edges).truncate(d)
    total = sum((c(i) for i in range(1, d + 1)), Poly.const(1))
    return (taylor * total).graded_part(d)


class TestOracleEquivalence:
    @pytest.mark.parametrize("g", range(2, 8))
    def test_pruned_numerator_equals_unpruned(self, g):
        # the prune keeps every term the Taylor part and truncation keep
        for t in enumerate_trees(g, g - 1):
            want = closed_formula_unpruned(t, g).sorted_terms()
            assert pixton_contribution(t).poly.sorted_terms() == want, t.code

    @pytest.mark.parametrize("g", [*range(2, 8), 9])
    def test_recursion_equals_closed_formula(self, g):
        # the recursion runs per tree and the closed formula per shape, so
        # this also checks the shape relabeling at every tree
        rec = all_contributions(g, "recursion")
        pix = all_contributions(g, "pixton")
        assert set(rec) == set(pix)
        for code in rec:
            assert rec[code].poly == pix[code].poly, code

    @pytest.mark.parametrize("g, count", [(2, 1), (3, 2), (4, 3), (5, 5), (6, 7), (7, 11),
                                          (8, 15), (9, 22)])
    def test_irreducible_base_equals_recursion(self, g, count):
        # the base case on tuple monomials against the packed recursion; its
        # coefficients are ints too, which the cache relies on
        irreducible = [t for t in enumerate_trees(g, g - 1) if t.is_irreducible()]
        assert len(irreducible) == count
        for t in irreducible:
            base = base_contribution(t)
            assert base.poly == tree_contribution(t).poly, t.code
            assert all(type(c) is int and c for _, _, c in base.terms), t.code

    def test_recursion_equals_closed_formula_g8_bytes(self):
        rec = all_contributions(8, "recursion")
        pix = all_contributions(8, "pixton")
        assert len(rec) == 179 and list(rec) == list(pix)
        for code in rec:
            assert rec[code].poly.sorted_terms() == pix[code].poly.sorted_terms(), code


class TestShapes:
    @pytest.mark.parametrize("g", range(2, 10))
    def test_per_shape_table_equals_per_tree(self, g, memo):
        # the per-tree closed formula is the reference for the shape table;
        # up to g = 8 a table that skipped the renaming would still match
        # (two trees there label their edges unlike their shape's first tree,
        # and their polynomials do not see it), so g = 9 must be here
        table = all_contributions(g, "pixton")
        trees = enumerate_trees(g, g - 1)
        assert list(table) == [t.code for t in trees]
        for t in trees:
            assert table[t.code].poly.sorted_terms() == pixton_contribution(t).poly.sorted_terms(), t.code

    @pytest.mark.parametrize("g, trees, shapes", [(7, 66, 21), (8, 179, 37), (9, 521, 66),
                                                  (10, 1536, 120)])
    def test_shape_counts(self, g, trees, shapes):
        got = enumerate_trees(g, g - 1)
        assert len(got) == trees
        assert len({shape(t)[0] for t in got}) == shapes

    @pytest.mark.parametrize("g", range(2, 10))
    def test_relabel_matches_leaf_paths(self, g):
        # the shape's labels are a bijection onto t's labels 1..n, and
        # they map the path sets of a tree's leaves onto those of its
        # shape's first tree
        reps = {}
        for t in enumerate_trees(g, g - 1):
            code, labels = shape(t)
            assert sorted(labels) == list(range(1, t.n_edges + 1)), t.code
            shape_label = {j: i for i, j in enumerate(labels, 1)}
            paths = {frozenset(shape_label[j] for j in t.path_labels(v)) for v in t.leaves()}
            assert reps.setdefault(code, paths) == paths, t.code

    def test_shape_forgets_leaf_genera_only(self):
        assert shape(T("(1(0(1)(4)))")) == shape(T("(1(0(2)(3)))"))
        assert shape(T("(1(0(1)(4)))"))[0] != shape(T("(1(1)(4))"))[0]
        # shape labels visit the leaf (2) before the genus-0 vertex, which
        # the canonical code puts first
        code, labels = shape(T("(1(0(1)(1))(2))"))
        assert code == ((), ((), ()))
        assert labels == (2, 1, 3, 4)


def shape_terms(table):
    """Each shape code of a table -> its terms {(i, exps): coeff}, the
    exponents put in the shape's edge order (shape edge i takes the
    tree's exponent at labels[i - 1]); every tree of a shape must agree."""
    out = {}
    for cont in table.values():
        code, labels = shape(cont.tree)
        terms = {(i, tuple(exps[j - 1] for j in labels)): c for i, exps, c in cont.terms}
        assert out.setdefault(code, terms) == terms, cont.tree.code
    return out


class TestGenusShift:
    # The closed formula is (T * c(N)) in degree d = g - 1 - n, T the
    # Taylor part by prod z_e, so its c_j part at genus g is T in degree
    # d - j: the c_{j+1} part at genus g + 1.  The recursion has no such
    # structure built in, so its table at g is checked against the closed
    # formula's at g + 1.  The shift is an oracle only: no table is
    # computed from it.
    @pytest.mark.parametrize("g", [*range(3, 9), *(pytest.param(g, marks=pytest.mark.slow)
                                                   for g in (9, 10))])
    def test_recursion_at_g_is_the_closed_formula_at_g_plus_1_shifted(self, g, memo):
        low = shape_terms(all_contributions(g, "recursion"))
        high = shape_terms(all_contributions(g + 1, "pixton"))
        assert set(low) <= set(high)
        for code, terms in low.items():
            assert {(i - 1, exps): c for (i, exps), c in high[code].items() if i >= 1} == terms, code


def poly_of_terms_reference(terms):
    """The Poly of terms (i, exps, coeff) as the table built it when it held
    Polys: coeff * c_i * prod_j z_j^exps[j-1] with c_0 read as 1."""
    return Poly({tuple(sorted([(cvar(i), 1)] * (i > 0)
                              + [(zvar(j), x) for j, x in enumerate(exps, 1) if x])): c
                 for i, exps, c in terms})


def poly_table_reference(g, method):
    """The table of genus g, code -> Poly, by the route it took when it held
    Polys: each tree's recursion terms built into a Poly, or the closed
    formula's Poly of each shape's first tree renamed into every other tree
    of the shape monomial by monomial, through a dict of variable names."""
    trees = enumerate_trees(g, g - 1)
    out = {}
    if method == "recursion":
        solved = {}
        for t in sorted(trees, key=lambda tree: tree.n_edges):
            solved[t.code] = recursion_contribution(t, solved)
            out[t.code] = poly_of_terms_reference(solved[t.code])
        return out
    reps = {}
    for t in trees:
        code, labels = shape(t)
        if code not in reps:
            reps[code] = poly_of_terms_reference(pixton_contribution(t).terms), labels
        rep, rep_labels = reps[code]
        names = {zvar(a): zvar(b) for a, b in zip(rep_labels, labels)}
        out[t.code] = Poly({tuple(sorted((names.get(v, v), e) for v, e in m)): c
                            for m, c in rep.terms.items()})
    return out


class TestTermsForm:
    @pytest.mark.parametrize("method", ["recursion", "pixton"])
    @pytest.mark.parametrize("g", range(2, 10))
    def test_poly_equals_poly_route(self, g, method):
        # the table holds terms; Contribution.poly builds what the table
        # held when it held Polys, for every tree
        want = poly_table_reference(g, method)
        table = all_contributions(g, method)
        assert set(table) == set(want)
        for code, cont in table.items():
            assert cont.poly == want[code], code
            assert set(excess._terms_of(want[code], cont.tree.n_edges)) == set(cont.terms), code
            assert all(type(exps) is tuple for _, exps, _ in cont.terms), code
            # the cache holds only int coefficients
            assert all(type(c) is int and c for _, _, c in cont.terms), code

    def test_memo_holds_no_poly(self, memo):
        for method in ("recursion", "pixton"):
            all_contributions(5, method)
        for table in memo.values():
            for cont in table.values():
                assert type(cont.terms) is tuple
                assert all(type(term) is tuple and not isinstance(x, Poly)
                           for term in cont.terms for x in term)


class TestCacheDir:
    @pytest.mark.parametrize("method, digest", [
        ("recursion", "bc6726109be5afd9d5bc4c4913545eb6c4ae4bda48accd611696e11873b875e5"),
        ("pixton", "6be469aaadad63a32a919eed51e364003a358ee800e2b3612ec352dcda12cf77"),
    ])
    def test_file_bytes_pinned(self, tmp_path, memo, method, digest):
        # the bytes of a format-4 file do not move; the package version
        # they carry is read as 0.1.0
        assert excess.CACHE_FORMAT == 4, "a new format pins new digests"
        all_contributions(6, method, cache_dir=str(tmp_path))
        data = (tmp_path / ("contrib-g6-%s.json" % method)).read_bytes()
        version = ('"version":%s' % json.dumps(torex.__version__)).encode()
        assert data.count(version) == 1
        data = data.replace(version, b'"version":"0.1.0"')
        assert hashlib.sha256(data).hexdigest() == digest

    def test_json_cache_roundtrip(self, tmp_path, memo):
        first = all_contributions(4, cache_dir=str(tmp_path))
        path = tmp_path / "contrib-g4-recursion.json"
        assert path.exists()
        memo.clear()
        second = all_contributions(4, cache_dir=str(tmp_path))
        assert set(first) == set(second)
        for code in first:
            assert first[code].poly == second[code].poly
