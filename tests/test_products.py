from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from torex.polyring import Poly
from torex.products import (
    GenusMismatch,
    Partition,
    ProductsError,
    RankTooLarge,
    euler_tensor_e_basis,
    euler_tensor_reduce,
    extremal_refinements,
    hodge_split_pullback,
    split_partitions,
    zeroint_check,
)

P = Partition.make


def _compositions(n, k):
    """The k-tuples of nonnegative integers with sum n."""
    if k == 1:
        yield (n,)
        return
    for v in range(n + 1):
        for rest in _compositions(n - v, k - 1):
            yield (v,) + rest


def _sum_preserving(values):
    """The permutations s of range(len(values)) with values[s[i]] == values[i]."""
    return [
        s for s in permutations(range(len(values)))
        if all(values[k] == values[i] for i, k in enumerate(s))
    ]


def extremal_refinements_reference(p, q):
    """Brute force: each matrix with row sums p and column sums q stands
    for the least column-major key over all sum-preserving row and column
    permutations of it; one (sigma, cells, excess_bundle) per key, sorted."""
    rows, cols = p.parts, q.parts
    row_perms, col_perms = _sum_preserving(rows), _sum_preserving(cols)
    keys, covered = set(), set()
    for matrix in product(*(_compositions(r, len(cols)) for r in rows)):
        if tuple(map(sum, zip(*matrix))) != cols or matrix in covered:
            continue
        orbit = {
            tuple(tuple(matrix[i][j] for j in cp) for i in rp)
            for rp in row_perms
            for cp in col_perms
        }
        covered |= orbit
        keys.add(min(tuple(zip(*m)) for m in orbit))
    out = []
    for key in keys:
        cells = tuple(sorted(
            (i, j, v) for j, col in enumerate(key) for i, v in enumerate(col) if v
        ))
        sigma = tuple(sorted((v for _, _, v in cells), reverse=True))
        bundle = tuple(sorted(
            tuple(sorted((a[2], b[2])))
            for a, b in combinations(cells, 2)
            if a[0] != b[0] and a[1] != b[1]
        ))
        out.append((sigma, cells, bundle))
    return sorted(out)


class TestRefinements:
    @pytest.mark.parametrize("g", range(2, 6))
    def test_matches_brute_force_reference(self, g):
        parts = split_partitions(g)
        for p in parts:
            for q in parts:
                got = [
                    (c.sigma.parts, c.cells, c.excess_bundle)
                    for c in extremal_refinements(P(p), P(q))
                ]
                assert got == extremal_refinements_reference(P(p), P(q)), (p, q)

    def test_elliptic_against_middle(self):
        for g in (5, 6, 8):
            for k in range(2, (g - 1) // 2 + 1):
                comps = extremal_refinements(P([1, g - 1]), P([k, g - k]))
                want = 1 if g == 2 * k else 2
                assert len(comps) == want, (g, k)
                sigmas = {c.sigma.parts for c in comps}
                expected = {
                    tuple(sorted((1, k - 1, g - k), reverse=True)),
                    tuple(sorted((1, k, g - k - 1), reverse=True)),
                }
                assert sigmas <= expected

    def test_even_split_single_component(self):
        comps = extremal_refinements(P([1, 5]), P([3, 3]))
        assert len(comps) == 1
        assert comps[0].sigma.parts == (3, 2, 1)

    def test_self_intersection_diagonal(self):
        comps = extremal_refinements(P([1, 4]), P([1, 4]))
        diag = [c for c in comps if c.sigma.parts == (4, 1)]
        assert len(diag) == 1
        assert diag[0].excess_bundle == ((1, 4),)

    def test_self_intersection_elliptic_pair(self):
        comps = extremal_refinements(P([1, 1]), P([1, 1]))
        assert len(comps) == 1
        assert comps[0].sigma.parts == (1, 1)
        assert comps[0].excess_bundle == ((1, 1),)

    def test_assignment_maps_partition_the_parts(self):
        p, q = P([2, 3]), P([1, 4])
        comps = extremal_refinements(p, q)
        assert comps
        for comp in comps:
            for r, want in enumerate(p.parts):
                assert sum(v for i, _, v in comp.cells if i == r) == want
            for col, want in enumerate(q.parts):
                assert sum(v for _, j, v in comp.cells if j == col) == want

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatch):
            extremal_refinements(P([1, 2]), P([1, 3]))


class TestEulerTensor:
    def test_line_bundle_case(self):
        # x + y = e1(x) + e1(y); both die under the top-class relations
        expr = euler_tensor_e_basis(1, 1)
        assert expr == Poly.var(("e", "x", 1)) + Poly.var(("e", "y", 1))
        assert euler_tensor_reduce(1, 1).is_zero()

    def test_rank_1_by_3(self):
        assert euler_tensor_reduce(1, 3).is_zero()

    def test_rank_2_by_2(self):
        assert euler_tensor_reduce(2, 2).is_zero()

    @pytest.mark.parametrize("a", range(1, 6))
    @pytest.mark.parametrize("b", range(1, 6))
    def test_grid_to_rank_5(self, a, b):
        assert euler_tensor_reduce(a, b).is_zero()

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)])
    def test_e_basis_matches_root_expansion(self, a, b):
        # independent oracle: expand prod (x_i + y_j) in the roots and
        # compare with the e-basis expression expanded the same way
        def root(block, i):
            return ("z", (block, i))

        direct = Poly.const(1)
        for i in range(1, a + 1):
            for j in range(1, b + 1):
                direct = direct * (Poly.var(root("x", i)) + Poly.var(root("y", j)))
        expr = euler_tensor_e_basis(a, b)
        subs = {}
        for v in expr.variables():
            block, idx = v[1], v[2]
            n = a if block == "x" else b
            terms = {}
            for combo in combinations(range(1, n + 1), idx):
                mono = tuple(sorted((root(block, i), 1) for i in combo))
                terms[mono] = Fraction(1)
            subs[v] = Poly(terms)
        assert expr.substitute(subs) == direct

    def test_rank_limit(self):
        with pytest.raises(RankTooLarge):
            euler_tensor_reduce(6, 5)


class TestZeroint:
    def test_genus2_pair(self):
        assert zeroint_check(P([1, 1]), P([1, 1]))

    def test_g5_mixed_pair(self):
        assert zeroint_check(P([1, 4]), P([2, 3]))

    @pytest.mark.parametrize("g", range(2, 7))
    def test_exhaustive(self, g):
        parts = split_partitions(g)
        for p in parts:
            for q in parts:
                assert zeroint_check(P(p), P(q)), (p, q)

    def test_rejects_single_part(self):
        with pytest.raises(ProductsError):
            zeroint_check(P([5]), P([1, 4]))

    def test_split_partitions(self):
        assert split_partitions(1) == []
        assert split_partitions(5) == [
            (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)
        ]


class TestHodgeSplit:
    def test_top_degree_vanishes(self):
        for g in range(2, 11):
            for g1 in range(1, g):
                assert hodge_split_pullback(g, P([g1, g - g1]), g - 1) == {}

    def test_degree_zero(self):
        assert hodge_split_pullback(5, P([2, 3]), 0) == {(0, 0): Fraction(1)}

    def test_degree_one_with_elliptic_factor(self):
        # the elliptic factor's top class is deleted; parts sort descending
        assert hodge_split_pullback(3, P([1, 2]), 1) == {(1, 0): Fraction(1)}

    def test_degree_one_general(self):
        got = hodge_split_pullback(5, P([2, 3]), 1)
        assert got == {(1, 0): Fraction(1), (0, 1): Fraction(1)}

    def test_three_parts(self):
        # parts sort to (3, 2, 1): degree-2 compositions avoiding every
        # factor's top class are (2, 0, 0) and (1, 1, 0)
        got = hodge_split_pullback(6, P([1, 2, 3]), 2)
        assert got == {(2, 0, 0): Fraction(1), (1, 1, 0): Fraction(1)}

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatch):
            hodge_split_pullback(6, P([1, 2]), 1)
