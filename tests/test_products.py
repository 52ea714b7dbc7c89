from fractions import Fraction
from itertools import chain, combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torex import TorexError
from torex.polyring import Poly
from torex.products import (
    _compositions as bounded_compositions,
    _least_key,
    _row_sorted_matrices,
    _runs,
    euler_tensor_e_basis,
    euler_tensor_reduce,
    extremal_refinements,
    hodge_split_pullback,
    split_partitions,
    zeroint_check,
)
from torex.verify import REFINEMENT_COUNTS


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
    rows, cols = p, q
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


def _orbit(matrix: tuple, row_swaps: list, col_swaps: list) -> set:
    """The matrices reached from matrix by permuting rows of equal sum and
    columns of equal sum, closed under the adjacent swaps i <-> i + 1
    listed in row_swaps and col_swaps."""
    orbit = {matrix}
    todo = [matrix]
    while todo:
        m = todo.pop()
        moved = [m[:i] + (m[i + 1], m[i]) + m[i + 2:] for i in row_swaps]
        moved += [
            tuple(r[:j] + (r[j + 1], r[j]) + r[j + 2:] for r in m)
            for j in col_swaps
        ]
        for new in moved:
            if new not in orbit:
                orbit.add(new)
                todo.append(new)
    return orbit


def orbit_closure_reference(p, q):
    """Closes the orbit of each enumerated matrix by breadth-first
    adjacent swaps and keeps its least column-major member; one
    (sigma, cells, excess_bundle) per orbit, sorted."""
    rows, cols = p, q
    row_swaps = [i for i in range(len(rows) - 1) if rows[i] == rows[i + 1]]
    col_swaps = [j for j in range(len(cols) - 1) if cols[j] == cols[j + 1]]
    seen = set()
    out = []
    for matrix in _matrices(rows, cols):
        if matrix in seen:
            continue
        orbit = _orbit(matrix, row_swaps, col_swaps)
        seen |= orbit
        # the representative has the least column-major key in its orbit
        canon = min(orbit, key=lambda m: tuple(zip(*m)))
        cells = []
        for i, row in enumerate(canon):
            for j, v in enumerate(row):
                if v:
                    cells.append((i, j, v))
        cells = tuple(sorted(cells))
        sigma = tuple(sorted((v for _, _, v in cells), reverse=True))
        bundle = []
        for (i1, j1, v1), (i2, j2, v2) in combinations(cells, 2):
            if i1 != i2 and j1 != j2:
                bundle.append(tuple(sorted((v1, v2))))
        out.append((sigma, cells, tuple(sorted(bundle))))
    return sorted(out)


def _matrices(rows, cols):
    """Every nonnegative integer matrix with row sums rows (at least one)
    and column sums cols, once each and in increasing row-major order:
    depth first, a row at a time, each row a composition of its sum
    bounded by what the columns have left; the last row is what they
    have left."""
    last = len(rows) - 1

    def extend(r, m, left):
        if r == last:
            if sum(left) == rows[r]:
                yield m + (left,)
            return
        for row in bounded_compositions(rows[r], left):
            rest = tuple(c - v for c, v in zip(left, row))
            yield from extend(r + 1, m + (row,), rest)

    return extend(0, (), cols)


def _rows_sorted(matrix, rows):
    """True when each row is at most the next one of the same row sum."""
    return all(matrix[i] <= matrix[i + 1]
               for i in range(len(rows) - 1) if rows[i] == rows[i + 1])


def matrices_reference(rows, cols):
    """Brute force: itertools.product over each cell's value, bounded by
    its row and column sums, kept when every row and column sum matches.

    A row's candidates are the cell products with the right row sum.  Each
    is packed into one integer in base sum(rows) + 1, so the column sums
    of a choice of rows match exactly when the packed integers sum to the
    packed cols: no column sum can reach the base, so nothing carries.
    """
    base = sum(rows) + 1

    def pack(values):
        return sum(x * base ** j for j, x in enumerate(values))

    target = pack(cols)
    candidates = [
        {pack(v): v for v in product(*(range(min(r, c) + 1) for c in cols))
         if sum(v) == r}
        for r in rows
    ]
    return [
        tuple(row[code] for row, code in zip(candidates, codes))
        for codes in product(*candidates)
        if sum(codes) == target
    ]


def _row_orders(matrix: tuple, runs: list):
    """Every distinct arrangement of matrix's rows within their runs, each
    run sorted to begin with, one at a time in one list stepped in place:
    the last run steps to its next arrangement in lexicographic order, and
    a run past its last is sorted back and carries to the run before it."""
    rows = list(matrix)
    while True:
        yield rows
        for run in reversed(runs):
            lo, hi = run.start, run.stop
            i = hi - 2
            while i >= lo and rows[i] >= rows[i + 1]:
                i -= 1
            if i >= lo:
                break
            rows[run] = rows[run][::-1]
        else:
            return
        j = hi - 1
        while rows[j] <= rows[i]:
            j -= 1
        rows[i], rows[j] = rows[j], rows[i]
        rows[i + 1:hi] = rows[hi - 1:i:-1]


def least_key_reference(matrix, rows, cols):
    """The exhaustive minimum, the reference for `_least_key`: the least
    tuple of columns, each run of columns sorted, over every arrangement
    of the rows within their runs (sorted within them to begin with)."""
    col_runs = _runs(cols)
    return min(tuple(c for s in col_runs for c in sorted(columns[s]))
               for order in _row_orders(matrix, _runs(rows))
               for columns in (list(zip(*order)),))


def least_key(matrix, rows, cols):
    """The least key of matrix, with row sums rows and column sums cols,
    by the search extremal_refinements runs."""
    columns = tuple(zip(*matrix))
    runs = tuple(tuple(sorted(columns[s])) for s in _runs(cols))
    return _least_key(runs, tuple((s.start, s.stop) for s in _runs(rows)), {})


def component_key(cells, n_rows, n_cols):
    """The tuple of columns of the matrix whose nonzero cells are cells."""
    matrix = [[0] * n_cols for _ in range(n_rows)]
    for i, j, v in cells:
        matrix[i][j] = v
    return tuple(zip(*matrix))


class TestMatrices:
    @pytest.mark.parametrize("g", range(2, 8))
    def test_matches_reference_in_order(self, g):
        parts = split_partitions(g)
        for p in parts:
            for q in parts:
                assert list(_matrices(p, q)) == matrices_reference(p, q), (p, q)

    @pytest.mark.parametrize("g", range(2, 8))
    def test_row_sorted_matches_filtered_reference_in_order(self, g):
        parts = split_partitions(g)
        for p in parts:
            for q in parts:
                expected = [m for m in _matrices(p, q) if _rows_sorted(m, p)]
                assert list(_row_sorted_matrices(p, q)) == expected, (p, q)

    def test_row_sorted_single_row_and_equal_rows(self):
        assert list(_row_sorted_matrices((3,), (2, 1))) == [((2, 1),)]
        assert list(_row_sorted_matrices((1, 1), (1, 1))) == [((0, 1), (1, 0))]

    def test_margins_that_differ_in_total(self):
        for enumerate_matrices in (_matrices, _row_sorted_matrices):
            assert list(enumerate_matrices((2, 1), (1, 1))) == []
            assert list(enumerate_matrices((1, 1), (2, 1))) == []


class TestRowOrders:
    @pytest.mark.parametrize("g", range(2, 7))
    def test_distinct_arrangements_within_runs(self, g):
        # every arrangement of the rows within their runs, once each, the
        # first being the matrix itself
        parts = split_partitions(g)
        for p in parts:
            runs = _runs(p)
            for q in parts:
                for matrix in _row_sorted_matrices(p, q):
                    got = [tuple(order) for order in _row_orders(matrix, runs)]
                    blocks = [set(permutations(matrix[s])) for s in runs]
                    want = {tuple(chain.from_iterable(b)) for b in product(*blocks)}
                    assert got[0] == matrix and len(got) == len(set(got)), (p, q)
                    assert set(got) == want, (p, q, matrix)

    def test_equal_rows_and_two_runs(self):
        matrix = ((0, 1), (0, 1), (1, 0), (0, 2), (1, 1))
        got = [tuple(order) for order in _row_orders(matrix, [slice(0, 3), slice(3, 5)])]
        assert len(got) == 3 * 2 == len(set(got))


class TestLeastKey:
    @pytest.mark.parametrize("g", [*range(2, 8), pytest.param(8, marks=pytest.mark.slow)])
    def test_key_sets_equal_the_exhaustive_minimum(self, g):
        parts = split_partitions(g)
        for p in parts:
            for q in parts:
                want = {least_key_reference(m, p, q) for m in _row_sorted_matrices(p, q)}
                got = {component_key(c.cells, len(p), len(q))
                       for c in extremal_refinements(p, q)}
                assert got == want, (p, q)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_invariant_under_reordering(self, data):
        # a matrix up to 6 x 6, rows and columns sorted by their sums so
        # that equal sums form runs (and rows sorted within their runs, as
        # the reference takes them), keeps its least key when its rows are
        # permuted within their runs and its columns within theirs
        n_rows = data.draw(st.integers(1, 6))
        n_cols = data.draw(st.integers(1, 6))
        entry = st.integers(0, 2)
        matrix = data.draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                                    min_size=n_rows, max_size=n_rows))
        columns = sorted(zip(*matrix), key=sum, reverse=True)
        matrix = tuple(sorted(zip(*columns), key=lambda row: (-sum(row), row)))
        columns = tuple(zip(*matrix))
        rows, cols = tuple(map(sum, matrix)), tuple(map(sum, columns))

        def shuffled(seq, runs):
            return tuple(x for s in runs for x in data.draw(st.permutations(seq[s])))

        moved = shuffled(matrix, _runs(rows))
        moved = tuple(zip(*shuffled(tuple(zip(*moved)), _runs(cols))))
        key = least_key(matrix, rows, cols)
        assert least_key(moved, rows, cols) == key
        assert key == least_key_reference(matrix, rows, cols)


class TestRefinements:
    @pytest.mark.parametrize("g", range(2, 6))
    def test_matches_brute_force_reference(self, g):
        parts = split_partitions(g)
        for p in parts:
            for q in parts:
                got = [
                    (c.sigma, c.cells, c.excess_bundle)
                    for c in extremal_refinements(p, q)
                ]
                assert got == extremal_refinements_reference(p, q), (p, q)

    @pytest.mark.parametrize("g", [6, 7])
    def test_matches_orbit_closure_reference(self, g):
        parts = split_partitions(g)
        for p in parts:
            for q in parts:
                got = [
                    (c.sigma, c.cells, c.excess_bundle)
                    for c in extremal_refinements(p, q)
                ]
                assert got == orbit_closure_reference(p, q), (p, q)

    def test_elliptic_against_middle(self):
        for g in (5, 6, 8):
            for k in range(2, (g - 1) // 2 + 1):
                comps = extremal_refinements((g - 1, 1), (g - k, k))
                want = 1 if g == 2 * k else 2
                assert len(comps) == want, (g, k)
                sigmas = {c.sigma for c in comps}
                expected = {
                    tuple(sorted((1, k - 1, g - k), reverse=True)),
                    tuple(sorted((1, k, g - k - 1), reverse=True)),
                }
                assert sigmas <= expected

    def test_even_split_single_component(self):
        comps = extremal_refinements((5, 1), (3, 3))
        assert len(comps) == REFINEMENT_COUNTS[(1, 5), (3, 3)]
        assert comps[0].sigma == (3, 2, 1)

    def test_self_intersection_diagonal(self):
        comps = extremal_refinements((4, 1), (4, 1))
        diag = [c for c in comps if c.sigma == (4, 1)]
        assert len(diag) == 1
        assert diag[0].excess_bundle == ((1, 4),)

    def test_self_intersection_elliptic_pair(self):
        comps = extremal_refinements((1, 1), (1, 1))
        assert len(comps) == 1
        assert comps[0].sigma == (1, 1)
        assert comps[0].excess_bundle == ((1, 1),)

    def test_assignment_maps_partition_the_parts(self):
        p, q = (3, 2), (4, 1)
        comps = extremal_refinements(p, q)
        assert comps
        for comp in comps:
            for r, want in enumerate(p):
                assert sum(v for i, _, v in comp.cells if i == r) == want
            for col, want in enumerate(q):
                assert sum(v for _, j, v in comp.cells if j == col) == want

    def test_genus_mismatch(self):
        with pytest.raises(TorexError, match="partitions of genus 3 and 4"):
            extremal_refinements((2, 1), (3, 1))

    def test_arguments_sorted_and_checked(self):
        # each argument is sorted into a partition once, at entry
        assert extremal_refinements((1, 4), (2, 3)) == extremal_refinements((4, 1), (3, 2))
        for bad in [(), (3, 0), (4, -1, 1)]:
            with pytest.raises(TorexError, match="parts must be positive"):
                extremal_refinements(bad, (2, 1))


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
        for v in {v for m in expr.terms for v, _ in m}:
            block, idx = v[1], v[2]
            n = a if block == "x" else b
            terms = {}
            for combo in combinations(range(1, n + 1), idx):
                mono = tuple(sorted((root(block, i), 1) for i in combo))
                terms[mono] = Fraction(1)
            subs[v] = Poly(terms)
        assert expr.substitute(subs) == direct

    def test_rank_limit(self):
        with pytest.raises(TorexError, match="rank product 30 exceeds 25"):
            euler_tensor_reduce(6, 5)


class TestZeroint:
    def test_genus2_pair(self):
        assert zeroint_check((1, 1), (1, 1))

    def test_g5_mixed_pair(self):
        assert zeroint_check((4, 1), (3, 2))

    @pytest.mark.parametrize("g", range(2, 7))
    def test_exhaustive(self, g):
        parts = split_partitions(g)
        for p in parts:
            for q in parts:
                assert zeroint_check(p, q), (p, q)

    @pytest.mark.parametrize("g", [*range(2, 9), pytest.param(9, marks=pytest.mark.slow)])
    def test_every_bundle_non_empty(self, g):
        # split partitions have at least two parts, so every matrix has two
        # nonzero cells in different rows and different columns, and each
        # such pair of cells is a summand of its excess bundle
        parts = split_partitions(g)
        for i, p in enumerate(parts):
            for q in parts[:i + 1]:
                comps = extremal_refinements(p, q)
                for comp in comps:
                    apart = [tuple(sorted((a, b))) for (i1, j1, a), (i2, j2, b)
                             in combinations(comp.cells, 2) if i1 != i2 and j1 != j2]
                    assert apart and tuple(sorted(apart)) == comp.excess_bundle, (p, q, comp)
                assert comps and zeroint_check(p, q, comps), (p, q)

    def test_rejects_single_part(self):
        with pytest.raises(TorexError, match="both partitions need at least 2 parts"):
            zeroint_check((5,), (4, 1))

    def test_past_the_expansion_rank(self):
        # genus 11: one component's only excess summand has ranks 5 and 6,
        # past what the resultant's expansion takes
        comps = extremal_refinements((6, 5), (6, 5))
        assert ((5, 6),) in [c.excess_bundle for c in comps]
        with pytest.raises(TorexError, match="rank product 30 exceeds 25"):
            euler_tensor_reduce(5, 6)
        assert zeroint_check((6, 5), (6, 5))
        assert zeroint_check((6, 5), (6, 5), comps)

    @pytest.mark.parametrize("g", range(2, 8))
    def test_verdict_equals_resultant(self, g):
        # the expanded resultant, reduced, decides each component as the
        # emptiness of its bundle does
        parts = split_partitions(g)
        for i, p in enumerate(parts):
            for q in parts[:i + 1]:
                comps = extremal_refinements(p, q)
                verdicts = [any(euler_tensor_reduce(a, b).is_zero() for a, b in c.excess_bundle)
                            for c in comps]
                assert verdicts == [bool(c.excess_bundle) for c in comps], (p, q)
                assert zeroint_check(p, q, comps) == (bool(comps) and all(verdicts))

    def test_split_partitions(self):
        assert split_partitions(1) == []
        assert split_partitions(5) == [
            (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)
        ]


def hodge_split_reference(parts, m):
    """The compositions of m with a_i < g_i, by a depth-first walk over the
    parts: the former body of hodge_split_pullback, kept as its reference."""
    out = []

    def rec(i, left, acc):
        if i == len(parts):
            if left == 0:
                out.append(tuple(acc))
            return
        for a in range(0, min(left, parts[i] - 1) + 1):
            acc.append(a)
            rec(i + 1, left - a, acc)
            acc.pop()

    rec(0, m, [])
    return tuple(out)


class TestHodgeSplit:
    def test_matches_recursive_reference(self):
        # every partition of g, the one-part one included, and every degree
        for g in range(2, 13):
            for parts in [(g,)] + split_partitions(g):
                for m in range(g + 1):
                    want = hodge_split_reference(parts, m)
                    assert hodge_split_pullback(parts, m) == want, (parts, m)

    def test_top_degree_vanishes(self):
        for g in range(2, 11):
            for g1 in range(1, g // 2 + 1):
                assert hodge_split_pullback((g - g1, g1), g - 1) == ()

    def test_degree_zero(self):
        assert hodge_split_pullback((3, 2), 0) == ((0, 0),)

    def test_degree_one_with_elliptic_factor(self):
        # the elliptic factor's top class is deleted
        assert hodge_split_pullback((2, 1), 1) == ((1, 0),)

    def test_degree_one_general(self):
        assert hodge_split_pullback((3, 2), 1) == ((0, 1), (1, 0))

    def test_three_parts(self):
        # degree-2 compositions avoiding every factor's top class, in
        # increasing lexicographic order
        assert hodge_split_pullback((3, 2, 1), 2) == ((1, 1, 0), (2, 0, 0))

    def test_degree_out_of_range(self):
        for m in (-1, 7):
            with pytest.raises(TorexError, match="degree %d out of range" % m):
                hodge_split_pullback((4, 2), m)
