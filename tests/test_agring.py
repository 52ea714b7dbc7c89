import random
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torex import TorexError, agring
from torex.agring import (
    basis_subsets,
    graded_dimension,
    jacobi_trudi_wedge2,
    lam,
    matrix_rank,
    pairing_is_perfect,
    pairing_ranks,
    reduce,
    schur_wedge2,
    socle_degree,
    socle_pairing,
    virtual_class_product,
)
from torex.polyring import Poly, lamvar, zvar


def basis_monomial(J):
    return tuple((lamvar(j), 1) for j in J)


def cls(coords):
    return Poly({basis_monomial(J): c for J, c in coords.items()})


def single(J, c=1):
    return cls({J: c})


@pytest.fixture
def cold_ranks():
    """pairing_ranks with its cache empty before and after."""
    pairing_ranks.cache_clear()
    yield pairing_ranks
    pairing_ranks.cache_clear()


PRIME = 2**61 - 1


def fraction_rank(matrix):
    """Rank over Q by plain Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def rational_matrices(draw):
    """Random rational matrices; rows past the drawn basis are rational
    combinations of it, and some columns are zeroed, so the rank is often
    below both dimensions."""
    n_rows, n_cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    row = st.lists(rationals, min_size=n_cols, max_size=n_cols)
    basis = draw(st.lists(row, min_size=1, max_size=n_rows))
    rows = list(basis)
    for _ in range(n_rows - len(basis)):
        coeffs = draw(st.lists(rationals, min_size=len(basis), max_size=len(basis)))
        rows.append([sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n_cols)])
    zero_cols = draw(st.sets(st.integers(0, n_cols - 1)))
    rows = [[Fraction(0) if j in zero_cols else x for j, x in enumerate(r)] for r in rows]
    return draw(st.permutations(rows))


@st.composite
def lambda_polys(draw):
    """A genus 2..7, a random polynomial in lambda_1..lambda_{g+1} (the
    indices from g on vanish in the ring), and whether its coefficients
    were drawn integral."""
    g = draw(st.integers(2, 7))
    integral = draw(st.booleans())
    coeffs = st.integers(-6, 6) if integral else rationals
    monos = st.lists(st.integers(1, g + 1), max_size=5)
    p = Poly.zero()
    for c, idx in draw(st.lists(st.tuples(coeffs, monos), max_size=5)):
        p = p + c * prod((lam(i) for i in idx), start=Poly.const(1))
    return g, p, integral


class TestReduce:
    def test_square_of_first(self):
        assert reduce(4, lam(1) * lam(1)) == single((2,), 2)

    def test_top_square_vanishes(self):
        for g in range(2, 9):
            assert reduce(g, lam(g - 1) * lam(g - 1)).is_zero()

    def test_top_class_vanishes(self):
        for g in range(1, 9):
            assert reduce(g, lam(g)).is_zero()

    def test_idempotent_on_basis(self):
        g = 5
        for J in basis_subsets(g, 6):
            p = Poly.const(1)
            for j in J:
                p = p * lam(j)
            assert reduce(g, p) == single(J)

    def test_ring_homomorphism_random(self):
        rng = random.Random(19)
        g = 5
        for _ in range(15):
            def rand_poly():
                p = Poly.zero()
                for _ in range(rng.randint(1, 3)):
                    term = Poly.const(rng.randint(-4, 4))
                    for _ in range(rng.randint(0, 3)):
                        term = term * lam(rng.randint(1, g))
                    p = p + term
                return p

            a, b = rand_poly(), rand_poly()
            assert reduce(g, a * b) == reduce(g, reduce(g, a) * reduce(g, b))
            assert reduce(g, a + b) == reduce(g, a) + reduce(g, b)

    @settings(max_examples=150, deadline=None)
    @given(lambda_polys())
    def test_normal_form_contract(self, case):
        g, p, integral = case
        r = reduce(g, p)
        for m in r.terms:
            idx = [v[2] for v, _ in m]
            assert all(v == lamvar(v[2]) and e == 1 for v, e in m)
            assert len(set(idx)) == len(idx)
            assert all(1 <= i <= g - 1 for i in idx)
        assert reduce(g, r) == r
        if integral:
            assert all(type(c) is int for c in r.terms.values())


class TestMultiply:
    def test_square_free_product(self):
        g = 5
        got = reduce(g, single((1,)) * single((4,)))
        assert got == single((1, 4))

    def test_one_is_identity(self):
        g = 4
        a = cls({(): 2, (1, 2): -3})
        one = single(())
        assert reduce(g, one * a) == a

    def test_beyond_socle_vanishes(self):
        g = 4
        socle = single((1, 2, 3))
        assert reduce(g, socle * single((1,))).is_zero()
        assert reduce(g, single((2, 3)) * single((2,))).is_zero()


class TestStructure:
    @pytest.mark.parametrize("g", range(2, 11))
    def test_total_dimension(self, g):
        D = socle_degree(g)
        assert sum(graded_dimension(g, d) for d in range(D + 1)) == 2 ** (g - 1)

    @pytest.mark.parametrize("g", range(2, 11))
    def test_graded_dimension_counts_subsets(self, g):
        for d in range(socle_degree(g) + 1):
            assert graded_dimension(g, d) == len(basis_subsets(g, d))

    def test_socle_one_dimensional(self):
        for g in range(2, 9):
            assert graded_dimension(g, socle_degree(g)) == 1
            assert basis_subsets(g, socle_degree(g)) == [tuple(range(1, g))]


class TestSoclePairing:
    def test_degree_zero(self):
        assert socle_pairing(3, 0) == [[Fraction(1)]]

    def test_g2_degree_one(self):
        assert socle_pairing(2, 1) == [[Fraction(1)]]

    @pytest.mark.parametrize("g", range(2, 9))
    def test_all_pairings_perfect(self, g):
        for d in range(socle_degree(g) + 1):
            assert pairing_is_perfect(g, d), (g, d)

    def test_g4_full_rank_matrices(self):
        for d in range(socle_degree(4) + 1):
            m = socle_pairing(4, d)
            if m:
                assert matrix_rank(m) == len(m)

    @settings(max_examples=200, deadline=None)
    @given(rational_matrices())
    @example([[Fraction(0)] * 3] * 2)
    def test_rank_matches_fraction_elimination(self, matrix):
        assert matrix_rank(matrix) == fraction_rank(matrix)

    # singular modulo the prime 2^61 - 1, but not (or less so) over Q: the
    # Bareiss elimination must keep entries of 2^61 and above exact
    @pytest.mark.parametrize("matrix, rank", [
        ([[PRIME]], 1),
        ([[1, 1], [1, 1 + PRIME]], 2),
        ([[2, 3], [4, 6 + PRIME]], 2),
        ([[Fraction(PRIME, 3), Fraction(1, 3)], [Fraction(0), Fraction(1, 2)]], 2),
        ([[Fraction(1, 2), Fraction(0), Fraction(0)],
          [Fraction(0), Fraction(5 * PRIME, 7), Fraction(0)]], 2),
        ([[PRIME, 0], [0, PRIME], [PRIME, PRIME]], 2),
        ([[PRIME, 2 * PRIME], [1, 2]], 1),
    ])
    def test_rank_exact_where_the_prime_fails(self, matrix, rank):
        assert fraction_rank(matrix) == rank
        assert matrix_rank(matrix) == rank

    @pytest.mark.parametrize("g", range(1, 10))
    def test_mirrored_ranks_match_direct(self, g):
        D = socle_degree(g)
        dims, ranks = pairing_ranks(g)
        assert list(dims) == [graded_dimension(g, d) for d in range(D + 1)]
        assert list(ranks) == [matrix_rank(socle_pairing(g, d)) for d in range(D + 1)]

    def test_certificate_needs_no_elimination(self, monkeypatch, cold_ranks):
        def refuse(matrix):
            raise AssertionError("matrix_rank called")

        monkeypatch.setattr(agring, "matrix_rank", refuse)
        for g in range(2, 13):
            dims, ranks = cold_ranks(g)
            assert ranks == dims, g

    def test_failed_certificate_falls_back_to_matrix_rank(self, monkeypatch, cold_ranks):
        # lambda_3^2 = 0 at g = 4 sits left of the diagonal in degree 3,
        # where rows (1, 2), (3,) meet columns (3,), (1, 2); forced to a
        # quarter of the socle it makes that pairing singular
        reduce_monomial = agring._reduce_monomial

        def forced(g, exps):
            if exps == (3, 3):
                return (((1, 2, 3), Fraction(1, 4)),)
            return reduce_monomial(g, exps)

        ranked = []

        def spy(matrix):
            ranked.append(matrix)
            return matrix_rank(matrix)

        monkeypatch.setattr(agring, "_reduce_monomial", forced)
        monkeypatch.setattr(agring, "matrix_rank", spy)
        dims, ranks = cold_ranks(4)
        assert ranked == [[[4, 1], [1, Fraction(1, 4)]]]
        assert dims[3] == 2 and ranks[3] == 1
        assert ranks[:3] == dims[:3] and ranks[4:] == dims[4:]

    @pytest.mark.parametrize("g", range(1, 8))
    def test_pairing_is_transposed_by_complement_degree(self, g):
        D = socle_degree(g)
        for d in range(D + 1):
            assert socle_pairing(g, D - d) == [list(c) for c in zip(*socle_pairing(g, d))]

    @pytest.mark.parametrize("form", [
        (((1, 2), 1),),
        (((1, 2), 1), ((1, 2, 3), 2)),
        (((1, 2, 3), 2), ((1, 2, 3, 4), 1)),
    ])
    def test_top_degree_other_than_one_socle_term_raises(self, monkeypatch, form):
        monkeypatch.setattr(agring, "_reduce_monomial", lambda g, exps: form)
        with pytest.raises(TorexError, match="top degree of genus 4"):
            socle_pairing(4, 3)

    def test_out_of_range_degree_vacuously_perfect(self):
        assert pairing_is_perfect(4, -1) and pairing_is_perfect(4, 7)


class TestSchurWedge2:
    @pytest.mark.parametrize("g", range(1, 9))
    def test_reduces_to_socle_generator(self, g):
        assert schur_wedge2(g) == single(tuple(range(1, g)))

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("g", range(1, 6))
    def test_matches_root_expansion(self, g, dual):
        # independent oracle, before any reduction: with lambda_k the k-th
        # elementary symmetric polynomial of roots x_1..x_g the determinant
        # is prod_{i<j} (x_i + x_j); dual=True negates the roots
        sign = -1 if dual else 1
        x = [Poly.var(zvar(i)) for i in range(1, g + 1)]
        direct = Poly.const(1)
        for a, b in combinations(x, 2):
            direct = direct * (sign * (a + b))
        subs = {}
        for k in range(1, g + 1):
            e_k = Poly.zero()
            for combo in combinations(x, k):
                term = Poly.const(1)
                for root in combo:
                    term = term * root
                e_k = e_k + term
            subs[lamvar(k)] = e_k
        assert jacobi_trudi_wedge2(g, dual).substitute(subs) == direct


class TestVirtualClasses:
    def test_elliptic_square(self):
        one = single(())
        assert virtual_class_product(2, 1) == (one, one)

    def test_g4_middle(self):
        minus_lam1 = single((1,), -1)
        assert virtual_class_product(4, 2) == (minus_lam1, minus_lam1)

    @pytest.mark.parametrize("g", range(2, 9))
    def test_signs_match_closed_form(self, g):
        for k in range(1, g):
            left, right = virtual_class_product(g, k)
            assert left == single(tuple(range(1, k)), (-1) ** comb(k, 2))
            assert right == single(tuple(range(1, g - k)), (-1) ** comb(g - k, 2))

    def test_bad_split(self):
        with pytest.raises(TorexError, match="need 1 <= k <= g-1, got k=0, g=4"):
            virtual_class_product(4, 0)
        with pytest.raises(TorexError, match="need 1 <= k <= g-1, got k=4, g=4"):
            virtual_class_product(4, 4)
