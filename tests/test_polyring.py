import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torex.polyring import (
    NotDivisible,
    NotUnitConstantTerm,
    Poly,
    cvar,
    elem_sym_rewrite,
    evar,
    lamvar,
    psivar,
    zvar,
)


def z(i):
    return Poly.var(zvar(i))


def e(i):
    return Poly.var(evar(i))


def c(i):
    return Poly.var(cvar(i))


def random_poly(rng, vars_, max_terms=6, max_exp=3, laurent=False):
    t = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = {}
        for v in vars_:
            e = rng.randint(-1 if laurent else 0, max_exp)
            if e:
                mono[v] = e
        t[tuple(sorted(mono.items()))] = Fraction(rng.randint(-9, 9))
    return Poly(t)


def polys(vars_, max_terms=4, max_exp=2):
    """Hypothesis strategy: small polynomials in the given variables."""
    term = st.tuples(
        st.integers(-9, 9),
        st.lists(st.integers(0, max_exp), min_size=len(vars_), max_size=len(vars_)),
    )

    def build(terms):
        out = Poly.zero()
        for coeff, exps in terms:
            mono = tuple(sorted((v, x) for v, x in zip(vars_, exps) if x))
            out = out + Poly({mono: Fraction(coeff)})
        return out

    return st.lists(term, max_size=max_terms).map(build)


class TestArith:
    def test_difference_of_squares(self):
        assert (z(1) + z(2)) * (z(1) - z(2)) == z(1) ** 2 - z(2) ** 2

    def test_mul_identity(self):
        p = 3 * z(1) * z(2) - Fraction(1, 2) * c(2)
        assert p * Poly.const(1) == p

    def test_line_expansion(self):
        # c(N) of a one-leaf model with two line bundles
        got = (1 + z(1)) * (1 + e(1) + e(2))
        assert got == 1 + z(1) + e(1) + z(1) * e(1) + e(2) + z(1) * e(2)
        assert got.graded_part(2) == z(1) * e(1) + e(2)

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        vs = [zvar(1), zvar(2), evar(1)]
        for _ in range(25):
            a, b, cc = (random_poly(rng, vs) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + cc) == a * b + a * cc
            assert (a * b) * cc == a * (b * cc)


class TestGradedPart:
    def test_simple(self):
        p = 1 + z(1) + z(1) * z(2)
        assert p.graded_part(2) == z(1) * z(2)

    def test_genus3_leaf_series(self):
        # degree-2 part of c(E^dual)/(1 - psi_1) on a genus-3 leaf
        lam1, lam2 = Poly.var(lamvar(1, 0)), Poly.var(lamvar(2, 0))
        psi = Poly.var(psivar(1, 0))
        series = (1 - lam1 + lam2) * (1 - psi).series_inverse(2)
        assert series.graded_part(2) == lam2 - lam1 * psi + psi ** 2

    def test_above_degree(self):
        p = 1 + z(1)
        assert p.graded_part(5).is_zero()

    def test_parts_sum_to_whole(self):
        rng = random.Random(11)
        vs = [zvar(1), cvar(2), evar(2)]
        for _ in range(20):
            p = random_poly(rng, vs)
            total = Poly.zero()
            for d in range(p.degree() + 1):
                total = total + p.graded_part(d)
            assert total == p


class TestExactDivide:
    def test_basic(self):
        p = z(1) * z(2) + z(1) ** 2 * z(2)
        m = tuple(sorted(((zvar(1), 1), (zvar(2), 1))))
        assert p.exact_divide(m) == 1 + z(1)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            (z(1) + z(2)).exact_divide(((zvar(1), 1),))

    def test_roundtrip_random(self):
        rng = random.Random(3)
        vs = [zvar(1), zvar(2), zvar(3)]
        m = ((zvar(1), 2), (zvar(3), 1))
        mpoly = z(1) ** 2 * z(3)
        for _ in range(20):
            p = random_poly(rng, vs)
            assert (p * mpoly).exact_divide(m) == p


class TestTaylorPart:
    def test_simple_laurent(self):
        p = (1 + z(1) + z(1) ** 2).laurent_divide(((zvar(1), 1),))
        assert p.taylor_part() == 1 + z(1)

    def test_pure_polar(self):
        p = z(2).laurent_divide(((zvar(1), 1),))
        assert p.taylor_part().is_zero()

    def test_square_over_z(self):
        p = ((1 + z(1)) ** 2).laurent_divide(((zvar(1), 1),))
        assert p.taylor_part() == 2 + z(1)

    def test_idempotent_and_linear(self):
        rng = random.Random(5)
        vs = [zvar(1), zvar(2)]
        for _ in range(20):
            p = random_poly(rng, vs, laurent=True)
            q = random_poly(rng, vs, laurent=True)
            assert p.taylor_part().taylor_part() == p.taylor_part()
            assert (p + q).taylor_part() == p.taylor_part() + q.taylor_part()


class TestSeriesInverse:
    def test_geometric(self):
        psi = Poly.var(psivar(1, 0))
        assert (1 - psi).series_inverse(2) == 1 + psi + psi ** 2

    def test_degree_one(self):
        assert (1 + z(1)).series_inverse(1) == 1 - z(1)

    def test_defining_property(self):
        p = 1 + 2 * z(1) + 3 * z(2) ** 2 - z(1) * z(2)
        q = p.series_inverse(4)
        assert (p * q).truncate(4) == Poly.const(1)

    def test_rejects_bad_constant(self):
        with pytest.raises(NotUnitConstantTerm):
            (2 + z(1)).series_inverse(3)
        with pytest.raises(NotUnitConstantTerm):
            z(1).series_inverse(3)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
           st.integers(1, 5))
    def test_inverse_property_hypothesis(self, coeffs, max_deg):
        p = Poly.const(1)
        for i, a in enumerate(coeffs, start=1):
            p = p + a * z(1) ** i
        q = p.series_inverse(max_deg)
        assert (p * q).truncate(max_deg) == Poly.const(1)


class TestElemSymRewrite:
    def test_worked_two_line_case(self):
        p = z(2) + z(3) - 3 * e(1)
        A = (1 + z(1) + z(2)) * (1 + z(1) + z(3))
        got = elem_sym_rewrite(p, 2, A)
        assert got == -3 * c(1) + 6 * z(1) + 4 * z(2) + 4 * z(3)

    def test_line_free_fixed(self):
        p = Poly.const(-3)
        assert elem_sym_rewrite(p, 2, 1 + z(1)) == p

    def test_single_line_trivial_factor(self):
        assert elem_sym_rewrite(e(1), 1, Poly.const(1)) == c(1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_roundtrip_random(self, m, data):
        # substitute c_i := [A * (1 + e_1 + ... + e_m)]_i back in; must recover p
        zs = [zvar(1), zvar(2)]
        p = data.draw(polys(zs + [evar(i) for i in range(1, m + 1)]))
        q = data.draw(polys(zs))
        A = 1 + q - q.constant_term()
        rewritten = elem_sym_rewrite(p, m, A)
        assert all(v[0] in ("z", "c") for v in rewritten.variables())
        total = A * (1 + sum((e(i) for i in range(1, m + 1)), Poly.zero()))
        back = rewritten.substitute(
            {cvar(i): total.graded_part(i) for i in range(1, m + 1)}
        )
        assert back == p


class TestText:
    def test_canonical_string(self):
        p = -3 * c(1) + 6 * z(1) + 4 * z(2)
        assert str(p) == "-3*c1 + 6*z1 + 4*z2"

    def test_zero_and_const(self):
        assert str(Poly.zero()) == "0"
        assert str(Poly.const(Fraction(-3, 2))) == "-3/2"

    def test_json_roundtrip(self):
        p = Fraction(7, 3) * z(1) ** 2 * c(2) - e(2)
        assert Poly.from_json(p.to_json()) == p
