import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torex import TorexError
from torex.polyring import (
    PackedLayout,
    Poly,
    cvar,
    elem_sym_rewrite,
    evar,
    lamvar,
    mono_degree,
    mono_mul,
    psivar,
    zvar,
)
from torex.excess import all_contributions
from torex.strata import _substitutions


def z(i):
    return Poly.var(zvar(i))


def e(i):
    return Poly.var(evar(i))


def c(i):
    return Poly.var(cvar(i))


def random_poly(rng, vars_, max_terms=6, max_exp=3):
    t = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = {}
        for v in vars_:
            e = rng.randint(0, max_exp)
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


# int and non-integral Fraction coefficients, plus Fractions that are integral
COEFFS = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=4))
GRADED_VARS = [zvar(1), zvar(2), cvar(2), evar(3)]


@st.composite
def mixed_polys(draw, vars_=GRADED_VARS, max_terms=5, max_exp=2):
    """Polynomials in variables of degrees 1, 1, 2 and 3 whose coefficients
    are given as int or Fraction, integral or not."""
    t = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(st.lists(st.integers(0, max_exp), min_size=len(vars_),
                             max_size=len(vars_)))
        mono = tuple(sorted((v, x) for v, x in zip(vars_, exps) if x))
        t[mono] = draw(COEFFS)
    return Poly(t)


def stored_exactly(p):
    """Every stored coefficient is a nonzero int or a non-integral Fraction."""
    return all(c and (type(c) is int or (type(c) is Fraction and c.denominator != 1))
               for c in p.terms.values())


def mono_mul_reference(a, b):
    exps = dict(a)
    for v, x in b:
        exps[v] = exps.get(v, 0) + x
    return tuple(sorted((v, x) for v, x in exps.items() if x))


def substitute_reference(p, values):
    """Poly.substitute by Poly arithmetic: each term becomes a Poly and is
    multiplied by the power of each substituted variable in turn."""
    cache = {}

    def vpow(v, e):
        if (v, e) not in cache:
            cache[v, e] = values[v] ** e
        return cache[v, e]

    t = {}
    for m, c in p.terms.items():
        # the variables left alone stay one monomial
        factor = Poly._of({tuple(ve for ve in m if ve[0] not in values): c})
        for v, e in m:
            if v in values:
                factor = factor.mul(vpow(v, e))
        for fm, fc in factor.terms.items():
            t[fm] = t.get(fm, 0) + fc
    return Poly(t)


# values for GRADED_VARS: the zero polynomial, or polynomials in z_1 (itself
# substituted, but not recursively), c_1 and vertex classes
SUB_VALUES = st.one_of(
    st.just(Poly.zero()),
    mixed_polys(vars_=[zvar(1), cvar(1), psivar(1, 0), lamvar(2, 1)], max_terms=3),
)


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(mixed_polys(), mixed_polys(), st.integers(-1, 8))
    def test_truncated_mul_is_truncated_product(self, a, b, d):
        assert a.mul(b, d) == (a * b).truncate(d)
        assert a.mul(b, d).terms.keys() == (a * b).truncate(d).terms.keys()

    @settings(max_examples=60, deadline=None)
    @given(mixed_polys(), mixed_polys(), mixed_polys(max_terms=2))
    def test_no_integral_fraction_stored(self, a, b, q):
        assert stored_exactly(a) and stored_exactly(b)
        assert stored_exactly(a + b) and stored_exactly(a - b)
        assert stored_exactly(a * b) and stored_exactly(a.mul(b, 3))
        assert stored_exactly(a.substitute({zvar(1): q, cvar(2): b}))
        assert stored_exactly((1 + q - q.constant_term()).series_inverse(4))

    def test_integral_fractions_become_int(self):
        p = Poly({((zvar(1), 1),): Fraction(4, 2), (): Fraction(1, 2)})
        assert type(p.coeff(((zvar(1), 1),))) is int
        assert type((p + p).constant_term()) is int
        assert type(Poly.const(Fraction(6, 3)).constant_term()) is int
        assert z(1).coeff(()) == 0 and type(z(1).constant_term()) is int

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mono_mul_matches_reference(self, data):
        pool = [zvar(1), zvar(2), zvar(3), cvar(1), evar(2), lamvar(1, 0), psivar(1, 0)]

        def mono():
            vs = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=5))
            xs = data.draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(vs),
                                    max_size=len(vs)))
            return tuple(sorted(zip(vs, xs)))

        a, b = mono(), mono()
        assert mono_mul(a, b) == mono_mul_reference(a, b)

    @settings(max_examples=150, deadline=None)
    @given(mixed_polys(), st.dictionaries(st.sampled_from(GRADED_VARS), SUB_VALUES, max_size=4))
    def test_substitute_matches_reference(self, p, values):
        # partial substitutions, Fraction coefficients and zero values
        got = p.substitute(values)
        assert got == substitute_reference(p, values)
        assert stored_exactly(got)

    def test_substitute_cancels_to_zero(self):
        a, b = Poly.var(psivar(1, 0)), Poly.var(psivar(2, 1))
        p = z(1) ** 2 - z(2) ** 2 + Fraction(1, 2) * z(1) * c(2)
        values = {zvar(1): a - b, zvar(2): b - a, cvar(2): Poly.zero()}
        assert p.substitute(values).is_zero()
        assert substitute_reference(p, values).is_zero()
        # a Fraction sum that cancels to an integer is stored as int
        q = Fraction(1, 2) * z(1) + Fraction(1, 2) * z(2)
        got = q.substitute({zvar(1): a, zvar(2): a})
        assert got == a and stored_exactly(got)

    @pytest.mark.parametrize("g", range(2, 8))
    def test_substitute_matches_reference_on_strata(self, g):
        for cont in all_contributions(g).values():
            subs = _substitutions(cont.tree, max(cont.degree, 0))
            got = cont.poly.substitute(subs)
            assert got == substitute_reference(cont.poly, subs), cont.tree.code
            assert stored_exactly(got)

    def test_mono_mul_cancels_to_one(self):
        a = ((zvar(1), 2), (cvar(3), -1))
        assert mono_mul(a, ((zvar(1), -2), (cvar(3), 1))) == ()

    def test_rational_text_unchanged(self):
        half = Poly.const(Fraction(1, 2))
        assert str(half) == "1/2"
        p = Fraction(-3, 4) * z(1) + 2 * c(2)
        assert str(p) == "-3/4*z1 + 2*c2"
        assert str(Poly.const(Fraction(6, 3))) == "2"


class TestArith:
    def test_difference_of_squares(self):
        assert (z(1) + z(2)) * (z(1) - z(2)) == z(1) ** 2 - z(2) ** 2

    def test_equality_with_other_types(self):
        # an int or a Fraction compares as a constant; anything else is unequal
        assert Poly.const(1) == 1 == Fraction(1) == Poly.const(1)
        assert Poly.const(Fraction(1, 2)) == Fraction(1, 2)
        assert Poly.var(zvar(1)) != 1
        for other in (None, "z1", [1]):
            assert Poly.var(zvar(1)) != other and other != Poly.var(zvar(1))
            assert not Poly.var(zvar(1)) == other

    @pytest.mark.parametrize("other", ["z1", None, [1], 0.5])
    def test_arithmetic_with_other_types_raises_type_error(self, other):
        # only a Poly, an int or a Fraction is an operand; anything else
        # gets Python's own TypeError, not an error from inside Fraction
        x = Poly.var(zvar(1))
        for op in (lambda: x + other, lambda: other + x, lambda: x - other,
                   lambda: other - x, lambda: x * other, lambda: x.mul(other, 2)):
            with pytest.raises(TypeError):
                op()
        with pytest.raises(TypeError, match="unsupported operand"):
            x + other

    def test_mul_identity(self):
        p = 3 * z(1) * z(2) - Fraction(1, 2) * c(2)
        assert p * Poly.const(1) == p

    @settings(max_examples=40, deadline=None)
    @given(mixed_polys(max_terms=3), st.integers(0, 5))
    def test_power_is_repeated_product(self, p, n):
        want = Poly.const(1)
        for _ in range(n):
            want = want * p
        got = p ** n
        assert got == want and stored_exactly(got)

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
            for d in range(max(map(mono_degree, p.terms), default=0) + 1):
                total = total + p.graded_part(d)
            assert total == p


class TestExactDivide:
    def test_basic(self):
        p = z(1) * z(2) + z(1) ** 2 * z(2)
        m = tuple(sorted(((zvar(1), 1), (zvar(2), 1))))
        assert p.exact_divide(m) == 1 + z(1)

    def test_not_divisible(self):
        with pytest.raises(TorexError, match="term z2 not divisible by z1"):
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
        # (1 + z1 + z1^2) / z1 = 1/z1 + 1 + z1
        assert (1 + z(1) + z(1) ** 2).taylor_part(((zvar(1), 1),)) == 1 + z(1)

    def test_pure_polar(self):
        assert z(2).taylor_part(((zvar(1), 1),)).is_zero()

    def test_square_over_z(self):
        assert ((1 + z(1)) ** 2).taylor_part(((zvar(1), 1),)) == 2 + z(1)

    def test_idempotent_and_linear(self):
        rng = random.Random(5)
        vs = [zvar(1), zvar(2)]
        m = ((zvar(1), 1), (zvar(2), 2))
        mpoly = z(1) * z(2) ** 2
        for _ in range(20):
            p = random_poly(rng, vs)
            q = random_poly(rng, vs)
            assert p.taylor_part(()) == p
            assert (p + q).taylor_part(m) == p.taylor_part(m) + q.taylor_part(m)
            assert (p * mpoly).taylor_part(m) == p


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
        with pytest.raises(TorexError, match="constant term 2 != 1"):
            (2 + z(1)).series_inverse(3)
        with pytest.raises(TorexError, match="constant term 0 != 1"):
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


def packed(layout, p):
    """The packed terms of a z-polynomial p."""
    return {sum(e * layout.unit[v[1]] for v, e in m): c for m, c in p.terms.items()}


class TestPacked:
    """The packed-monomial layout against exponent tuples and Poly."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 9), st.data())
    def test_exponents_degree_roundtrip(self, n_z, max_deg, data):
        layout = PackedLayout(n_z=n_z, max_deg=max_deg)
        factors = data.draw(st.lists(st.integers(1, n_z), max_size=max_deg))
        key = sum(layout.unit[i] for i in factors)
        want = tuple(factors.count(i) for i in range(1, n_z + 1))
        assert layout.exponents(key, n_z) == want
        assert layout.degree(key) == len(factors)
        m = data.draw(st.integers(0, n_z))
        assert layout.exponents(key, m) == want[:m]

    def test_divide(self):
        layout = PackedLayout(n_z=3, max_deg=6)
        m = z(1) * z(3) ** 2
        [key] = packed(layout, m)
        p = 1 + z(2) - 3 * z(2) * z(3) + z(1) ** 2
        assert layout.divide(packed(layout, p * m), key) == packed(layout, p)

    @pytest.mark.parametrize("p", [z(1) * z(3) ** 2 + z(3) ** 2,  # a z missing
                                   z(1) * z(3) + z(1) * z(3) ** 2,  # a z too low
                                   # z_1 missing, with a z_2 to borrow from
                                   z(1) * z(2) * z(3) ** 2 - z(2) ** 3])
    def test_divide_not_divisible(self, p):
        layout = PackedLayout(n_z=3, max_deg=6)
        [key] = packed(layout, z(1) * z(3) ** 2)
        with pytest.raises(TorexError, match=r"not divisible by \(1, 0, 2\)"):
            layout.divide(packed(layout, p), key)


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
        assert all(v[0] in ("z", "c") for m in rewritten.terms for v, _ in m)
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
