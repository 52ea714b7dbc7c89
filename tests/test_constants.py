from fractions import Fraction
from math import comb, factorial

import pytest

from torex.constants import (
    PRINTED_G6_VARIANT,
    _log_sine_series,
    bernoulli,
    coefficient_discrepancy,
    hodge_constants,
    product_coefficient,
    series_identity_check,
)
from torex.polyring import Poly, zvar
from torex.verify import G1_TAIL_INTEGRAL, PROJECTION_COEFFICIENTS


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(8) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        assert all(bernoulli(2 * k + 1) == 0 for k in range(1, 12))

    def test_convolution_recurrence(self):
        for m in range(1, 25):
            acc = sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1))
            assert acc == 0, m

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestProductCoefficient:
    def test_headline_values(self):
        for g in (4, 5, 7):
            assert product_coefficient(g) == PROJECTION_COEFFICIENTS[g]

    def test_g6_formula_value_and_flag(self):
        assert product_coefficient(6) == PROJECTION_COEFFICIENTS[6]
        assert coefficient_discrepancy(6) == PRINTED_G6_VARIANT
        assert PRINTED_G6_VARIANT != PROJECTION_COEFFICIENTS[6]
        assert coefficient_discrepancy(5) is None

    def test_closed_form(self):
        for g in range(1, 12):
            assert product_coefficient(g) == Fraction(g) / (
                6 * abs(bernoulli(2 * g))
            )


class TestHodgeConstants:
    def test_elliptic_tail(self):
        assert hodge_constants(1).tail_integral == G1_TAIL_INTEGRAL
        assert hodge_constants(1).triple_lambda is None

    def test_genus2_values(self):
        hc = hodge_constants(2)
        assert hc.tail_integral == Fraction(1, 2880)
        # (1/(2*2!)) * (|B4|/4) * (|B2|/2); equals half the lambda1^3
        # integral 1/2880 on the genus-2 moduli space
        assert hc.triple_lambda == Fraction(1, 5760)

    def test_closed_forms(self):
        for g in range(2, 10):
            hc = hodge_constants(g)
            assert hc.tail_integral == abs(bernoulli(2 * g)) / Fraction(
                2 * g * factorial(2 * g)
            )
            assert hc.triple_lambda == (
                Fraction(1, 2 * factorial(2 * g - 2))
                * (abs(bernoulli(2 * g)) / Fraction(2 * g))
                * (abs(bernoulli(2 * g - 2)) / Fraction(2 * g - 2))
            )

    @pytest.mark.parametrize("g", range(2, 13))
    def test_consistency_chain(self, g):
        assert product_coefficient(g) * hodge_constants(g).triple_lambda == (
            hodge_constants(g - 1).tail_integral / 24
        )


def log_sine_series_reference(order):
    """-log(1 + u) for u = sin(t/2)/(t/2) - 1, summed over the truncated
    powers of u up to degree 2*order."""
    t, max_deg = zvar(0), 2 * order
    u = Poly({((t, 2 * k),): Fraction((-1) ** k, 4 ** k * factorial(2 * k + 1))
              for k in range(1, order + 1)})
    out, power, j = Poly.zero(), Poly.const(1), 1
    while True:
        power = power.mul(u, max_deg)
        if power.is_zero():
            return out
        out = out - power * Fraction((-1) ** (j + 1), j)
        j += 1


class TestSeriesIdentity:
    def test_holds_to_order_20(self):
        assert series_identity_check(20)

    @pytest.mark.parametrize("order", range(2, 21))
    def test_recurrence_matches_truncated_powers(self, order):
        # the reference is a series in t; _log_sine_series lists its even
        # coefficients, and it has no other terms
        reference = log_sine_series_reference(order)
        t = zvar(0)
        evens = {((t, 2 * k),) for k in range(1, order + 1)}
        assert set(reference.terms) <= evens
        assert _log_sine_series(order) == tuple(
            reference.coeff(((t, 2 * k),) if k else ()) for k in range(order + 1))

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            series_identity_check(1)
