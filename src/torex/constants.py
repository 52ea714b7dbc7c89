"""Bernoulli numbers and the closed-form Hodge integrals behind the
tautological projection coefficient g / (6 |B_2g|)."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

_bernoulli_table = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """B_n in the convention B_1 = -1/2, via the convolution recurrence
    sum_{j<=m} C(m+1, j) B_j = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_bernoulli_table) <= n:
        m = len(_bernoulli_table)
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * _bernoulli_table[j]
        _bernoulli_table.append(-acc / (m + 1))
    return _bernoulli_table[n]


def product_coefficient(g: int) -> Fraction:
    """Coefficient of lambda_{g-1} in the tautological projection of the
    product-locus class: g / (6 |B_2g|)."""
    if g < 1:
        raise ValueError("g must be >= 1")
    return Fraction(g) / (6 * abs(bernoulli(2 * g)))


# The g = 6 coefficient as printed in one published display; it
# transposes two digits of the formula value 2730/691 and both cannot
# hold, so the formula value is reported and the variant is flagged.
PRINTED_G6_VARIANT = Fraction(2370, 691)


def coefficient_discrepancy(g: int) -> Fraction | None:
    """The conflicting printed value when one exists for this genus."""
    if g == 6 and product_coefficient(6) != PRINTED_G6_VARIANT:
        return PRINTED_G6_VARIANT
    return None


class HodgeConstants(namedtuple("HodgeConstants", "tail_integral triple_lambda")):
    """The two closed-form integrals entering the coefficient check, each
    a Fraction (triple_lambda None below g = 2).

    tail_integral:  integral of c(E^dual)/(1 - psi_1) * lambda_g lambda_{g-1}
                    over the (g,1) moduli space  =  |B_2g| / (2g (2g)!)
    triple_lambda:  integral of lambda_g lambda_{g-1} lambda_{g-2}
                    =  1/(2 (2g-2)!) * |B_2g|/(2g) * |B_{2g-2}|/(2g-2)
    """

    __slots__ = ()


def hodge_constants(g: int) -> HodgeConstants:
    if g < 1:
        raise ValueError("g must be >= 1")
    tail = abs(bernoulli(2 * g)) / Fraction(2 * g * factorial(2 * g))
    triple = None
    if g >= 2:
        triple = (
            Fraction(1, 2 * factorial(2 * g - 2))
            * (abs(bernoulli(2 * g)) / Fraction(2 * g))
            * (abs(bernoulli(2 * g - 2)) / Fraction(2 * g - 2))
        )
    return HodgeConstants(tail_integral=tail, triple_lambda=triple)


@lru_cache(maxsize=None)
def _log_sine_series(order: int) -> tuple:
    """-log(sin(t/2) / (t/2)) as an exact series up to degree 2*order: a
    tuple whose entry k is the coefficient of t^(2k), k = 0..order (the
    series is even, and its constant term is 0).

    In x = t^2 the quotient is f = sum_k (-1)^k x^k / (4^k (2k+1)!), and
    the coefficients of log f = sum_k L_k x^k follow from x f (log f)' =
    x f':  k L_k = k f_k - sum_{0<j<k} j L_j f_{k-j}.
    """
    f = [Fraction((-1) ** k, 4 ** k * factorial(2 * k + 1)) for k in range(order + 1)]
    L = [0]
    for k in range(1, order + 1):
        L.append((k * f[k] - sum(j * L[j] * f[k - j] for j in range(1, k))) / k)
    return tuple(-c for c in L)


def series_identity_check(order: int) -> bool:
    """True when the first `order` even coefficients of the exact series
    -log(sin(t/2)/(t/2)) equal the tail integrals |B_2g| / (2g (2g)!)."""
    if order < 2:
        raise ValueError("order must be >= 2")
    series = _log_sine_series(order)
    return all(series[g] == hodge_constants(g).tail_integral for g in range(1, order + 1))
