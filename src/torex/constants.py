"""Bernoulli numbers and the closed-form Hodge integrals behind the
tautological projection coefficient g / (6 |B_2g|)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .polyring import Poly, zvar

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


@dataclass(frozen=True)
class HodgeConstants:
    """The two closed-form integrals entering the coefficient check.

    tail_integral:  integral of c(E^dual)/(1 - psi_1) * lambda_g lambda_{g-1}
                    over the (g,1) moduli space  =  |B_2g| / (2g (2g)!)
    triple_lambda:  integral of lambda_g lambda_{g-1} lambda_{g-2}
                    =  1/(2 (2g-2)!) * |B_2g|/(2g) * |B_{2g-2}|/(2g-2)
    """

    tail_integral: Fraction
    triple_lambda: Fraction | None


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
def _log_sine_series(order: int) -> Poly:
    """-log(sin(t/2) / (t/2)) as an exact series up to degree 2*order."""
    t = zvar(0)
    max_deg = 2 * order
    s = Poly.zero()
    k = 0
    while 2 * k <= max_deg:
        coeff = Fraction((-1) ** k, 4 ** k * factorial(2 * k + 1))
        s = s + Poly({((t, 2 * k),) if k else (): coeff})
        k += 1
    u = s - 1
    out = Poly.zero()
    power = Poly.const(1)
    j = 1
    while True:
        power = power.mul(u, max_deg)
        if power.is_zero():
            break
        out = out - power * Fraction((-1) ** (j + 1), j)
        j += 1
    return out


def series_identity_check(order: int) -> bool:
    """True when the first `order` even coefficients of the exact series
    -log(sin(t/2)/(t/2)) equal |B_2g| / (2g (2g)!)."""
    if order < 2:
        raise ValueError("order must be >= 2")
    series = _log_sine_series(order)
    if series.constant_term() != 0:
        return False
    for g in range(1, order + 1):
        want = abs(bernoulli(2 * g)) / Fraction(2 * g * factorial(2 * g))
        if series.coeff(((zvar(0), 2 * g),)) != want:
            return False
    # odd coefficients vanish
    for m in series.terms:
        if m and m[0][1] % 2:
            return False
    return True

