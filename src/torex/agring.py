"""The lambda-class ring of the moduli of abelian g-folds.

The ring is Q[lambda_1..lambda_g] modulo lambda_g = 0 and the relation
c(E) c(E^dual) = 1, whose even-degree components rewrite every square:

    lambda_k^2 = 2 * sum_{i=1..k} (-1)^(i-1) lambda_{k-i} lambda_{k+i}.

The square-free monomials lambda_J, J a subset of {1..g-1}, form a
basis; the ring is Gorenstein with one-dimensional socle generated by
lambda_1 ... lambda_{g-1} in codimension g(g-1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm

from .constants import product_coefficient
from .polyring import Poly, det, lamvar


class AgRingError(Exception):
    pass


class GenusMismatch(AgRingError):
    pass


class BadSplit(AgRingError):
    pass


def lam(i: int) -> Poly:
    """Free polynomial generator lambda_i (untagged)."""
    return Poly.var(lamvar(i))


@dataclass(frozen=True)
class TautClassAg:
    """A class in the lambda basis: coords maps J (frozenset) to its
    coefficient on lambda_J."""

    g: int
    coords: tuple  # sorted tuple of (frozenset key as sorted tuple, Fraction)

    @staticmethod
    def make(g: int, coords: dict) -> "TautClassAg":
        items = tuple(
            sorted(
                (tuple(sorted(J)), c)
                for J, c in coords.items()
                if c
            )
        )
        return TautClassAg(g=g, coords=items)

    def as_dict(self) -> dict:
        return {frozenset(J): c for J, c in self.coords}

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "TautClassAg") -> "TautClassAg":
        if self.g != other.g:
            raise GenusMismatch((self.g, other.g))
        d = self.as_dict()
        for J, c in other.as_dict().items():
            d[J] = d.get(J, Fraction(0)) + c
        return TautClassAg.make(self.g, d)

    def __neg__(self) -> "TautClassAg":
        return TautClassAg.make(self.g, {J: -c for J, c in self.as_dict().items()})

    def __sub__(self, other: "TautClassAg") -> "TautClassAg":
        return self + (-other)

    def __str__(self) -> str:
        if not self.coords:
            return "0"
        bits = []
        for J, c in self.coords:
            name = "*".join("lam%d" % j for j in J) if J else "1"
            bits.append("%s*%s" % (c, name) if name != "1" else str(c))
        return " + ".join(bits)


@lru_cache(maxsize=None)
def _reduce_monomial(g: int, exps: tuple) -> tuple:
    """Normal form of a lambda monomial, as ((J, coeff), ...).

    exps is a sorted tuple of indices with multiplicity.
    """
    if any(i >= g for i in exps):
        return ()
    rep = None
    for a, b in zip(exps, exps[1:]):
        if a == b:
            rep = a
            break
    if rep is None:
        return ((tuple(exps), Fraction(1)),)
    rest = list(exps)
    rest.remove(rep)
    rest.remove(rep)
    acc: dict = {}
    for i in range(1, rep + 1):
        # lambda_rep^2 -> 2 (-1)^(i-1) lambda_{rep-i} lambda_{rep+i}
        if rep + i >= g:
            continue
        new = sorted(rest + ([rep - i] if rep - i else []) + [rep + i])
        for J, c in _reduce_monomial(g, tuple(new)):
            acc[J] = acc.get(J, Fraction(0)) + Fraction(2 * (-1) ** (i - 1)) * c
    return tuple(sorted((J, c) for J, c in acc.items() if c))


def reduce(g: int, p: Poly) -> TautClassAg:
    """Normal form of a polynomial in the untagged lambda variables."""
    coords: dict = {}
    for m, coeff in p.terms.items():
        exps = []
        for v, e in m:
            if v[0] != "lam" or v[1] != -1:
                raise AgRingError("not a lambda polynomial: %r" % (v,))
            exps.extend([v[2]] * e)
        for J, c in _reduce_monomial(g, tuple(sorted(exps))):
            key = frozenset(J)
            coords[key] = coords.get(key, Fraction(0)) + coeff * c
    return TautClassAg.make(g, coords)


def multiply(a: TautClassAg, b: TautClassAg) -> TautClassAg:
    if a.g != b.g:
        raise GenusMismatch((a.g, b.g))
    coords: dict = {}
    for Ja, ca in a.coords:
        for Jb, cb in b.coords:
            exps = tuple(sorted(Ja + Jb))
            for J, c in _reduce_monomial(a.g, exps):
                key = frozenset(J)
                coords[key] = coords.get(key, Fraction(0)) + ca * cb * c
    return TautClassAg.make(a.g, coords)


def basis_subsets(g: int, d: int) -> list:
    """Subsets of {1..g-1} with element sum d, sorted."""
    out = []
    universe = list(range(1, g))
    for r in range(len(universe) + 1):
        for J in combinations(universe, r):
            if sum(J) == d:
                out.append(J)
    return sorted(out)


def graded_dimension(g: int, d: int) -> int:
    return len(basis_subsets(g, d))


def socle_degree(g: int) -> int:
    return comb(g, 2)


def socle_pairing(g: int, d: int):
    """Pairing matrix between degrees d and binom(g,2) - d, normalized
    on the socle generator lambda_1 ... lambda_{g-1}."""
    D = socle_degree(g)
    if d < 0 or d > D:
        raise AgRingError("degree %d out of range" % d)
    rows = basis_subsets(g, d)
    cols = basis_subsets(g, D - d)
    socle = frozenset(range(1, g))
    matrix = []
    for J in rows:
        row = []
        for K in cols:
            prod = _reduce_monomial(g, tuple(sorted(J + K)))
            entry = Fraction(0)
            for L, c in prod:
                if frozenset(L) == socle:
                    entry = c
            row.append(entry)
        matrix.append(row)
    return matrix


def matrix_rank(matrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination.

    Each row of rationals is scaled to integers by the lcm of its
    denominators, which keeps the rank; every entry then stays an integer
    minor of that matrix, so each division by the previous pivot is exact.
    """
    m = []
    for row in matrix:
        scale = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (scale // x.denominator) for x in row])
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    prev = 1
    for c in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        pv = top[c]
        for i in range(rank + 1, rows):
            f = m[i][c]
            m[i] = [(pv * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = pv
        rank += 1
        if rank == rows:
            break
    return rank


def pairing_is_perfect(g: int, d: int) -> bool:
    rows = basis_subsets(g, d)
    cols = basis_subsets(g, socle_degree(g) - d)
    if len(rows) != len(cols):
        return False
    if not rows:
        return True
    return matrix_rank(socle_pairing(g, d)) == len(rows)


# ---------------------------------------------------------------------------
# the Euler class of wedge^2 E via the Jacobi-Trudi determinant
# ---------------------------------------------------------------------------


def jacobi_trudi_wedge2(g: int, dual: bool = False) -> Poly:
    """The staircase Schur polynomial s_(g-1, g-2, .., 0) expanded in the
    elementary symmetric classes e_i = lambda_i via the second
    Jacobi-Trudi formula; with dual=True the Chern roots are negated
    (e_i picks up the sign (-1)^i)."""

    def entry(i: int, j: int) -> Poly:
        idx = g - 2 * i + j
        if idx < 0 or idx > g:
            return Poly.zero()
        if idx == 0:
            return Poly.const(1)
        v = lam(idx)
        return -v if (dual and idx % 2) else v

    return det([[entry(i, j) for j in range(1, g + 1)] for i in range(1, g + 1)])


def schur_wedge2(g: int) -> TautClassAg:
    """Euler class of wedge^2 of the rank-g Hodge bundle, reduced; it
    must equal the socle generator lambda_1 ... lambda_{g-1}."""
    if g < 1:
        raise AgRingError("g must be >= 1")
    return reduce(g, jacobi_trudi_wedge2(g))


def virtual_class_product(g: int, k: int):
    """Factorwise virtual class of the rank-2 product locus split (k, g-k).

    Each factor is the Euler class of wedge^2 of the dual Hodge bundle,
    computed by dual-Chern-root bookkeeping and checked against the sign
    (-1)^binom(r,2) on lambda_1 ... lambda_{r-1}.
    """
    if k < 1 or k > g - 1:
        raise BadSplit("need 1 <= k <= g-1, got k=%d, g=%d" % (k, g))
    out = []
    for r in (k, g - k):
        cls = reduce(r, jacobi_trudi_wedge2(r, dual=True))
        expected = reduce(
            r,
            Poly.const((-1) ** comb(r, 2))
            * _product_of_lams(r),
        )
        if cls != expected:
            raise AgRingError("dual Euler class sign check failed at rank %d" % r)
        out.append(cls)
    return tuple(out)


def _product_of_lams(r: int) -> Poly:
    p = Poly.const(1)
    for i in range(1, r):
        p = p * lam(i)
    return p


def taut_projection_delta(g: int) -> TautClassAg:
    """The tautological projection of the product-locus class:
    (g / 6|B_2g|) * lambda_{g-1}."""
    if g < 1:
        raise AgRingError("g must be >= 1")
    J = frozenset([g - 1]) if g >= 2 else frozenset()
    return TautClassAg.make(g, {J: product_coefficient(g)})
