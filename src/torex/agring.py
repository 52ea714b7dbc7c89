"""The lambda-class ring of the moduli of abelian g-folds.

The ring is Q[lambda_1..lambda_g] modulo lambda_g = 0 and the relation
c(E) c(E^dual) = 1, whose even-degree components rewrite every square:

    lambda_k^2 = 2 * sum_{i=1..k} (-1)^(i-1) lambda_{k-i} lambda_{k+i}.

The square-free monomials lambda_J, J a subset of {1..g-1}, form a
basis; the ring is Gorenstein with one-dimensional socle generated by
lambda_1 ... lambda_{g-1} in codimension g(g-1)/2.

A class is a `Poly` in the untagged lambda variables.  Its normal form,
`reduce(g, p)`, is a `Poly` over the basis monomials lambda_J, with int
coefficients wherever they are integral: two classes are equal exactly
when their normal forms are, and the class of a product a * b is
`reduce(g, a * b)`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, lcm, prod

from . import TorexError
from .polyring import Poly, det, lamvar


def lam(i: int) -> Poly:
    """Free polynomial generator lambda_i (untagged)."""
    return Poly.var(lamvar(i))


@lru_cache(maxsize=None)
def _reduce_monomial(g: int, exps: tuple) -> tuple:
    """Normal form of a lambda monomial, as ((J, coeff), ...); each coeff
    is a signed power of 2.

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
        return ((tuple(exps), 1),)
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
            acc[J] = acc.get(J, 0) + 2 * (-1) ** (i - 1) * c
    return tuple(sorted((J, c) for J, c in acc.items() if c))


def reduce(g: int, p: Poly) -> Poly:
    """Normal form of a polynomial in the untagged lambda variables: a
    Poly over the square-free monomials lambda_J, J a subset of {1..g-1}."""
    t: dict = {}
    for m, coeff in p.terms.items():
        exps = []
        for v, e in m:
            if v[0] != "lam" or v[1] != -1:
                raise TorexError("not a lambda polynomial: %r" % (v,))
            exps.extend([v[2]] * e)
        for J, c in _reduce_monomial(g, tuple(sorted(exps))):
            key = tuple((lamvar(j), 1) for j in J)
            t[key] = t.get(key, 0) + coeff * c
    return Poly(t)


def socle_generator(g: int) -> Poly:
    """lambda_1 ... lambda_{g-1}, which spans the top degree."""
    return prod((lam(i) for i in range(1, g)), start=Poly.const(1))


@lru_cache(maxsize=None)
def _subsets_by_degree(g: int) -> tuple:
    """All 2^(g-1) subsets of {1..g-1}, grouped by element sum: entry d
    holds the subsets of sum d, sorted, for d = 0..binom(g,2)."""
    universe = list(range(1, g))
    by_degree = [[] for _ in range(sum(universe) + 1)]
    for r in range(len(universe) + 1):
        for J in combinations(universe, r):
            by_degree[sum(J)].append(J)
    return tuple(tuple(sorted(Js)) for Js in by_degree)


def basis_subsets(g: int, d: int) -> list:
    """Subsets of {1..g-1} with element sum d, sorted: read from one
    cached grouping of every subset by its sum."""
    by_degree = _subsets_by_degree(g)
    return list(by_degree[d]) if 0 <= d < len(by_degree) else []


def graded_dimension(g: int, d: int) -> int:
    return len(basis_subsets(g, d))


def socle_degree(g: int) -> int:
    return comb(g, 2)


def _pairing_entry(g: int, J: tuple, K: tuple) -> int:
    """lambda_J lambda_K as a multiple of the socle generator lambda_1 ...
    lambda_{g-1}, which spans the top degree; any other normal form raises
    TorexError."""
    form = _reduce_monomial(g, tuple(sorted(J + K)))
    if form and (len(form) > 1 or form[0][0] != tuple(range(1, g))):
        raise TorexError("top degree of genus %d holds %r" % (g, form))
    return form[0][1] if form else 0


def socle_pairing(g: int, d: int):
    """Pairing matrix between degrees d and binom(g,2) - d, normalized
    on the socle generator lambda_1 ... lambda_{g-1}."""
    D = socle_degree(g)
    if d < 0 or d > D:
        raise TorexError("degree %d out of range" % d)
    cols = basis_subsets(g, D - d)
    return [[_pairing_entry(g, J, K) for K in cols] for J in basis_subsets(g, d)]


def _unitriangular(g: int, d: int) -> bool:
    """True when the pairing in degree d, with rows J in colex order (by J
    reversed) and each column the complement of its row, is unit lower
    triangular, hence of full rank: each diagonal entry lambda_J lambda_{J^c}
    is the socle itself, and every entry left of it must vanish."""
    rows = sorted(basis_subsets(g, d), key=lambda J: J[::-1])
    cols = [tuple(i for i in range(1, g) if i not in J) for J in rows]
    return all(_pairing_entry(g, J, K) == (i == k)
               for i, J in enumerate(rows) for k, K in enumerate(cols[:i + 1]))


def matrix_rank(matrix) -> int:
    """Rank over Q.

    Each row of rationals is scaled to integers by the lcm of its
    denominators, which keeps the rank.  The rank then comes from
    fraction-free (Bareiss) elimination: every entry stays an integer
    minor of the scaled matrix, so each division by the previous pivot is
    exact.
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


@lru_cache(maxsize=None)
def pairing_ranks(g: int) -> tuple:
    """(dims, ranks): the graded dimensions of the ring and the rank of
    its socle pairing, in each degree d = 0..binom(g,2).

    The pairing in degree D - d is the transpose of the one in degree d,
    since lambda_J lambda_K = lambda_K lambda_J.  So only the degrees
    d <= D/2 are ranked, by the unitriangular certificate or else by
    matrix_rank, and each rank is mirrored to D - d.
    """
    D = socle_degree(g)
    dims = tuple(graded_dimension(g, d) for d in range(D + 1))
    half = [dims[d] if _unitriangular(g, d) else matrix_rank(socle_pairing(g, d))
            for d in range(D // 2 + 1)]
    return dims, tuple(half[min(d, D - d)] for d in range(D + 1))


def pairing_is_perfect(g: int, d: int) -> bool:
    """True when the pairing between degrees d and binom(g,2) - d is
    square and of full rank; vacuously so for d outside 0..binom(g,2)."""
    dims, ranks = pairing_ranks(g)
    D = len(dims) - 1
    if not 0 <= d <= D:
        return True
    return ranks[d] == dims[d] == dims[D - d]


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


def schur_wedge2(g: int) -> Poly:
    """Euler class of wedge^2 of the rank-g Hodge bundle, reduced; it
    must equal the socle generator lambda_1 ... lambda_{g-1}."""
    if g < 1:
        raise TorexError("g must be >= 1")
    return reduce(g, jacobi_trudi_wedge2(g))


def virtual_class_product(g: int, k: int):
    """Factorwise virtual class of the rank-2 product locus split (k, g-k).

    Each factor is the Euler class of wedge^2 of the dual Hodge bundle,
    computed by dual-Chern-root bookkeeping and checked against the sign
    (-1)^binom(r,2) on lambda_1 ... lambda_{r-1}.
    """
    if k < 1 or k > g - 1:
        raise TorexError("need 1 <= k <= g-1, got k=%d, g=%d" % (k, g))
    out = []
    for r in (k, g - k):
        cls = reduce(r, jacobi_trudi_wedge2(r, dual=True))
        expected = (-1) ** comb(r, 2) * socle_generator(r)
        if cls != expected:
            raise TorexError("dual Euler class sign check failed at rank %d" % r)
        out.append(cls)
    return tuple(out)

