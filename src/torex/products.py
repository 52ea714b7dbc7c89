"""Intersections of product loci: extremal common refinements, excess
bundles, and the polynomial-level vanishing of their Euler classes.

A common refinement of two partitions with assignment data is a matrix
of nonnegative integers whose row sums give one partition and column
sums the other; it is extremal exactly when no two refinement parts sit
in the same row and the same column, i.e. when each matrix cell holds
at most one part.  The excess bundle of a component is the sum of
E_a^dual (x) E_b^dual over pairs of parts lying in different rows and
different columns; its Euler class vanishes because the top Chern class
of every Hodge factor does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .polyring import Poly, det


class ProductsError(Exception):
    pass


class GenusMismatch(ProductsError):
    pass


class RankTooLarge(ProductsError):
    pass


def split_partitions(g: int) -> list:
    """The partitions of g with at least two parts (their parts are all
    below g), as weakly decreasing tuples in descending lexicographic order."""

    def rec(n: int, largest: int):
        if n == 0:
            yield ()
            return
        for p in range(min(n, largest), 0, -1):
            for rest in rec(n - p, p):
                yield (p,) + rest

    return list(rec(g, g - 1))


@dataclass(frozen=True)
class Partition:
    parts: tuple  # weakly decreasing positive integers

    @staticmethod
    def make(parts) -> "Partition":
        parts = tuple(sorted(parts, reverse=True))
        if not parts or any(p < 1 for p in parts):
            raise ProductsError("parts must be positive, got %r" % (parts,))
        return Partition(parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class RefinementComponent:
    """An extremal common refinement with its assignment data.

    cells: sorted tuple of (row, col, part); sigma is the multiset of
    parts; excess_bundle lists the (a, b) rank pairs of its summands.
    """

    sigma: Partition
    cells: tuple
    excess_bundle: tuple

    def __str__(self) -> str:
        bundle = " + ".join("E%d*E%d" % ab for ab in self.excess_bundle)
        return "sigma=%s excess=[%s]" % (self.sigma, bundle or "0")


def _matrices(rows: tuple, cols: tuple):
    """Every nonnegative integer matrix, as a tuple of row tuples, whose
    row sums are rows and column sums are cols, once each and in
    increasing row-major order.  Each one is an extremal common
    refinement: its nonzero cells are the refinement parts."""

    nr, nc = len(rows), len(cols)

    def rec(r: int, remaining_cols: tuple, acc: list):
        if r == nr:
            if all(x == 0 for x in remaining_cols):
                yield tuple(acc)
            return
        # distribute rows[r] over the nc columns
        def fill(c: int, left: int, row: list):
            if c == nc:
                if left == 0:
                    acc.append(tuple(row))
                    new_cols = tuple(
                        remaining_cols[j] - row[j] for j in range(nc)
                    )
                    if all(x >= 0 for x in new_cols):
                        yield from rec(r + 1, new_cols, acc)
                    acc.pop()
                return
            for v in range(0, min(left, remaining_cols[c]) + 1):
                row.append(v)
                yield from fill(c + 1, left - v, row)
                row.pop()

        yield from fill(0, rows[r], [])

    yield from rec(0, cols, [])


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


def extremal_refinements(p: Partition, q: Partition) -> list:
    """All extremal common refinements of p and q, up to reordering."""
    if p.total != q.total:
        raise GenusMismatch((p.total, q.total))
    rows, cols = p.parts, q.parts
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
        sigma = Partition.make([v for _, _, v in cells])
        bundle = []
        for (i1, j1, v1), (i2, j2, v2) in combinations(cells, 2):
            if i1 != i2 and j1 != j2:
                bundle.append(tuple(sorted((v1, v2))))
        out.append(
            RefinementComponent(
                sigma=sigma, cells=cells, excess_bundle=tuple(sorted(bundle))
            )
        )
    out.sort(key=lambda comp: (comp.sigma.parts, comp.cells))
    return out


# ---------------------------------------------------------------------------
# Euler class of a tensor product in the elementary symmetric basis
# ---------------------------------------------------------------------------


def _ex(i: int) -> Poly:
    """Elementary symmetric e_i of the first block of Chern roots."""
    return Poly.var(("e", "x", i))


def _ey(j: int) -> Poly:
    """Elementary symmetric e_j of the second block of Chern roots."""
    return Poly.var(("e", "y", j))


@lru_cache(maxsize=None)
def euler_tensor_e_basis(a: int, b: int) -> Poly:
    """prod_{i<=a, j<=b} (x_i + y_j) written in the elementary symmetric
    generators e_i(x), e_j(y), via the Sylvester resultant of
    f(t) = prod (t - x_i) and h(t) = prod (t + y_j):

        prod h(x_i) = Res_t(f, h).
    """
    if a < 1 or b < 1:
        raise RankTooLarge("ranks must be >= 1")
    if a * b > 25:
        raise RankTooLarge("rank product %d exceeds 25" % (a * b))
    # f coefficients, highest degree first: t^a - e1 t^(a-1) + ...
    f = [Poly.const(1)] + [
        Poly.const((-1) ** i) * _ex(i) for i in range(1, a + 1)
    ]
    # h coefficients: t^b + e1(y) t^(b-1) + ... + e_b(y)
    h = [Poly.const(1)] + [_ey(j) for j in range(1, b + 1)]
    rows = []
    for s in range(b):  # b rows of f coefficients
        rows.append([Poly.zero()] * s + f + [Poly.zero()] * (b - 1 - s))
    for s in range(a):  # a rows of h coefficients
        rows.append([Poly.zero()] * s + h + [Poly.zero()] * (a - 1 - s))
    return det(rows)


@lru_cache(maxsize=None)
def euler_tensor_reduce(a: int, b: int) -> Poly:
    """The e-basis Euler class of the tensor product with the top classes
    e_a(x) and e_b(y) set to zero; the reduction is always zero."""
    expr = euler_tensor_e_basis(a, b)
    zero = Poly.zero()
    return expr.substitute({("e", "x", a): zero, ("e", "y", b): zero})


def zeroint_check(p: Partition, q: Partition, components: list | None = None) -> bool:
    """True when every extremal refinement component of the two loci has
    an excess bundle whose Euler class reduces to zero once the top
    Chern class of every Hodge factor is set to zero.

    components are the extremal_refinements of p and q, when the caller
    already has them.  The components of one reordering orbit carry
    identical excess bundles, so checking one of each orbit is enough.
    """
    if len(p) < 2 or len(q) < 2:
        raise ProductsError("both partitions need at least 2 parts")
    if components is None:
        components = extremal_refinements(p, q)
    # a direct sum's Euler class vanishes as soon as one tensor factor
    # reduces to zero (euler_tensor_reduce is cached)
    return bool(components) and all(
        any(euler_tensor_reduce(a, b).is_zero() for a, b in comp.excess_bundle)
        for comp in components
    )


# ---------------------------------------------------------------------------
# Hodge-class splitting on a product locus
# ---------------------------------------------------------------------------


def hodge_split_pullback(g: int, partition: Partition, m: int) -> dict:
    """Restriction of lambda_m to the product locus of the partition, as
    a sum of exterior tensor products of factorwise lambda classes.

    Returns {(a_1, .., a_l): coefficient} over compositions of m with
    a_i <= g_i; terms carrying any top class a_i = g_i are deleted since
    the top Hodge class vanishes on each factor.
    """
    if partition.total != g:
        raise GenusMismatch((partition.total, g))
    if m < 0 or m > g:
        raise ProductsError("degree %d out of range" % m)
    parts = partition.parts
    out: dict = {}

    def rec(i: int, left: int, acc: list):
        if i == len(parts):
            if left == 0:
                out[tuple(acc)] = out.get(tuple(acc), Fraction(0)) + 1
            return
        for a in range(0, min(left, parts[i] - 1) + 1):
            acc.append(a)
            rec(i + 1, left - a, acc)
            acc.pop()

    rec(0, m, [])
    return out
