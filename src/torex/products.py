"""Intersections of product loci: extremal common refinements, excess
bundles, and the polynomial-level vanishing of their Euler classes.

A partition of g, indexing the product locus A_{g_1} x ... x A_{g_k},
is the weakly decreasing tuple (g_1, .., g_k) of positive integers with
sum g, as `split_partitions` yields it.

A common refinement of two partitions with assignment data is a matrix
of nonnegative integers whose row sums give one partition and column
sums the other; it is extremal exactly when no two refinement parts sit
in the same row and the same column, i.e. when each matrix cell holds
at most one part.  The excess bundle of a component is the sum of
E_a^dual (x) E_b^dual over pairs of parts lying in different rows and
different columns.  With the top Chern class of every Hodge factor set
to zero, its Euler class vanishes exactly when it has a summand
(`zeroint_check`).  So every pair `zeroint` runs vanishes:
`split_partitions` yields only partitions with at least two parts, so
every matrix has two nonzero cells in different rows and different
columns, and every excess bundle is non-empty.  `zeroint` states that
verdict first and checks each pair as it writes it; a pair whose check
failed would end the report with one `error:` line naming it.

Reordering permutes rows of equal sum and columns of equal sum; each
orbit stands for its least key, its tuple of columns with each column
run sorted, found by individualization and refinement (McKay and
Piperno, "Practical graph isomorphism, II", 2014): the least next column
fixes the rows up to ties, and only the ties are searched.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, combinations, groupby

from . import TorexError


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


class RefinementComponent(namedtuple("RefinementComponent", "sigma cells excess_bundle")):
    """An extremal common refinement with its assignment data.

    cells: sorted tuple of (row, col, part); sigma is the multiset of
    parts, as a partition (a weakly decreasing tuple); excess_bundle
    lists the (a, b) rank pairs of its summands.
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def _compositions(n: int, bounds: tuple) -> tuple:
    """The tuples v with sum n and 0 <= v[j] <= bounds[j], in increasing
    lexicographic order."""
    if not bounds:
        return ((),) if n == 0 else ()
    rest = bounds[1:]
    return tuple((v,) + tail for v in range(min(n, bounds[0]) + 1)
                 for tail in _compositions(n - v, rest))


def _row_sorted_matrices(rows: tuple, cols: tuple):
    """Every nonnegative integer matrix, as a tuple of row tuples, whose
    row sums are rows (at least one), column sums are cols and rows are
    sorted within each run of equal row sums, once each and in increasing
    row-major order.  Each one is an extremal common refinement: its
    nonzero cells are the refinement parts.

    The matrices are built a row at a time, depth first: a partial matrix
    is extended by every composition of the next row sum bounded by what
    its columns have left, in increasing order, from the previous row on
    when the two row sums are equal (the compositions are cached across
    rows, pairs and calls).  The last row is what the columns have left,
    when that has the last row sum.
    """
    last = len(rows) - 1

    def extend(r: int, m: tuple, left: tuple):
        low = m[-1] if r and rows[r] == rows[r - 1] else ()
        if r == last:
            if sum(left) == rows[r] and left >= low:
                yield m + (left,)
            return
        comps = _compositions(rows[r], left)
        for row in comps[bisect_left(comps, low):]:
            rest = tuple(c - v for c, v in zip(left, row))
            yield from extend(r + 1, m + (row,), rest)

    return extend(0, (), cols)


def _runs(sums: tuple) -> list:
    """The slices of the runs of equal entries in sums."""
    stops = list(accumulate(len(list(run)) for _, run in groupby(sums)))
    return [slice(a, b) for a, b in zip([0] + stops, stops)]


def _least_key(runs: tuple, cells: tuple, memo: dict) -> tuple:
    """The least tuple of the columns in runs, each run sorted, over the
    arrangements of the rows within cells, by individualization and
    refinement.  runs are the column runs still to key, each a sorted
    tuple of columns; cells are the (start, stop) ranges of rows still free.

    A column sorted within every cell is the least it can become, so the
    next key column is the least of the run's columns so sorted.  Each
    distinct column giving it fixes the rows up to ties: the rows of each
    cell are sorted by it, each cell splits into its runs of equal entries,
    and the rest of the key is searched with that column dropped.  The
    least over those ties is the key; memo holds it for each (runs, cells).
    """
    if not runs or len(cells) == len(runs[0][0]):
        # every row fixed: each run, sorted, is what is left of the key
        return tuple(col for run in runs for col in run)
    if (runs, cells) not in memo:
        within = {col: tuple(v for a, b in cells for v in sorted(col[a:b])) for col in runs[0]}
        first = min(within.values())
        split = tuple((a + s.start, a + s.stop) for a, b in cells for s in _runs(first[a:b]))
        rests = []
        for col, least in within.items():
            if least != first:
                continue
            order = [i for a, b in cells for i in sorted(range(a, b), key=col.__getitem__)]
            moved = [sorted(tuple(c[i] for i in order) for c in run) for run in runs]
            moved[0].remove(first)
            rests.append(_least_key(tuple(tuple(run) for run in moved if run), split, memo))
        memo[runs, cells] = (first,) + min(rests)
    return memo[runs, cells]


def _partition(parts) -> tuple:
    """parts as a partition: sorted into a weakly decreasing tuple, each
    part a positive integer."""
    parts = tuple(sorted(parts, reverse=True))
    if not parts or any(p < 1 for p in parts):
        raise TorexError("parts must be positive, got %r" % (parts,))
    return parts


def extremal_refinements(p: tuple, q: tuple) -> list:
    """All extremal common refinements of p and q, up to reordering; p
    and q are sorted into partitions, and checked, here.

    Columns move only within their run of equal sums and rows within
    theirs, so an orbit's least key is the least tuple of columns, each
    run of columns sorted, over the arrangements of the rows within their
    runs (`_least_key`, one memo for every matrix of the pair).  Every
    orbit holds a matrix with its rows sorted within their runs, so only
    those are enumerated and keyed, and distinct orbits have distinct
    least keys.
    """
    rows, cols = _partition(p), _partition(q)
    if sum(rows) != sum(cols):
        raise TorexError("partitions of genus %d and %d" % (sum(rows), sum(cols)))
    cells, col_runs, memo = tuple((s.start, s.stop) for s in _runs(rows)), _runs(cols), {}
    keys = {_least_key(tuple(tuple(sorted(columns[s])) for s in col_runs), cells, memo)
            for matrix in _row_sorted_matrices(rows, cols)
            for columns in (tuple(zip(*matrix)),)}
    out = []
    for key in keys:
        cells = tuple(sorted((i, j, v) for j, col in enumerate(key)
                             for i, v in enumerate(col) if v))
        bundle = tuple(sorted(
            tuple(sorted((v1, v2)))
            for (i1, j1, v1), (i2, j2, v2) in combinations(cells, 2)
            if i1 != i2 and j1 != j2
        ))
        sigma = tuple(sorted((v for _, _, v in cells), reverse=True))
        out.append(RefinementComponent(sigma, cells, bundle))
    out.sort(key=lambda comp: (comp.sigma, comp.cells))
    return out


# ---------------------------------------------------------------------------
# Euler class of a tensor product in the elementary symmetric basis
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def euler_tensor_e_basis(a: int, b: int) -> Poly:
    """prod_{i<=a, j<=b} (x_i + y_j) written in the elementary symmetric
    generators e_i(x) = ("e", "x", i) and e_j(y) = ("e", "y", j), via the
    Sylvester resultant of f(t) = prod (t - x_i) and h(t) = prod (t + y_j):

        prod h(x_i) = Res_t(f, h).
    """
    # imported here, so that zeroint does not execute polyring
    from .polyring import Poly, det

    if a < 1 or b < 1:
        raise TorexError("ranks must be >= 1")
    if a * b > 25:
        raise TorexError("rank product %d exceeds 25" % (a * b))
    # f coefficients, highest degree first: t^a - e1 t^(a-1) + ...
    f = [Poly.const(1)] + [
        Poly.const((-1) ** i) * Poly.var(("e", "x", i)) for i in range(1, a + 1)
    ]
    # h coefficients: t^b + e1(y) t^(b-1) + ... + e_b(y)
    h = [Poly.const(1)] + [Poly.var(("e", "y", j)) for j in range(1, b + 1)]
    rows = []
    for s in range(b):  # b rows of f coefficients
        rows.append([Poly.zero()] * s + f + [Poly.zero()] * (b - 1 - s))
    for s in range(a):  # a rows of h coefficients
        rows.append([Poly.zero()] * s + h + [Poly.zero()] * (a - 1 - s))
    return det(rows)


@lru_cache(maxsize=None)
def euler_tensor_reduce(a: int, b: int) -> Poly:
    """The e-basis Euler class of the tensor product with the top classes
    e_a(x) and e_b(y) set to zero; the reduction is always zero, and this
    expansion is the reference for `zeroint_check`."""
    from .polyring import Poly

    expr = euler_tensor_e_basis(a, b)
    zero = Poly.zero()
    return expr.substitute({("e", "x", a): zero, ("e", "y", b): zero})


def zeroint_check(p: tuple, q: tuple, components: list | None = None) -> bool:
    """True when every extremal refinement component of the two loci has
    an excess bundle whose Euler class reduces to zero once the top
    Chern class of every Hodge factor is set to zero.

    That holds exactly when the bundle is not empty.  The Euler class of
    E_a^dual (x) E_b^dual is, up to sign, the resultant of f(t) =
    prod (t - x_i) and h(t) = prod (t + y_j) (`euler_tensor_e_basis`).
    With e_a(x) = e_b(y) = 0, f and h share the root t = 0, so for every
    a, b >= 1 the resultant vanishes, and with it the Euler class of any
    sum holding that summand; an empty bundle has Euler class 1.

    components are the extremal_refinements of p and q, when the caller
    already has them.  The components of one reordering orbit carry
    identical excess bundles, so checking one of each orbit is enough.
    """
    if len(p) < 2 or len(q) < 2:
        raise TorexError("both partitions need at least 2 parts")
    if components is None:
        components = extremal_refinements(p, q)
    return bool(components) and all(comp.excess_bundle for comp in components)


# ---------------------------------------------------------------------------
# Hodge-class splitting on a product locus
# ---------------------------------------------------------------------------


def hodge_split_pullback(parts: tuple, m: int) -> tuple:
    """Restriction of lambda_m to the product locus of the partition
    parts, as a sum of exterior tensor products of factorwise lambda
    classes, each with coefficient 1.

    Returns the compositions (a_1, .., a_l) of m with a_i < g_i, in
    increasing lexicographic order: terms carrying a top class a_i = g_i
    are deleted since the top Hodge class vanishes on each factor.
    """
    if m < 0 or m > sum(parts):
        raise TorexError("degree %d out of range" % m)
    return _compositions(m, tuple(p - 1 for p in parts))
