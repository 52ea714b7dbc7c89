"""Exact multivariate polynomial arithmetic over Q.

Sparse representation: a polynomial is a dict mapping monomials to
nonzero exact coefficients, each an int when it is integral and a
Fraction only when it is not (every contribution is integral, so the
work stays in int).  A monomial is a sorted tuple of (variable, exponent)
pairs with nonzero exponents; a variable is a plain tuple

    ('z', i)          edge variable, degree 1
    ('e', 'l', i)     i-th elementary class of the line bundles, degree i
    ('c', i)          formal Chern class, degree i
    ('lam', v, i)     lambda class on vertex v (v = -1 when untagged), degree i
    ('psi', v, m)     cotangent class at marking m of vertex v, degree 1

Variables order by tuple comparison; monomials by graded lexicographic
order.

`Poly.mul(other, max_deg)` is the truncated product: a pair of terms
whose Chow degrees add up to more than max_deg is skipped before its
monomial is formed, so the result equals `(a * b).truncate(max_deg)`
without ever holding the discarded terms.

`PackedLayout` is a second monomial layout for the hot loops of the
excess recursion, whose variables are only z_i and c_i and whose terms
have Chow degree at most g - 1.  A monomial is one int: the exponents of
c_1.. and z_1.. sit in fixed bit fields from the lowest bits up, each
(max_deg).bit_length() + 1 bits wide, and the Chow degree sits in the
field above them all.  A monomial product is an int addition, a degree
is a shift, and the top bit of each field guards the exact division
against a borrow.  Polynomials are packed with `PackedLayout.pack` on
entry to that arithmetic and turned back into `Poly` with
`PackedLayout.unpack` on exit; every other module, the cache and the
JSON form see tuple monomials only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Variable = tuple
Monomial = tuple  # sorted tuple of (Variable, int) pairs

ONE_MONO: Monomial = ()


class PolyError(Exception):
    pass


class NotDivisible(PolyError):
    """Exact division failed; the divisibility invariant was violated."""


class NotUnitConstantTerm(PolyError):
    """Series inversion requires constant term 1."""


def zvar(i: int) -> Variable:
    return ("z", i)


def evar(i: int) -> Variable:
    return ("e", "l", i)


def cvar(i: int) -> Variable:
    return ("c", i)


def lamvar(i: int, vertex: int = -1) -> Variable:
    return ("lam", vertex, i)


def psivar(m: int, vertex: int = -1) -> Variable:
    return ("psi", vertex, m)


def var_degree(v: Variable) -> int:
    ns = v[0]
    if ns == "c":
        return v[1]
    if ns in ("lam", "e"):
        return v[2]
    return 1


def var_name(v: Variable) -> str:
    ns = v[0]
    if ns == "z":
        return "z%d" % v[1]
    if ns == "c":
        return "c%d" % v[1]
    if ns == "lam":
        return "lam%d" % v[2] if v[1] < 0 else "lam%d@%d" % (v[2], v[1])
    if ns == "psi":
        return "psi%d" % v[2] if v[1] < 0 else "psi%d@%d" % (v[2], v[1])
    if ns == "e":
        return "e%s%d" % (v[1], v[2])
    raise ValueError("unknown variable %r" % (v,))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two sorted monomials by a linear merge; exponents that
    cancel to zero are dropped."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            e = ea + eb
            if e:
                out.append((va, e))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_degree(m: Monomial) -> int:
    d = 0
    for v, e in m:
        d += e * var_degree(v)
    return d


def mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        parts.append(var_name(v) if e == 1 else "%s^%d" % (var_name(v), e))
    return "*".join(parts)


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _mono_sort_key(m: Monomial):
    # graded, then lexicographic in the variable order
    return (mono_degree(m), m)


class Poly:
    """Immutable sparse polynomial with exact (int or Fraction) coefficients."""

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        t = {}
        if terms:
            for m, c in terms.items():
                if c:
                    t[m] = _exact(c)
        self._t = t

    @staticmethod
    def _of(t: dict) -> "Poly":
        """Wrap a dict already holding nonzero int-or-Fraction coefficients."""
        out = Poly.__new__(Poly)
        out._t = t
        return out

    @staticmethod
    def _of_sums(t: dict) -> "Poly":
        """Wrap a dict of accumulated sums: drop zeros, and store integral
        Fractions as int."""
        return Poly._of({m: c if type(c) is int else _exact(c)
                         for m, c in t.items() if c})

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c) -> "Poly":
        c = _exact(c)
        return Poly._of({ONE_MONO: c} if c else {})

    @staticmethod
    def var(v: Variable) -> "Poly":
        return Poly._of({((v, 1),): 1})

    # -- inspection --------------------------------------------------

    @property
    def terms(self) -> dict:
        return self._t

    def is_zero(self) -> bool:
        return not self._t

    def constant_term(self):
        return self._t.get(ONE_MONO, 0)

    def degree(self) -> int:
        """Total Chow degree (0 for the zero polynomial)."""
        if not self._t:
            return 0
        return max(mono_degree(m) for m in self._t)

    def variables(self) -> set:
        return {v for m in self._t for v, _ in m}

    def coeff(self, m: Monomial):
        return self._t.get(m, 0)

    def is_homogeneous(self, d: int) -> bool:
        return all(mono_degree(m) == d for m in self._t)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        return Poly.const(x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            other = Poly._coerce(other)
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def __add__(self, other) -> "Poly":
        other = Poly._coerce(other)
        t = dict(self._t)
        for m, c in other._t.items():
            nc = t.get(m, 0) + c
            if nc:
                t[m] = nc if type(nc) is int else _exact(nc)
            else:
                t.pop(m, None)
        return Poly._of(t)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of({m: -c for m, c in self._t.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-Poly._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return Poly._coerce(other) + (-self)

    def mul(self, other, max_deg: int | None = None) -> "Poly":
        """Product; with max_deg, the product truncated above that Chow
        degree, where a pair of terms whose degrees add up to more than
        max_deg is skipped before its monomial is formed."""
        other = Poly._coerce(other)
        a, b = self._t, other._t
        if len(a) > len(b):
            a, b = b, a
        if max_deg is None:
            # unbounded: give every term degree 0 against a bound of 0
            left = [(m, c, 0) for m, c in a.items()]
            right = [(m, c, 0) for m, c in b.items()]
            max_deg = 0
        else:
            # the inner operand by ascending degree, so a row stops at its bound
            left = [(m, c, mono_degree(m)) for m, c in a.items()]
            right = sorted(((m, c, mono_degree(m)) for m, c in b.items()),
                           key=lambda mcd: mcd[2])
        t: dict = {}
        get = t.get
        for m1, c1, d1 in left:
            room = max_deg - d1
            for m2, c2, d2 in right:
                if d2 > room:
                    break
                m = mono_mul(m1, m2)
                t[m] = get(m, 0) + c1 * c2
        return Poly._of_sums(t)

    def __mul__(self, other) -> "Poly":
        return self.mul(other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power; use series_inverse")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- graded structure ----------------------------------------------

    def graded_part(self, d: int) -> "Poly":
        """Terms of Chow degree exactly d."""
        return Poly({m: c for m, c in self._t.items() if mono_degree(m) == d})

    def truncate(self, max_deg: int) -> "Poly":
        """Drop all terms of Chow degree greater than max_deg."""
        return Poly({m: c for m, c in self._t.items() if mono_degree(m) <= max_deg})

    # -- division ------------------------------------------------------

    def exact_divide(self, m: Monomial) -> "Poly":
        """Exact quotient by a monomial; raises NotDivisible otherwise.
        No command divides on tuple monomials: this is a reference for the
        tests and the benchmark's tracer."""
        neg = tuple((v, -e) for v, e in m)
        t = {}
        for mono, c in self._t.items():
            q = mono_mul(mono, neg)
            if any(e < 0 for _, e in q):
                raise NotDivisible("term %s not divisible by %s" % (mono_str(mono), mono_str(m)))
            t[q] = c
        return Poly._of(t)

    def taylor_part(self, m: Monomial) -> "Poly":
        """Taylor part of the Laurent quotient by a monomial: the quotient
        of every term that m divides; the other terms are dropped."""
        neg = tuple((v, -e) for v, e in m)
        t = {}
        for mono, c in self._t.items():
            q = mono_mul(mono, neg)
            if all(e > 0 for _, e in q):
                t[q] = c
        return Poly._of(t)

    def series_inverse(self, max_deg: int) -> "Poly":
        """Inverse modulo degree > max_deg; constant term must equal 1."""
        if self.constant_term() != 1:
            raise NotUnitConstantTerm("constant term %s != 1" % self.constant_term())
        minus_u = -(self - 1).truncate(max_deg)
        result = Poly.const(1)
        power = Poly.const(1)
        for _ in range(max_deg):
            power = power.mul(minus_u, max_deg)
            if power.is_zero():
                break
            result = result + power
        return result

    # -- substitution ----------------------------------------------------

    def substitute(self, values: Mapping[Variable, "Poly"]) -> "Poly":
        """Substitute polynomials for variables (others left alone)."""
        cache: dict = {}

        def vpow(v: Variable, e: int) -> Poly:
            key = (v, e)
            got = cache.get(key)
            if got is None:
                got = values[v] ** e
                cache[key] = got
            return got

        t: dict = {}
        get = t.get
        for m, c in self._t.items():
            # the variables left alone stay one monomial
            factor = Poly._of({tuple(ve for ve in m if ve[0] not in values): c})
            for v, e in m:
                if v in values:
                    factor = factor.mul(vpow(v, e))
            for fm, fc in factor._t.items():
                t[fm] = get(fm, 0) + fc
        return Poly._of_sums(t)

    # -- canonical text / JSON --------------------------------------------

    def sorted_terms(self) -> list:
        return sorted(self._t.items(), key=lambda kv: _mono_sort_key(kv[0]))

    def __str__(self) -> str:
        if not self._t:
            return "0"
        chunks = []
        for m, c in self.sorted_terms():
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if m == ONE_MONO:
                body = str(mag)
            elif mag == 1:
                body = mono_str(m)
            else:
                body = "%s*%s" % (mag, mono_str(m))
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self) -> str:
        return "Poly(%s)" % self

    def to_json(self) -> list:
        out = []
        for m, c in self.sorted_terms():
            out.append([str(c), [[list(v), e] for v, e in m]])
        return out

    @staticmethod
    def from_json(data: Iterable) -> "Poly":
        t = {}
        for coeff, mono in data:
            m = tuple(sorted((tuple(v), e) for v, e in mono))
            t[m] = Fraction(coeff)
        return Poly(t)


def prod(polys: Iterable[Poly], max_deg: int | None = None) -> Poly:
    out = Poly.const(1)
    for p in polys:
        out = out.mul(p, max_deg)
    return out


def det(matrix) -> Poly:
    """Determinant of a square matrix of polynomials by Laplace expansion
    along the rows.  Each minor is memoized on the bit mask of the columns
    already used; the row it starts at is the number of those columns."""
    n = len(matrix)
    memo: dict = {}

    def minor(i: int, colmask: int) -> Poly:
        if i == n:
            return Poly.const(1)
        got = memo.get(colmask)
        if got is not None:
            return got
        acc = Poly.zero()
        pos = 0  # parity of the column among the remaining ones
        for j, e in enumerate(matrix[i]):
            bit = 1 << j
            if colmask & bit:
                continue
            if not e.is_zero():
                term = e * minor(i + 1, colmask | bit)
                acc = acc + (term if pos % 2 == 0 else -term)
            pos += 1
        memo[colmask] = acc
        return acc

    return minor(0, 0)


class PackedLayout:
    """Packed monomials in z_1..z_n_z and c_1..c_n_c of Chow degree at
    most max_deg.

    A monomial is one int: each exponent has its own bit field, with the
    c fields lowest, then the z fields, and the Chow degree sits in the
    field above them all.  A packed polynomial is a dict from such ints
    to coefficients.  A product of monomials is an int addition and a
    degree is a shift.  A field is max_deg.bit_length() + 1 bits wide:
    no exponent of a term of degree <= max_deg reaches its top bit, so
    that bit is a guard that shows a borrow in a division.  Callers keep
    every term at degree <= max_deg, so no field overflows into the next.
    """

    def __init__(self, n_z: int, n_c: int, max_deg: int):
        width = max_deg.bit_length() + 1
        # lowest field first in the tuple order of the variables, so that
        # unpacking the fields in order gives a sorted monomial
        fields = [cvar(i) for i in range(1, n_c + 1)] + [zvar(i) for i in range(1, n_z + 1)]
        self.max_deg = max_deg
        self.fmask = (1 << width) - 1
        self.dshift = width * len(fields)
        self.shift = {v: width * j for j, v in enumerate(fields)}
        # the key of the monomial v^1, its degree included
        self.unit = {v: (1 << s) + (var_degree(v) << self.dshift) for v, s in self.shift.items()}
        self.guard = sum(1 << (s + width - 1) for s in self.shift.values())

    def degree(self, key: int) -> int:
        return key >> self.dshift

    def pack(self, p: Poly, rename: Mapping[Variable, Variable] | None = None) -> dict:
        """The packed terms of p, its variables first renamed (injectively)."""
        unit = self.unit
        try:
            if rename:
                unit = dict(unit)
                unit.update({v: self.unit[w] for v, w in rename.items()})
            out = {}
            for m, c in p.terms.items():
                key = 0
                for v, e in m:
                    key += e * unit[v]
                out[key] = c
        except KeyError as exc:
            raise PolyError("variable %r is not in the packed layout" % (exc.args[0],)) from None
        # the largest key has the largest degree
        if out and max(out) >> self.dshift > self.max_deg:
            raise PolyError("%s has a term above degree %d" % (p, self.max_deg))
        return out

    def unpack(self, p: dict) -> Poly:
        shifts, fmask = self.shift.items(), self.fmask
        t = {}
        for key, c in p.items():
            if c:
                t[tuple((v, x) for v, s in shifts if (x := (key >> s) & fmask))] = c
        return Poly._of_sums(t)

    def divide(self, p: dict, m: int) -> dict:
        """Exact quotient by the monomial m; raises NotDivisible otherwise."""
        guard = self.guard
        out = {}
        for key, c in p.items():
            # with every guard bit set a field cannot borrow from the next;
            # a guard bit cleared by the subtraction is a field that did
            q = (key | guard) - m
            if q & guard != guard:
                raise NotDivisible("term %s not divisible by %s" % (
                    self.unpack({key: 1}), self.unpack({m: 1})))
            out[q ^ guard] = c
        return out


def elem_sym_rewrite(p: Poly, ell_count: int, A: Poly) -> Poly:
    """Replace each elementary class e_i (i <= ell_count) by [c(N)/A]_i.

    The total class c(N) = A * (1 + e_1 + ... + e_ell) is kept formal
    (variables c1, c2, ...); A is the leaf factor of the local model, with
    constant term 1.  The parts s_i = [c/A]_i are solved degree by degree
    from s_i = c_i - sum_{j=1..i} [A]_j * s_{i-j}.  The excess recursion
    divides by A one leaf factor at a time instead, and no command calls
    this: it is the reference the tests and the benchmark's tracer use.
    """
    a = [{} for _ in range(ell_count + 1)]
    for m, c in A.terms.items():
        d = mono_degree(m)
        if d <= ell_count:
            a[d][m] = c
    s = [Poly.const(1)]
    for i in range(1, ell_count + 1):
        si = Poly.var(cvar(i))
        for j in range(1, i + 1):
            si = si - Poly._of(a[j]) * s[i - j]
        s.append(si)
    return p.substitute({evar(i): s[i] for i in range(1, ell_count + 1)})
