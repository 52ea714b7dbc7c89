"""Shared helpers: a tiny parser for bracket decorations, the
normal-form comparison used by the golden display tests, and a fixture
that empties the in-process table of contributions."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from torex import excess
from torex.polyring import Poly, lamvar, psivar
from torex.strata import StrataExpression


@pytest.fixture
def memo():
    """The in-process table of contributions, empty before and after."""
    excess._MEMO.clear()
    yield excess._MEMO
    excess._MEMO.clear()


_TERM = re.compile(r"^\s*([+-])?\s*(\d+)?\s*\*?\s*((?:(?:lam|psi)\d+(?:\^\d+)?)(?:\*(?:lam|psi)\d+(?:\^\d+)?)*)?\s*$")


def parse_decoration(text: str) -> Poly:
    """Parse entries like '3*lam1 - 4*psi1', 'psi1^2', '1'."""
    text = text.strip()
    if text == "1":
        return Poly.const(1)
    # split into signed terms
    pieces = re.split(r"(?=[+-])", text.replace(" ", ""))
    out = Poly.zero()
    for piece in pieces:
        if not piece:
            continue
        m = _TERM.match(piece)
        if not m:
            raise ValueError("cannot parse %r" % piece)
        sign, num, mono = m.groups()
        coeff = Fraction(int(num) if num else 1)
        if sign == "-":
            coeff = -coeff
        term = Poly.const(coeff)
        if mono:
            for factor in mono.split("*"):
                if "^" in factor:
                    name, _, e = factor.partition("^")
                    e = int(e)
                else:
                    name, e = factor, 1
                var = lamvar(int(name[3:])) if name.startswith("lam") else psivar(int(name[3:]))
                term = term * Poly.var(var) ** e
        out = out + term
    return out


def bracket_normal_form(weight: Fraction, entries: list) -> dict:
    """Expand one weighted bracket into {per-vertex monomial tuple: coeff}."""
    polys = [parse_decoration(e) for e in entries]
    acc = {(): Fraction(weight)}
    for pos, p in enumerate(polys):
        nxt: dict = {}
        for prefix, c in acc.items():
            for mono, coeff in p.terms.items():
                key = prefix + (mono,)
                nxt[key] = nxt.get(key, Fraction(0)) + c * coeff
        acc = nxt
    return {k: v for k, v in acc.items() if v}


def display_normal_form(brackets: list) -> dict:
    """Sum a list of (weight, [entry strings]) brackets."""
    out: dict = {}
    for weight, entries in brackets:
        for key, c in bracket_normal_form(Fraction(weight), entries).items():
            out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def tree_normal_form(expr: StrataExpression, code: str) -> dict:
    """Normal form of the assembled expression restricted to one tree."""
    out: dict = {}
    for term in expr.terms:
        if term.tree.code != code:
            continue
        for sm in term.summands:
            key = sm.monos
            out[key] = out.get(key, Fraction(0)) + sm.coeff
    return {k: v for k, v in out.items() if v}
