"""Seeded differential tests of the expression kernel against sympy.

Random rational functions in jets and the spectral parameter ``lam``, with
multi-term denominators, are built term by term twice: once as
:class:`Expr` arithmetic and once as sympy expressions over symbols of the
same names.  The kernel's canonical form must be a coprime fraction with a
monic denominator, print stably through ``parse_expression``, agree with
``sympy.cancel``, and reduce idempotently modulo a system.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest
import sympy
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)

from laxweyl import ONE, ZERO, parse_expression
from laxweyl.expr import _p_leading

from conftest import atom_pool

SEED = 20160311
_SYMPY_TRANSFORMS = standard_transformations + (convert_xor,)
_OPS = [(operator.add, operator.add), (operator.sub, operator.sub),
        (operator.mul, operator.mul), (operator.truediv, operator.truediv)]


def to_sympy(e) -> sympy.Expr:
    return parse_expr(str(e), transformations=_SYMPY_TRANSFORMS)


def _polynomial(rng: random.Random, atoms: list, symbols: list, terms: int,
                factors: int) -> tuple:
    """A random polynomial with exactly ``terms`` distinct monomials (each
    of at least one factor), as an ``Expr`` and as a sympy expression."""
    monos = set()
    while len(monos) < terms:
        monos.add(tuple(sorted(rng.randrange(len(atoms))
                               for _ in range(rng.randint(1, factors)))))
    e, s = ZERO, sympy.Integer(0)
    for mono in sorted(monos):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 3))
        term_e, term_s = ONE * c, sympy.Rational(c.numerator, c.denominator)
        for k in mono:
            term_e, term_s = term_e * atoms[k], term_s * symbols[k]
        e, s = e + term_e, s + term_s
    return e, s


def _fraction(rng, atoms, symbols) -> tuple:
    """A polynomial over a polynomial of two or three terms."""
    num = _polynomial(rng, atoms, symbols, rng.randint(1, 3), 2)
    den = _polynomial(rng, atoms, symbols, rng.randint(2, 3), 2)
    return num[0] / den[0], num[1] / den[1]


def random_rationals(coords, count: int, seed: int, max_order: int = 1):
    """``count`` pairs ``(Expr, sympy)``: two random fractions with
    multi-term denominators combined by ``+``, ``-``, ``*`` or ``/``."""
    rng = random.Random(seed)
    atoms = atom_pool(coords, max_order=max_order, spectral=True)
    symbols = [sympy.Symbol(str(a)) for a in atoms]
    out = []
    while len(out) < count:
        (a, sa), (b, sb) = (_fraction(rng, atoms, symbols) for _ in range(2))
        op, sop = rng.choice(_OPS)
        if op is operator.truediv and b.is_zero():
            continue
        out.append((op(a, b), sop(sa, sb)))
    return out


@pytest.fixture(scope="module")
def samples(dkp):
    return random_rationals(dkp.coords, 24, SEED)


def test_samples_have_multi_term_denominators(samples):
    dens = [str(e.denominator()) for e, _ in samples if len(e.den) > 1]
    assert len(dens) >= len(samples) // 2
    assert any("lam" in d for d in dens) and any("u_" in d for d in dens)


def test_coprime_and_monic(samples):
    for e, _ in samples:
        num, den = to_sympy(e.numerator()), to_sympy(e.denominator())
        assert sympy.gcd(num, den).is_number, str(e)
        assert _p_leading(e.den)[1] == 1, str(e)


def test_string_stable_through_parser(dkp, samples):
    for e, _ in samples:
        again = parse_expression(str(e), dkp.coords)
        assert again == e
        assert str(again) == str(e)


def test_agrees_with_sympy_cancel(samples):
    """The canonical fraction is sympy's cancelled one up to a constant:
    the cross products agree and the numerators differ by a number."""
    for e, s in samples:
        p, q = sympy.fraction(sympy.cancel(s))
        num, den = to_sympy(e.numerator()), to_sympy(e.denominator())
        assert sympy.expand(num * q - den * p) == 0, str(e)
        if p != 0:
            assert sympy.cancel(num / p).is_number, str(e)


@pytest.mark.parametrize("name, count", [("dkp", 12),
                                         ("second_heavenly", 8)])
def test_reduce_idempotent(name, count, request):
    """Normal forms are fixed points of ``reduce``, and ``e`` minus its
    normal form lies in the ideal; jets up to order 3 make reduction
    prolong the equation."""
    system = request.getfixturevalue(name).system
    changed = 0
    for e, _ in random_rationals(system.coords, count, SEED, max_order=3):
        nf = system.reduce(e)
        changed += nf != e
        again = system.reduce(nf)
        assert again == nf and str(again) == str(nf)
        assert system.reduce(e - nf).is_zero()
    assert changed >= count // 2
