"""Coordinates, jet variables and jet calculus.

A :class:`Coordinates` object fixes the independent (base) coordinates, the
dependent unknowns and the name of the spectral parameter.  Jet variables
``u_alpha`` are indexed by multi-indices ``alpha`` (exponent tuples aligned
with the base-coordinate order); they are ordinary kernel variables, so all
expression arithmetic applies unchanged.

The two core operations are the total derivative ``D_i`` (which treats every
jet variable as a function of the base coordinates and mints the next-order
jet variables on demand) and the order-``k`` symbol of an expression (a
polynomial in the covector components ``theta_i``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Mapping, Optional, Sequence, Tuple, Union

from .errors import KernelError
from .expr import KIND_JET, Expr, Var, ZERO

MultiIndex = Tuple[int, ...]


def _names_from_alpha(base: Sequence[str], alpha: MultiIndex) -> tuple:
    names = []
    for name, k in zip(base, alpha):
        names.extend([name] * k)
    return tuple(names)


@dataclass(frozen=True)
class Coordinates:
    """Base coordinates, unknowns and spectral-parameter name.

    The *order* of ``base`` matters: it orients the ranking used to decide
    which derivative of each equation counts as principal, with earlier
    coordinates more significant, and it fixes the positional meaning of
    frames (which slot of a Lax vector field pairs with which coordinate).
    """

    base: Tuple[str, ...]
    unknowns: Tuple[str, ...]
    spectral: str = "lam"

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(self, "unknowns", tuple(self.unknowns))
        seen = set()
        for name in self.base + self.unknowns + (self.spectral,):
            if name in seen:
                raise KernelError("duplicate coordinate name: %r" % name)
            seen.add(name)
        if len(self.base) not in (3, 4):
            raise KernelError(
                "expected 3 or 4 base coordinates, got %d" % len(self.base))

    # -- dimensions ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.base)

    def base_index(self, name: str) -> int:
        try:
            return self.base.index(name)
        except ValueError:
            raise KernelError("%r is not a base coordinate" % name) from None

    def unknown_index(self, name: str) -> int:
        try:
            return self.unknowns.index(name)
        except ValueError:
            raise KernelError("unknown dependent variable %r" % name) from None

    # -- variable factories --------------------------------------------------

    def spectral_var(self) -> Var:
        return Var.spectral(self.spectral)

    def theta_var(self, name: str) -> Var:
        self.base_index(name)
        return Var.theta(name)

    def jet_var(self, unknown: str, alpha: MultiIndex) -> Var:
        self.unknown_index(unknown)
        alpha = tuple(alpha)
        if len(alpha) != self.dim or any(k < 0 for k in alpha):
            raise KernelError("bad multi-index %r" % (alpha,))
        return Var.jet(unknown, _names_from_alpha(self.base, alpha))

    def multi_index(self, derivatives: str) -> MultiIndex:
        """The multi-index of derivative letters like ``'xxt'``: letters in
        any order, repeated letters for repeated differentiation.  Each
        character names one base coordinate, so multi-letter coordinate
        names need :meth:`jet_var`."""
        alpha = [0] * self.dim
        for ch in derivatives:
            alpha[self.base_index(ch)] += 1
        return tuple(alpha)

    def jet(self, unknown: str, derivatives: str = "") -> Expr:
        """Convenience: ``jet('u', 'xxt')`` is the expression ``u_xxt``
        (derivative letters as in :meth:`multi_index`)."""
        return Expr.variable(self.jet_var(unknown,
                                          self.multi_index(derivatives)))

    def var(self, name: str) -> Expr:
        """Expression for a base coordinate, unknown or the spectral name."""
        if name in self.base:
            return Expr.variable(Var.base(name))
        if name in self.unknowns:
            return Expr.variable(self.jet_var(name, (0,) * self.dim))
        if name == self.spectral:
            return Expr.variable(self.spectral_var())
        raise KernelError("unknown coordinate %r" % name)

    # -- jet-variable introspection -------------------------------------------

    def decompose_jet(self, v: Var) -> Optional[tuple]:
        """Return ``(unknown, alpha)`` if ``v`` is a jet variable of one of
        our unknowns, else None."""
        if v.kind != KIND_JET:
            return None
        unknown, _order, names = v.data
        if unknown not in self.unknowns:
            return None
        alpha = [0] * self.dim
        for n in names:
            alpha[self.base_index(n)] += 1
        return unknown, tuple(alpha)

    def jet_vars_of(self, e: Expr, order: Optional[int] = None) -> list:
        """Jet variables occurring in ``e``, optionally filtered by order,
        in deterministic (key) order."""
        out = []
        for v in sorted(e.vars()):
            d = self.decompose_jet(v)
            if d is None:
                continue
            if order is not None and sum(d[1]) != order:
                continue
            out.append(v)
        return out

    def multi_indices(self, order: int) -> list:
        """All multi-indices of the given total order, deterministic order."""
        out = []
        for combo in combinations_with_replacement(range(self.dim), order):
            alpha = [0] * self.dim
            for i in combo:
                alpha[i] += 1
            out.append(tuple(alpha))
        return out

    # -- total derivative ------------------------------------------------------

    def total_derivative(self, e: Expr, direction: Union[int, str]) -> Expr:
        """Total derivative ``D_i e``: the chain rule through every jet
        variable, with the spectral parameter and auxiliary constants held
        fixed."""
        i = direction if isinstance(direction, int) else self.base_index(direction)
        if not 0 <= i < self.dim:
            raise KernelError("bad direction %r" % (direction,))
        result = e.partial(Var.base(self.base[i]))
        for v in sorted(e.vars()):
            d = self.decompose_jet(v)
            if d is None:
                continue
            unknown, alpha = d
            de = e.partial(v)
            if de.is_zero():
                continue
            bumped = list(alpha)
            bumped[i] += 1
            result = result + Expr.variable(self.jet_var(unknown, tuple(bumped))) * de
        return result

    def total_derivative_multi(self, e: Expr, tau: MultiIndex) -> Expr:
        """Iterated total derivative ``D^tau e`` (order of application is
        immaterial since total derivatives commute)."""
        for i, k in enumerate(tau):
            for _ in range(k):
                e = self.total_derivative(e, i)
        return e

    # -- symbols -----------------------------------------------------------------

    def theta_monomial(self, alpha: MultiIndex) -> Expr:
        m = Expr.number(1)
        for name, k in zip(self.base, alpha):
            if k:
                m = m * Expr.variable(Var.theta(name)) ** k
        return m

    def jet_symbol(self, e: Expr, order: int, unknown: str) -> Expr:
        """Order-``order`` symbol of ``e`` with respect to ``unknown``:
        the polynomial  sum_{|alpha| = order} (d e / d u_alpha) theta^alpha
        in the covector components."""
        self.unknown_index(unknown)
        total = ZERO
        for v in self.jet_vars_of(e, order):
            d = self.decompose_jet(v)
            if d[0] != unknown:
                continue
            de = e.partial(v)
            if not de.is_zero():
                total = total + de * self.theta_monomial(d[1])
        return total


def grid_point(coords: Coordinates, assignment: Mapping[str, Fraction]) -> dict:
    """Build a Var -> Fraction map for numeric evaluation from a map of
    printable names (base coordinates, jets by suffix name like ``u_xt``,
    the spectral name) to rationals."""
    out = {}
    for name, value in assignment.items():
        value = Fraction(value)
        if name in coords.base:
            out[Var.base(name)] = value
        elif name == coords.spectral:
            out[Var.spectral(coords.spectral)] = value
        else:
            head, _, tail = name.partition("_")
            if head in coords.unknowns:
                out[coords.jet_var(head, coords.multi_index(tail))] = value
            else:
                raise KernelError("cannot interpret point coordinate %r" % name)
    return out
