"""Solved PDE systems and reduction modulo their differential ideal.

A :class:`SolvedSystem` is a list of equations, each solved for a *principal*
jet variable ``u_P = rhs``.  The system must be triangular with respect to
the built-in ranking (every jet on a right-hand side ranks strictly below the
principal jet it defines); this makes "replace a principal derivative by the
total derivative of its right-hand side" a terminating rewrite, and the
normal form of an expression is its canonical representative modulo the
differential ideal generated by the equations and all their prolongations.

Two reduction entry points:

* :meth:`SolvedSystem.reduce` -- fast normal form (memoized prolongations);
* :meth:`SolvedSystem.cofactor_extract` -- instrumented reduction that also
  returns an exact certificate: a map ``(equation, tau) -> cofactor`` with

      e  =  normal_form  +  sum  cofactor * D^tau(residual_of_equation)

  verifiable by direct expansion.

The reduction budget ``max_order`` is fixed when the system is built; a
prolongation past it raises :class:`OrderBudgetExceeded`.  The budget and the
memo of prolonged normal forms share a lifetime: every memo entry was made
under the one budget, so a memo hit needs no budget test, and whether a call
raises never depends on which calls came before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from .errors import (
    DivisionByZero,
    DuplicatePrincipal,
    IdealDenominator,
    OrderBudgetExceeded,
    RankingViolation,
    UnderdeterminedSystem,
)
from .expr import Expr, Var
from .jets import Coordinates, MultiIndex


def rank_key(coords: Coordinates, unknown: str, alpha: MultiIndex) -> tuple:
    """Ranking on jet variables: total order first, then the unknown's
    position, then the exponent vector compared lexicographically with
    earlier base coordinates more significant (larger exponent = higher)."""
    return (sum(alpha), coords.unknown_index(unknown), tuple(alpha))


@dataclass(frozen=True)
class SolvedEquation:
    """One equation ``unknown_alpha = rhs``, solved for its principal jet."""

    unknown: str
    alpha: MultiIndex
    rhs: Expr
    name: str = ""

    def principal_var(self, coords: Coordinates) -> Var:
        return coords.jet_var(self.unknown, self.alpha)

    def residual(self, coords: Coordinates) -> Expr:
        """The equation as a residual: principal jet minus right-hand side."""
        return Expr.variable(self.principal_var(coords)) - self.rhs

    def label(self, coords: Coordinates) -> str:
        return self.name or self.principal_var(coords).name


class SolvedSystem:
    """A triangular solved PDE system together with its reduction machinery."""

    def __init__(self, coords: Coordinates, equations: Sequence[SolvedEquation],
                 max_order: Optional[int] = None):
        self.coords = coords
        self.equations = tuple(equations)
        self._max_order = max_order
        self._principal_of: Dict[str, int] = {}
        self._validate()
        # fast normal-form table: (eq_index, tau) -> Expr
        self._nf: Dict[tuple, Expr] = {}
        # certificate table: (eq_index, tau) -> (Expr, {(eq_index, sigma): Expr})
        self._nf_cert: Dict[tuple, tuple] = {}

    # -- construction & validation -------------------------------------------

    @staticmethod
    def single(coords: Coordinates, unknown: str, derivatives: str, rhs: Expr,
               name: str = "") -> "SolvedSystem":
        """Convenience constructor for one scalar equation, with the
        principal jet given by a derivative string like ``'xt'``."""
        return SolvedSystem(coords, [SolvedEquation(
            unknown, coords.multi_index(derivatives), rhs, name)])

    def _validate(self) -> None:
        coords = self.coords
        if not self.equations:
            raise UnderdeterminedSystem("system has no equations")
        for idx, eq in enumerate(self.equations):
            coords.unknown_index(eq.unknown)
            if len(eq.alpha) != coords.dim or sum(eq.alpha) == 0:
                raise RankingViolation(
                    "equation %d: principal multi-index %r is invalid"
                    % (idx, eq.alpha))
            if eq.unknown in self._principal_of:
                raise DuplicatePrincipal(
                    "unknown %r is principal in two equations" % eq.unknown)
            self._principal_of[eq.unknown] = idx
        missing = [u for u in coords.unknowns if u not in self._principal_of]
        if missing:
            raise UnderdeterminedSystem(
                "no equation is solved for unknown(s): %s" % ", ".join(missing))
        for idx, eq in enumerate(self.equations):
            top = rank_key(coords, eq.unknown, eq.alpha)
            for v in sorted(eq.rhs.vars()):
                d = coords.decompose_jet(v)
                if d is None:
                    continue
                if rank_key(coords, d[0], d[1]) >= top:
                    raise RankingViolation(
                        "equation %s: right-hand side contains %s, which does "
                        "not rank below the principal jet %s"
                        % (eq.label(coords), v.name,
                           eq.principal_var(coords).name))

    @property
    def max_order(self) -> Optional[int]:
        """The reduction budget: the highest jet order a prolongation may
        reach (``None`` for no budget)."""
        return self._max_order

    def _check_budget(self, eq_index: int, tau: MultiIndex, what: str) -> None:
        order = sum(self.equations[eq_index].alpha) + sum(tau)
        if self._max_order is not None and order > self._max_order:
            raise OrderBudgetExceeded("%s needs jet order %d, budget is %d"
                                      % (what, order, self._max_order))

    @property
    def order(self) -> int:
        """Order of the system: the highest principal-derivative order."""
        return max(sum(eq.alpha) for eq in self.equations)

    # -- reducibility ---------------------------------------------------------

    def reduction_target(self, v: Var) -> Optional[tuple]:
        """If jet variable ``v`` is a derivative of some principal jet,
        return ``(eq_index, tau)`` with ``v = principal + tau``."""
        d = self.coords.decompose_jet(v)
        if d is None:
            return None
        unknown, alpha = d
        idx = self._principal_of.get(unknown)
        if idx is None:
            return None
        principal = self.equations[idx].alpha
        tau = tuple(a - p for a, p in zip(alpha, principal))
        if any(t < 0 for t in tau):
            return None
        return idx, tau

    def _highest_reducible(self, e: Expr) -> Optional[tuple]:
        best = None
        best_key = None
        for v in e.vars():
            target = self.reduction_target(v)
            if target is None:
                continue
            d = self.coords.decompose_jet(v)
            key = rank_key(self.coords, d[0], d[1])
            if best_key is None or key > best_key:
                best_key = key
                best = (v,) + target
        return best

    # -- fast reduction ------------------------------------------------------

    def prolonged_nf(self, eq_index: int, tau: MultiIndex) -> Expr:
        """Normal form of the prolonged right-hand side ``D^tau rhs``, i.e.
        the canonical replacement for the jet ``principal + tau``."""
        tau = tuple(tau)
        key = (eq_index, tau)
        cached = self._nf.get(key)
        if cached is not None:
            return cached
        self._check_budget(eq_index, tau, "reduction")
        if sum(tau) == 0:
            value = self.reduce(self.equations[eq_index].rhs)
        else:
            i = next(k for k, t in enumerate(tau) if t > 0)
            lower = tuple(t - (1 if k == i else 0) for k, t in enumerate(tau))
            prev = self.prolonged_nf(eq_index, lower)
            value = self.reduce(self.coords.total_derivative(prev, i))
        self._nf[key] = value
        return value

    def reduce(self, e: Expr) -> Expr:
        """Normal form of ``e`` modulo the differential ideal.  Raises
        :class:`IdealDenominator` when a denominator lies in the ideal."""
        while True:
            hit = self._highest_reducible(e)
            if hit is None:
                return e
            v, eq_index, tau = hit
            replacement = self.prolonged_nf(eq_index, tau)
            try:
                e = e.subs_var(v, replacement)
            except DivisionByZero:
                raise IdealDenominator(
                    "denominator reduces to zero modulo the system "
                    "(while eliminating %s)" % v.name) from None

    # -- instrumented reduction (certificates) --------------------------------

    def _nf_with_cert(self, eq_index: int, tau: MultiIndex) -> tuple:
        """Memoized pair ``(nf, cert)`` such that

            jet(principal + tau) = nf + D^tau(residual) + sum cert * D^sigma(residual_b)

        where ``cert`` maps ``(b, sigma)`` to its cofactor and the leading
        ``D^tau(residual)`` term is *not* included in ``cert``."""
        tau = tuple(tau)
        key = (eq_index, tau)
        cached = self._nf_cert.get(key)
        if cached is not None:
            return cached
        self._check_budget(eq_index, tau, "certificate")
        if sum(tau) == 0:
            nf, cert = self.cofactor_extract(self.equations[eq_index].rhs)
        else:
            i = next(k for k, t in enumerate(tau) if t > 0)
            lower = tuple(t - (1 if k == i else 0) for k, t in enumerate(tau))
            prev_nf, prev_cert = self._nf_with_cert(eq_index, lower)
            # d/dx_i of:  jet(P+lower) = prev_nf + D^lower(res) + sum c*D^sigma(res_b)
            nf, cert = self.cofactor_extract(
                self.coords.total_derivative(prev_nf, i))
            for (b, sigma), c in prev_cert.items():
                dc = self.coords.total_derivative(c, i)
                if not dc.is_zero():
                    _cert_add(cert, (b, sigma), dc)
                bumped = tuple(s + (1 if k == i else 0)
                               for k, s in enumerate(sigma))
                _cert_add(cert, (b, bumped), c)
        self._nf_cert[key] = (nf, cert)
        return nf, cert

    def cofactor_extract(self, e: Expr) -> tuple:
        """Reduce ``e`` while tracking exact cofactors.

        Returns ``(normal_form, certificate)`` where ``certificate`` maps
        ``(eq_index, tau)`` to an expression ``c`` such that

            e == normal_form + sum c * D^tau(residual of equation eq_index)

        holds identically (checkable with :meth:`verify_certificate`).
        """
        cert: Dict[tuple, Expr] = {}
        while True:
            hit = self._highest_reducible(e)
            if hit is None:
                return e, cert
            v, eq_index, tau = hit
            nf_v, cert_v = self._nf_with_cert(eq_index, tau)
            v_expr = Expr.variable(v)
            try:
                reduced = e.subs_var(v, nf_v)
            except DivisionByZero:
                raise IdealDenominator(
                    "denominator reduces to zero modulo the system "
                    "(while eliminating %s)" % v.name) from None
            diff = e - reduced
            if not diff.is_zero():
                # e - e|_{v->nf} = (v - nf) * K  exactly, as rational functions
                cofactor = diff / (v_expr - nf_v)
                _cert_add(cert, (eq_index, tau), cofactor)
                for key2, c2 in cert_v.items():
                    _cert_add(cert, key2, cofactor * c2)
            e = reduced

    def verify_certificate(self, original: Expr, normal_form: Expr,
                           certificate: Mapping[tuple, Expr]) -> bool:
        """Expand the certificate identity exactly."""
        total = normal_form
        for (eq_index, tau), c in certificate.items():
            res = self.equations[eq_index].residual(self.coords)
            total = total + c * self.coords.total_derivative_multi(res, tau)
        return (original - total).is_zero()


def _cert_add(cert: Dict[tuple, Expr], key: tuple, value: Expr) -> None:
    cur = cert.get(key)
    new = value if cur is None else cur + value
    if new.is_zero():
        cert.pop(key, None)
    else:
        cert[key] = new
