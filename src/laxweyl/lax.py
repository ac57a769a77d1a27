"""Dispersionless Lax pairs: verification, normalization, lifts, recovery.

A pair is two vector fields on the space of (base coordinates) x (spectral
line), written in the positional frame fixed by the coordinate order
``(b1, b2, b3[, b4])``:

* 3D:  ``X = D_1 - alpha D_3 + m d/dlam``, ``Y = D_2 - beta D_3 + n d/dlam``
* 4D:  ``X = D_1 - alpha D_3 - beta D_4 + m d/dlam``,
       ``Y = D_2 - gamma D_3 - delta D_4 + n d/dlam``

where ``D_i`` are total derivatives (the coefficients are jet expressions,
rational in the spectral parameter).  The transverse coefficients fill the
``D_3``/``D_4`` slots of X and then of Y in name order, so ``beta`` is Y's
slot in 3D but X's second slot in 4D.  ``LaxPair._slots`` is the only place
that knows this: everything else goes through the slots or iterates
:meth:`LaxPair.coefficients`.  The commutator ``[X, Y]`` has no
``D_1``/``D_2`` component, so integrability is measured by its remaining
slots: the *horizontal* residuals (coefficients of ``D_3``/``D_4``) and the
*vertical* residual (coefficient of ``d/dlam``).  The pair is a Lax pair for
a solved system when every residual reduces to zero modulo the system's
differential ideal without vanishing identically off-shell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .conformal import Metric, Quadric, characteristic_quadric
from .errors import (
    DegenerateCongruence,
    DegenerateFrame,
    KernelError,
    LambdaDependent,
    NoSolution,
    NonUnique,
    ReparametrizationError,
)
from .expr import Expr, Var, ZERO, ONE, poly_divexact, poly_gcd
from .ideal import SolvedSystem
from .jets import Coordinates
from .weyl import Classification, ResidualTensor, christoffel_weyl


class LaxVerdict(Enum):
    """Outcome of verifying a candidate pair against a system."""

    LAX_PAIR = "lax-pair"
    TRIVIAL = "trivial"
    NOT_INTEGRABLE = "not-integrable"


@dataclass
class LaxPair:
    """A candidate dispersionless Lax pair in positional frame form."""

    coords: Coordinates
    alpha: Expr
    beta: Expr
    m: Expr
    n: Expr
    gamma: Optional[Expr] = None
    delta: Optional[Expr] = None

    def __post_init__(self):
        four_d = self.coords.dim == 4
        if four_d and (self.gamma is None or self.delta is None):
            raise KernelError("a 4D pair needs gamma and delta coefficients")
        if not four_d and (self.gamma is not None or self.delta is not None):
            raise KernelError("a 3D pair has no gamma/delta coefficients")

    # -- frame components ----------------------------------------------------

    def coefficients(self) -> Dict[str, Expr]:
        """Every coefficient by field name, in the order ``alpha, beta[,
        gamma, delta], m, n``."""
        names = ("alpha", "beta", "m", "n") if self.coords.dim == 3 else (
            "alpha", "beta", "gamma", "delta", "m", "n")
        return {name: getattr(self, name) for name in names}

    def _slots(self) -> Tuple[List[Expr], List[Expr]]:
        """The transverse coefficients of X and of Y: entry ``k`` of each
        multiplies ``-D_{3+k}``."""
        if self.coords.dim == 3:
            return [self.alpha], [self.beta]
        return [self.alpha, self.beta], [self.gamma, self.delta]

    def x_components(self) -> List[Expr]:
        """Downstairs components of X in base order."""
        return [ONE, ZERO] + [-c for c in self._slots()[0]]

    def y_components(self) -> List[Expr]:
        return [ZERO, ONE] + [-c for c in self._slots()[1]]

    def annihilator_covectors(self) -> List[List[Expr]]:
        """A basis of the covectors annihilating the span of X and Y:
        ``d b_{3+k} + xs[k] d b1 + ys[k] d b2`` for each transverse slot
        ``k`` (one covector in 3D, two in 4D)."""
        xs, ys = self._slots()
        return [[x, y] + [ONE if j == k else ZERO for j in range(len(xs))]
                for k, (x, y) in enumerate(zip(xs, ys))]

    def _lam(self) -> Var:
        return self.coords.spectral_var()

    def _apply(self, e: Expr, own: int, transverse: Sequence[Expr],
               vertical: Expr) -> Expr:
        """``D_own e - sum_k transverse[k] D_{3+k} e + vertical de/dlam``."""
        D = self.coords.total_derivative
        result = D(e, own)
        for i, comp in enumerate(transverse, 2):
            if not comp.is_zero():
                result = result - comp * D(e, i)
        dlam = e.partial(self._lam())
        if not dlam.is_zero():
            result = result + vertical * dlam
        return result

    def apply_x(self, e: Expr) -> Expr:
        """Full action of X (total-derivative part plus vertical part)."""
        return self._apply(e, 0, self._slots()[0], self.m)

    def apply_y(self, e: Expr) -> Expr:
        return self._apply(e, 1, self._slots()[1], self.n)

    # -- commutator residuals --------------------------------------------------

    def horizontal_residuals(self) -> Dict[str, Expr]:
        """Coefficients of the ``D_3`` (and ``D_4``) slots of ``[X, Y]``,
        keyed by the base-coordinate name of the slot."""
        xs, ys = self._slots()
        base = self.coords.base
        return {base[2 + k]: self.apply_y(x) - self.apply_x(y)
                for k, (x, y) in enumerate(zip(xs, ys))}

    def vertical_residual(self) -> Expr:
        """Coefficient of ``d/dlam`` in ``[X, Y]``."""
        return self.apply_x(self.n) - self.apply_y(self.m)

    def residuals(self) -> Dict[str, Expr]:
        out = {"h_" + k: v for k, v in self.horizontal_residuals().items()}
        out["vertical"] = self.vertical_residual()
        return out

    def is_normal(self) -> bool:
        """Normal pairs have identically vanishing horizontal residuals
        (off-shell, before any reduction)."""
        return all(v.is_zero() for v in self.horizontal_residuals().values())

    # -- nondegeneracy scalars ---------------------------------------------------

    def z1(self) -> Expr:
        """3D fibre nondegeneracy: ``beta' alpha'' - alpha' beta''`` in the
        spectral parameter."""
        if self.coords.dim != 3:
            raise KernelError("z1 is a 3D notion")
        lam = self._lam()
        al, bl = self.alpha.partial(lam), self.beta.partial(lam)
        return bl * al.partial(lam) - al * bl.partial(lam)

    def z2(self) -> Expr:
        """4D frame nondegeneracy: ``alpha' delta' - beta' gamma'``."""
        if self.coords.dim != 4:
            raise KernelError("z2 is a 4D notion")
        lam = self._lam()
        return (self.alpha.partial(lam) * self.delta.partial(lam)
                - self.beta.partial(lam) * self.gamma.partial(lam))

    # -- transformations -----------------------------------------------------------

    def normalize(self, system: Optional[SolvedSystem] = None) -> "LaxPair":
        """Shift the vertical coefficients so the horizontal residuals vanish
        identically, leaving the frame untouched.  Requires the fibre
        nondegeneracy scalar (z1 in 3D, z2 in 4D) to be nonzero (and nonzero
        modulo the system when one is given)."""
        lam = self._lam()
        if self.coords.dim == 3:
            z = self.z1()
            self._require_nondegenerate(z, "z1", system)
            h = self.horizontal_residuals()[self.coords.base[2]]
            dm = (self.alpha.partial(lam).partial(lam) / z) * h
            dn = (self.beta.partial(lam).partial(lam) / z) * h
        else:
            z = self.z2()
            self._require_nondegenerate(z, "z2", system)
            hs = self.horizontal_residuals()
            h3, h4 = hs[self.coords.base[2]], hs[self.coords.base[3]]
            al = self.alpha.partial(lam)
            bl = self.beta.partial(lam)
            gl = self.gamma.partial(lam)
            dl = self.delta.partial(lam)
            dm = (-bl * h3 + al * h4) / z
            dn = (-dl * h3 + gl * h4) / z
        return replace(self, m=self.m + dm, n=self.n + dn)

    @staticmethod
    def _require_nondegenerate(z: Expr, name: str,
                               system: Optional[SolvedSystem]) -> None:
        if z.is_zero():
            raise DegenerateCongruence("%s vanishes identically" % name)
        if system is not None and system.reduce(z).is_zero():
            raise DegenerateCongruence("%s vanishes modulo the system" % name)

    def shift_spectral(self, h: Expr) -> "LaxPair":
        """Change the spectral coordinate to ``lam + h`` for a jet
        expression ``h`` (independent of the spectral parameter); the
        coefficients transform by substitution and the vertical parts pick
        up the derivative of ``h`` along the frame."""
        lam = self._lam()
        if lam in h.vars():
            raise LambdaDependent(
                "a spectral shift must not depend on the spectral parameter")
        back = Expr.variable(lam) - h

        def move(e: Expr) -> Expr:
            return e.subs_var(lam, back)

        frame = {name: move(c) for name, c in self.coefficients().items()
                 if name not in ("m", "n")}
        return replace(self, m=move(self.m + self.apply_x(h)),
                       n=move(self.n + self.apply_y(h)), **frame)

    def equal_mod(self, other: "LaxPair",
                  system: Optional[SolvedSystem] = None) -> bool:
        theirs = other.coefficients()
        for name, c in self.coefficients().items():
            d = c - theirs[name]
            if system is not None:
                d = system.reduce(d)
            if not d.is_zero():
                return False
        return True


# a trivial pair commutes identically; a Lax pair's commutator vanishes only
# modulo the system
_VERDICTS = {
    Classification.IDENTICALLY_ZERO: LaxVerdict.TRIVIAL,
    Classification.ZERO_MOD_IDEAL: LaxVerdict.LAX_PAIR,
    Classification.NONZERO: LaxVerdict.NOT_INTEGRABLE,
}


@dataclass
class LaxReport:
    """The commutator residuals of a candidate pair against a system."""

    pair: LaxPair
    residual: ResidualTensor

    @property
    def raw(self) -> Dict[str, Expr]:
        return self.residual.raw

    @property
    def reduced(self) -> Dict[str, Expr]:
        return self.residual.reduced

    @property
    def verdict(self) -> LaxVerdict:
        return _VERDICTS[self.residual.classify()]

    def witness(self) -> Optional[Tuple[str, Expr]]:
        return self.residual.witness()


def verify_lax(system: SolvedSystem, pair: LaxPair) -> LaxReport:
    """Classify a candidate pair: a genuine Lax pair encodes the system (all
    commutator residuals reduce to zero but at least one is nonzero
    off-shell), a trivial pair commutes identically, anything else is not
    integrable by this pair."""
    return LaxReport(pair, ResidualTensor.of(system, pair.residuals()))


def characteristic_check(pair: LaxPair, system: SolvedSystem) -> bool:
    """Whether the pair's 2-planes are characteristic for the system: every
    covector annihilating the span of X and Y must be null for the
    characteristic quadric modulo the differential ideal (for all lam)."""
    quadric = characteristic_quadric(system)
    thetas = pair.annihilator_covectors()
    n = pair.coords.dim
    for a, first in enumerate(thetas):
        for second in thetas[a:]:
            value = ZERO
            for i in range(n):
                for j in range(n):
                    value = value + quadric.matrix[i][j] * first[i] * second[j]
            if not system.reduce(value).is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# 4D: lifting a frame to a normal pair
# ---------------------------------------------------------------------------


def normal_lift_4d(coords: Coordinates, alpha: Expr, beta: Expr,
                   gamma: Expr, delta: Expr,
                   system: Optional[SolvedSystem] = None) -> LaxPair:
    """Complete a 4D frame to the unique normal pair on it: the
    :meth:`LaxPair.normalize` of the pair with ``m = n = 0``.  Requires the
    frame nondegeneracy ``z2 != 0``."""
    if coords.dim != 4:
        raise KernelError("normal_lift_4d needs 4 base coordinates")
    return LaxPair(coords, alpha, beta, ZERO, ZERO,
                   gamma=gamma, delta=delta).normalize(system)


# ---------------------------------------------------------------------------
# the Monge invariant and the conic oracle
# ---------------------------------------------------------------------------


def monge_invariant(coords: Coordinates, alpha: Expr, beta: Expr) -> Expr:
    """The classical invariant whose identical vanishing characterizes
    plane curves ``lam -> (alpha, beta)`` lying on a conic:

        9 (a'')^2 a^(5) - 45 a'' a''' a'''' + 40 (a''')^3

    where primes are derivatives with respect to ``beta`` (computed via the
    chain rule, so any regular parametrization is accepted)."""
    lam = coords.spectral_var()
    beta_l = beta.partial(lam)
    if beta_l.is_zero():
        raise DegenerateCongruence(
            "beta is constant in the spectral parameter; the curve is not "
            "regularly parametrized")

    def d_dbeta(e: Expr) -> Expr:
        return e.partial(lam) / beta_l

    a2 = d_dbeta(d_dbeta(alpha))
    a3 = d_dbeta(a2)
    a4 = d_dbeta(a3)
    a5 = d_dbeta(a4)
    nine, f45, f40 = Expr.number(9), Expr.number(45), Expr.number(40)
    return nine * a2 * a2 * a5 - f45 * a2 * a3 * a4 + f40 * a3 ** 3


def _clear_lambda_denominators(funcs: Sequence[Expr]) -> List[Expr]:
    """Multiply all functions by the product of their denominators (a
    nonzero common factor does not change linear dependence over the
    lambda-free field)."""
    dens = [f.denominator() for f in funcs]
    out = []
    for i, f in enumerate(funcs):
        g = f.numerator()
        for j, d in enumerate(dens):
            if j != i:
                g = g * d
        out.append(g)
    return out


def conic_oracle(coords: Coordinates, alpha: Expr, beta: Expr) -> bool:
    """Exact test: does the curve ``lam -> (alpha, beta)`` lie on a conic
    (possibly degenerate) with coefficients independent of the spectral
    parameter?

    The test runs on the homogeneous coordinates ``[c : A : B]`` with
    ``c = lcm(den alpha, den beta)``, ``A = c alpha`` and ``B = c beta``, all
    polynomial in ``lam``.  The six quadratic monomials ``c^2, cA, cB, A^2,
    AB, B^2`` are ``{1, alpha, beta, alpha^2, alpha beta, beta^2}`` times the
    nonzero ``c^2``, so their linear relations over the lambda-free field
    are the conics through the curve: the curve lies on one exactly when the
    lambda-coefficient matrix, one row per power of ``lam`` and one column
    per monomial, has a nonzero kernel.  Fewer than six nonzero rows bound
    the rank below six, so such a matrix always has a kernel and needs no
    elimination."""
    da, db = alpha.denominator(), beta.denominator()
    c = poly_divexact(da, poly_gcd(da, db)) * db
    a, b = c * alpha, c * beta
    rows = _lambda_coefficient_rows(
        coords, [[c * c, c * a, c * b, a * a, a * b, b * b]])
    return len(rows) < 6 or len(linalg.nullspace(rows)) > 0


# ---------------------------------------------------------------------------
# recovering the conformal structure from a pair
# ---------------------------------------------------------------------------


def _lambda_coefficient_rows(coords: Coordinates,
                             forms: Sequence[List[Expr]]) -> List[List[Expr]]:
    """Each ``form`` is a list of lambda-dependent coefficients multiplying
    the unknowns of a linear system; expand every form into one row per
    lambda power (after clearing lambda denominators row-group-wise)."""
    lam = coords.spectral_var()
    rows: List[List[Expr]] = []
    for form in forms:
        cleared = _clear_lambda_denominators(form)
        per_unknown = [f.coeffs_in(lam) for f in cleared]
        degree = max((max(c) for c in per_unknown if c), default=0)
        for k in range(degree + 1):
            row = [per_unknown[j].get(k, ZERO) for j in range(len(form))]
            if any(not e.is_zero() for e in row):
                rows.append(row)
    return rows


def recover_metric(pair: LaxPair,
                   system: Optional[SolvedSystem] = None) -> Metric:
    """Reconstruct the conformal structure annihilating the pair's frame for
    every value of the spectral parameter.

    In 3D the unknown is the quadric on covectors vanishing on the pair's
    null covector; in 4D it is the covariant metric for which the frame
    spans a null 2-plane.  Either way the conditions are linear in the
    unknown tensor with lambda-polynomial coefficients; the kernel must be
    one-dimensional."""
    coords = pair.coords
    n = coords.dim
    # the unknown tensor vanishes on each unordered pair of the vectors
    vectors = (pair.annihilator_covectors() if n == 3
               else [pair.x_components(), pair.y_components()])
    unknown_index = [(i, j) for i in range(n) for j in range(i, n)]
    forms = [[u[i] * v[j] if i == j else u[i] * v[j] + u[j] * v[i]
              for (i, j) in unknown_index]
             for a, u in enumerate(vectors) for v in vectors[a:]]
    rows = _lambda_coefficient_rows(coords, forms)
    if system is not None:
        rows = [[system.reduce(e) for e in row] for row in rows]
    kernel = linalg.nullspace(rows)
    if not kernel:
        raise NoSolution("the frame annihilates no nonzero symmetric tensor")
    if len(kernel) > 1:
        raise NonUnique(
            "the frame does not determine the conformal structure",
            family_dim=len(kernel) - 1)
    vec = kernel[0]
    mat = [[ZERO] * n for _ in range(n)]
    for (i, j), val in zip(unknown_index, vec):
        mat[i][j] = val
        mat[j][i] = val
    if n == 3:
        return Quadric(coords, mat).to_metric()
    return Metric(coords, mat)


# ---------------------------------------------------------------------------
# 3D: lifting an Einstein--Weyl structure to a pair
# ---------------------------------------------------------------------------


def weyl_lift_3d(system: Optional[SolvedSystem], metric: Metric,
                 omega: Sequence[Expr], alpha: Expr, beta: Expr,
                 degree: int = 3) -> Tuple[Expr, Expr]:
    """Find the vertical coefficients ``(m, n)`` transporting the null
    covector ``theta(lam) = d b3 + alpha d b1 + beta d b2`` parallelly (up
    to scale) along the frame, with respect to the Weyl connection of
    ``(metric, omega)``:

        (nabla_X theta + m d_lam theta) wedge theta = 0, and the Y/n analog.

    ``beta`` must literally be the spectral parameter (reparametrize the
    pencil first otherwise); ``m`` and ``n`` are sought as spectral
    polynomials of degree at most ``degree``.  All equations are imposed
    modulo the system when one is given."""
    coords = metric.coords
    if coords.dim != 3:
        raise KernelError("weyl_lift_3d needs 3 base coordinates")
    lam = coords.spectral_var()
    lam_expr = Expr.variable(lam)
    if beta != lam_expr:
        raise ReparametrizationError(
            "the lift expects beta to equal the spectral parameter; "
            "apply a Moebius reparametrization of the pencil first")
    theta = [alpha, beta, ONE]
    gamma = christoffel_weyl(metric, list(omega))
    D = coords.total_derivative
    dtheta_lam = [t.partial(lam) for t in theta]

    def transport_rows(direction: List[Expr]) -> List[List[Expr]]:
        """Rows of the linear system for one unknown vertical coefficient
        written as sum_k c_k lam^k: columns are c_0..c_degree plus a final
        inhomogeneous column."""
        nabla = []
        for jj in range(3):
            val = ZERO
            for i in range(3):
                if direction[i].is_zero():
                    continue
                term = D(theta[jj], i)
                for k in range(3):
                    term = term - gamma[k][i][jj] * theta[k]
                val = val + direction[i] * term
            nabla.append(val)
        # wedge conditions: (nabla + c * dtheta_lam) proportional to theta
        forms = []
        for a in range(3):
            for b in range(a + 1, 3):
                inhom = nabla[a] * theta[b] - nabla[b] * theta[a]
                coeff = dtheta_lam[a] * theta[b] - dtheta_lam[b] * theta[a]
                # unknown c = sum c_k lam^k multiplies `coeff`
                cols = [coeff * lam_expr ** k for k in range(degree + 1)]
                forms.append(cols + [inhom])
        return _lambda_coefficient_rows(coords, forms)

    unknown_count = degree + 1
    results = []
    for direction in (pair_direction for pair_direction in
                      ([ONE, ZERO, -alpha], [ZERO, ONE, -beta])):
        rows = transport_rows(direction)
        if system is not None:
            rows = [[system.reduce(e) for e in row] for row in rows]
        matrix = [row[:unknown_count] for row in rows]
        rhs = [-row[unknown_count] for row in rows]
        sol = linalg.solve(matrix, rhs)
        if sol is None:
            raise NoSolution(
                "parallel transport equations are inconsistent; the "
                "structure is not Einstein-Weyl or the ansatz degree %d "
                "is too small" % degree)
        coeff = ZERO
        for k in range(unknown_count):
            coeff = coeff + sol[k] * lam_expr ** k
        results.append(coeff)
    return results[0], results[1]


# ---------------------------------------------------------------------------
# frames from raw vector fields
# ---------------------------------------------------------------------------


def congruence_from_vectors(coords: Coordinates,
                            v1: Sequence[Expr], v2: Sequence[Expr],
                            m1: Expr = ZERO, m2: Expr = ZERO) -> LaxPair:
    """Bring the span of two vector fields (components in base order, with
    optional vertical parts) to the positional frame form.  The 2x2 block on
    the first two coordinates must be invertible (else
    :class:`DegenerateFrame`)."""
    n = coords.dim
    if len(v1) != n or len(v2) != n:
        raise KernelError("vector components must match the base dimension")
    a, b = v1[0], v1[1]
    c, d = v2[0], v2[1]
    det = a * d - b * c
    if det.is_zero():
        raise DegenerateFrame(
            "the vectors do not project onto the first two coordinates")
    # rows of the inverse of [[a, b], [c, d]]
    inv = [[d / det, -b / det], [-c / det, a / det]]
    new1 = [inv[0][0] * v1[k] + inv[0][1] * v2[k] for k in range(n)]
    new2 = [inv[1][0] * v1[k] + inv[1][1] * v2[k] for k in range(n)]
    vert1 = inv[0][0] * m1 + inv[0][1] * m2
    vert2 = inv[1][0] * m1 + inv[1][1] * m2
    if n == 3:
        return LaxPair(coords, -new1[2], -new2[2], vert1, vert2)
    return LaxPair(coords, -new1[2], -new1[3], vert1, vert2,
                   gamma=-new2[2], delta=-new2[3])
