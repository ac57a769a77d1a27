"""Principal symbols, characteristic quadrics and conformal metrics.

The characteristic variety of a solved system is cut out by the determinant
of its matrix symbol, a polynomial in the covector components ``theta_i``.
For the systems this workbench targets, the square-free part of that
determinant is a quadric in ``theta``; its coefficient matrix (indices up,
acting on covectors) inverts to a covariant conformal metric on vectors.

Everything is exact; degeneracy and non-quadric failures raise typed errors
instead of returning junk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from . import linalg
from .errors import (
    DegenerateLinearSystem,
    DegenerateQuadric,
    NotAQuadric,
    PoleAtSample,
    SingularSample,
)
from .expr import Expr, Var, ZERO, poly_divexact, poly_gcd
from .ideal import SolvedSystem
from .jets import Coordinates, MultiIndex


def matrix_symbol(system: SolvedSystem) -> List[List[Expr]]:
    """The matrix of order-``l_a`` symbols: entry ``(a, b)`` is the symbol of
    equation ``a``'s residual with respect to unknown ``b``, each equation
    taken at its own principal order."""
    coords = system.coords
    rows = []
    for eq in system.equations:
        order = sum(eq.alpha)
        residual = eq.residual(coords)
        rows.append([coords.jet_symbol(residual, order, unk)
                     for unk in coords.unknowns])
    return rows


def characteristic_polynomial(system: SolvedSystem) -> Expr:
    """Determinant of the matrix symbol (a polynomial in theta)."""
    return linalg.determinant(matrix_symbol(system))


def theta_decompose(coords: Coordinates, e: Expr) -> Dict[MultiIndex, Expr]:
    """Write ``e`` as a polynomial in the theta variables: a map from theta
    multi-indices to theta-free coefficients."""
    out: Dict[MultiIndex, Expr] = {(0,) * coords.dim: e}
    for i, name in enumerate(coords.base):
        v = coords.theta_var(name)
        new: Dict[MultiIndex, Expr] = {}
        for alpha, coeff in out.items():
            for k, c in coeff.coeffs_in(v).items():
                beta = alpha[:i] + (k,) + alpha[i + 1:]
                new[beta] = c
        out = new
    return {a: c for a, c in out.items() if not c.is_zero()}


def _squarefree_in_theta(coords: Coordinates, e: Expr) -> Expr:
    """Square-free part with respect to the theta variables, with the
    theta-free content removed.  ``e`` must have a theta-free denominator
    (the denominator is dropped: it rescales the variety by a nonvanishing
    factor)."""
    num = e.numerator()
    g = num
    for name in coords.base:
        d = num.partial(coords.theta_var(name))
        if not d.is_zero():
            g = poly_gcd(g, d)
    sf = poly_divexact(num, g)
    # strip theta-free content: gcd of the theta-coefficients
    parts = theta_decompose(coords, sf)
    content = None
    for coeff in parts.values():
        content = coeff if content is None else poly_gcd(content, coeff)
        if content.is_constant():
            content = None
            break
    if content is not None:
        sf = poly_divexact(sf, content)
    return sf


@dataclass
class Quadric:
    """A quadratic form on covectors: ``q(theta) = sum z[i][j] theta_i theta_j``
    with ``z`` symmetric (indices up)."""

    coords: Coordinates
    matrix: List[List[Expr]]

    def determinant(self) -> Expr:
        return linalg.determinant(self.matrix)

    def to_metric(self) -> "Metric":
        """Invert (exactly, via adjugate over determinant) to the covariant
        conformal representative ``g = adj(z)/det(z)``."""
        det = self.determinant()
        if det.is_zero():
            raise DegenerateQuadric("quadric matrix is identically singular")
        adj = linalg.adjugate(self.matrix)
        g = [[entry / det for entry in row] for row in adj]
        return Metric(self.coords, g)


def _cache():
    """A lazily filled cache slot: not a constructor argument, not printed,
    and not part of equality."""
    return field(default=None, init=False, repr=False, compare=False)


@dataclass
class Metric:
    """A covariant symmetric 2-tensor ``g_ij`` with expression entries.

    The determinant, the inverse and, in 4D, the Weyl tensor with its dual
    (filled by :func:`laxweyl.weyl.sd_residual`) are computed on first use
    and cached on the object.  The caches assume ``matrix`` is not mutated
    after that; :meth:`scaled` makes a fresh metric with empty caches."""

    coords: Coordinates
    matrix: List[List[Expr]]
    _inverse: Optional[List[List[Expr]]] = _cache()
    _determinant: Optional[Expr] = _cache()
    # (C, V(C)) of weyl_curvature_tensor and dual_on_second_pair
    _weyl_and_dual: Optional[tuple] = _cache()

    def determinant(self) -> Expr:
        if self._determinant is None:
            self._determinant = linalg.determinant(self.matrix)
        return self._determinant

    def inverse_matrix(self) -> List[List[Expr]]:
        """``adj(g)/det(g)`` over the cached determinant; ``g`` is symmetric,
        so only the cofactors with ``i <= j`` are taken and mirrored."""
        if self._inverse is None:
            det = self.determinant()
            if det.is_zero():
                raise DegenerateLinearSystem("metric is singular")
            n = len(self.matrix)
            inv: List[List[Expr]] = [[ZERO] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    cof = linalg.minor(self.matrix, i, j)
                    if (i + j) % 2:
                        cof = -cof
                    inv[i][j] = inv[j][i] = cof / det
            self._inverse = inv
        return self._inverse

    def components(self) -> List[Expr]:
        """Upper-triangular components in deterministic order."""
        n = self.coords.dim
        return [self.matrix[i][j] for i in range(n) for j in range(i, n)]

    def scaled(self, factor: Expr) -> "Metric":
        return Metric(self.coords,
                      [[factor * x for x in row] for row in self.matrix])


def characteristic_quadric(system: SolvedSystem) -> Quadric:
    """Square-free characteristic quadric of the system.

    Raises :class:`NotAQuadric` when the square-free characteristic
    polynomial is not homogeneous of degree 2 in theta, and
    :class:`DegenerateQuadric` when its coefficient matrix is singular
    modulo the system."""
    coords = system.coords
    char = characteristic_polynomial(system)
    if char.is_zero():
        raise DegenerateQuadric("characteristic polynomial vanishes identically")
    sf = _squarefree_in_theta(coords, char)
    parts = theta_decompose(coords, sf)
    degrees = {sum(alpha) for alpha in parts}
    if degrees != {2}:
        raise NotAQuadric(
            "square-free characteristic polynomial has theta-degrees %s, "
            "expected a homogeneous quadric" % sorted(degrees))
    n = coords.dim
    z: List[List[Expr]] = [[ZERO] * n for _ in range(n)]
    half = Expr.number(Fraction(1, 2))
    for alpha, coeff in parts.items():
        support = [i for i, k in enumerate(alpha) if k]
        if len(support) == 1:
            i = support[0]
            z[i][i] = coeff
        else:
            i, j = support
            z[i][j] = half * coeff
            z[j][i] = z[i][j]
    quadric = Quadric(coords, z)
    det = system.reduce(quadric.determinant())
    if det.is_zero():
        raise DegenerateQuadric(
            "characteristic quadric is degenerate modulo the system")
    return quadric


def invert_to_metric(quadric: Quadric,
                     system: Optional[SolvedSystem] = None) -> Metric:
    """Invert a contravariant quadric to its covariant conformal
    representative ``g = adj(z)/det(z)``.

    When ``system`` is given, also reject quadrics whose determinant is
    nonzero as an expression but vanishes modulo the system (the inverse
    would then have an on-shell pole)."""
    if system is not None:
        det = system.reduce(quadric.determinant())
        if det.is_zero():
            raise DegenerateQuadric(
                "quadric is degenerate modulo the system")
    return quadric.to_metric()


def conformal_metric(system: SolvedSystem) -> Metric:
    """The canonical conformal structure: characteristic quadric, inverted.
    :func:`characteristic_quadric` has already rejected a quadric that is
    degenerate modulo the system."""
    return characteristic_quadric(system).to_metric()


def conformal_equal(a: Metric, b: Metric,
                    system: Optional[SolvedSystem] = None) -> bool:
    """Are two metrics conformally equal (proportional), identically or
    modulo the system?  Checked by exact vanishing of all 2x2 minors of the
    component vectors."""
    ca, cb = a.components(), b.components()
    if len(ca) != len(cb):
        return False
    for i in range(len(ca)):
        for j in range(i + 1, len(ca)):
            cross = ca[i] * cb[j] - ca[j] * cb[i]
            if system is not None:
                cross = system.reduce(cross)
            if not cross.is_zero():
                return False
    return True


def _evaluate_matrix(metric: Metric, system: Optional[SolvedSystem],
                     point: Mapping[Var, Fraction]) -> List[List[Fraction]]:
    n = metric.coords.dim
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = metric.matrix[i][j]
            if system is not None:
                entry = system.reduce(entry)
            missing = [v for v in entry.vars() if v not in point]
            if missing:
                raise SingularSample(
                    "sample point does not assign %s"
                    % ", ".join(v.name for v in sorted(missing)))
            try:
                row.append(entry.eval_rational(point))
            except ZeroDivisionError:
                raise PoleAtSample(
                    "metric entry (%d, %d) has a pole at the sample point"
                    % (i, j)) from None
        rows.append(row)
    return rows


def signature_at(metric: Metric, point: Mapping[Var, Fraction],
                 system: Optional[SolvedSystem] = None) -> Tuple[int, int]:
    """Signature of the metric at a rational sample point, as an unordered
    pair ``(p, q)`` with ``p >= q`` (a conformal class only fixes the
    signature up to overall sign).  Entries are reduced modulo ``system``
    first when one is given.  Raises :class:`SingularSample` if the evaluated
    matrix is singular and :class:`PoleAtSample` on a pole."""
    m = _evaluate_matrix(metric, system, point)
    n = len(m)
    pos = neg = 0
    rows = [row[:] for row in m]
    idx = list(range(n))
    size = n
    while size > 0:
        # find a nonzero diagonal entry
        k = next((i for i in range(size) if rows[i][i] != 0), None)
        if k is None:
            # all diagonal zero: find off-diagonal pivot and symmetrize
            hit = None
            for i in range(size):
                for j in range(i + 1, size):
                    if rows[i][j] != 0:
                        hit = (i, j)
                        break
                if hit:
                    break
            if hit is None:
                raise SingularSample("metric is singular at the sample point")
            i, j = hit
            # congruence: row/col i += row/col j makes diagonal 2*rows[i][j]
            for c in range(size):
                rows[i][c] += rows[j][c]
            for r in range(size):
                rows[r][i] += rows[r][j]
            k = i
        if k != 0:
            rows[0], rows[k] = rows[k], rows[0]
            for r in range(size):
                rows[r][0], rows[r][k] = rows[r][k], rows[r][0]
        pivot = rows[0][0]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        reduced = []
        for i in range(1, size):
            factor = rows[i][0] / pivot
            reduced.append([rows[i][j] - factor * rows[0][j]
                            for j in range(1, size)])
        rows = reduced
        size -= 1
    if pos + neg < n:
        raise SingularSample("metric is singular at the sample point")
    return (pos, neg) if pos >= neg else (neg, pos)
