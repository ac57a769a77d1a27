"""Weyl connections, curvature, Einstein--Weyl and self-duality residuals.

Conventions (all indices refer to positions in ``coords.base``):

* connection coefficients ``G[k][i][j]`` represent ``Gamma^k_{ij}`` and are
  symmetric in ``(i, j)``;
* curvature ``R[l][k][i][j]`` is ``R^l_{k i j} = D_i Gamma^l_{jk}
  - D_j Gamma^l_{ik} + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}``;
* Ricci is the trace ``Ric_{kj} = R^i_{k i j}``.

A Weyl connection is the unique torsion-free connection with
``nabla g = -2 omega (x) g`` for a one-form ``omega``; its coefficients are
the Levi-Civita ones plus ``delta^k_i omega_j + delta^k_j omega_i
- g_{ij} omega^k``.  The Einstein--Weyl residual is the trace-free part of
the symmetrized Ricci tensor of that connection; in four dimensions the
relevant residual is instead the anti-self-dual (or self-dual, by
orientation) part of the conformally invariant Weyl tensor.

In three dimensions that residual splits into a Levi-Civita part and terms
in ``omega`` (Calderbank--Pedersen, "Einstein--Weyl geometry", 1999):

    TF(Sym Ric^D) = TF(Ric^g) - TF(Sym nabla omega) + TF(omega (x) omega)

with ``TF(S) = S - (1/3) tr_g(S) g`` and ``(nabla omega)_{ij} = D_i omega_j
- Gamma^k_{ij} omega_k`` for the Levi-Civita ``Gamma``.  In dimension
``n`` both ``omega`` terms carry the factor ``n - 2``, with these signs for
the conventions above.  :func:`ew_residual` computes the right-hand side,
so curvature is only taken of the parameter-free Levi-Civita connection.

In every dimension the Levi-Civita curvature comes from one kernel,
:func:`_lowered_riemann`.  It builds ``R_{lkij} = g_{la} R^a_{kij}`` (same
convention as above) straight from first and second total derivatives of
the metric:

    R_{lkij} = 1/2 (D_k D_i g_{lj} + D_l D_j g_{ki}
                    - D_l D_i g_{kj} - D_k D_j g_{li})
               + g^{ab} (Gamma_{a,jl} Gamma_{b,ik} - Gamma_{a,il} Gamma_{b,jk})

with the first-kind symbols ``Gamma_{a,jk} = 1/2 (D_j g_{ak} + D_k g_{aj}
- D_a g_{jk})``, polynomial when ``g`` is.  Only the index pairs
``(l, k) <= (i, j)`` are computed (6 in 3D, 21 in 4D); pair symmetry and
antisymmetry give the rest.  Ricci is contracted from it directly as
``Ric_{kj} = g^{il} R_{lkij}``: by :func:`ew_residual` in 3D and by
:func:`weyl_curvature_tensor` in 4D.  :func:`riemann_tensor` and
:func:`ricci_tensor` are for general connections; no residual calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .conformal import Metric
from .errors import KernelError, NoSolution
from .expr import Expr, Var, ZERO, ONE, KIND_PARAM, expr_sqrt
from .ideal import SolvedSystem
from .jets import Coordinates


def first_nonzero(entries: Mapping[str, Expr]) -> Optional[Tuple[str, Expr]]:
    """The nonzero entry with the smallest label, if any."""
    for label in sorted(entries):
        if not entries[label].is_zero():
            return label, entries[label]
    return None


class Classification(Enum):
    """How a residual tensor vanishes (or fails to)."""

    IDENTICALLY_ZERO = "identically-zero"
    ZERO_MOD_IDEAL = "zero-mod-ideal"
    NONZERO = "nonzero"


@dataclass
class ResidualTensor:
    """A labelled family of residual entries, raw and reduced."""

    coords: Coordinates
    raw: Dict[str, Expr]
    reduced: Dict[str, Expr]

    def classify(self) -> Classification:
        if all(e.is_zero() for e in self.raw.values()):
            return Classification.IDENTICALLY_ZERO
        if all(e.is_zero() for e in self.reduced.values()):
            return Classification.ZERO_MOD_IDEAL
        return Classification.NONZERO

    def witness(self) -> Optional[Tuple[str, Expr]]:
        """A nonvanishing reduced entry, if any (deterministic choice)."""
        return first_nonzero(self.reduced)

    def is_zero_mod_ideal(self) -> bool:
        return self.classify() in (Classification.IDENTICALLY_ZERO,
                                   Classification.ZERO_MOD_IDEAL)


# ---------------------------------------------------------------------------
# connections and curvature
# ---------------------------------------------------------------------------


def _levi_civita_symbols(metric: Metric) -> tuple:
    """``(dg, gamma1, gamma2)`` of the Levi-Civita connection: the table
    ``dg[a][b][i] = D_i g_{ab}`` and the symbols of the first kind
    ``gamma1[a][j][k] = Gamma_{a,jk}`` and of the second kind
    ``gamma2[k][i][j] = Gamma^k_{ij} = g^{ka} Gamma_{a,ij}``."""
    coords = metric.coords
    n = coords.dim
    g = metric.matrix
    inv = metric.inverse_matrix()
    D = coords.total_derivative
    dg = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            if not g[a][b].is_constant():
                for i in range(n):
                    dg[a][b][i] = dg[b][a][i] = D(g[a][b], i)
    half = Expr.number(Fraction(1, 2))
    gamma1 = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    gamma2 = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            for a in range(n):
                gamma1[a][j][k] = gamma1[a][k][j] = half * (
                    dg[a][k][j] + dg[a][j][k] - dg[j][k][a])
            for a in range(n):
                gamma2[a][j][k] = gamma2[a][k][j] = sum(
                    (inv[a][b] * gamma1[b][j][k] for b in range(n)), ZERO)
    return dg, gamma1, gamma2


def christoffel_levi_civita(metric: Metric) -> List[List[List[Expr]]]:
    """Levi-Civita coefficients ``Gamma^k_{ij}`` (total derivatives of the
    metric entries, exact)."""
    return _levi_civita_symbols(metric)[2]


def christoffel_weyl(metric: Metric, omega: Sequence[Expr]) -> List[List[List[Expr]]]:
    """Coefficients of the Weyl connection with one-form ``omega``
    (covariant components, ordered like ``coords.base``)."""
    coords = metric.coords
    n = coords.dim
    lc = christoffel_levi_civita(metric)
    inv = metric.inverse_matrix()
    omega_up = [sum((inv[k][l] * omega[l] for l in range(n)), ZERO)
                for k in range(n)]
    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                val = lc[k][i][j]
                if k == i:
                    val = val + omega[j]
                if k == j:
                    val = val + omega[i]
                val = val - metric.matrix[i][j] * omega_up[k]
                out[k][i][j] = val
                out[k][j][i] = val
    return out


def riemann_tensor(coords: Coordinates,
                   gamma: List[List[List[Expr]]]) -> List[List[List[List[Expr]]]]:
    """Curvature ``R^l_{kij}`` of a general connection given by its
    coefficients.  No residual calls it (see the module docstring)."""
    n = coords.dim
    D = coords.total_derivative
    dgamma = [[[[D(gamma[l][i][k], m) for m in range(n)] for k in range(n)]
               for i in range(n)] for l in range(n)]
    out = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    val = dgamma[l][j][k][i] - dgamma[l][i][k][j]
                    for m in range(n):
                        val = val + gamma[l][i][m] * gamma[m][j][k] \
                                  - gamma[l][j][m] * gamma[m][i][k]
                    out[l][k][i][j] = val
                    out[l][k][j][i] = -val
    return out


def ricci_tensor(coords: Coordinates,
                 riemann: List[List[List[List[Expr]]]]) -> List[List[Expr]]:
    """``Ric_{kj} = R^i_{kij}`` of a general connection (not symmetric for a
    Weyl connection).  No residual calls it (see the module docstring)."""
    n = coords.dim
    return [[sum((riemann[i][k][i][j] for i in range(n)), ZERO)
             for j in range(n)] for k in range(n)]


def _lowered_riemann(metric: Metric, symbols: tuple) -> Dict[tuple, Expr]:
    """Levi-Civita ``R_{lkij} = g_{la} R^a_{kij}`` on the keys ``l < k``,
    ``i < j``, from the tables of :func:`_levi_civita_symbols` (module
    docstring): the pairs ``(l, k) <= (i, j)``, mirrored by pair symmetry."""
    coords = metric.coords
    n = coords.dim
    D = coords.total_derivative
    dg, gamma1, gamma2 = symbols
    # ddg[a][b][i][j] = D_i D_j g_ab
    ddg = [[[[ZERO] * n for _ in range(n)] for _ in range(n)]
           for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            for i in range(n):
                d = dg[a][b][i]
                if d.is_constant():
                    continue
                for j in range(i, n):
                    dd = D(d, j)
                    ddg[a][b][i][j] = ddg[a][b][j][i] = dd
                    ddg[b][a][i][j] = ddg[b][a][j][i] = dd
    half = Expr.number(Fraction(1, 2))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    out: Dict[tuple, Expr] = {}
    for p, (l, k) in enumerate(pairs):
        for i, j in pairs[p:]:
            val = half * (ddg[l][j][k][i] + ddg[k][i][l][j]
                          - ddg[k][j][l][i] - ddg[l][i][k][j])
            for a in range(n):
                val = val + gamma1[a][j][l] * gamma2[a][i][k] \
                          - gamma1[a][i][l] * gamma2[a][j][k]
            out[(l, k, i, j)] = out[(i, j, l, k)] = val
    return out


def _weyl_component(c: Dict[tuple, Expr], a: int, b: int, i: int, j: int) -> Expr:
    """Any component of a tensor antisymmetric in each index pair, stored on
    the keys ``a < b``, ``i < j``."""
    if a == b or i == j:
        return ZERO
    val = c[(min(a, b), max(a, b), min(i, j), max(i, j))]
    return val if (a < b) == (i < j) else -val


def _levi_civita_ricci(metric: Metric,
                       riem: Dict[tuple, Expr]) -> List[List[Expr]]:
    """``Ric_{kj} = g^{il} R_{lkij}`` from :func:`_lowered_riemann`; it is
    symmetric, so only ``k <= j`` is contracted."""
    n = metric.coords.dim
    inv = metric.inverse_matrix()
    ric = [[ZERO] * n for _ in range(n)]
    for k in range(n):
        for j in range(k, n):
            ric[k][j] = ric[j][k] = sum(
                (inv[i][l] * _weyl_component(riem, l, k, i, j)
                 for i in range(n) for l in range(n)), ZERO)
    return ric


# ---------------------------------------------------------------------------
# Einstein--Weyl (3D)
# ---------------------------------------------------------------------------


def ew_residual(system: SolvedSystem, metric: Metric,
                omega: Sequence[Expr]) -> ResidualTensor:
    """Trace-free symmetrized Ricci of the Weyl connection, raw and reduced
    modulo the system.  Vanishing mod the ideal is the Einstein--Weyl
    property of the conformal structure with Weyl form ``omega``.

    Computed by the split in the module docstring: the Levi-Civita Ricci
    tensor (symmetric) is contracted from :func:`_lowered_riemann`, and
    ``omega`` meets one total derivative per component, products with the
    Levi-Civita symbols and ``omega (x) omega``, never a curvature step."""
    coords = metric.coords
    n = coords.dim
    if n != 3:
        raise KernelError("the Einstein-Weyl residual is a 3D notion")
    symbols = _levi_civita_symbols(metric)
    lc = symbols[2]
    ric = _levi_civita_ricci(metric, _lowered_riemann(metric, symbols))
    D = coords.total_derivative
    domega = [[D(omega[j], i) for j in range(n)] for i in range(n)]
    half = Expr.number(Fraction(1, 2))
    sym = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            # Sym nabla omega = (D_i omega_j + D_j omega_i)/2 - L^k_ij omega_k
            nabla = half * (domega[i][j] + domega[j][i])
            for k in range(n):
                nabla = nabla - lc[k][i][j] * omega[k]
            sym[i][j] = sym[j][i] = ric[i][j] - nabla + omega[i] * omega[j]
    inv = metric.inverse_matrix()
    trace = sum((inv[i][j] * sym[i][j] for i in range(n) for j in range(n)),
                ZERO)
    third = Expr.number(Fraction(1, 3))
    raw = {coords.base[i] + coords.base[j]:
           sym[i][j] - third * trace * metric.matrix[i][j]
           for i in range(n) for j in range(i, n)}
    reduced = {k: system.reduce(v) for k, v in raw.items()}
    return ResidualTensor(coords, raw, reduced)


# ---------------------------------------------------------------------------
# Self-duality (4D)
# ---------------------------------------------------------------------------


_PAIRS4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]


def _complement_with_sign(k: int, l: int) -> tuple:
    """The pair ``(m, n)``, ``m < n``, complementary to ``(k, l)``, and the
    sign ``eps_{klmn}`` of the permutation ``(k, l, m, n)``."""
    m, n = (x for x in range(4) if x not in (k, l))
    perm = (k, l, m, n)
    inversions = sum(perm[s] > perm[t] for s in range(4) for t in range(s + 1, 4))
    return (m, n), (-1) ** inversions


# without the volume factor, the star on an index pair is a signed permutation
_STAR4 = {pair: _complement_with_sign(*pair) for pair in _PAIRS4}


def weyl_curvature_tensor(metric: Metric) -> Dict[tuple, Expr]:
    """Fully covariant conformal Weyl tensor ``C_{a b i j}`` of a 4D metric,
    returned on the index set ``a < b``, ``i < j`` (the other components
    follow by antisymmetry)."""
    coords = metric.coords
    n = coords.dim
    if n != 4:
        raise KernelError("the conformal Weyl tensor is computed in 4D only")
    g = metric.matrix
    inv = metric.inverse_matrix()
    riem = _lowered_riemann(metric, _levi_civita_symbols(metric))
    ric = _levi_civita_ricci(metric, riem)
    scal = sum((inv[i][j] * ric[i][j] for i in range(n) for j in range(n)),
               ZERO)
    half = Expr.number(Fraction(1, 2))
    sixth = Expr.number(Fraction(1, 6))
    # Schouten for n=4: P = (Ric - Scal g / 6) / 2
    P = [[half * (ric[i][j] - sixth * scal * g[i][j]) for j in range(n)]
         for i in range(n)]
    out: Dict[tuple, Expr] = {}
    for a, b, i, j in sorted(riem):
        out[(a, b, i, j)] = riem[(a, b, i, j)] \
            - (g[a][i] * P[j][b] - g[a][j] * P[i][b]
               + g[b][j] * P[i][a] - g[b][i] * P[j][a])
    return out


def dual_on_second_pair(metric: Metric,
                        c: Dict[tuple, Expr]) -> Dict[tuple, Expr]:
    """Apply the volume-normalized star to the second index pair:
    ``(V C)_{abkl} = 1/2 eps_{klmn} g^{mp} g^{nq} C_{abpq}`` with the plain
    permutation symbol ``eps`` (the metric volume factor is handled by the
    caller through the square root of ``det g``)."""
    coords = metric.coords
    if coords.dim != 4:
        raise KernelError("the star on index pairs is computed in 4D only")
    inv = metric.inverse_matrix()
    # C_{ab}^{mn} = sum over p < q of the 2x2 minor of g^-1 on rows (m, n)
    # and columns (p, q) times C_{abpq}; the 1/2 eps sum then keeps the one
    # pair m < n complementary to (k, l)
    minors = {(m, n, p, q): inv[m][p] * inv[n][q] - inv[m][q] * inv[n][p]
              for m, n in _PAIRS4 for p, q in _PAIRS4}
    out: Dict[tuple, Expr] = {}
    for a, b in _PAIRS4:
        for k, l in _PAIRS4:
            (m, n), sign = _STAR4[(k, l)]
            val = sum((minors[(m, n, p, q)] * c[(a, b, p, q)]
                       for p, q in _PAIRS4), ZERO)
            out[(a, b, k, l)] = val if sign > 0 else -val
    return out


@dataclass
class SelfDualityReport:
    """Outcome of the 4D self-duality check."""

    residual: ResidualTensor
    orientation: str
    volume_sqrt: Optional[Expr]
    formal_pair: bool

    def classify(self) -> Classification:
        return self.residual.classify()


def sd_residual(system: SolvedSystem, metric: Metric,
                orientation: str = "+") -> SelfDualityReport:
    """Self-duality residual of the conformal structure.

    When ``sqrt(det g)`` exists in the rational-function field the residual
    is ``(C - sign * sqrt(det g) * V(C)) / 2`` where ``V`` is the star on the
    second index pair without the volume factor.  Otherwise both ``C`` and
    ``V(C)`` must vanish for the (anti-)self-duality to hold and the check
    degenerates to that pair (orientation is then immaterial); the report
    records which branch ran.

    ``C`` and ``V(C)`` do not depend on the orientation or the system, so
    they are built once per :class:`Metric` and kept on it: both
    orientations on one metric share them.  Each call still builds and
    reduces its own residual entries.
    """
    coords = metric.coords
    if coords.dim != 4:
        raise KernelError("self-duality is a 4D notion")
    if orientation not in ("+", "-"):
        raise ValueError("orientation must be '+' or '-'")
    if metric._weyl_and_dual is None:
        c = weyl_curvature_tensor(metric)
        metric._weyl_and_dual = (c, dual_on_second_pair(metric, c))
    c, v = metric._weyl_and_dual
    det = system.reduce(metric.determinant())
    s = expr_sqrt(det)
    labels = lambda key: "C[%s%s|%s%s]" % tuple(coords.base[i] for i in key)
    if s is not None:
        if orientation == "-":
            s = -s
        half = Expr.number(Fraction(1, 2))
        raw = {labels(key): half * (c[key] - s * v[key]) for key in c}
        reduced = {k: system.reduce(e) for k, e in raw.items()}
        return SelfDualityReport(
            ResidualTensor(coords, raw, reduced), orientation, s, False)
    raw = {}
    for key in c:
        raw[labels(key)] = c[key]
        raw["V" + labels(key)] = v[key]
    reduced = {k: system.reduce(e) for k, e in raw.items()}
    return SelfDualityReport(
        ResidualTensor(coords, raw, reduced), orientation, None, True)


# ---------------------------------------------------------------------------
# solving for the Weyl one-form
# ---------------------------------------------------------------------------

ParamPoly = Dict[tuple, Fraction]  # monomials in PARAM vars -> coefficient


def _split_param_monomial(mono) -> tuple:
    params, rest = [], []
    for v, e in mono:
        (params if v.kind == KIND_PARAM else rest).append((v, e))
    return tuple(params), tuple(rest)


def _param_equations(e: Expr) -> List[ParamPoly]:
    """Coefficient-wise vanishing conditions: the numerator, grouped by its
    non-parameter monomial content, must vanish for every group."""
    groups: Dict[tuple, ParamPoly] = {}
    for mono, coeff in e.num.items():
        pmono, rest = _split_param_monomial(mono)
        group = groups.setdefault(rest, {})
        group[pmono] = group.get(pmono, Fraction(0)) + coeff
    eqs = []
    for poly in groups.values():
        poly = {m: c for m, c in poly.items() if c}
        if poly:
            eqs.append(poly)
    return eqs


def _pp_subs(poly: ParamPoly, var: Var, value: ParamPoly) -> ParamPoly:
    """Substitute ``var -> value`` (a param-poly) into a param-poly."""
    if not any(v is var for mono in poly for v, _ in mono):
        return dict(poly)
    out: ParamPoly = {}
    for mono, coeff in poly.items():
        e = 0
        rest = []
        for v, exp in mono:
            if v is var:
                e = exp
            else:
                rest.append((v, exp))
        terms: Dict[tuple, Fraction] = {tuple(rest): coeff}
        for _ in range(e):
            new: Dict[tuple, Fraction] = {}
            for m1, c1 in terms.items():
                for m2, c2 in value.items():
                    prod = _pp_mono_mul(m1, m2)
                    new[prod] = new.get(prod, Fraction(0)) + c1 * c2
            terms = new
        for m, c in terms.items():
            out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _pp_mono_mul(a: tuple, b: tuple) -> tuple:
    d: Dict[Var, int] = {}
    for v, e in a:
        d[v] = d.get(v, 0) + e
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items(), key=lambda kv: kv[0].key))


def _rational_roots(coeffs: Dict[int, Fraction]) -> List[Fraction]:
    """All rational roots of a univariate polynomial given as
    {degree: coefficient}."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    ints = {d: int(c * den) for d, c in coeffs.items()}
    degs = sorted(ints)
    low = degs[0]
    if low > 0:
        ints = {d - low: c for d, c in ints.items()}
        roots = [Fraction(0)]
    else:
        roots = []
    deg = max(ints)
    a0, an = ints.get(0, 0), ints[deg]
    if a0 == 0:
        return sorted(set(roots))
    for p in _divisors(abs(a0)):
        for q in _divisors(abs(an)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                val = sum(c * cand ** d for d, c in ints.items())
                if val == 0:
                    roots.append(cand)
    return sorted(set(roots))


def _divisors(n: int) -> List[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _solve_param_system(equations: List[ParamPoly],
                        variables: List[Var]) -> tuple:
    """Solve polynomial equations over the rationals by iterated linear
    elimination, with branching on rational roots of univariate equations.

    Returns ``(solutions, blocked)`` where each solution is
    ``(assignment, free_vars)`` (an exact assignment dict plus leftover
    genuinely free variables that were set to zero) and ``blocked`` lists
    human-readable reasons why some branch could not be decided."""
    solutions = []
    blocked: List[str] = []
    seen_assignments = set()

    def recurse(eqs: List[ParamPoly], assign: Dict[Var, Fraction]):
        eqs = [e for e in (dict(e) for e in eqs) if e]
        changed = True
        while changed:
            changed = False
            for e in eqs:
                if list(e.keys()) == [()]:
                    return  # nonzero constant: inconsistent branch
            # linear pass: pick an equation linear in some variable whose
            # coefficient is a nonzero rational and substitute it away
            for e in eqs:
                target = None
                for mono in e:
                    if len(mono) == 1 and mono[0][1] == 1:
                        v = mono[0][0]
                        if all(v not in dict(m) for m in e if m != mono):
                            target = (v, mono)
                            break
                if target is None:
                    continue
                v, mono = target
                coeff = e[mono]
                rest = {m: -c / coeff for m, c in e.items() if m != mono}
                new_eqs = []
                for other in eqs:
                    if other is e:
                        continue
                    sub = _pp_subs(other, v, rest)
                    if sub:
                        new_eqs.append(sub)
                if all(m == () for m in rest):
                    assign[v] = rest.get((), Fraction(0))
                else:
                    # polynomial value: remember symbolically via back-subst
                    assign[v] = rest
                eqs = new_eqs
                changed = True
                break
        if not eqs:
            resolved = _back_substitute(assign)
            if resolved is None:
                blocked.append("cyclic symbolic assignment")
                return
            free = [v for v in variables if v not in resolved]
            for v in free:
                resolved[v] = Fraction(0)
            key = tuple(sorted(((v.name, resolved[v]) for v in resolved)))
            if key not in seen_assignments:
                seen_assignments.add(key)
                solutions.append((resolved, free))
            return
        # a single-monomial equation c * v1^a * v2^b ... = 0 forces one of
        # its variables to vanish (exact over a field): branch on each
        for e in eqs:
            if len(e) == 1:
                mono = next(iter(e))
                for v, _ in mono:
                    new_eqs = [_pp_subs(o, v, {}) for o in eqs if o is not e]
                    new_assign = dict(assign)
                    new_assign[v] = Fraction(0)
                    recurse([x for x in new_eqs if x], new_assign)
                return
        # branch on a univariate equation
        for e in eqs:
            vars_here = {v for m in e for v, _ in m}
            if len(vars_here) == 1:
                v = next(iter(vars_here))
                coeffs: Dict[int, Fraction] = {}
                for m, c in e.items():
                    d = m[0][1] if m else 0
                    coeffs[d] = coeffs.get(d, Fraction(0)) + c
                roots = _rational_roots(coeffs)
                if not roots:
                    blocked.append(
                        "univariate equation in %s has no rational root" % v.name)
                    return
                for r in roots:
                    new_eqs = [_pp_subs(o, v, {(): r} if r else {}) for o in eqs
                               if o is not e]
                    new_assign = dict(assign)
                    new_assign[v] = r
                    recurse([x for x in new_eqs if x], new_assign)
                return
        blocked.append(
            "stuck on a nonlinear system in variables {%s}"
            % ", ".join(sorted({v.name for e in eqs for m in e for v, _ in m})))

    recurse(equations, {})
    return solutions, blocked


def _back_substitute(assign: Dict[Var, object]) -> Optional[Dict[Var, Fraction]]:
    """Resolve symbolic (param-poly) assignments to plain rationals.  A
    variable that appears in a pending value but was never assigned is free
    and contributes zero; a genuine cycle returns None."""
    resolved: Dict[Var, Fraction] = {
        v: val for v, val in assign.items() if isinstance(val, Fraction)}
    pending = {v: val for v, val in assign.items()
               if not isinstance(val, Fraction)}
    while pending:
        progressed = False
        for v, poly in list(pending.items()):
            deps = {w for m in poly for w, _ in m}
            blocked_deps = {w for w in deps
                            if w not in resolved and w in pending}
            if blocked_deps:
                continue
            total = Fraction(0)
            for m, c in poly.items():
                val = c
                for w, e in m:
                    val *= resolved.get(w, Fraction(0)) ** e
                total += val
            resolved[v] = total
            del pending[v]
            progressed = True
        if not progressed:
            return None
    return resolved


@dataclass
class WeylFormSolution:
    """Result of :func:`solve_weyl_form`."""

    omega: List[Expr]
    unique: bool
    family_dim: int
    residual: ResidualTensor


def solve_weyl_form(system: SolvedSystem,
                    metric: Optional[Metric] = None) -> WeylFormSolution:
    """Find a Weyl one-form making the conformal structure Einstein--Weyl.

    The components of ``omega`` are sought as affine combinations, with
    unknown rational coefficients, of the non-reducible jet variables of
    order at most one less than the system order (at least 1).  The
    coefficient equations are solved exactly over the rationals;
    :class:`NoSolution` is raised with diagnostics when no rational
    solution exists in the ansatz.
    """
    from .conformal import conformal_metric
    coords = system.coords
    if metric is None:
        metric = conformal_metric(system)
    ansatz_order = max(1, system.order - 1)
    # candidate monomials: 1 and every irreducible jet up to the order bound
    monomials: List[Expr] = [ONE]
    for order in range(ansatz_order + 1):
        for unk in coords.unknowns:
            for alpha in coords.multi_indices(order):
                v = coords.jet_var(unk, alpha)
                if system.reduction_target(v) is None:
                    monomials.append(Expr.variable(v))
    params: List[Var] = []
    omega: List[Expr] = []
    for i, base_name in enumerate(coords.base):
        comp = ZERO
        for k, mono in enumerate(monomials):
            p = Var.param("c_%s_%d" % (base_name, k))
            params.append(p)
            comp = comp + Expr.variable(p) * mono
        omega.append(comp)
    residual = ew_residual(system, metric, omega)
    equations: List[ParamPoly] = []
    seen = set()
    for entry in residual.reduced.values():
        for eq in _param_equations(entry):
            key = tuple(sorted(eq.items(), key=lambda kv: kv[0]))
            if key not in seen:
                seen.add(key)
                equations.append(eq)
    solutions, blocked = _solve_param_system(equations, params)
    if not solutions:
        raise NoSolution(
            "no rational Weyl form in the given ansatz",
            diagnostics={
                "ansatz_order": ansatz_order,
                "monomials": [str(m) for m in monomials],
                "equations": len(equations),
                "blocked": blocked,
            })
    assignment, free = solutions[0]
    point = {v: Expr.number(assignment[v]) for v in assignment}
    solved_omega = [comp.subs(point) for comp in omega]
    check = ew_residual(system, metric, solved_omega)
    if not check.is_zero_mod_ideal():
        raise NoSolution(
            "candidate Weyl form failed verification",
            diagnostics={"witness": str(check.witness())})
    unique = len(solutions) == 1 and not free
    return WeylFormSolution(solved_omega, unique, len(free), check)
