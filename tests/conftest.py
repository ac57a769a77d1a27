"""Shared fixtures and seeded expression factories for the test suite."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import pytest
import sympy

from laxweyl import (Coordinates, Expr, KernelError, Metric, ONE, PoleAtSample,
                     ZERO, corpus, linalg)


@pytest.fixture(scope="session")
def dkp():
    return corpus.load("dkp")


@pytest.fixture(scope="session")
def manakov_santini():
    return corpus.load("manakov_santini")


@pytest.fixture(scope="session")
def master_ew():
    return corpus.load("master_ew")


@pytest.fixture(scope="session")
def second_heavenly():
    return corpus.load("second_heavenly")


@pytest.fixture(scope="session")
def flat_counterexample():
    return corpus.load("flat_counterexample")


@pytest.fixture(scope="session")
def dkp_broken():
    return corpus.load("dkp_broken")


@pytest.fixture(scope="session")
def coords3():
    return Coordinates(("x", "y", "t"), ("u",))


@pytest.fixture(scope="session")
def coords4():
    return Coordinates(("z", "x", "y", "t"), ("u",))


def fresh_metric(metric: Metric) -> Metric:
    """The same matrix in a new :class:`Metric`, with every cache empty."""
    return Metric(metric.coords, [list(row) for row in metric.matrix])


def pullback(e: Expr, src: Coordinates, dst: Coordinates, images) -> Expr:
    """Substitute each unknown of ``src`` by a jet expression over ``dst``
    (same base coordinates, possibly different unknowns): the jet
    ``u_alpha`` maps to ``D^alpha`` (taken in ``dst``) of the image of
    ``u``.  Variables of other kinds pass through unchanged."""
    if src.base != dst.base:
        raise KernelError("pullback requires identical base coordinates")
    target = {}
    for v in sorted(e.vars()):
        d = src.decompose_jet(v)
        if d is None:
            continue
        unknown, alpha = d
        image = images.get(unknown)
        if image is None:
            continue
        target[v] = dst.total_derivative_multi(image, alpha)
    return e.subs(target) if target else e


_JET_TRIALS = 3        # random jet points per sampling check
_LAMBDA_SAMPLES = 9    # spectral samples per point; a conic has 6 coefficients
_MAX_RESAMPLES = 64    # poles tolerated per point before giving up


def conic_oracle_sampling(coords: Coordinates, alpha: Expr, beta: Expr,
                          seed: int = 0) -> bool:
    """Numeric reference for ``conic_oracle``: fix random rational values
    for every non-spectral variable, sample the curve at rational spectral
    values, and test whether the sampled points satisfy a common conic.
    Poles trigger resampling."""
    lam = coords.spectral_var()
    rng = random.Random(seed)
    jet_vars = sorted(v for v in (alpha.vars() | beta.vars()) if v is not lam)
    for _ in range(_JET_TRIALS):
        point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for v in jet_vars}
        rows = []
        used = set()
        resamples = 0
        while len(rows) < _LAMBDA_SAMPLES:
            lam_val = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
            if lam_val in used:
                continue
            used.add(lam_val)
            full = dict(point)
            full[lam] = lam_val
            try:
                a = alpha.eval_rational(full)
                b = beta.eval_rational(full)
            except ZeroDivisionError:
                resamples += 1
                if resamples > _MAX_RESAMPLES:
                    raise PoleAtSample(
                        "could not find %d pole-free spectral samples"
                        % _LAMBDA_SAMPLES)
                continue
            rows.append([Expr.number(x) for x in (1, a, b, a * a, a * b, b * b)])
        if not linalg.nullspace(rows):
            return False
    return True


def random_fraction(rng: random.Random, span: int = 6) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def atom_pool(coords: Coordinates, max_order: int = 2,
              spectral: bool = False) -> list:
    """Base coordinates plus all jets of every unknown up to ``max_order``."""
    pool = [coords.var(b) for b in coords.base]
    for unknown in coords.unknowns:
        for order in range(max_order + 1):
            for alpha in coords.multi_indices(order):
                pool.append(Expr.variable(coords.jet_var(unknown, alpha)))
    if spectral:
        pool.append(coords.var(coords.spectral))
    return pool


def random_polynomial(coords: Coordinates, rng: random.Random, *,
                      pool=None, terms: int = 4, factors: int = 2) -> Expr:
    """A random sparse polynomial in jets and base coordinates."""
    if pool is None:
        pool = atom_pool(coords)
    e = ZERO
    for _ in range(rng.randint(1, terms)):
        term = Expr.number(random_fraction(rng))
        for _ in range(rng.randint(0, factors)):
            term = term * pool[rng.randrange(len(pool))]
        e = e + term
    return e


def random_rational(coords: Coordinates, rng: random.Random, *,
                    pool=None) -> Expr:
    """A random rational expression (nonzero denominator by construction)."""
    num = random_polynomial(coords, rng, pool=pool)
    den = ZERO
    while den.is_zero():
        den = random_polynomial(coords, rng, pool=pool, terms=2, factors=1)
    return num / den


def random_jet_expression(coords: Coordinates, rng: random.Random, *,
                          pool=None, spectral: bool = True) -> Expr:
    """A random jet expression as the derivative-heavy properties see them:
    a sparse polynomial, possibly over a monomial power of one atom.

    Multi-term denominators are exercised separately in small sizes; the
    bulk property loops stay polynomial-over-monomial so that hundreds of
    second total derivatives finish in seconds."""
    if pool is None:
        pool = atom_pool(coords, max_order=2, spectral=spectral)
    e = random_polynomial(coords, rng, pool=pool)
    if rng.random() < 0.4:
        e = e / pool[rng.randrange(len(pool))] ** rng.randint(1, 2)
    return e


def random_spectral_curve(coords: Coordinates, rng: random.Random) -> Expr:
    """One coordinate of a spectral curve: a polynomial of degree <= 4 in
    the spectral parameter, plus a simple pole at 0 a quarter of the time."""
    lam = coords.var(coords.spectral)
    degree = rng.randint(0, 4)
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
              for _ in range(degree + 1)]
    e = ZERO
    for k, co in enumerate(coeffs):
        e = e + co * lam ** k
    if rng.random() < 0.25:
        e = e + Fraction(rng.randint(1, 4)) / lam
    return e


def random_frame_4d(coords: Coordinates, rng: random.Random) -> tuple:
    """Coefficients ``(alpha, beta, gamma, delta)`` of a 4D frame, each
    affine in the spectral parameter with monomial jet coefficients.  The
    spectral Jacobian ``z2`` may vanish."""
    lam = coords.var(coords.spectral)
    atoms = [ONE, coords.var("u"), coords.jet("u", "x"), coords.jet("u", "yt"),
             coords.var("z")]

    def coefficient():
        return (atoms[rng.randrange(len(atoms))]
                * Fraction(rng.randint(-3, 3), rng.randint(1, 2)))

    return tuple(coefficient() + lam * coefficient() for _ in range(4))


# Textbook curvature for reference checks.  Entries are elements of a field:
# sympy expressions, a sympy rational function field, or laxweyl's ``Expr``;
# ``D(f, i)`` is the derivative of ``f`` in the i-th base coordinate (the
# total derivative for jet entries), and ``zero`` is the zero entry.


def sympy_levi_civita(D, g, gi, zero) -> list:
    """``G^k_ij = g^kl (d_j g_li + d_i g_lj - d_l g_ij) / 2``, as
    ``G[k][i][j]``, for the metric ``g`` with inverse ``gi``."""
    r = range(len(g))
    dg = [[[D(g[a][b], c) for c in r] for b in r] for a in r]
    return [[[sum((gi[k][l] * (dg[l][i][j] + dg[l][j][i] - dg[i][j][l])
                   for l in r), zero) / 2
              for j in r] for i in r] for k in r]


def sympy_curvature(D, G, zero) -> tuple:
    """``R(r, s, m, v) = R^r_smv = d_m G^r_vs - d_v G^r_ms + G^r_ml G^l_vs
    - G^r_vl G^l_ms``, computed per call from derivatives taken once, and
    ``Ric_sv = R^r_srv`` of the connection ``G^k_ij = G[k][i][j]``."""
    r = range(len(G))

    @functools.lru_cache(maxsize=None)
    def dG(a, b, c, m):
        return D(G[a][b][c], m)

    def R(a, s, m, v):
        return (dG(a, v, s, m) - dG(a, m, s, v)
                + sum((G[a][m][l] * G[l][v][s] - G[a][v][l] * G[l][m][s]
                       for l in r), zero))

    ric = [[sum((R(a, s, a, v) for a in r), zero) for v in r] for s in r]
    return R, ric


def sympy_ew_residual(D, g, gi, w, zero) -> dict:
    """Trace-free part of ``Sym Ric`` of the Weyl connection ``G^k_ij =
    L^k_ij + delta^k_i w_j + delta^k_j w_i - g_ij w^k`` on the Levi-Civita
    ``L``, on the keys ``(i, j)``, ``i <= j``."""
    n = len(g)
    L = sympy_levi_civita(D, g, gi, zero)
    w_up = [sum((gi[k][l] * w[l] for l in range(n)), zero) for k in range(n)]
    G = [[[L[k][i][j] + (w[j] if k == i else zero) + (w[i] if k == j else zero)
           - g[i][j] * w_up[k]
           for j in range(n)] for i in range(n)] for k in range(n)]
    _, ric = sympy_curvature(D, G, zero)
    sym = [[(ric[i][j] + ric[j][i]) / 2 for j in range(n)] for i in range(n)]
    trace = sum((gi[i][j] * sym[i][j] for i in range(n) for j in range(n)),
                zero)
    return {(i, j): sym[i][j] - trace * g[i][j] / n
            for i in range(n) for j in range(i, n)}


def sympy_weyl_tensor(D, g, gi, zero) -> dict:
    """Weyl tensor ``C = Rm - g (Kulkarni-Nomizu) P`` of the Levi-Civita
    connection, with ``Rm_abcd = g_ar R^r_bcd`` and the Schouten tensor
    ``P = (Ric - S g / (2 (n - 1))) / (n - 2)``, on the keys ``(a, b, c,
    d)`` with ``a < b`` and ``c < d``."""
    n = len(g)
    R, ric = sympy_curvature(D, sympy_levi_civita(D, g, gi, zero), zero)
    scal = sum((gi[s][v] * ric[s][v] for s in range(n) for v in range(n)),
               zero)
    P = [[(ric[a][b] - scal * g[a][b] / (2 * (n - 1))) / (n - 2)
          for b in range(n)] for a in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    return {(a, b, c, d): sum((g[a][r] * R(r, b, c, d) for r in range(n)),
                              zero)
            - (g[a][c] * P[b][d] - g[a][d] * P[b][c]
               + g[b][d] * P[a][c] - g[b][c] * P[a][d])
            for a, b in pairs for c, d in pairs}


def sympy_dual(gi, C, zero) -> dict:
    """``V(C)_abkl = 1/2 eps_klmn C_ab^mn``, with the second index pair of
    ``C`` raised by the inverse metric ``gi`` and the permutation symbol
    ``eps``, on the keys of ``C``, which is antisymmetric in that pair."""
    r = range(len(gi))
    out = {}
    for a, b in sorted({key[:2] for key in C}):
        low = [[C[a, b, p, q] if p < q else -C[a, b, q, p] if p > q else zero
                for q in r] for p in r]
        mid = [[sum((gi[m][p] * low[p][q] for p in r), zero) for q in r]
               for m in r]
        up = [[sum((gi[n][q] * mid[m][q] for q in r), zero) for n in r]
              for m in r]
        for k, l in itertools.combinations(r, 2):
            out[a, b, k, l] = sum((int(sympy.LeviCivita(k, l, m, n))
                                   * up[m][n] for m in r for n in r), zero) / 2
    return out
