"""Weyl connections, curvature residuals, the covector solver, self-duality."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)

from laxweyl import (Classification, Coordinates, Expr, Metric, ONE, ZERO,
                     conformal_metric, corpus, ew_residual, expr_sqrt,
                     parse_document, parse_expression, sd_residual,
                     solve_weyl_form)
from laxweyl import weyl as W
from laxweyl.errors import KernelError, NoSolution

from conftest import (fresh_metric, random_fraction, sympy_dual,
                      sympy_ew_residual, sympy_weyl_tensor)


class TestChristoffels:
    def test_levi_civita_symmetric(self, dkp):
        g = conformal_metric(dkp.system)
        gamma = W.christoffel_levi_civita(g)
        n = dkp.coords.dim
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    assert (gamma[k][i][j] - gamma[k][j][i]).is_zero()

    def test_weyl_connection_reduces_to_levi_civita(self, dkp):
        g = conformal_metric(dkp.system)
        zero_omega = [ZERO] * 3
        a = W.christoffel_levi_civita(g)
        b = W.christoffel_weyl(g, zero_omega)
        n = dkp.coords.dim
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    assert (a[k][i][j] - b[k][i][j]).is_zero()


class TestCurvature:
    def test_flat_metric_has_zero_curvature(self, flat_counterexample):
        doc = flat_counterexample
        g = doc.metric
        gamma = W.christoffel_levi_civita(g)
        riem = W.riemann_tensor(doc.coords, gamma)
        n = doc.coords.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        assert riem[i][j][k][l].is_zero()

    def test_dkp_not_flat(self, dkp):
        g = conformal_metric(dkp.system)
        gamma = W.christoffel_levi_civita(g)
        riem = W.riemann_tensor(dkp.coords, gamma)
        assert any(not riem[i][j][k][l].is_zero()
                   for i in range(3) for j in range(3)
                   for k in range(3) for l in range(3))

    def test_levi_civita_ricci_symmetric(self, dkp):
        g = conformal_metric(dkp.system)
        gamma = W.christoffel_levi_civita(g)
        ric = W.ricci_tensor(dkp.coords, W.riemann_tensor(dkp.coords, gamma))
        for i in range(3):
            for j in range(3):
                assert (ric[i][j] - ric[j][i]).is_zero()


class TestEinsteinWeylResidual:
    def test_dkp_zero_mod_ideal(self, dkp):
        res = ew_residual(dkp.system, dkp.metric, dkp.omega)
        assert res.classify() is Classification.ZERO_MOD_IDEAL
        assert res.is_zero_mod_ideal()
        assert res.witness() is None

    def test_dkp_zero_covector_fails(self, dkp):
        res = ew_residual(dkp.system, dkp.metric, [ZERO] * 3)
        assert res.classify() is Classification.NONZERO
        label, value = res.witness()
        assert not value.is_zero()

    def test_manakov_santini_zero_mod_ideal(self, manakov_santini):
        doc = manakov_santini
        res = ew_residual(doc.system, doc.metric, doc.omega)
        assert res.classify() is Classification.ZERO_MOD_IDEAL

    def test_master_zero_mod_ideal(self, master_ew):
        doc = master_ew
        res = ew_residual(doc.system, doc.metric, doc.omega)
        assert res.classify() is Classification.ZERO_MOD_IDEAL

    def test_flat_identically_zero(self, flat_counterexample):
        doc = flat_counterexample
        res = ew_residual(doc.system, doc.metric, doc.omega)
        assert res.classify() is Classification.IDENTICALLY_ZERO

    def test_four_dimensions_rejected(self, second_heavenly):
        doc = second_heavenly
        with pytest.raises(KernelError):
            ew_residual(doc.system, doc.metric, [ZERO] * 4)


# written by perfbench/symgen.py: dKP under x -> x + t/2, metric and covector
SHEARED_DKP_GEOMETRY = """\
# dispersionless KP equation sheared x -> x + t/2

[coords]
base = x, y, t
unknowns = u

[equation]
solve u_xx = (-4*u*u_tt + 4*u*u_xt - 4*u_t^2 + 4*u_t*u_x - u_x^2 + 4*u_yy - 4*u_xt)/(u - 2)

[metric]
rows = [[-4*u, 0, -2*u + 2], [0, -1, 0], [-2*u + 2, 0, -u + 2]]

[weyl-form]
omega = -2*u_t + u_x, 0, -u_t + 1/2*u_x
"""


def _reference_ew_raw(metric, omega) -> dict:
    """Trace-free symmetrized Ricci of the full Weyl connection, built from
    its Christoffel symbols and Riemann tensor."""
    coords = metric.coords
    n = coords.dim
    gamma = W.christoffel_weyl(metric, omega)
    ric = W.ricci_tensor(coords, W.riemann_tensor(coords, gamma))
    half = Expr.number(Fraction(1, 2))
    sym = [[half * (ric[i][j] + ric[j][i]) for j in range(n)]
           for i in range(n)]
    inv = metric.inverse_matrix()
    trace = ZERO
    for i in range(n):
        for j in range(n):
            trace = trace + inv[i][j] * sym[i][j]
    third = Expr.number(Fraction(1, 3))
    return {coords.base[i] + coords.base[j]:
            sym[i][j] - third * trace * metric.matrix[i][j]
            for i in range(n) for j in range(i, n)}


def _seeded_covectors(doc, rng, count=2):
    """The recorded covector plus ``count`` seeded rational combinations of
    the jets of order at most one."""
    coords = doc.coords
    jets = [ONE] + [Expr.variable(coords.jet_var(unk, alpha))
                    for order in (0, 1) for unk in coords.unknowns
                    for alpha in coords.multi_indices(order)]
    out = [list(doc.omega)]
    for _ in range(count):
        out.append([w + sum((j * random_fraction(rng) for j in jets), ZERO)
                    for w in doc.omega])
    return out


def _assert_matches_reference(doc, omega):
    res = ew_residual(doc.system, doc.metric, omega)
    ref = _reference_ew_raw(doc.metric, omega)
    assert sorted(res.raw) == sorted(ref)
    for label, value in ref.items():
        assert str(res.raw[label]) == str(value), label
        assert str(res.reduced[label]) == str(doc.system.reduce(value)), label
    return res


class TestEinsteinWeylSplit:
    """The split residual (Levi-Civita Ricci minus ``Sym nabla omega`` plus
    ``omega (x) omega``) equals the Ricci tensor of the Weyl connection."""

    @pytest.mark.parametrize("name", ["dkp", "master_ew", "manakov_santini",
                                      "flat_counterexample"])
    def test_corpus_entries(self, name, request):
        doc = request.getfixturevalue(name)
        rng = random.Random("ew-split-" + name)
        for omega in _seeded_covectors(doc, rng):
            _assert_matches_reference(doc, omega)

    def test_sheared_dkp_multi_term_denominators(self):
        doc = parse_document(SHEARED_DKP_GEOMETRY)
        recorded, seeded = _seeded_covectors(doc, random.Random(7), count=1)
        assert _assert_matches_reference(doc, recorded).is_zero_mod_ideal()
        res = _assert_matches_reference(doc, seeded)
        assert any(len(e.den) > 1 for e in res.reduced.values())


def laplacian(metric: Metric, f: Expr) -> Expr:
    """Levi-Civita Laplacian ``g^{ij} (D_i D_j - Gamma^k_{ij} D_k) f``."""
    coords = metric.coords
    n = coords.dim
    inv = metric.inverse_matrix()
    lc = W.christoffel_levi_civita(metric)
    D = coords.total_derivative
    df = [D(f, k) for k in range(n)]
    total = ZERO
    for i in range(n):
        for j in range(n):
            term = D(df[j], i)
            for k in range(n):
                term = term - lc[k][i][j] * df[k]
            total = total + inv[i][j] * term
    return total


class TestLaplacian:
    def test_master_operator_identity(self, master_ew):
        """The canonical second-order operator of the master geometry equals
        the metric Laplacian plus 3/2 times the Poisson bracket with the
        first unknown (an exact operator identity, checked on several f)."""
        doc = master_ew
        c = doc.coords
        a, b = c.var("a"), c.var("b")
        g = doc.metric

        def box_plus_d(f):
            ft = c.total_derivative(f, "t")
            box = (c.total_derivative(ft, "x") + a * c.total_derivative(ft, "y")
                   + b * c.total_derivative(ft, "t")
                   - c.total_derivative(c.total_derivative(f, "y"), "y"))
            drift = ((2 * c.jet("a", "y") + c.jet("b", "t"))
                     * c.total_derivative(f, "t")
                     - c.jet("a", "t") * c.total_derivative(f, "y"))
            return box + drift

        for f in (a, b, a * b, a + b * b):
            poisson = (c.jet("a", "y") * c.total_derivative(f, "t")
                       - c.jet("a", "t") * c.total_derivative(f, "y"))
            lhs = box_plus_d(f)
            rhs = laplacian(g, f) + poisson * Fraction(3, 2)
            assert (lhs - rhs).is_zero()


class TestExprSqrt:
    def test_perfect_square(self, coords3):
        u = coords3.var("u")
        r = expr_sqrt((2 * u + 2) ** 2)
        assert r is not None and (r * r - (2 * u + 2) ** 2).is_zero()

    def test_rational_square(self, coords3):
        u = coords3.var("u")
        r = expr_sqrt(u * u / 9)
        assert r is not None and (r * r - u * u / 9).is_zero()

    def test_constant(self):
        assert expr_sqrt(Expr.number(4)) is not None

    def test_non_square(self, coords3):
        assert expr_sqrt(coords3.var("u")) is None
        assert expr_sqrt(Expr.number(2)) is None


class TestSolveWeylForm:
    def test_dkp_unique_solution(self, dkp):
        sol = solve_weyl_form(dkp.system)
        assert sol.unique
        assert sol.family_dim == 0
        assert sol.residual.classify() is Classification.ZERO_MOD_IDEAL
        for got, want in zip(sol.omega, dkp.omega):
            assert (got - want).is_zero()

    def test_flat_zero_solution(self, flat_counterexample):
        sol = solve_weyl_form(flat_counterexample.system)
        assert all(o.is_zero() for o in sol.omega)
        assert sol.residual.classify() is Classification.IDENTICALLY_ZERO

    def test_broken_system_has_no_covector(self, dkp_broken):
        with pytest.raises(NoSolution) as err:
            solve_weyl_form(dkp_broken.system)
        assert "ansatz" in str(err.value)

    def test_explicit_metric_argument(self, dkp):
        sol = solve_weyl_form(dkp.system, metric=dkp.metric)
        assert sol.residual.classify() is Classification.ZERO_MOD_IDEAL


class TestSelfDuality:
    def test_heavenly_anti_orientation_vanishes(self, second_heavenly):
        doc = second_heavenly
        rep = sd_residual(doc.system, doc.metric, orientation="-")
        assert rep.orientation == "-"
        assert rep.residual.classify() is Classification.ZERO_MOD_IDEAL
        assert not rep.formal_pair
        # the volume factor squares to det g exactly
        assert (rep.volume_sqrt * rep.volume_sqrt
                - doc.metric.determinant()).is_zero()

    def test_heavenly_other_orientation_nonzero(self, second_heavenly):
        doc = second_heavenly
        rep = sd_residual(doc.system, doc.metric, orientation="+")
        assert rep.residual.classify() is Classification.NONZERO

    def test_weyl_tensor_double_dual(self, second_heavenly):
        """The unnormalized second-pair star squares to 1/det(g); the
        volume factor is supplied by the self-duality residual itself."""
        g = second_heavenly.metric
        wt = W.weyl_curvature_tensor(g)
        dd = W.dual_on_second_pair(g, W.dual_on_second_pair(g, wt))
        det = g.determinant()
        for key in set(wt) | set(dd):
            assert (dd.get(key, ZERO) * det - wt.get(key, ZERO)).is_zero()

    def test_weyl_tensor_traceless(self, second_heavenly):
        g = second_heavenly.metric
        wt = W.weyl_curvature_tensor(g)
        inv = g.inverse_matrix()
        n = g.coords.dim

        def component(i, j, k, l):
            return W._weyl_component(wt, i, j, k, l)

        for j in range(n):
            for l in range(n):
                tr = ZERO
                for i in range(n):
                    for k in range(n):
                        tr = tr + inv[i][k] * component(i, j, k, l)
                assert tr.is_zero()


# written by perfbench/symgen.py: the second heavenly equation under seeded
# diagonal rescalings, equation and metric
SCALED_HEAVENLY = [
    """\
[coords]
base = z, x, y, t
unknowns = u

[equation]
solve u_zx = -25/96*u_yt - 3/80*u_yy*u_xx + 3/80*u_xy^2

[metric]
rows = [[-1/16*u_yy, 5/6, 0, 6/25*u_xy], [5/6, 0, 0, 0], [0, 0, 0, 16/5], [6/25*u_xy, 0, 16/5, -576/625*u_xx]]
""",
    """\
[coords]
base = z, x, y, t
unknowns = u

[equation]
solve u_zx = -36/125*u_yt + 6*u_yy*u_xx - 6*u_xy^2

[metric]
rows = [[-144/25*u_yy, -12/25, 0, 20*u_xy], [-12/25, 0, 0, 0], [0, 0, 0, -5/3], [20*u_xy, 0, -5/3, -625/9*u_xx]]
""",
    """\
[coords]
base = z, x, y, t
unknowns = u

[equation]
solve u_zx = -3/20*u_yt + 36/5*u_yy*u_xx - 36/5*u_xy^2

[metric]
rows = [[-36*u_yy, -5/2, 0, 240*u_xy], [-5/2, 0, 0, 0], [0, 0, 0, -50/3], [240*u_xy, 0, -50/3, -1600*u_xx]]
""",
]


def _weyl_inputs(doc) -> dict:
    """The second heavenly metric, two rational metrics with non-constant
    determinant made from it, and its scaled images."""
    c = doc.coords
    g = doc.metric.matrix
    f = 1 + c.jet("u", "xy")
    rows = [list(row) for row in g]
    rows[0][0] = c.jet("u", "x") / (1 + c.jet("u", "t"))
    out = {"corpus": doc.metric,
           "times_1_plus_u_xy": Metric(c, [[f * x for x in row] for row in g]),
           "g_zz_rational": Metric(c, rows)}
    for k, text in enumerate(SCALED_HEAVENLY):
        out["scaled_%d" % k] = parse_document(text).metric
    return out


class TestWeylTensor4D:
    """The Weyl tensor from second derivatives of the metric, and its dual,
    against the textbook formulas of ``conftest`` in laxweyl's arithmetic:
    Christoffel symbols, every ``R^r_smv``, Ricci, Schouten, lowering."""

    @pytest.mark.parametrize("which", ["corpus", "times_1_plus_u_xy",
                                       "g_zz_rational", "scaled_0",
                                       "scaled_1", "scaled_2"])
    def test_matches_reference(self, which, second_heavenly):
        g = _weyl_inputs(second_heavenly)[which]
        c = W.weyl_curvature_tensor(g)
        gi = g.inverse_matrix()
        ref = sympy_weyl_tensor(g.coords.total_derivative, g.matrix, gi, ZERO)
        assert list(c) == list(ref)
        for key, value in ref.items():
            assert str(c[key]) == str(value), key
        v = W.dual_on_second_pair(g, c)
        ref_v = sympy_dual(gi, ref, ZERO)
        assert list(v) == list(ref_v)
        for key, value in ref_v.items():
            assert str(v[key]) == str(value), key

    def test_conformal_covariance(self, second_heavenly):
        metrics = _weyl_inputs(second_heavenly)
        f = 1 + second_heavenly.coords.jet("u", "xy")
        c = W.weyl_curvature_tensor(metrics["corpus"])
        scaled = W.weyl_curvature_tensor(metrics["times_1_plus_u_xy"])
        assert any(not value.is_zero() for value in c.values())
        for key, value in c.items():
            assert scaled[key] == f * value, key

    def test_pair_symmetry(self, second_heavenly):
        """``C`` and, since the left and right duals of a Weyl tensor
        agree, ``V(C)`` are symmetric under exchange of index pairs."""
        for g in _weyl_inputs(second_heavenly).values():
            c = W.weyl_curvature_tensor(g)
            v = W.dual_on_second_pair(g, c)
            assert any(not value.is_zero() for value in v.values())
            for t in (c, v):
                for (a, b, i, j), value in t.items():
                    assert t[(i, j, a, b)] == value

    def test_three_dimensions_rejected(self, dkp):
        g = conformal_metric(dkp.system)
        with pytest.raises(KernelError):
            W.weyl_curvature_tensor(g)
        with pytest.raises(KernelError):
            W.dual_on_second_pair(g, {})


def _sd_strings(report) -> list:
    return ([report.classify().name, str(report.volume_sqrt),
             str(report.formal_pair)]
            + ["%s %s" % item for item in report.residual.raw.items()]
            + ["%s %s" % item for item in report.residual.reduced.items()])


class TestSelfDualityMemo:
    """``C`` and ``V(C)`` are built once per :class:`Metric` and shared by
    both orientations; everything ``sd_residual`` reports is unchanged."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"weyl_curvature_tensor": 0, "dual_on_second_pair": 0}
        for name in calls:
            real = getattr(W, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(W, name, counted)
        return calls

    def test_both_orientations_build_once(self, second_heavenly, counts):
        doc = second_heavenly
        g = fresh_metric(doc.metric)
        sd_residual(doc.system, g, "+")
        sd_residual(doc.system, g, "-")
        assert counts == {"weyl_curvature_tensor": 1,
                          "dual_on_second_pair": 1}
        # a new metric, even a conformally equal one, builds its own
        sd_residual(doc.system, g.scaled(1 + doc.coords.jet("u", "xy")), "-")
        assert counts == {"weyl_curvature_tensor": 2,
                          "dual_on_second_pair": 2}

    def test_corpus_verify_builds_once(self, counts):
        assert corpus.verify("second_heavenly").passed
        assert counts == {"weyl_curvature_tensor": 1,
                          "dual_on_second_pair": 1}

    @pytest.mark.parametrize("which", ["corpus", "times_1_plus_u_xy",
                                       "g_zz_rational", "scaled_0",
                                       "scaled_1", "scaled_2"])
    def test_shared_matches_fresh(self, which, second_heavenly):
        g = _weyl_inputs(second_heavenly)[which]
        system = second_heavenly.system
        fresh = {o: _sd_strings(sd_residual(system, fresh_metric(g), o))
                 for o in "+-"}
        for order in ("+-", "-+"):
            shared = fresh_metric(g)
            for o in order:
                assert _sd_strings(sd_residual(system, shared, o)) == fresh[o]


_SYMPY_TRANSFORMS = standard_transformations + (convert_xor,)

# rational in the base coordinates only, with non-constant determinant
# -y*(x^3*t^2 + z)/(1 + z*t); every term of the lowered curvature formula
# contributes
BASE_METRIC_ROWS = [["x*y", "1", "0", "0"], ["1", "0", "0", "x*t"],
                    ["0", "0", "1/(1 + z*t)", "0"], ["0", "x*t", "0", "y*z"]]


def _sympy_metric(rows, names: str) -> tuple:
    """The field ``K = QQ(names)``, its derivative ``D(f, i)`` in the i-th
    generator, and the metric given as text with its inverse, in ``K``."""
    K, *X = sympy.field(names, sympy.QQ)
    g_expr = sympy.Matrix([[parse_expr(e, transformations=_SYMPY_TRANSFORMS)
                            for e in row] for row in rows])
    gi = [[K(e) for e in row] for row in g_expr.inv().tolist()]
    g = [[K(e) for e in row] for row in g_expr.tolist()]
    return K, lambda f, i: f.diff(X[i]), g, gi


class TestWeylTensorSympy:
    def test_base_coordinate_metric(self, coords4):
        K, D, g_ref, gi_ref = _sympy_metric(BASE_METRIC_ROWS,
                                            ",".join(coords4.base))
        ref = sympy_weyl_tensor(D, g_ref, gi_ref, K(0))
        g = Metric(coords4, [[parse_expression(e, coords4) for e in row]
                             for row in BASE_METRIC_ROWS])
        c = W.weyl_curvature_tensor(g)
        assert sorted(c) == sorted(ref)
        assert sum(value != 0 for value in ref.values()) == 34
        for key, value in ref.items():
            mine = parse_expr(str(c[key]), transformations=_SYMPY_TRANSFORMS)
            assert K(mine) == value, key


# rational in the base coordinates, A^T diag(x*y^2, t^2 + y, x^2/(1 + t)) A
# for A = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]: the determinant
# (t^2*x^3*y^2 + x^3*y^3)/(t + 1) has several terms, and flipping the sign of
# any term of the curvature kernel, of nabla omega or of omega (x) omega
# changes the residual
BASE_METRIC_ROWS_3D = [["x*y^2", "x*y^2", "0"],
                       ["x*y^2", "x*y^2 + t^2 + y", "t^2 + y"],
                       ["0", "t^2 + y", "t^2 + y + x^2/(1 + t)"]]
BASE_OMEGA_3D = ["y", "x*t", "1/x"]


class TestEinsteinWeylSympy:
    """The 3D residual against the textbook Weyl connection, which shares no
    code with laxweyl's Levi-Civita symbols (the reference of
    :class:`TestEinsteinWeylSplit` does)."""

    def test_base_coordinate_metric(self, dkp):
        coords = dkp.coords
        K, D, g_ref, gi_ref = _sympy_metric(BASE_METRIC_ROWS_3D,
                                            ",".join(coords.base))
        w = [K(parse_expr(e, transformations=_SYMPY_TRANSFORMS))
             for e in BASE_OMEGA_3D]
        ref = sympy_ew_residual(D, g_ref, gi_ref, w, K(0))
        g = Metric(coords, [[parse_expression(e, coords) for e in row]
                            for row in BASE_METRIC_ROWS_3D])
        omega = [parse_expression(e, coords) for e in BASE_OMEGA_3D]
        det = g.determinant()
        assert len(det.num) > 1 and len(det.den) > 1
        res = ew_residual(dkp.system, g, omega)
        assert sorted(res.raw) == sorted(coords.base[i] + coords.base[j]
                                         for i, j in ref)
        assert all(value != 0 for value in ref.values())
        for (i, j), value in ref.items():
            label = coords.base[i] + coords.base[j]
            mine = parse_expr(str(res.raw[label]),
                              transformations=_SYMPY_TRANSFORMS)
            assert K(mine) == value, label
