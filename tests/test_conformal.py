"""Matrix symbols, characteristic quadrics, conformal metrics, signatures."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from laxweyl import (Coordinates, Expr, Metric, ONE, Quadric, SolvedSystem,
                     ZERO, characteristic_polynomial, characteristic_quadric,
                     conformal_equal, conformal_metric, invert_to_metric,
                     matrix_symbol, sd_residual, signature_at,
                     theta_decompose)
from laxweyl import linalg
from laxweyl.reports import metric_payload, metric_text
from laxweyl.errors import (DegenerateQuadric, NotAQuadric, PoleAtSample,
                            SingularSample)

from conftest import fresh_metric


@pytest.fixture(scope="module")
def c3():
    return Coordinates(("x", "y", "t"), ("u",))


def entries_equal(a, b):
    return all((x - y).is_zero() for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def sample_point(system, metric, value=Fraction(2)):
    vars_needed = set()
    for row in metric.matrix:
        for e in row:
            vars_needed |= system.reduce(e).vars()
    return {v: value for v in vars_needed}


class TestMatrixSymbol:
    def test_dkp_scalar_symbol(self, dkp):
        sym = matrix_symbol(dkp.system)
        assert len(sym) == 1 and len(sym[0]) == 1
        c = dkp.coords
        u = c.var("u")
        expected = (c.theta_monomial((1, 0, 1)) - c.theta_monomial((0, 2, 0))
                    + u * c.theta_monomial((0, 0, 2)))
        assert (sym[0][0] - expected).is_zero()

    def test_ms_matrix_symbol_square(self, manakov_santini):
        sym = matrix_symbol(manakov_santini.system)
        assert len(sym) == 2 and all(len(row) == 2 for row in sym)

    def test_characteristic_polynomial_is_determinant_square(
            self, manakov_santini):
        """For the two-equation system, det of the matrix symbol is the
        square of the quadric polynomial."""
        c = manakov_santini.coords
        z = characteristic_quadric(manakov_santini.system).matrix
        theta = [Expr.variable(c.theta_var(b)) for b in c.base]
        q = sum((z[i][j] * theta[i] * theta[j]
                 for i in range(c.dim) for j in range(c.dim)), ZERO)
        char = characteristic_polynomial(manakov_santini.system)
        assert (char / (q * q)).is_constant()


class TestCharacteristicQuadric:
    def test_dkp_quadric_matrix(self, dkp):
        q = characteristic_quadric(dkp.system)
        c = dkp.coords
        u = c.var("u")
        half = Expr.number(Fraction(1, 2))
        expected = [[ZERO, ZERO, half],
                    [ZERO, -ONE, ZERO],
                    [half, ZERO, u]]
        assert entries_equal(q.matrix, expected)

    def test_not_a_quadric(self, c3):
        cubic = SolvedSystem.single(c3, "u", "xxx", c3.jet("u", "yyy"))
        with pytest.raises(NotAQuadric):
            characteristic_quadric(cubic)

    def test_degenerate_mod_system(self, c3):
        wave = SolvedSystem.single(c3, "u", "xx", c3.jet("u", "yy"))
        with pytest.raises(DegenerateQuadric):
            characteristic_quadric(wave)


class TestInvertToMetric:
    def test_dkp_frozen_metric(self, dkp):
        g = invert_to_metric(characteristic_quadric(dkp.system), dkp.system)
        c = dkp.coords
        u = c.var("u")
        expected = [[-4 * u, ZERO, 2 * ONE],
                    [ZERO, -ONE, ZERO],
                    [2 * ONE, ZERO, ZERO]]
        assert entries_equal(g.matrix, expected)

    def test_matches_conformal_metric(self, dkp):
        a = invert_to_metric(characteristic_quadric(dkp.system), dkp.system)
        b = conformal_metric(dkp.system)
        assert conformal_equal(a, b)

    def test_inverse_roundtrip(self, dkp):
        q = characteristic_quadric(dkp.system)
        g = invert_to_metric(q)
        inv = g.inverse_matrix()
        # inverse of the metric is the quadric up to the common scale det(z)
        det = q.determinant()
        for i in range(3):
            for j in range(3):
                assert (inv[i][j] - q.matrix[i][j]).is_zero()

    def test_determinant_eliminated_once(self, second_heavenly, monkeypatch):
        """The inverse, both self-duality orientations and both metric
        reports share one cached determinant: one 4x4 elimination in all
        (the inverse's cofactor minors are 3x3)."""
        doc = second_heavenly
        g = conformal_metric(doc.system)
        calls = []
        real = linalg.determinant
        monkeypatch.setattr(linalg, "determinant",
                            lambda m: calls.append(m) or real(m))
        g.inverse_matrix()
        for orientation in "+-":
            sd_residual(doc.system, g, orientation)
        metric_payload(g)
        metric_text(g)
        assert sum(len(m) == 4 for m in calls) == 1
        assert g.determinant() == real(g.matrix)

    def test_inverse_uses_cached_determinant(self, second_heavenly,
                                             monkeypatch):
        """``inverse_matrix`` then ``determinant`` eliminates the 4x4 metric
        once and takes only the 10 cofactors with ``i <= j``; the result is
        ``linalg.invert``'s, entry for entry."""
        g = conformal_metric(second_heavenly.system)
        sizes = []
        real = linalg.determinant
        monkeypatch.setattr(linalg, "determinant",
                            lambda m: sizes.append(len(m)) or real(m))
        inv = g.inverse_matrix()
        g.determinant()
        assert sorted(sizes) == [3] * 10 + [4]
        monkeypatch.undo()
        assert ([[str(e) for e in row] for row in inv]
                == [[str(e) for e in row] for row in linalg.invert(g.matrix)])

    def test_rejects_on_shell_degeneracy(self, dkp):
        c = dkp.coords
        u = c.var("u")
        deg = Quadric(c, [[u, ZERO, ZERO], [ZERO, ONE, ZERO],
                          [ZERO, ZERO, ZERO]])
        with pytest.raises(DegenerateQuadric):
            invert_to_metric(deg, dkp.system)

    def test_second_heavenly_frozen_metric(self, second_heavenly):
        g = conformal_metric(second_heavenly.system)
        c = second_heavenly.coords
        uyy, uxy, uxx = c.jet("u", "yy"), c.jet("u", "xy"), c.jet("u", "xx")
        expected = [[-4 * uyy, 2 * ONE, ZERO, 4 * uxy],
                    [2 * ONE, ZERO, ZERO, ZERO],
                    [ZERO, ZERO, ZERO, 2 * ONE],
                    [4 * uxy, ZERO, 2 * ONE, -4 * uxx]]
        assert entries_equal(g.matrix, expected)


class TestMetricCaches:
    """The determinant, inverse and Weyl caches are invisible: they are not
    constructor arguments and do not take part in equality."""

    def test_equality_ignores_filled_caches(self, second_heavenly):
        doc = second_heavenly
        g, h = fresh_metric(doc.metric), fresh_metric(doc.metric)
        for fill in (g.determinant, g.inverse_matrix,
                     lambda: sd_residual(doc.system, g, "-")):
            fill()
            assert g == h and h == g
        assert g._weyl_and_dual is not None and h._weyl_and_dual is None
        assert "_weyl_and_dual" not in repr(g)
        assert g != g.scaled(2 * ONE)

    @pytest.mark.parametrize("cache", ["_inverse", "_determinant",
                                       "_weyl_and_dual"])
    def test_constructor_rejects_cache_keywords(self, dkp, cache):
        g = conformal_metric(dkp.system)
        with pytest.raises(TypeError):
            Metric(g.coords, g.matrix, **{cache: None})


class TestConformalEqual:
    def test_scaled_metric_is_equal(self, dkp):
        g = conformal_metric(dkp.system)
        assert conformal_equal(g, g.scaled(dkp.coords.var("u") + 1))

    def test_different_metrics_not_equal(self, dkp, manakov_santini):
        g = conformal_metric(dkp.system)
        c = dkp.coords
        other = g.scaled(ONE)
        other.matrix[0][0] = other.matrix[0][0] + ONE
        assert not conformal_equal(g, other)

    def test_mod_system_equality(self, dkp):
        """Metrics differing by an ideal element are equal modulo the system."""
        g = conformal_metric(dkp.system)
        res = dkp.system.equations[0].residual(dkp.coords)
        tweaked = g.scaled(ONE)
        tweaked.matrix[1][1] = tweaked.matrix[1][1] + res
        tweaked.matrix[0][0] = tweaked.matrix[0][0] - res * 4 * dkp.coords.var("u")
        assert not conformal_equal(g, tweaked)
        assert conformal_equal(g, tweaked, system=dkp.system)


class TestSignature:
    def test_dkp_lorentzian(self, dkp):
        g = conformal_metric(dkp.system)
        point = sample_point(dkp.system, g)
        assert signature_at(g, point, system=dkp.system) in ((2, 1), (1, 2))

    def test_heavenly_split(self, second_heavenly):
        g = conformal_metric(second_heavenly.system)
        rng = random.Random(0)
        for _ in range(3):
            point = {}
            for row in g.matrix:
                for e in row:
                    for v in second_heavenly.system.reduce(e).vars():
                        point.setdefault(v, Fraction(rng.randint(-5, 5),
                                                     rng.randint(1, 3)))
            try:
                sig = signature_at(g, point, system=second_heavenly.system)
            except (SingularSample, PoleAtSample):
                continue
            assert sig == (2, 2)

    def test_singular_sample_raises(self, dkp):
        g = conformal_metric(dkp.system)
        point = sample_point(dkp.system, g, value=Fraction(0))
        # u = 0 keeps det nonzero for dKP, so force a genuinely singular one
        c = dkp.coords
        sing = g.scaled(c.var("u"))
        with pytest.raises((SingularSample, PoleAtSample)):
            signature_at(sing, {v: Fraction(0) for v in point}, system=dkp.system)
