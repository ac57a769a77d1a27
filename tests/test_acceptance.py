"""End-to-end acceptance gate.

Each test freezes one requirement of the release gate, with its wall-clock
budget, against the bundled corpus: exact identities only, no numeric
tolerances anywhere.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from laxweyl import (Classification, LaxPair, LaxVerdict, Metric, ONE, ZERO,
                     characteristic_check, characteristic_quadric,
                     conformal_equal, conformal_metric, conic_oracle,
                     ew_residual, invert_to_metric, monge_invariant,
                     normal_lift_4d, recover_metric, sd_residual,
                     signature_at, solve_weyl_form, verify_lax, weyl_lift_3d)
from laxweyl.errors import PoleAtSample, SingularSample

from conftest import (atom_pool, pullback, random_frame_4d,
                      random_jet_expression, random_spectral_curve)


@contextmanager
def budget(seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, "budget %.0fs exceeded: %.1fs" % (seconds,
                                                                elapsed)


def test_01_dkp_metric_identity(dkp):
    """The inverse of the characteristic quadric is 4dxdt - 4u dx^2 - dy^2
    up to scale.  Budget: 1 s."""
    with budget(1):
        g = invert_to_metric(characteristic_quadric(dkp.system), dkp.system)
        c = dkp.coords
        u = c.var("u")
        expected = [[-4 * u, ZERO, 2 * ONE],
                    [ZERO, -ONE, ZERO],
                    [2 * ONE, ZERO, ZERO]]
        assert conformal_equal(g, Metric(c, expected))


def test_02_dkp_lax_verification(dkp):
    """The recorded pair is a Lax pair (residuals vanish only modulo the
    system), its annihilator covector is characteristic, and the pair is
    already normal.  Budget: 5 s."""
    with budget(5):
        report = verify_lax(dkp.system, dkp.pair)
        assert report.verdict is LaxVerdict.LAX_PAIR
        # nontrivial: the vertical residual is nonzero off-shell
        assert not report.raw["vertical"].is_zero()
        assert report.reduced["vertical"].is_zero()
        assert characteristic_check(dkp.pair, dkp.system)
        assert dkp.pair.is_normal()


def test_03_manakov_santini_normalization(manakov_santini, master_ew):
    """The two-equation pair verifies as a Lax pair; normalizing it and
    shifting the spectral parameter by v_t reproduces the normal pair of
    the geometric master system (under a = v_t, b = u - v_y), modulo the
    ideal.  Budget: 30 s."""
    ms, master = manakov_santini, master_ew
    with budget(30):
        assert len(ms.system.equations) == 2
        assert verify_lax(ms.system, ms.pair).verdict is LaxVerdict.LAX_PAIR
        assert not ms.pair.is_normal()

        c, mc = ms.coords, master.coords
        images = {"a": c.jet("v", "t"), "b": c.var("u") - c.jet("v", "y")}

        def pull(e):
            return pullback(e, mc, c, images)

        target = LaxPair(c, pull(master.pair.alpha), pull(master.pair.beta),
                         pull(master.pair.m), pull(master.pair.n))
        normalized = ms.pair.normalize(ms.system)
        assert normalized.is_normal()
        shifted = normalized.shift_spectral(c.jet("v", "t"))
        assert shifted.equal_mod(target, ms.system)


def test_04_master_system_lift(master_ew):
    """The covector-driven lift over the canonical metric reproduces the
    affine vertical components m' = -a_y*lam - b_y, n = -a_t*lam - b_t
    (after removing the frame-change term), modulo the ideal, and the
    lifted pair verifies as a Lax pair.  Budget: 30 s."""
    doc = master_ew
    with budget(30):
        c = doc.coords
        lam, a = c.var("lam"), c.var("a")
        m, n = weyl_lift_3d(doc.system, doc.metric, doc.omega,
                            doc.pair.alpha, doc.pair.beta)
        m_prime = m - (lam - a) * n
        expected_m_prime = -c.jet("a", "y") * lam - c.jet("b", "y")
        expected_n = -c.jet("a", "t") * lam - c.jet("b", "t")
        assert doc.system.reduce(m_prime - expected_m_prime).is_zero()
        assert doc.system.reduce(n - expected_n).is_zero()
        lifted = LaxPair(c, doc.pair.alpha, doc.pair.beta, m, n)
        assert verify_lax(doc.system, lifted).verdict is LaxVerdict.LAX_PAIR


def test_05_gauge_identity(manakov_santini, master_ew):
    """Substituting a = v_t, b = u - v_y turns the master equations into
    D_t(G) and F - D_y(G), where F and G are the two-equation residuals:
    an exact jet identity, no reduction involved.  Budget: 5 s."""
    ms, master = manakov_santini, master_ew
    with budget(5):
        c, mc = ms.coords, master.coords
        images = {"a": c.jet("v", "t"), "b": c.var("u") - c.jet("v", "y")}
        by_label = {eq.label(c): eq.residual(c)
                    for eq in ms.system.equations}
        F, G = by_label["F"], by_label["G"]
        e_a, e_b = [pullback(eq.residual(mc), mc, c, images)
                    for eq in master.system.equations]
        assert (e_a - c.total_derivative(G, "t")).is_zero()
        assert (e_b - (F - c.total_derivative(G, "y"))).is_zero()


def test_06_einstein_weyl_classification(dkp, flat_counterexample):
    """The covector solver succeeds on the integrable equation and its
    curvature residual vanishes modulo the ideal; the zero covector fails;
    the control metric is flat outright.  Budget: 120 s."""
    with budget(120):
        sol = solve_weyl_form(dkp.system)
        assert sol.residual.classify() is Classification.ZERO_MOD_IDEAL

        zero = ew_residual(dkp.system, dkp.metric, [ZERO] * 3)
        assert zero.classify() is Classification.NONZERO

        flat = flat_counterexample
        res = ew_residual(flat.system, flat.metric, flat.omega)
        assert res.classify() is Classification.IDENTICALLY_ZERO


def test_07_self_duality_classification(second_heavenly):
    """Exactly one orientation of the four-dimensional metric is self-dual
    modulo the ideal, and the metric has split signature (2,2) at five
    random rational sample points.  Budget: 120 s."""
    doc = second_heavenly
    with budget(120):
        anti = sd_residual(doc.system, doc.metric, orientation="-")
        assert anti.residual.classify() is Classification.ZERO_MOD_IDEAL
        plus = sd_residual(doc.system, doc.metric, orientation="+")
        assert plus.residual.classify() is Classification.NONZERO

        rng = random.Random(7)
        needed = set()
        for row in doc.metric.matrix:
            for e in row:
                needed |= doc.system.reduce(e).vars()
        samples = 0
        while samples < 5:
            point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for v in needed}
            try:
                sig = signature_at(doc.metric, point, system=doc.system)
            except (SingularSample, PoleAtSample):
                continue
            assert sig == (2, 2)
            samples += 1


def test_08_characteristic_property_suite(dkp, manakov_santini, master_ew,
                                          second_heavenly, dkp_broken):
    """Every corpus pair that verifies as a Lax pair is characteristic;
    the negative control fails verification while staying characteristic.
    Budget: 60 s."""
    with budget(60):
        docs = (dkp, manakov_santini, master_ew, second_heavenly, dkp_broken)
        verdicts = {}
        for doc in docs:
            verdicts[doc.title] = verify_lax(doc.system, doc.pair).verdict
            if verdicts[doc.title] is LaxVerdict.LAX_PAIR:
                assert characteristic_check(doc.pair, doc.system), doc.title
        broken = verify_lax(dkp_broken.system, dkp_broken.pair)
        assert broken.verdict is LaxVerdict.NOT_INTEGRABLE
        assert sum(1 for v in verdicts.values()
                   if v is LaxVerdict.LAX_PAIR) == 4


def test_09_monge_vs_conic_oracle(coords3):
    """The fifth-order curve invariant and the exact linear-algebra conic
    oracle agree on at least 20 seeded rational curves of degree <= 4,
    including the parabola (lam^2, lam) and the hyperbola (1/lam, lam);
    the cubed-third-derivative normalization of the invariant is what
    makes the hyperbola vanish.  Budget: 60 s."""
    c = coords3
    lam = c.var("lam")
    with budget(60):
        curves = [(lam * lam, lam), (ONE / lam, lam)]
        rng = random.Random(20260813)
        while len(curves) < 24:
            curves.append((random_spectral_curve(c, rng), lam))
        assert len(curves) >= 20

        verdicts = []
        for alpha, beta in curves:
            by_invariant = monge_invariant(c, alpha, beta).is_zero()
            by_oracle = conic_oracle(c, alpha, beta)
            assert by_invariant == by_oracle, str(alpha)
            verdicts.append(by_oracle)
        assert verdicts[0] is True   # the parabola is a conic
        assert verdicts[1] is True   # the hyperbola is a conic
        assert verdicts.count(True) >= 2 and verdicts.count(False) >= 2

        # the exponent resolution: with the third derivative squared instead
        # of cubed, the would-be invariant fails on the hyperbola
        assert "40 (a''')^3" in monge_invariant.__doc__
        alpha_h = ONE / lam

        def d(e):  # d/d(beta) with beta = lam
            return e.partial(c.spectral_var())

        a2 = d(d(alpha_h))
        a3 = d(a2)
        a4 = d(a3)
        a5 = d(a4)
        wrong = 9 * a2 * a2 * a5 - 45 * a2 * a3 * a4 + 40 * a3 * a3
        assert not wrong.is_zero()
        assert monge_invariant(c, alpha_h, lam).is_zero()


def test_10_metric_reconstruction_roundtrip(dkp, second_heavenly):
    """The conformal metric recovered from the pair alone equals the
    inverse-symbol metric up to scale, in both dimensions.  Budget: 60 s."""
    with budget(60):
        for doc in (dkp, second_heavenly):
            recovered = recover_metric(doc.pair, system=doc.system)
            canonical = conformal_metric(doc.system)
            assert conformal_equal(recovered, canonical, system=doc.system)


def test_11_normal_lift_4d_seeded(coords4):
    """Ten seeded random four-dimensional congruences with invertible
    spectral Jacobian all lift to normal pairs.  Budget: 60 s."""
    c = coords4
    with budget(60):
        rng = random.Random(11)
        produced = 0
        while produced < 10:
            alpha, beta, gamma, delta = random_frame_4d(c, rng)
            s = c.spectral_var()
            z2 = (alpha.partial(s) * delta.partial(s)
                  - beta.partial(s) * gamma.partial(s))
            if z2.is_zero():
                continue
            lifted = normal_lift_4d(c, alpha, beta, gamma, delta)
            assert lifted.is_normal()
            produced += 1


def test_12_kernel_properties(coords3, dkp):
    """Total derivatives commute, reduction is idempotent, and the symbol
    of a directional total derivative is the linear form of the direction
    times the symbol — each on 100 seeded random expressions.
    Budget: 60 s."""
    c = coords3
    with budget(60):
        pool = atom_pool(c, max_order=2, spectral=True)

        rng = random.Random(121)
        for _ in range(100):
            e = random_jet_expression(c, rng, pool=pool)
            for i in range(3):
                for j in range(i + 1, 3):
                    bi, bj = c.base[i], c.base[j]
                    lhs = c.total_derivative(c.total_derivative(e, bi), bj)
                    rhs = c.total_derivative(c.total_derivative(e, bj), bi)
                    assert (lhs - rhs).is_zero()

        rng = random.Random(122)
        deep_pool = atom_pool(c, max_order=3, spectral=True)
        for _ in range(100):
            e = random_jet_expression(c, rng, pool=deep_pool)
            once = dkp.system.reduce(e)
            assert (dkp.system.reduce(once) - once).is_zero()

        rng = random.Random(123)
        plain_pool = atom_pool(c, max_order=2, spectral=False)
        for _ in range(100):
            e = random_jet_expression(c, rng, pool=plain_pool)
            if not e.is_polynomial():
                e = e.numerator()
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            directional = ZERO
            linear_form = ZERO
            for k, (base, ck) in enumerate(zip(c.base, coeffs)):
                directional = directional + c.total_derivative(e, base) * ck
                unit = tuple(1 if i == k else 0 for i in range(3))
                linear_form = linear_form + c.theta_monomial(unit) * ck
            lhs = c.jet_symbol(directional, 3, "u")
            rhs = linear_form * c.jet_symbol(e, 2, "u")
            assert (lhs - rhs).is_zero()
