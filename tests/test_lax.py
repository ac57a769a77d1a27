"""Lax pair verification, normalization, lifts, pencil geometry."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from laxweyl import (Coordinates, Expr, LaxPair, LaxVerdict, ONE, ZERO,
                     characteristic_check, conformal_equal, conformal_metric,
                     congruence_from_vectors, conic_oracle, linalg,
                     monge_invariant, normal_lift_4d, parse_document,
                     recover_metric, verify_lax, weyl_lift_3d)
from laxweyl.errors import (DegenerateCongruence, DegenerateFrame,
                            LambdaDependent)

from conftest import (conic_oracle_sampling, pullback, random_frame_4d,
                      random_spectral_curve)


def lift_by_formula(coords, alpha, beta, gamma, delta, system=None):
    """Reference for ``normal_lift_4d``: the vertical coefficients ``(m, n)``
    solved from the two horizontal equations of ``[X, Y]``, with X and Y
    written out from the positional frame of the module docstring."""
    D = coords.total_derivative

    def x0(e):
        return D(e, 0) - alpha * D(e, 2) - beta * D(e, 3)

    def y0(e):
        return D(e, 1) - gamma * D(e, 2) - delta * D(e, 3)

    lam = coords.spectral_var()
    al, bl, gl, dl = (e.partial(lam) for e in (alpha, beta, gamma, delta))
    z2 = al * dl - bl * gl
    if z2.is_zero():
        raise DegenerateCongruence("z2 vanishes identically")
    if system is not None and system.reduce(z2).is_zero():
        raise DegenerateCongruence("z2 vanishes modulo the system")
    r1 = y0(beta) - x0(delta)
    r2 = x0(gamma) - y0(alpha)
    return (al * r1 + bl * r2) / z2, (gl * r1 + dl * r2) / z2


def conic_by_full_matrix(coords, alpha, beta) -> bool:
    """Reference for ``conic_oracle``: the lambda-coefficient matrix of
    ``{1, alpha, beta, alpha^2, alpha beta, beta^2}``, each function times
    the others' denominators, with one row per power up to the top degree
    (zero rows included)."""
    lam = coords.spectral_var()
    funcs = [ONE, alpha, beta, alpha * alpha, alpha * beta, beta * beta]
    cleared = []
    for i, f in enumerate(funcs):
        g = f.numerator()
        for j, other in enumerate(funcs):
            if j != i:
                g = g * other.denominator()
        cleared.append(g)
    columns = [g.coeffs_in(lam) for g in cleared]
    degree = max(max(col) for col in columns if col)
    matrix = [[col.get(k, ZERO) for col in columns]
              for k in range(degree + 1)]
    return len(linalg.nullspace(matrix)) > 0


def moebius_image(doc):
    """The pencil of ``doc`` under ``lam -> (2 lam + 1)/(lam - 3)``, a
    Moebius map with ``c != 0``."""
    lam = doc.coords.var("lam")
    image = (2 * lam + 1) / (lam - 3)
    v = doc.coords.spectral_var()
    return doc.pair.alpha.subs_var(v, image), doc.pair.beta.subs_var(v, image)


def outcome(thunk):
    """The strings of a result sequence, or the error a degenerate input
    raises."""
    try:
        return [str(e) for e in thunk()]
    except DegenerateCongruence as exc:
        return "DegenerateCongruence: %s" % exc


class TestVerdicts:
    def test_dkp_lax_pair(self, dkp):
        report = verify_lax(dkp.system, dkp.pair)
        assert report.verdict is LaxVerdict.LAX_PAIR
        assert report.witness() is None

    def test_dkp_vertical_residual_is_generator(self, dkp):
        """The raw vertical residual reproduces the equation itself."""
        c = dkp.coords
        report = verify_lax(dkp.system, dkp.pair)
        generator = dkp.system.equations[0].residual(c)
        raw = report.raw["vertical"]
        assert (raw + generator).is_zero()
        assert all(report.raw[k].is_zero() for k in report.raw
                   if k != "vertical")

    def test_manakov_santini_lax_pair_not_normal(self, manakov_santini):
        doc = manakov_santini
        report = verify_lax(doc.system, doc.pair)
        assert report.verdict is LaxVerdict.LAX_PAIR
        assert not doc.pair.is_normal()

    def test_manakov_santini_horizontal_is_second_generator(
            self, manakov_santini):
        doc = manakov_santini
        c = doc.coords
        report = verify_lax(doc.system, doc.pair)
        second = next(eq for eq in doc.system.equations
                      if eq.label(c) == "G").residual(c)
        assert (report.raw["h_t"] + second).is_zero()

    def test_trivial_pair(self, dkp):
        c = dkp.coords
        lam = c.var("lam")
        report = verify_lax(dkp.system, LaxPair(c, lam, ZERO, ZERO, ZERO))
        assert report.verdict is LaxVerdict.TRIVIAL

    def test_broken_system_not_integrable(self, dkp_broken):
        doc = dkp_broken
        report = verify_lax(doc.system, doc.pair)
        assert report.verdict is LaxVerdict.NOT_INTEGRABLE
        label, value = report.witness()
        assert not value.is_zero()

    def test_second_heavenly_lax_pair(self, second_heavenly):
        doc = second_heavenly
        report = verify_lax(doc.system, doc.pair)
        assert report.verdict is LaxVerdict.LAX_PAIR
        assert doc.pair.is_normal()


class TestNormalization:
    def test_normalize_makes_normal(self, manakov_santini):
        doc = manakov_santini
        normalized = doc.pair.normalize(doc.system)
        assert normalized.is_normal()
        assert verify_lax(doc.system, normalized).verdict \
            is LaxVerdict.LAX_PAIR

    def test_normalize_fixes_frame(self, manakov_santini):
        doc = manakov_santini
        normalized = doc.pair.normalize(doc.system)
        assert (normalized.alpha - doc.pair.alpha).is_zero()
        assert (normalized.beta - doc.pair.beta).is_zero()

    def test_normalize_plus_shift_reaches_master_pair(
            self, manakov_santini, master_ew):
        """Normalizing and shifting the spectral parameter lands on the
        canonical geometric pair under the substitution that identifies the
        two systems."""
        ms, master = manakov_santini, master_ew
        c, mc = ms.coords, master.coords
        images = {"a": c.jet("v", "t"), "b": c.var("u") - c.jet("v", "y")}

        def pull(e):
            return pullback(e, mc, c, images)

        target = LaxPair(c, pull(master.pair.alpha), pull(master.pair.beta),
                         pull(master.pair.m), pull(master.pair.n))
        candidate = ms.pair.normalize(ms.system).shift_spectral(c.jet("v", "t"))
        assert candidate.is_normal()
        assert candidate.equal_mod(target, ms.system)
        wrong = ms.pair.normalize(ms.system).shift_spectral(-c.jet("v", "t"))
        assert not wrong.equal_mod(target, ms.system)


class TestNormalLift4D:
    def test_second_heavenly_integrable_ruling(self, second_heavenly):
        doc = second_heavenly
        lifted = normal_lift_4d(doc.coords, doc.pair.alpha, doc.pair.beta,
                                doc.pair.gamma, doc.pair.delta,
                                system=doc.system)
        assert lifted.is_normal()
        assert verify_lax(doc.system, lifted).verdict is LaxVerdict.LAX_PAIR
        assert lifted.equal_mod(doc.pair, doc.system)

    def test_second_heavenly_other_ruling_not_integrable(
            self, second_heavenly):
        """The opposite ruling of the null quadric is null but carries no
        Lax pair; its unique normal lift has a nonvanishing vertical
        residual."""
        doc = second_heavenly
        c = doc.coords
        lam = c.var("lam")
        uxx, uxy, uyy = c.jet("u", "xx"), c.jet("u", "xy"), c.jet("u", "yy")
        pencil = uxx - 2 * lam * uxy + lam * lam * uyy
        other = normal_lift_4d(c, -pencil / lam, -ONE / lam, lam, ZERO,
                               system=doc.system)
        assert other.is_normal()
        assert characteristic_check(other, doc.system)
        report = verify_lax(doc.system, other)
        assert report.verdict is LaxVerdict.NOT_INTEGRABLE
        assert report.witness()[0] == "vertical"

    def test_seeded_congruences_lift_normal(self, second_heavenly):
        """Random polynomial frames with invertible spectral Jacobian lift
        to normal pairs."""
        doc = second_heavenly
        c = doc.coords
        lam = c.var("lam")
        rng = random.Random(2026)
        atoms = [c.var("u"), c.jet("u", "x"), c.jet("u", "yt"), ONE]
        produced = 0
        while produced < 4:
            def rand_coeff():
                return (atoms[rng.randrange(len(atoms))]
                        * Fraction(rng.randint(-3, 3)))
            alpha = rand_coeff() + lam * rand_coeff()
            beta = rand_coeff() + lam * rand_coeff()
            gamma = rand_coeff() + lam * rand_coeff()
            delta = rand_coeff() + lam * rand_coeff()
            z2 = (alpha.partial(c.spectral_var()) * delta.partial(c.spectral_var())
                  - beta.partial(c.spectral_var()) * gamma.partial(c.spectral_var()))
            if z2.is_zero():
                continue
            lifted = normal_lift_4d(c, alpha, beta, gamma, delta)
            assert lifted.is_normal()
            produced += 1

    def test_matches_two_equation_formula(self, second_heavenly):
        """On seeded frames, with and without the system, the lift keeps the
        frame and prints the reference ``m`` and ``n``, or raises the same
        error."""
        c = second_heavenly.coords
        lam = c.var("lam")
        rng = random.Random(40)
        frames = [random_frame_4d(c, rng) for _ in range(40)]
        # z2 is the second heavenly equation itself: zero only on-shell
        equation = (c.jet("u", "zx") + c.jet("u", "xx") * c.jet("u", "yy")
                    - c.jet("u", "xy") ** 2 + c.jet("u", "yt"))
        frames += [(lam * equation, ZERO, ZERO, lam)] * 2
        seen = set()
        for k, frame in enumerate(frames):
            system = second_heavenly.system if k % 2 else None

            def lifted():
                pair = normal_lift_4d(c, *frame, system=system)
                assert (pair.alpha, pair.beta, pair.gamma, pair.delta) == frame
                return pair.m, pair.n

            expected = outcome(lambda: lift_by_formula(c, *frame, system))
            assert outcome(lifted) == expected
            seen.add(expected if isinstance(expected, str) else "lifted")
        assert seen == {"lifted",
                        "DegenerateCongruence: z2 vanishes identically",
                        "DegenerateCongruence: z2 vanishes modulo the system"}

    def test_degenerate_jacobian_rejected(self, second_heavenly):
        c = second_heavenly.coords
        lam = c.var("lam")
        with pytest.raises(DegenerateCongruence):
            normal_lift_4d(c, lam, lam, lam, lam)


class TestPencilGeometry:
    def test_null_covector_annihilates_frame(self, dkp):
        doc = dkp
        (theta,) = doc.pair.annihilator_covectors()
        for vec in (doc.pair.x_components(), doc.pair.y_components()):
            paired = ZERO
            for ti, vi in zip(theta, vec):
                paired = paired + ti * vi
            assert paired.is_zero()

    def test_characteristic_check_corpus_pairs(self, dkp, manakov_santini,
                                               master_ew, second_heavenly,
                                               dkp_broken):
        for doc in (dkp, manakov_santini, master_ew, second_heavenly,
                    dkp_broken):
            assert characteristic_check(doc.pair, doc.system)

    def test_characteristic_check_rejects_non_null_frame(self, dkp):
        c = dkp.coords
        lam = c.var("lam")
        tampered = LaxPair(c, lam * lam + c.var("u"), lam,
                           dkp.pair.m, dkp.pair.n)
        assert not characteristic_check(tampered, dkp.system)


class TestMongeInvariant:
    def test_conic_sections_vanish(self, coords3):
        c = coords3
        lam = c.var("lam")
        assert monge_invariant(c, ONE / lam, lam).is_zero()
        assert monge_invariant(c, lam * lam, lam).is_zero()
        assert monge_invariant(c, lam * lam + 3 * lam + 1, lam).is_zero()

    def test_twisted_cubic_value(self, coords3):
        c = coords3
        lam = c.var("lam")
        value = monge_invariant(c, lam ** 3, lam)
        assert (value - Expr.number(8640)).is_zero()

    def test_general_conic_through_linear_fractions(self, coords3):
        c = coords3
        lam = c.var("lam")
        # circle-like parametrization: rational point sweep of a conic
        alpha = (ONE - lam * lam) / (ONE + lam * lam)
        beta = 2 * lam / (ONE + lam * lam)
        assert monge_invariant(c, alpha, beta).is_zero()


class TestConicOracle:
    def test_known_conics(self, coords3):
        c = coords3
        lam = c.var("lam")
        assert conic_oracle(c, lam * lam, lam)
        assert conic_oracle(c, ONE / lam, lam)
        assert not conic_oracle(c, lam ** 3, lam)

    def test_oracle_agrees_with_invariant_seeded(self, coords3):
        c = coords3
        lam = c.var("lam")
        rng = random.Random(314)
        for _ in range(12):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
            alpha = sum((co * lam ** k for k, co in enumerate(coeffs)), ZERO)
            beta = lam
            on_conic = conic_oracle(c, alpha, beta)
            invariant_zero = monge_invariant(c, alpha, beta).is_zero()
            assert on_conic == invariant_zero

    def test_sampling_variant_agrees(self, coords3):
        c = coords3
        lam = c.var("lam")
        cases = [(lam * lam, lam), (ONE / lam, lam), (lam ** 3, lam),
                 (lam * lam + lam, lam)]
        for alpha, beta in cases:
            assert (conic_oracle(c, alpha, beta)
                    == conic_oracle_sampling(c, alpha, beta, seed=5))

    def test_jet_dependent_pencils(self, dkp, manakov_santini):
        for doc in (dkp, manakov_santini):
            assert conic_oracle(doc.coords, doc.pair.alpha, doc.pair.beta)

    def test_matches_full_lambda_matrix(self, coords3, dkp, manakov_santini):
        c = coords3
        lam = c.var("lam")
        rng = random.Random(20260813)
        curves = [(doc.pair.alpha, doc.pair.beta)
                  for doc in (dkp, manakov_santini)]
        for _ in range(24):
            alpha = random_spectral_curve(c, rng)
            curves += [(alpha, lam), (alpha, random_spectral_curve(c, rng))]
        verdicts = set()
        for alpha, beta in curves:
            verdict = conic_oracle(c, alpha, beta)
            assert verdict == conic_by_full_matrix(c, alpha, beta), str(alpha)
            verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_homogeneous_coordinates_agree_with_references(
            self, coords3, dkp, master_ew, manakov_santini, monkeypatch):
        """Moebius images, denominators in the jets shared by both
        coordinates, a conic with many lambda rows and a cubic: the verdict
        matches the full matrix, the Monge invariant and sampling."""
        c = coords3
        lam, u, ux = c.var("lam"), c.var("u"), c.jet("u", "x")
        pole = lam + ux
        quadratic = lam * lam + lam
        # (coords, alpha, beta, on a conic, decided by elimination)
        cases = [(doc.coords,) + moebius_image(doc) + (True, False)
                 for doc in (dkp, master_ew, manakov_santini)]
        cases += [(c, u / pole ** 2, ONE / pole, True, False),
                  (c, u / pole ** 3, ONE / pole, False, True),
                  (c, quadratic, quadratic ** 2 + u * quadratic, True, True),
                  (c, lam ** 3, lam, False, True)]
        eliminations = []
        real = linalg.nullspace
        monkeypatch.setattr(linalg, "nullspace",
                            lambda m: eliminations.append(m) or real(m))
        for coords, alpha, beta, on_conic, eliminates in cases:
            del eliminations[:]
            verdict = conic_oracle(coords, alpha, beta)
            assert verdict is on_conic, (str(alpha), str(beta))
            assert bool(eliminations) is eliminates
            assert verdict == conic_by_full_matrix(coords, alpha, beta)
            assert verdict == monge_invariant(coords, alpha, beta).is_zero()
            assert verdict == conic_oracle_sampling(coords, alpha, beta,
                                                    seed=7)

    def test_moebius_image_needs_no_elimination(self, dkp, monkeypatch):
        def refuse(matrix):
            raise AssertionError("conic_oracle eliminated")

        alpha, beta = moebius_image(dkp)
        monkeypatch.setattr(linalg, "nullspace", refuse)
        assert conic_oracle(dkp.coords, alpha, beta)


class TestRecoverMetric:
    def test_dkp_roundtrip(self, dkp):
        recovered = recover_metric(dkp.pair, system=dkp.system)
        assert conformal_equal(recovered, conformal_metric(dkp.system),
                               system=dkp.system)

    def test_second_heavenly_roundtrip(self, second_heavenly):
        doc = second_heavenly
        recovered = recover_metric(doc.pair, system=doc.system)
        assert conformal_equal(recovered, conformal_metric(doc.system),
                               system=doc.system)

    def test_manakov_santini_roundtrip(self, manakov_santini):
        doc = manakov_santini
        recovered = recover_metric(doc.pair, system=doc.system)
        assert conformal_equal(recovered, conformal_metric(doc.system),
                               system=doc.system)


class TestWeylLift3D:
    def test_master_lift_reproduces_pair(self, master_ew):
        doc = master_ew
        m, n = weyl_lift_3d(doc.system, doc.metric, doc.omega,
                            doc.pair.alpha, doc.pair.beta)
        assert (m - doc.pair.m).is_zero()
        assert (n - doc.pair.n).is_zero()

    def test_master_lift_frame_split(self, master_ew):
        """Subtracting the frame-change term recovers the geometric
        vertical components affine in the spectral parameter."""
        doc = master_ew
        c = doc.coords
        lam, a = c.var("lam"), c.var("a")
        m, n = weyl_lift_3d(doc.system, doc.metric, doc.omega,
                            doc.pair.alpha, doc.pair.beta)
        m_prime = m - (lam - a) * n
        assert (m_prime + c.jet("a", "y") * lam + c.jet("b", "y")).is_zero()
        assert (n + c.jet("a", "t") * lam + c.jet("b", "t")).is_zero()

    def test_dkp_specialization(self, dkp):
        doc = dkp
        m, n = weyl_lift_3d(doc.system, doc.metric, doc.omega,
                            doc.pair.alpha, doc.pair.beta)
        lifted = LaxPair(doc.coords, doc.pair.alpha, doc.pair.beta, m, n)
        assert lifted.equal_mod(doc.pair, doc.system)
        assert verify_lax(doc.system, lifted).verdict is LaxVerdict.LAX_PAIR


class TestCongruenceFromVectors:
    def test_rebuilds_positional_frame(self, dkp):
        c = dkp.coords
        lam = c.var("lam")
        u = c.var("u")
        v1 = [ONE, ZERO, -(lam * lam - u)]
        v2 = [ZERO, ONE, -lam]
        pair = congruence_from_vectors(c, v1, v2)
        assert (pair.alpha - (lam * lam - u)).is_zero()
        assert (pair.beta - lam).is_zero()

    def test_normalizes_general_position(self, dkp):
        """Vectors in general position are reduced to the positional frame
        spanning the same planes."""
        c = dkp.coords
        lam = c.var("lam")
        u = c.var("u")
        x_vec = [ONE, ZERO, -(lam * lam - u)]
        y_vec = [ZERO, ONE, -lam]
        mixed1 = [a + b for a, b in zip(x_vec, y_vec)]
        mixed2 = [a - b for a, b in zip(x_vec, y_vec)]
        pair = congruence_from_vectors(c, mixed1, mixed2)
        assert (pair.alpha - (lam * lam - u)).is_zero()
        assert (pair.beta - lam).is_zero()

    def test_degenerate_span_rejected(self, dkp):
        c = dkp.coords
        lam = c.var("lam")
        vec = [ONE, ZERO, lam]
        doubled = [2 * e for e in vec]
        with pytest.raises(DegenerateFrame):
            congruence_from_vectors(c, vec, doubled)


# Images of corpus entries under the shear x -> x + t/2, written out by the
# benchmark generator (perfbench/symgen.py).  Their denominators mix lam
# with the jets, so every sum in the commutator goes through the gcd.
SHEARED_DKP = """\
# dispersionless KP equation sheared x -> x + t/2

[coords]
base = x, y, t
unknowns = u

[equation]
solve u_xx = (-4*u*u_tt + 4*u*u_xt - 4*u_t^2 + 4*u_t*u_x - u_x^2 + 4*u_yy - 4*u_xt)/(u - 2)

[pair]
alpha = (2*lam^2 - 2*u)/(lam^2 - u + 2)
beta = (2*lam)/(lam^2 - u + 2)
m = (-2*lam*u_t + lam*u_x - 2*u_y)/(lam^2 - u + 2)
n = (2*lam*u_y + 2*u*u_t - u*u_x - 4*u_t + 2*u_x)/(2*lam^2 - 2*u + 4)
"""

SHEARED_DKP_BROKEN = """\
# dispersionless KP with a flipped sign sheared x -> x + t/2

[coords]
base = x, y, t
unknowns = u

[equation]
solve u_xx = (-4*u*u_tt + 4*u*u_xt + 4*u_t^2 - 4*u_t*u_x + u_x^2 + 4*u_yy - 4*u_xt)/(u - 2)

[pair]
alpha = (2*lam^2 - 2*u)/(lam^2 - u + 2)
beta = (2*lam)/(lam^2 - u + 2)
m = (-2*lam*u_t + lam*u_x - 2*u_y)/(lam^2 - u + 2)
n = (2*lam*u_y + 2*u*u_t - u*u_x - 4*u_t + 2*u_x)/(2*lam^2 - 2*u + 4)
"""

SHEARED_MASTER_EW = """\
# generic Einstein-Weyl equation sheared x -> x + t/2

[coords]
base = x, y, t
unknowns = a, b

[equation]
solve a_xx = (-4*a*a_yt + 2*a*a_xy - 4*a_t*a_y - 4*a_t*b_t + 2*a_t*b_x + 2*a_y*a_x + 2*a_x*b_t - a_x*b_x - 4*a_tt*b + 4*a_yy + 4*a_xt*b - 4*a_xt)/(b - 2)

[equation]
solve b_xx = (-4*a*b_yt + 2*a*b_xy + 4*a_t*b_y - 8*a_y*b_t + 4*a_y*b_x - 2*a_x*b_y - 4*b*b_tt + 4*b*b_xt - 4*b_t^2 + 4*b_t*b_x - b_x^2 + 4*b_yy - 4*b_xt)/(b - 2)

[pair]
alpha = (2*lam^2 - 2*lam*a - 2*b)/(lam^2 - lam*a - b + 2)
beta = (2*lam)/(lam^2 - lam*a - b + 2)
m = (-2*lam^2*a_t + lam^2*a_x + 2*lam*a*a_t - lam*a*a_x - 2*lam*a_y - 2*lam*b_t + lam*b_x + 2*a*b_t - a*b_x - 2*b_y)/(lam^2 - lam*a - b + 2)
n = (2*lam^2*a_y + 2*lam*a_t*b - 4*lam*a_t - lam*a_x*b + 2*lam*a_x + 2*lam*b_y + 2*b*b_t - b*b_x - 4*b_t + 2*b_x)/(2*lam^2 - 2*lam*a - 2*b + 4)
"""


class TestMultiTermDenominators:
    def test_sheared_documents_within_budget(self):
        """Budget: 10 s for all three."""
        start = time.monotonic()
        for text, want in ((SHEARED_DKP, LaxVerdict.LAX_PAIR),
                           (SHEARED_DKP_BROKEN, LaxVerdict.NOT_INTEGRABLE),
                           (SHEARED_MASTER_EW, LaxVerdict.LAX_PAIR)):
            doc = parse_document(text)
            assert verify_lax(doc.system, doc.pair).verdict is want
        elapsed = time.monotonic() - start
        assert elapsed < 10, "budget 10s exceeded: %.1fs" % elapsed
