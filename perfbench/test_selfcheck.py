"""Self-tests of the benchmark's generators and expectations.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_selfcheck.py

They check that the generators reproduce the bundled corpus, that a
transformation followed by its inverse gives the original document back,
that every generated document parses, that each workload's documents have
the structure the workload claims.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import laxweyl  # noqa: E402
from laxweyl import corpus  # noqa: E402

import checks  # noqa: E402
import symgen  # noqa: E402
import workloads  # noqa: E402
from systems import ORDER, SYSTEMS  # noqa: E402
from transforms import Transform, diagonal, expected, matmul, shear  # noqa: E402

F = Fraction


def same_document(a: str, b: str) -> bool:
    """Equal systems, pairs, metrics and covectors once parsed."""
    da, db = laxweyl.parse_document(a), laxweyl.parse_document(b)
    if da.coords != db.coords:
        return False
    ea = [(e.unknown, e.alpha, e.rhs) for e in da.system.equations]
    eb = [(e.unknown, e.alpha, e.rhs) for e in db.system.equations]
    if ea != eb or (da.pair is None) != (db.pair is None):
        return False
    if da.pair is not None:
        for key in ("alpha", "beta", "gamma", "delta", "m", "n"):
            if getattr(da.pair, key) != getattr(db.pair, key):
                return False
    if (da.metric is None) != (db.metric is None):
        return False
    if da.metric is not None and da.metric.matrix != db.metric.matrix:
        return False
    return da.omega == db.omega


def multi_term(text: str) -> bool:
    doc = laxweyl.parse_document(text)
    exprs = [e.rhs for e in doc.system.equations]
    if doc.pair is not None:
        exprs += [getattr(doc.pair, k) for k in
                  ("alpha", "beta", "gamma", "delta", "m", "n")
                  if getattr(doc.pair, k) is not None]
    return any(len(e.den) > 1 for e in exprs)


@pytest.mark.parametrize("name", ORDER)
def test_recorded_expectations_match_corpus(name):
    assert SYSTEMS[name].expect == corpus.load(name).expect


@pytest.mark.parametrize("name", ORDER)
def test_identity_reproduces_corpus_entry(name):
    system = SYSTEMS[name]
    tr = Transform.identity(system.dim)
    text = symgen.render(system, symgen.transform(system, tr), "id")
    assert same_document(text, corpus.source(name))
    assert expected(system, tr) == system.expect


@pytest.mark.parametrize("name", ORDER)
def test_identity_passes_recorded_checks(name):
    system = SYSTEMS[name]
    text = symgen.render(system, symgen.transform(
        system, Transform.identity(system.dim)), "id")
    checks.check_document(laxweyl, text, system.expect,
                          workloads.ORBIT_CHECKS[name],
                          workloads.ORBIT_GEOMETRY)


ROUND_TRIPS = [
    ("dkp", Transform(matmul(shear(3, 0, 2, F(1, 2)), diagonal((2, 3, F(1, 3)))))),
    ("dkp_broken", Transform(matmul(shear(3, 1, 2, F(-2, 3)),
                                    diagonal((1, F(5, 2), 2))))),
    ("manakov_santini", Transform(shear(3, 0, 1, F(3, 2)))),
    ("master_ew", Transform(shear(3, 2, 0, F(-1, 2)),
                            (F(2), F(1), F(1), F(3)))),
    ("flat_counterexample", Transform(shear(3, 2, 1, F(2)))),
    ("second_heavenly", Transform(diagonal((F(2, 3), -3, F(1, 2), F(5, 4))),
                                  (F(3, 2), F(0), F(0), F(1)))),
]


@pytest.mark.parametrize("name,tr", ROUND_TRIPS, ids=[n for n, _ in ROUND_TRIPS])
def test_transform_then_inverse_is_identity(name, tr):
    system = SYSTEMS[name]
    image = symgen.render(system, symgen.transform(system, tr), "image")
    back_system = symgen.read_system(image, like=system)
    back = symgen.render(back_system, symgen.transform(back_system,
                                                       tr.inverse()), "back")
    original = symgen.render(system, symgen.transform(
        system, Transform.identity(system.dim)), "original")
    assert not same_document(image, original)
    assert same_document(back, original)


@pytest.fixture(scope="module")
def rounds():
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(7)
        out[name] = wl.round(0) + wl.round(1)
    return out


def test_every_document_parses_and_is_distinct(rounds):
    for name, docs in rounds.items():
        texts = [d.text for d in docs]
        assert len(set(texts)) == len(texts), name
        for doc in docs:
            laxweyl.parse_document(doc.text)


def test_rounds_have_fixed_make_up(rounds):
    for name, docs in rounds.items():
        cls = workloads.WORKLOADS[name]
        half = len(docs) // 2
        make_up = [(d.source, d.kind) for d in docs]
        assert make_up[:half] == make_up[half:] == cls(7).classes()


def test_scaled_corpus_keeps_monomial_denominators(rounds):
    docs = rounds["scaled-corpus"]
    assert {d.source for d in docs} == set(ORDER)
    assert not any(multi_term(d.text) for d in docs)


def test_shear_orbit_heavy_shears_have_multi_term_denominators(rounds):
    for doc in rounds["shear-orbit"]:
        assert multi_term(doc.text) == (doc.kind in workloads.HEAVY_SHEARS), \
            (doc.source, doc.kind)
        assert multi_term(doc.text) == doc.multi_term


def test_shear_orbit_heavy_documents_do_not_depend_on_the_seed(rounds):
    other = workloads.WORKLOADS["shear-orbit"](8).round(0)
    mine = rounds["shear-orbit"][:len(other)]
    for a, b in zip(mine, other):
        same = a.text == b.text
        assert same == (a.kind in workloads.HEAVY_SHEARS), (a.source, a.kind)


def test_shear_orbit_never_repeats_a_system(rounds):
    systems = [d.text.split("[pair]")[0].split("[metric]")[0].split("\n", 1)[1]
               for d in rounds["shear-orbit"]]
    assert len(set(systems)) == len(systems)


def test_pencil_screen_shares_systems(rounds):
    by_source = {}
    lam = laxweyl.Var.spectral("lam")
    for doc in rounds["pencil-screen"]:
        system_text = doc.text.split("[pair]")[0].split("\n", 1)[1]
        by_source.setdefault(doc.source, set()).add(system_text)
        parsed = laxweyl.parse_document(doc.text)
        if doc.kind == "perturbed":
            assert doc.expect["verdict"] == "not-integrable"
        if doc.kind == "mobius":
            dens = [e.denominator().vars() for e in
                    (parsed.pair.alpha, parsed.pair.beta)]
            assert {lam} in dens     # univariate lam denominators
    assert all(len(texts) == 1 for texts in by_source.values())


def test_orientation_flips_with_determinant():
    system = SYSTEMS["second_heavenly"]
    keep = Transform(diagonal((2, 3, 1, 1)))
    flip = Transform(diagonal((-2, 3, 1, 1)))
    assert expected(system, keep)["orientation"] == "-"
    assert expected(system, flip)["orientation"] == "+"


PENCIL_CASES = [
    ("dkp", Transform(diagonal((F(2, 3), F(-3, 2), F(5, 7))),
                      (F(3, 2), F(0), F(0), F(1)))),
    ("dkp", Transform(diagonal((1, 1, 1)), (F(2), F(1), F(1), F(3)))),
    ("master_ew", Transform(diagonal((1, 1, 1)), (F(3), F(-2), F(5), F(7)))),
    ("dkp", Transform(diagonal((1, 1, 1)), shift="2*u_y - 3/2*u_t + u")),
    ("master_ew", Transform(diagonal((1, 1, 1)), jolt="-5/3*b_yy")),
    ("second_heavenly", Transform(diagonal((1, 1, 1, 1)),
                                  (F(3, 5), F(0), F(0), F(1)),
                                  jolt="7*u_xy")),
]


@pytest.mark.parametrize("name,tr", PENCIL_CASES)
def test_pencil_images_get_their_expected_verdicts(name, tr):
    system = SYSTEMS[name]
    text = symgen.render(system, symgen.transform(system, tr), "image",
                         geometry=False)
    suite = workloads.PENCIL_3D if system.dim == 3 else workloads.PENCIL_4D
    checks.check_document(laxweyl, text, expected(system, tr), suite, ())
