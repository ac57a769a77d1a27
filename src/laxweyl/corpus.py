"""Bundled worked examples with machine-checkable expectations.

Each entry is a ``.dspec`` document (see :mod:`laxweyl.dsl`) shipped under
``laxweyl/corpus_data/``.  The ``[expect]`` section records the outcomes the
workbench must reproduce; :func:`verify` replays every recorded claim:

``verdict``
    The Frobenius classification of the recorded pair
    (``lax-pair`` / ``not-integrable`` / ``trivial``).
``normal``
    Whether the pair's horizontal residuals vanish identically.
``characteristic``
    Whether the covectors annihilating the pair's frame are null for the
    characteristic quadric modulo the system.
``conic``
    Whether the pencil ``lam -> (alpha, beta)`` lies on a conic
    (three base coordinates only).
``curvature``
    The Einstein-Weyl residual classification for the recorded metric and
    covector (three base coordinates); ``none`` asserts that the covector
    search proves there is no rational covector in its ansatz.
``orientation``
    The orientation (``+`` or ``-``) for which the self-duality residual
    vanishes modulo the system, the opposite one being nonzero (four base
    coordinates).

A value outside the vocabulary listed for its key fails that key's check,
with the key and the value named.  A recorded ``[metric]`` is always
checked against the canonical conformal metric of the system, independent
of the keys above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import List, Optional

from .errors import DslError, LaxweylError, NoSolution
from .conformal import conformal_metric, conformal_equal
from .weyl import Classification, ew_residual, sd_residual, solve_weyl_form
from .lax import (LaxVerdict, characteristic_check, verify_lax,
                  conic_oracle)
from .dsl import Document, parse_document

__all__ = ["ENTRIES", "available", "load", "source", "verify",
           "CheckResult", "CorpusReport"]

ENTRIES = (
    "dkp",
    "manakov_santini",
    "master_ew",
    "flat_counterexample",
    "first_heavenly",
    "second_heavenly",
    "dkp_broken",
    "pavlov",
)


def available() -> tuple:
    """Names of the bundled entries."""
    return ENTRIES


def source(name: str) -> str:
    """Raw ``.dspec`` text of a bundled entry."""
    if name not in ENTRIES:
        raise KeyError("no corpus entry named %r (have: %s)"
                       % (name, ", ".join(ENTRIES)))
    path = resources.files("laxweyl").joinpath("corpus_data", name + ".dspec")
    return path.read_text(encoding="utf-8")


def load(name: str) -> Document:
    """Parse a bundled entry."""
    return parse_document(source(name))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class CorpusReport:
    entry: str
    title: Optional[str]
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.passed]


_FLAGS = {"true": True, "false": False}


def _expected(expect: dict, key: str, vocabulary: dict):
    """The meaning of the value recorded for ``key``; a value outside the
    ``vocabulary`` raises :class:`DslError` naming the key and the value."""
    value = expect[key]
    if value not in vocabulary:
        raise DslError("[expect] %s = %r is not one of: %s"
                       % (key, value, ", ".join(vocabulary)))
    return vocabulary[value]


def verify(name: str, max_order: Optional[int] = None) -> CorpusReport:
    """Replay every expectation recorded in a bundled entry, reducing
    under the jet-order budget ``max_order`` in every check."""
    doc = parse_document(source(name), max_order=max_order)
    report = CorpusReport(name, doc.title)
    checks = report.checks
    system = doc.system
    expect = doc.expect

    def run(label: str, thunk) -> None:
        try:
            passed, detail = thunk()
        except LaxweylError as exc:
            passed, detail = False, "%s: %s" % (type(exc).__name__, exc)
        checks.append(CheckResult(label, passed, detail))

    if doc.metric is not None:
        def check_metric():
            canonical = conformal_metric(system)
            ok = conformal_equal(canonical, doc.metric, system=system)
            return ok, ("recorded metric is conformal to the canonical one"
                        if ok else "recorded metric differs from the "
                        "canonical conformal metric")
        run("metric", check_metric)

    if doc.pair is not None and "verdict" in expect:
        def check_verdict():
            want = _expected(expect, "verdict",
                             {v.value: v for v in LaxVerdict})
            lax_report = verify_lax(system, doc.pair)
            if lax_report.verdict is want:
                return True, "verdict %s" % want.name
            witness = lax_report.witness()
            detail = "expected %s, got %s" % (want.name, lax_report.verdict.name)
            if witness is not None:
                detail += " (witness %s = %s)" % witness
            return False, detail
        run("verdict", check_verdict)

    if doc.pair is not None and "normal" in expect:
        def check_normal():
            want_normal = _expected(expect, "normal", _FLAGS)
            got = doc.pair.is_normal()
            return got == want_normal, ("pair is normal" if got
                                        else "pair is not normal")
        run("normal", check_normal)

    if doc.pair is not None and "characteristic" in expect:
        def check_characteristic():
            want_char = _expected(expect, "characteristic", _FLAGS)
            got = characteristic_check(doc.pair, system)
            return got == want_char, (
                "pair annihilates null covectors of the quadric" if got
                else "pair covectors are not null for the quadric")
        run("characteristic", check_characteristic)

    if doc.pair is not None and "conic" in expect and doc.coords.dim == 3:
        def check_conic():
            want_conic = _expected(expect, "conic", _FLAGS)
            got = conic_oracle(doc.coords, doc.pair.alpha, doc.pair.beta)
            return got == want_conic, ("pencil lies on a conic" if got
                                       else "pencil is not conic")
        run("conic", check_conic)

    if "curvature" in expect and doc.coords.dim == 3:
        def check_curvature():
            metric = (doc.metric if doc.metric is not None
                      else conformal_metric(system))
            want_cls = _expected(expect, "curvature", dict(
                {c.value: c for c in Classification}, none=None))
            if want_cls is None:
                try:
                    solution = solve_weyl_form(system, metric=metric)
                except NoSolution as exc:
                    return True, "covector search exhausted: %s" % exc
                return False, ("unexpected covector found: %s"
                               % [str(w) for w in solution.omega])
            omega = doc.omega
            if omega is None:
                omega = solve_weyl_form(system, metric=metric).omega
            got = ew_residual(system, metric, omega).classify()
            return got is want_cls, "Einstein-Weyl residual is %s" % got.name
        run("curvature", check_curvature)

    if "orientation" in expect and doc.coords.dim == 4:
        def check_orientation():
            metric = (doc.metric if doc.metric is not None
                      else conformal_metric(system))
            want_or = _expected(expect, "orientation", {"+": "+", "-": "-"})
            other = "-" if want_or == "+" else "+"
            good = sd_residual(system, metric, orientation=want_or).residual
            bad = sd_residual(system, metric, orientation=other).classify()
            ok = good.is_zero_mod_ideal() and bad is Classification.NONZERO
            return ok, ("self-dual for %r (%s), opposite is %s"
                        % (want_or, good.classify().name, bad.name))
        run("orientation", check_orientation)

    return report
