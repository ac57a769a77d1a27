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

A recorded ``[metric]`` is always checked against the canonical conformal
metric of the system, independent of the keys above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import List, Optional

from .errors import LaxweylError, NoSolution
from .conformal import conformal_metric, conformal_equal
from .weyl import Classification, ew_residual, sd_residual, solve_weyl_form
from .lax import (LaxVerdict, characteristic_check, verify_lax,
                  conic_oracle)
from .dsl import Document, parse_document
from .ideal import SolvedSystem

__all__ = ["ENTRIES", "available", "load", "source", "verify",
           "CheckResult", "CorpusReport"]

ENTRIES = (
    "dkp",
    "manakov_santini",
    "master_ew",
    "flat_counterexample",
    "second_heavenly",
    "dkp_broken",
    "pavlov",
)

_VERDICTS = {
    "lax-pair": LaxVerdict.LAX_PAIR,
    "not-integrable": LaxVerdict.NOT_INTEGRABLE,
    "trivial": LaxVerdict.TRIVIAL,
}
_CLASSIFICATIONS = {
    "identically-zero": Classification.IDENTICALLY_ZERO,
    "zero-mod-ideal": Classification.ZERO_MOD_IDEAL,
    "nonzero": Classification.NONZERO,
}


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


def _flag(value: str) -> bool:
    return value.strip().lower() == "true"


def verify(name: str, max_order: Optional[int] = None) -> CorpusReport:
    """Replay every expectation recorded in a bundled entry, reducing
    under the jet-order budget ``max_order`` in every check."""
    doc = load(name)
    report = CorpusReport(name, doc.title)
    checks = report.checks
    system = SolvedSystem(doc.coords, doc.system.equations, max_order=max_order)
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
        want = _VERDICTS[expect["verdict"]]

        def check_verdict():
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
            want_normal = _flag(expect["normal"])
            got = doc.pair.is_normal()
            return got == want_normal, ("pair is normal" if got
                                        else "pair is not normal")
        run("normal", check_normal)

    if doc.pair is not None and "characteristic" in expect:
        def check_characteristic():
            want_char = _flag(expect["characteristic"])
            got = characteristic_check(doc.pair, system)
            return got == want_char, (
                "pair annihilates null covectors of the quadric" if got
                else "pair covectors are not null for the quadric")
        run("characteristic", check_characteristic)

    if doc.pair is not None and "conic" in expect and doc.coords.dim == 3:
        def check_conic():
            want_conic = _flag(expect["conic"])
            got = conic_oracle(doc.coords, doc.pair.alpha, doc.pair.beta)
            return got == want_conic, ("pencil lies on a conic" if got
                                       else "pencil is not conic")
        run("conic", check_conic)

    if "curvature" in expect and doc.coords.dim == 3:
        def check_curvature():
            metric = (doc.metric if doc.metric is not None
                      else conformal_metric(system))
            if expect["curvature"] == "none":
                try:
                    solution = solve_weyl_form(system, metric=metric)
                except NoSolution as exc:
                    return True, "covector search exhausted: %s" % exc
                return False, ("unexpected covector found: %s"
                               % [str(w) for w in solution.omega])
            want_cls = _CLASSIFICATIONS[expect["curvature"]]
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
            want_or = expect["orientation"]
            if want_or not in ("+", "-"):
                return False, "bad orientation %r" % want_or
            other = "-" if want_or == "+" else "+"
            good = sd_residual(system, metric, orientation=want_or).classify()
            bad = sd_residual(system, metric, orientation=other).classify()
            ok = (good in (Classification.ZERO_MOD_IDEAL,
                           Classification.IDENTICALLY_ZERO)
                  and bad is Classification.NONZERO)
            return ok, ("self-dual for %r (%s), opposite is %s"
                        % (want_or, good.name, bad.name))
        run("orientation", check_orientation)

    return report
