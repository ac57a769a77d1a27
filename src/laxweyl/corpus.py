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

Each key is declared once, in ``_KEYS``, with its vocabulary, the entries
it applies to and its check.  An unknown key, a key that does not apply
and a value outside its key's vocabulary each fail that key's check, with
the key named.  A recorded ``[metric]`` is always checked against the
canonical conformal metric of the system, independent of the keys above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, List, Optional

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


def _check_metric(doc: Document) -> tuple:
    canonical = conformal_metric(doc.system)
    ok = conformal_equal(canonical, doc.metric, system=doc.system)
    return ok, ("recorded metric is conformal to the canonical one" if ok
                else "recorded metric differs from the canonical conformal "
                "metric")


def _check_verdict(doc: Document, want: LaxVerdict) -> tuple:
    lax_report = verify_lax(doc.system, doc.pair)
    if lax_report.verdict is want:
        return True, "verdict %s" % want.name
    witness = lax_report.witness()
    detail = "expected %s, got %s" % (want.name, lax_report.verdict.name)
    if witness is not None:
        detail += " (witness %s = %s)" % witness
    return False, detail


def _flag(test: Callable, yes: str, no: str) -> Callable:
    """The check of a ``true``/``false`` key: ``test(doc)`` against the
    recorded flag, detailed by ``yes`` or ``no``."""
    def check(doc: Document, want: bool) -> tuple:
        got = test(doc)
        return got == want, yes if got else no
    return check


def _check_curvature(doc: Document, want: Optional[Classification]) -> tuple:
    system, metric = doc.system, doc.metric_or_canonical()
    if want is None:
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
    return got is want, "Einstein-Weyl residual is %s" % got.name


def _check_orientation(doc: Document, want: str) -> tuple:
    system, metric = doc.system, doc.metric_or_canonical()
    other = "-" if want == "+" else "+"
    good = sd_residual(system, metric, orientation=want).residual
    bad = sd_residual(system, metric, orientation=other).classify()
    ok = good.is_zero_mod_ideal() and bad is Classification.NONZERO
    return ok, ("self-dual for %r (%s), opposite is %s"
                % (want, good.classify().name, bad.name))


_FLAGS = {"true": True, "false": False}

# each [expect] key, in report order: (vocabulary mapping a recorded value
# to its meaning, the base dimensions it applies to, whether it needs a
# [pair], check)
_KEYS = {
    "verdict": ({v.value: v for v in LaxVerdict}, (3, 4), True,
                _check_verdict),
    "normal": (_FLAGS, (3, 4), True, _flag(
        lambda doc: doc.pair.is_normal(),
        "pair is normal", "pair is not normal")),
    "characteristic": (_FLAGS, (3, 4), True, _flag(
        lambda doc: characteristic_check(doc.pair, doc.system),
        "pair annihilates null covectors of the quadric",
        "pair covectors are not null for the quadric")),
    "conic": (_FLAGS, (3,), True, _flag(
        lambda doc: conic_oracle(doc.coords, doc.pair.alpha, doc.pair.beta),
        "pencil lies on a conic", "pencil is not conic")),
    "curvature": (dict({c.value: c for c in Classification}, none=None),
                  (3,), False, _check_curvature),
    "orientation": ({"+": "+", "-": "-"}, (4,), False, _check_orientation),
}


def _check_key(doc: Document, key: str) -> tuple:
    """The check of one ``[expect]`` key.  A key without a table entry, a
    key that does not apply to the document and a value outside the key's
    vocabulary each raise :class:`DslError` naming the key."""
    if key not in _KEYS:
        raise DslError("[expect] %s is not a known key (known: %s)"
                       % (key, ", ".join(_KEYS)))
    vocabulary, dims, needs_pair, check = _KEYS[key]
    if doc.coords.dim not in dims:
        raise DslError("[expect] %s does not apply with %d base coordinates"
                       % (key, doc.coords.dim))
    if needs_pair and doc.pair is None:
        raise DslError("[expect] %s needs a [pair] section" % key)
    value = doc.expect[key]
    if value not in vocabulary:
        raise DslError("[expect] %s = %r is not one of: %s"
                       % (key, value, ", ".join(vocabulary)))
    return check(doc, vocabulary[value])


def _run(label: str, check: Callable, *args) -> CheckResult:
    try:
        passed, detail = check(*args)
    except LaxweylError as exc:
        passed, detail = False, "%s: %s" % (type(exc).__name__, exc)
    return CheckResult(label, passed, detail)


def verify(name: str, max_order: Optional[int] = None) -> CorpusReport:
    """Replay every expectation recorded in a bundled entry, reducing
    under the jet-order budget ``max_order`` in every check: the recorded
    metric, then one check per ``[expect]`` key, known keys in table order
    and unknown ones after them."""
    doc = parse_document(source(name), max_order=max_order)
    report = CorpusReport(name, doc.title)
    if doc.metric is not None:
        report.checks.append(_run("metric", _check_metric, doc))
    keys = ([k for k in _KEYS if k in doc.expect]
            + [k for k in doc.expect if k not in _KEYS])
    report.checks.extend(_run(key, _check_key, doc, key) for key in keys)
    return report
