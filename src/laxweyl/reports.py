"""Rendering of workbench results as plain text or JSON payloads.

Expressions can grow large; every rendered expression is passed through
:func:`truncate`, which keeps output bounded but still identifiable (long
strings carry their length and a content hash).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from .conformal import Metric
from .corpus import CorpusReport
from .lax import LaxPair, LaxReport
from .weyl import ResidualTensor, SelfDualityReport, WeylFormSolution

__all__ = [
    "truncate",
    "matrix_rows",
    "metric_payload", "metric_text",
    "lax_payload", "lax_text",
    "pair_payload", "pair_text",
    "residual_payload", "residual_text",
    "sd_payload", "sd_text",
    "weyl_form_payload", "weyl_form_text",
    "corpus_payload", "corpus_text",
]

LIMIT = 200


def truncate(text: str) -> str:
    """Shorten strings past :data:`LIMIT` characters, appending length and a
    stable content hash."""
    if len(text) <= LIMIT:
        return text
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    return "%s... [%d chars, sha256/%s]" % (text[:LIMIT], len(text), digest)


def matrix_rows(matrix) -> List[List[str]]:
    return [[truncate(str(entry)) for entry in row] for row in matrix]


# -- metrics ----------------------------------------------------------------


def metric_payload(metric: Metric) -> Dict:
    return {
        "coordinates": list(metric.coords.base),
        "rows": matrix_rows(metric.matrix),
        "determinant": truncate(str(metric.determinant())),
    }


def metric_text(metric: Metric) -> str:
    lines = ["covariant metric (coordinates %s):"
             % ", ".join(metric.coords.base)]
    for name, row in zip(metric.coords.base, metric.matrix):
        lines.append("  %s: [%s]" % (name, ", ".join(
            truncate(str(entry)) for entry in row)))
    lines.append("  det = %s" % truncate(str(metric.determinant())))
    return "\n".join(lines)


# -- spectral pairs and Frobenius reports -------------------------------------


def pair_payload(pair: LaxPair) -> Dict:
    return {name: truncate(str(c))
            for name, c in pair.coefficients().items()}


def pair_text(pair: LaxPair) -> str:
    return "\n".join("  %-5s = %s" % (name, truncate(str(c)))
                     for name, c in pair.coefficients().items())


def lax_payload(report: LaxReport, characteristic: Optional[bool] = None) -> Dict:
    residuals = {}
    for label in sorted(report.raw):
        raw, reduced = report.raw[label], report.reduced[label]
        entry = {"raw_zero": raw.is_zero(), "reduced_zero": reduced.is_zero()}
        if not raw.is_zero():
            entry["raw"] = truncate(str(raw))
        if not reduced.is_zero():
            entry["reduced"] = truncate(str(reduced))
        residuals[label] = entry
    payload = {
        "verdict": report.verdict.value,
        "normal": report.pair.is_normal(),
        "residuals": residuals,
    }
    if characteristic is not None:
        payload["characteristic"] = characteristic
    return payload


def lax_text(report: LaxReport, characteristic: Optional[bool] = None) -> str:
    lines = ["verdict: %s" % report.verdict.value,
             "normal frame: %s" % ("yes" if report.pair.is_normal() else "no")]
    if characteristic is not None:
        lines.append("characteristic (null mod system): %s"
                     % ("yes" if characteristic else "no"))
    for label in sorted(report.raw):
        raw, reduced = report.raw[label], report.reduced[label]
        if raw.is_zero():
            status = "vanishes identically"
        elif reduced.is_zero():
            status = "vanishes modulo the system"
        else:
            status = "nonzero: %s" % truncate(str(reduced))
        lines.append("  residual %-10s %s" % (label + ":", status))
    return "\n".join(lines)


# -- curvature residuals -------------------------------------------------------


def residual_payload(res: ResidualTensor) -> Dict:
    payload = {"classification": res.classify().value}
    witness = res.witness()
    if witness is not None:
        payload["witness"] = {"component": witness[0],
                              "value": truncate(str(witness[1]))}
    return payload


def residual_text(res: ResidualTensor, label: str) -> str:
    lines = ["%s residual: %s" % (label, res.classify().value)]
    witness = res.witness()
    if witness is not None:
        lines.append("  witness %s = %s"
                     % (witness[0], truncate(str(witness[1]))))
    return "\n".join(lines)


def sd_payload(report: SelfDualityReport) -> Dict:
    payload = residual_payload(report.residual)
    payload["orientation"] = report.orientation
    payload["formal_volume"] = report.formal_pair
    if report.volume_sqrt is not None:
        payload["volume_sqrt"] = truncate(str(report.volume_sqrt))
    return payload


def sd_text(report: SelfDualityReport) -> str:
    lines = [residual_text(report.residual,
                           "self-duality (orientation %s)" % report.orientation)]
    if report.volume_sqrt is not None:
        lines.append("  volume square root: %s"
                     % truncate(str(report.volume_sqrt)))
    else:
        lines.append("  no rational volume square root; "
                     "checked the formal pair of residuals")
    return "\n".join(lines)


def weyl_form_payload(solution: WeylFormSolution, coords) -> Dict:
    return {
        "omega": {name: truncate(str(component))
                  for name, component in zip(coords.base, solution.omega)},
        "unique": solution.unique,
        "family_dim": solution.family_dim,
        "classification": solution.residual.classify().value,
    }


def weyl_form_text(solution: WeylFormSolution, coords) -> str:
    parts = ", ".join("%s: %s" % (name, truncate(str(component)))
                      for name, component in zip(coords.base, solution.omega))
    qualifier = "unique in ansatz" if solution.unique else (
        "%d-parameter family" % solution.family_dim)
    return "covector found (%s)\n  omega = [%s]\n  %s" % (
        qualifier, parts,
        residual_text(solution.residual, "Einstein-Weyl"))


# -- corpus -------------------------------------------------------------------


def corpus_payload(report: CorpusReport) -> Dict:
    return {
        "entry": report.entry,
        "title": report.title,
        "passed": report.passed,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
    }


def corpus_text(report: CorpusReport) -> str:
    head = "%s %s" % ("PASS" if report.passed else "FAIL", report.entry)
    if report.title:
        head += "  (%s)" % report.title
    lines = [head]
    for check in report.checks:
        mark = "+" if check.passed else "!"
        lines.append("  %s %s: %s" % (mark, check.name, check.detail))
    return "\n".join(lines)
