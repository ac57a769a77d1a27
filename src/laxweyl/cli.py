"""The ``laxweyl`` command-line interface.

Commands operate on ``.dspec`` documents (see :mod:`laxweyl.dsl`)::

    laxweyl symbol FILE                 characteristic polynomial and quadric
    laxweyl metric FILE [--sample]      canonical conformal metric
    laxweyl lax verify FILE             Frobenius test of the recorded pair
    laxweyl lax normalize FILE          normalize the recorded pair
    laxweyl lax recover-metric FILE     conformal metric from the pair alone
    laxweyl ew check FILE               Einstein-Weyl residual (3 coordinates)
    laxweyl sd check FILE               self-duality residual (4 coordinates)
    laxweyl corpus list                 bundled examples
    laxweyl corpus verify NAME | --all  replay recorded expectations

Exit codes: 0 when the command ran and the checked property holds, 1 when it
ran and the property fails (a non-integrable pair, a nonzero residual, a
failing corpus entry), 2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional, Tuple

from . import corpus as corpus_module
from . import reports
from .conformal import (characteristic_polynomial, characteristic_quadric,
                        conformal_equal, conformal_metric, signature_at)
from .dsl import Document, parse_document, parse_expression
from .errors import (LaxweylError, NoSolution, NonUnique, NotAQuadric,
                     DegenerateQuadric, SingularSample, PoleAtSample)
from .lax import LaxVerdict, characteristic_check, recover_metric, verify_lax
from .weyl import ew_residual, sd_residual, solve_weyl_form

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

_Outcome = Tuple[int, Dict, str]   # exit code, json payload, text rendering


def _read_document(args) -> Document:
    """Parse the command's document; its system reduces under the
    ``--max-order`` budget."""
    if args.file == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.file).read_text(encoding="utf-8")
    return parse_document(text, max_order=args.max_order)


def _require_pair(doc: Document) -> None:
    if doc.pair is None:
        raise LaxweylError("the document has no [pair] section")


def _document_metric(doc: Document):
    if doc.metric is not None:
        return doc.metric
    return conformal_metric(doc.system)


def _verdict_exit(verdict: LaxVerdict) -> int:
    return EXIT_OK if verdict is LaxVerdict.LAX_PAIR else EXIT_NEGATIVE


# -- commands -----------------------------------------------------------------


def _cmd_symbol(args) -> _Outcome:
    doc = _read_document(args)
    poly = characteristic_polynomial(doc.system)
    payload: Dict = {
        "characteristic_polynomial": reports.truncate(str(poly)),
        "coordinates": list(doc.coords.base),
    }
    lines = ["characteristic polynomial: %s" % reports.truncate(str(poly))]
    try:
        quadric = characteristic_quadric(doc.system)
    except (NotAQuadric, DegenerateQuadric) as exc:
        payload["quadric"] = None
        payload["note"] = str(exc)
        lines.append("no null quadric: %s" % exc)
    else:
        payload["quadric"] = reports.matrix_rows(quadric.matrix)
        lines.append("null quadric (covector coefficients):")
        for name, row in zip(doc.coords.base, quadric.matrix):
            lines.append("  %s: [%s]" % (name, ", ".join(
                reports.truncate(str(e)) for e in row)))
    return EXIT_OK, payload, "\n".join(lines)


def _sample_signature(metric, system, seed: int) -> Tuple[Dict[str, str], Tuple[int, int]]:
    rng = random.Random(seed)
    names = set()
    for row in metric.matrix:
        for entry in row:
            names.update(system.reduce(entry).vars())
    names = sorted(names)
    for _ in range(64):
        point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for v in names}
        try:
            sig = signature_at(metric, point, system=system)
        except (SingularSample, PoleAtSample):
            continue
        return {v.name: str(point[v]) for v in names}, sig
    raise SingularSample("no nonsingular sample point found in 64 draws")


def _cmd_metric(args) -> _Outcome:
    doc = _read_document(args)
    canonical = conformal_metric(doc.system)
    payload = reports.metric_payload(canonical)
    lines = [reports.metric_text(canonical)]
    code = EXIT_OK
    if doc.metric is not None:
        matches = conformal_equal(canonical, doc.metric, system=doc.system)
        payload["matches_recorded"] = matches
        lines.append("recorded metric: %s" % (
            "conformal to the canonical one" if matches else "MISMATCH"))
        if not matches:
            code = EXIT_NEGATIVE
    if args.sample:
        point, sig = _sample_signature(canonical, doc.system, args.seed)
        payload["sample"] = point
        payload["signature"] = list(sig)
        lines.append("signature at a random sample: (%d, %d)" % sig)
    return code, payload, "\n".join(lines)


def _cmd_lax_verify(args) -> _Outcome:
    doc = _read_document(args)
    _require_pair(doc)
    report = verify_lax(doc.system, doc.pair)
    characteristic = characteristic_check(doc.pair, doc.system)
    return (_verdict_exit(report.verdict),
            reports.lax_payload(report, characteristic=characteristic),
            reports.lax_text(report, characteristic=characteristic))


def _cmd_lax_normalize(args) -> _Outcome:
    doc = _read_document(args)
    _require_pair(doc)
    normalized = doc.pair.normalize(doc.system)
    if args.shift:
        shift = parse_expression(args.shift, doc.coords)
        normalized = normalized.shift_spectral(shift)
    report = verify_lax(doc.system, normalized)
    payload = {"pair": reports.pair_payload(normalized),
               "verdict": report.verdict.value,
               "normal": normalized.is_normal()}
    text = "normalized pair:\n%s\nverdict: %s" % (
        reports.pair_text(normalized), report.verdict.value)
    return _verdict_exit(report.verdict), payload, text


def _cmd_lax_recover_metric(args) -> _Outcome:
    doc = _read_document(args)
    _require_pair(doc)
    try:
        metric = recover_metric(doc.pair, system=doc.system)
    except (NoSolution, NonUnique) as exc:
        payload = {"recovered": False, "reason": str(exc)}
        return EXIT_NEGATIVE, payload, "no metric recovered: %s" % exc
    payload = reports.metric_payload(metric)
    payload["recovered"] = True
    lines = [reports.metric_text(metric)]
    code = EXIT_OK
    canonical = conformal_metric(doc.system)
    matches = conformal_equal(metric, canonical, system=doc.system)
    payload["matches_canonical"] = matches
    lines.append("canonical metric: %s" % (
        "conformal to the recovered one" if matches else "MISMATCH"))
    if not matches:
        code = EXIT_NEGATIVE
    return code, payload, "\n".join(lines)


def _cmd_ew_check(args) -> _Outcome:
    doc = _read_document(args)
    if doc.coords.dim != 3:
        raise LaxweylError("the Einstein-Weyl check needs three base "
                           "coordinates")
    metric = _document_metric(doc)
    payload: Dict = {}
    lines = []
    if doc.omega is not None and not args.solve_omega:
        omega = doc.omega
        lines.append("using the recorded covector")
    else:
        try:
            solution = solve_weyl_form(doc.system, metric=metric)
        except NoSolution as exc:
            payload = {"classification": "no-covector", "reason": str(exc),
                       "diagnostics": {
                           k: v for k, v in (exc.diagnostics or {}).items()
                           if isinstance(v, (str, int, list))}}
            return (EXIT_NEGATIVE, payload,
                    "no rational covector found: %s" % exc)
        omega = solution.omega
        payload["covector"] = reports.weyl_form_payload(solution, doc.coords)
        lines.append(reports.weyl_form_text(solution, doc.coords))
    residual = ew_residual(doc.system, metric, omega)
    payload.update(reports.residual_payload(residual))
    lines.append(reports.residual_text(residual, "Einstein-Weyl"))
    code = EXIT_OK if residual.is_zero_mod_ideal() else EXIT_NEGATIVE
    return code, payload, "\n".join(lines)


def _cmd_sd_check(args) -> _Outcome:
    doc = _read_document(args)
    if doc.coords.dim != 4:
        raise LaxweylError("the self-duality check needs four base "
                           "coordinates")
    metric = _document_metric(doc)
    report = sd_residual(doc.system, metric, orientation=args.orientation)
    code = (EXIT_OK if report.residual.is_zero_mod_ideal()
            else EXIT_NEGATIVE)
    return code, reports.sd_payload(report), reports.sd_text(report)


def _cmd_corpus_list(args) -> _Outcome:
    entries = []
    lines = []
    for name in corpus_module.available():
        doc = corpus_module.load(name)
        entries.append({"name": name, "title": doc.title})
        lines.append("%-20s %s" % (name, doc.title or ""))
    return EXIT_OK, {"entries": entries}, "\n".join(lines)


def _cmd_corpus_verify(args) -> _Outcome:
    if bool(args.name) == bool(args.all):
        raise LaxweylError("give exactly one of an entry name or --all")
    names = corpus_module.available() if args.all else (args.name,)
    if args.name and args.name not in corpus_module.available():
        raise LaxweylError("no corpus entry named %r (have: %s)"
                           % (args.name, ", ".join(corpus_module.available())))
    results = [corpus_module.verify(name, max_order=args.max_order)
               for name in names]
    payload = {"reports": [reports.corpus_payload(r) for r in results],
               "passed": all(r.passed for r in results)}
    text = "\n".join(reports.corpus_text(r) for r in results)
    code = EXIT_OK if payload["passed"] else EXIT_NEGATIVE
    return code, payload, text


# -- wiring ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output rendering (default: text)")
    budgeted = argparse.ArgumentParser(add_help=False, parents=[common])
    budgeted.add_argument("--max-order", type=int, default=None, metavar="N",
                          help="reduction budget: refuse to prolong equations "
                               "past jet order N")

    parser = argparse.ArgumentParser(
        prog="laxweyl",
        description="Exact workbench for dispersionless Lax pairs and "
                    "Einstein-Weyl / self-dual conformal structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symbol", parents=[budgeted],
                       help="characteristic polynomial and null quadric")
    p.add_argument("file", help=".dspec document ('-' for stdin)")
    p.set_defaults(handler=_cmd_symbol)

    p = sub.add_parser("metric", parents=[budgeted],
                       help="canonical conformal metric")
    p.add_argument("file", help=".dspec document ('-' for stdin)")
    p.add_argument("--sample", action="store_true",
                   help="also print the signature at a random rational "
                        "sample point")
    p.add_argument("--seed", type=int, default=0, metavar="N",
                   help="seed for --sample (default: 0)")
    p.set_defaults(handler=_cmd_metric)

    lax = sub.add_parser("lax", help="spectral-pair commands")
    lax_sub = lax.add_subparsers(dest="subcommand", required=True)

    p = lax_sub.add_parser("verify", parents=[budgeted],
                           help="Frobenius test of the recorded pair")
    p.add_argument("file", help=".dspec document ('-' for stdin)")
    p.set_defaults(handler=_cmd_lax_verify)

    p = lax_sub.add_parser("normalize", parents=[budgeted],
                           help="normalize the recorded pair, optionally "
                                "shifting the spectral parameter")
    p.add_argument("file", help=".dspec document ('-' for stdin)")
    p.add_argument("--shift", metavar="EXPR", default=None,
                   help="shift the spectral parameter by EXPR afterwards")
    p.set_defaults(handler=_cmd_lax_normalize)

    p = lax_sub.add_parser("recover-metric", parents=[budgeted],
                           help="recover the conformal metric from the "
                                "pair alone")
    p.add_argument("file", help=".dspec document ('-' for stdin)")
    p.set_defaults(handler=_cmd_lax_recover_metric)

    ew = sub.add_parser("ew", help="Einstein-Weyl commands")
    ew_sub = ew.add_subparsers(dest="subcommand", required=True)
    p = ew_sub.add_parser("check", parents=[budgeted],
                          help="Einstein-Weyl residual of the canonical "
                               "structure")
    p.add_argument("file", help=".dspec document ('-' for stdin)")
    p.add_argument("--solve-omega", action="store_true",
                   help="search for the covector even when the document "
                        "records one")
    p.set_defaults(handler=_cmd_ew_check)

    sd = sub.add_parser("sd", help="self-duality commands")
    sd_sub = sd.add_subparsers(dest="subcommand", required=True)
    p = sd_sub.add_parser("check", parents=[budgeted],
                          help="self-duality residual of the canonical "
                               "structure")
    p.add_argument("file", help=".dspec document ('-' for stdin)")
    p.add_argument("--orientation", choices=("+", "-"), default="+",
                   help="orientation of the duality star (default: +)")
    p.set_defaults(handler=_cmd_sd_check)

    corpus = sub.add_parser("corpus", help="bundled examples")
    corpus_sub = corpus.add_subparsers(dest="subcommand", required=True)
    p = corpus_sub.add_parser("list", parents=[common],
                              help="list the bundled entries")
    p.set_defaults(handler=_cmd_corpus_list)
    p = corpus_sub.add_parser("verify", parents=[budgeted],
                              help="replay the recorded expectations")
    p.add_argument("name", nargs="?", default=None,
                   help="entry name (see 'laxweyl corpus list')")
    p.add_argument("--all", action="store_true",
                   help="verify every bundled entry")
    p.set_defaults(handler=_cmd_corpus_verify)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, text = args.handler(args)
    except (LaxweylError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    if args.format == "json":
        payload["exit_code"] = code
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
