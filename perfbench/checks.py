"""Per-document verdict checks: from ``.dspec`` text to every verdict.

:func:`check_document` parses one generated document with ``laxweyl`` and
runs the checks its workload names, comparing each verdict with the
expectation the generator derived.  It returns the phase times the
end-to-end metrics are built from.  The package is passed in as a module,
so the caller decides when (and how often) it is imported.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

# check names, in the order they run
LAX = "lax"                  # verify_lax verdict
NORMAL = "normal"            # LaxPair.is_normal
CHARACTERISTIC = "characteristic"
CONIC = "conic"              # conic_oracle
MONGE = "monge"              # monge_invariant agrees with the conic verdict
METRIC = "metric"            # conformal_metric vs the transformed metric
SOLVE = "solve"              # solve_weyl_form
EW = "ew"                    # ew_residual with the transformed covector
SD = "sd"                    # sd_residual in both orientations
RECOVER = "recover"          # recover_metric + conformal_equal


class WrongVerdict(Exception):
    """A check disagreed with the document's expected verdict."""


def _want(flag: str) -> bool:
    return flag.strip().lower() == "true"


def check_document(lw, text: str, expect: Dict[str, str],
                   checks: Tuple[str, ...],
                   geometry_checks: Tuple[str, ...]) -> Dict[str, float]:
    """Run every check of one document; raise :class:`WrongVerdict` on a
    disagreement.  Returns ``{"doc", "lax", "geometry"}`` durations in
    seconds: ``lax`` is parsing plus ``verify_lax``, ``geometry`` the sum
    of the checks named in ``geometry_checks``; absent phases are
    missing."""
    clock = time.perf_counter
    start = clock()
    doc = lw.parse_document(text)
    parsed = clock()
    system, pair, coords = doc.system, doc.pair, doc.coords
    times: Dict[str, float] = {}
    geometry = 0.0
    canonical = None

    def fail(what: str, got, want) -> None:
        raise WrongVerdict("%s: got %s, expected %s" % (what, got, want))

    for check in checks:
        t0 = clock()
        if check == LAX:
            verdict = lw.verify_lax(system, pair).verdict.value
            if verdict != expect["verdict"]:
                fail("verify_lax", verdict, expect["verdict"])
            times["lax"] = (parsed - start) + (clock() - t0)
        elif check == NORMAL:
            got = pair.is_normal()
            if got != _want(expect["normal"]):
                fail("is_normal", got, expect["normal"])
        elif check == CHARACTERISTIC:
            got = lw.characteristic_check(pair, system)
            if got != _want(expect["characteristic"]):
                fail("characteristic_check", got, expect["characteristic"])
        elif check == CONIC:
            got = lw.conic_oracle(coords, pair.alpha, pair.beta)
            if got != _want(expect["conic"]):
                fail("conic_oracle", got, expect["conic"])
        elif check == MONGE:
            got = lw.monge_invariant(coords, pair.alpha, pair.beta).is_zero()
            if got != _want(expect["conic"]):
                fail("monge_invariant vanishes", got, expect["conic"])
        elif check == METRIC:
            canonical = lw.conformal_metric(system)
            if not lw.conformal_equal(canonical, doc.metric, system=system):
                fail("conformal_metric", "not conformal to the transformed "
                     "recorded metric", "conformal")
        elif check == SOLVE:
            want = expect["curvature"]
            try:
                solution = lw.solve_weyl_form(system, metric=canonical)
            except lw.NoSolution:
                if want != "none":
                    fail("solve_weyl_form", "NoSolution", want)
            else:
                got = solution.residual.classify().value
                if got != want:
                    fail("solve_weyl_form", got, want)
        elif check == EW:
            got = lw.ew_residual(system, doc.metric, doc.omega).classify().value
            if got != expect["curvature"]:
                fail("ew_residual", got, expect["curvature"])
        elif check == SD:
            want = expect["orientation"]
            for orientation in ("+", "-"):
                got = lw.sd_residual(system, doc.metric,
                                     orientation=orientation).classify().value
                vanishes = got in ("zero-mod-ideal", "identically-zero")
                if vanishes != (orientation == want):
                    fail("sd_residual(%s)" % orientation, got,
                         "vanishing" if orientation == want else "nonzero")
        elif check == RECOVER:
            recovered = lw.recover_metric(pair, system)
            if not lw.conformal_equal(recovered, doc.metric, system=system):
                fail("recover_metric", "not conformal to the transformed "
                     "recorded metric", "conformal")
        else:
            raise ValueError("unknown check %r" % check)
        if check in geometry_checks:
            geometry += clock() - t0
    times["doc"] = clock() - start
    if any(c in geometry_checks for c in checks):
        times["geometry"] = geometry
    return times
