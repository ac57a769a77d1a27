"""Independent cross-check of sampled benchmark documents with ``sympy``.

Usage (from the root of a checkout)::

    python3 perfbench/crosscheck.py [--workload NAME ...]

For a seeded sample of each workload's documents (one of every class,
drawn from the first two rounds of seed 1, outside any timed loop) this
recomputes, in ``sympy`` and from the document text alone:

* the raw commutator residuals of ``[X, Y]`` (horizontal slots and the
  ``d/dlam`` slot), compared with ``LaxReport.raw`` from ``verify_lax``;
* proportionality of the document's metric (the generator's image of the
  recorded metric) and ``conformal_metric`` of the system, by vanishing of
  every 2x2 minor of their component vectors.

Exit status 0 when every comparison agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def raw_residuals(sp, pair: dict) -> dict:
    """``[X, Y]`` slots of a positional pair, keyed like ``LaxReport.raw``."""
    import symgen
    x = lambda f: symgen.frame_action(sp, pair, "x", f)
    y = lambda f: symgen.frame_action(sp, pair, "y", f)
    base = sp.base
    if len(base) == 3:
        out = {"h_" + base[2]: y(pair["alpha"]) - x(pair["beta"])}
    else:
        out = {"h_" + base[2]: y(pair["alpha"]) - x(pair["gamma"]),
               "h_" + base[3]: y(pair["beta"]) - x(pair["delta"])}
    out["vertical"] = x(pair["n"]) - y(pair["m"])
    return out


def proportional(a, b) -> bool:
    ca = [e for row_i, row in enumerate(a) for e in row[row_i:]]
    cb = [e for row_i, row in enumerate(b) for e in row[row_i:]]
    return all(ca[i] * cb[j] == ca[j] * cb[i]
               for i in range(len(ca)) for j in range(i + 1, len(ca)))


def check(lw, doc) -> list:
    """Disagreements between laxweyl and sympy on one document."""
    import symgen
    # one order of jets above the document's, for the total derivatives
    sp, _, pair, metric, _ = symgen.parse_system(symgen.read_system(doc.text),
                                                 extra=1)
    parsed = lw.parse_document(doc.text)
    problems = []
    if pair:
        report = lw.verify_lax(parsed.system, parsed.pair)
        mine = raw_residuals(sp, pair)
        if set(mine) != set(report.raw):
            problems.append("residual slots %s vs %s"
                            % (sorted(mine), sorted(report.raw)))
        for key in sorted(set(mine) & set(report.raw)):
            if mine[key] != sp.parse(str(report.raw[key])):
                problems.append("raw residual %s differs" % key)
    if metric:
        g = lw.conformal_metric(parsed.system)
        theirs = [[sp.parse(str(e)) for e in row] for row in g.matrix]
        if not proportional(metric, theirs):
            problems.append("conformal_metric is not proportional to the "
                            "transformed recorded metric")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import laxweyl
    import workloads
    names = args.workload or list(workloads.WORKLOADS)
    bad = 0
    for name in names:
        wl = workloads.WORKLOADS[name](1)
        classes = {}
        for doc in wl.round(0) + wl.round(1):
            classes.setdefault((doc.source, doc.kind), []).append(doc)
        rng = random.Random("crosscheck:%s" % name)
        sample = [rng.choice(group) for group in classes.values()]
        for doc in sample:
            start = time.perf_counter()
            problems = check(laxweyl, doc)
            bad += bool(problems)
            print("%-4s %-14s %-20s %-10s %6.1f s %s" % (
                "ok" if not problems else "FAIL", name, doc.source, doc.kind,
                time.perf_counter() - start, "; ".join(problems)), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
