"""laxweyl benchmark: a closed loop of seeded ``.dspec`` documents.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scaled-corpus --seed 1 --seconds 30 --trace 0

One client, one process, no threads: the next document starts when the
previous one has all its verdicts.  Documents come in whole rounds (see
:mod:`workloads`); a new round starts only while half the slowest round so
far still fits in ``--seconds`` of checking time.  Every verdict is
compared with the expectation the generator derived by invariance, and a
document fails on a wrong verdict, an exception or a time-out; ``correct``
is false when any document failed, so documents that stop early cannot
read as a speed-up.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  Their times are scaled to a reference speed of the
machine: before every document the run times a fixed pure-Python
calibration loop (:func:`calibration_loop`), and every time it measures is
multiplied by ``CALIBRATION_REF_S`` over the median of the last few
calibrations.  The speed of this kind of code on a shared machine drifts by
tens of percent between runs; the scaled times do not.  The raw times are
printed above the JSON line.  With ``--trace 1`` the same run is made with the
per-layer wrappers of :mod:`layertrace` installed, the spans are written to
``.bench_out/`` and the JSON carries the per-layer metrics instead.  The
program is imported from ``src/`` of the checkout; without it the command
exits with status 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "laxweyl"
SETUP_TRIALS = 5
DOC_TIME_LIMIT_S = 45.0
CALIBRATION_REF_S = 2.0e-3     # calibration loop time the figures are scaled to
CALIBRATION_WINDOW = 9


class DocTimeout(Exception):
    """A document ran past its time limit."""


def _on_alarm(signum, frame):
    raise DocTimeout("document exceeded %.0f s" % DOC_TIME_LIMIT_S)


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def calibration_loop() -> Fraction:
    """Fixed pure-Python work of the kind the workbench does: Fraction
    arithmetic with growing integers and tuple-keyed dict updates (about
    2 ms)."""
    terms = {}
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 13 + 1, i)
        key = (i % 7, i % 11)
        terms[key] = terms.get(key, 0) + total
    return total


class Speed:
    """The machine's speed over a run, from calibration loops timed between
    the measurements."""

    def __init__(self):
        self.samples = []

    def sample(self) -> int:
        """Time one calibration loop; returns its index."""
        start = time.perf_counter()
        calibration_loop()
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """Factor scaling a time measured right after calibration ``index``
        to the reference speed: the reference over the median of the
        calibrations around it (before and after, so a long document is
        judged by the speed on both sides of it)."""
        half = CALIBRATION_WINDOW // 2
        window = self.samples[max(0, index - half):index + half + 1]
        return CALIBRATION_REF_S / statistics.median(window)


def fresh_import():
    """Import the package from scratch (dropping any earlier import)."""
    for name in [k for k in sys.modules
                 if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE)


def set_up(speed: Speed):
    """A fresh import of the package, several times; returns the last
    import and the median import time (raw and scaled to the reference
    speed)."""
    raw, scaled = [], []
    for _ in range(SETUP_TRIALS):
        before = [speed.sample() for _ in range(2)]
        start = time.perf_counter()
        package = fresh_import()
        elapsed = time.perf_counter() - start
        after = [speed.sample() for _ in range(2)]
        window = [speed.samples[i] for i in before + after]
        raw.append(elapsed)
        scaled.append(elapsed * CALIBRATION_REF_S / statistics.median(window))
    return package, statistics.median(raw), statistics.median(scaled)


def check_round(package, docs, workload, log, tracer=None, speed=None):
    """Check every document of a round; returns per-document records with
    raw times and, when ``speed`` is given, the index of the calibration
    loop timed just before the document."""
    records = []
    for doc in docs:
        record = {"source": doc.source, "kind": doc.kind, "ok": False}
        if speed is not None:
            record["calibration"] = speed.sample()
        if tracer is not None:
            tracer.doc += 1
        signal.setitimer(signal.ITIMER_REAL, DOC_TIME_LIMIT_S)
        start = time.perf_counter()
        try:
            record["times"] = checks.check_document(
                package, doc.text, doc.expect, doc.checks, workload.geometry)
            record["ok"] = True
        except checks.WrongVerdict as exc:
            log("wrong verdict on %s %s: %s" % (doc.source, doc.kind, exc))
        except Exception as exc:  # a failed document must not end the run
            log("%s on %s %s: %s" % (type(exc).__name__, doc.source,
                                     doc.kind, exc))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        record["busy"] = time.perf_counter() - start
        records.append(record)
    return records


def busy(records) -> float:
    return sum(r["busy"] for r in records)


def end_to_end(records, setup_s: float, speed=None) -> dict:
    """End-to-end metrics from the records, with times scaled to the
    reference speed when ``speed`` is given, raw otherwise."""
    factors = [speed.factor(r["calibration"]) if speed else 1.0
               for r in records]
    ok = [(r, f) for r, f in zip(records, factors) if r["ok"]]

    def phase_ms(phase, q):
        xs = [r["times"][phase] * f * 1e3 for r, f in ok if phase in r["times"]]
        return quantile(xs, q)

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checking_s = sum(r["busy"] * f for r, f in zip(records, factors))
    return {
        "docs_per_s": (len(ok) / checking_s, "1/s"),
        "doc_p50_ms": (phase_ms("doc", 0.5), "ms"),
        "doc_p90_ms": (phase_ms("doc", 0.9), "ms"),
        "lax_p50_ms": (phase_ms("lax", 0.5), "ms"),
        "geometry_p50_ms": (phase_ms("geometry", 0.5), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def closed_loop(package, workload, docs, seconds: float, log, speed=None):
    """Check whole rounds, starting a new one only while half the slowest
    round so far still fits in ``seconds`` of checking time (so a run
    checks for ``seconds`` give or take half a round, and a workload whose
    rounds take about half of it runs two rounds, not one or two by
    chance).  Making the next round is not checking time.  Returns the
    records and the rounds of documents checked."""
    records, rounds = [], [docs]
    slowest = checked = 0.0
    while True:
        batch = check_round(package, docs, workload, log, speed=speed)
        records += batch
        spent = busy(batch)
        slowest = max(slowest, spent)
        checked += spent
        if checked + slowest / 2 > seconds:
            return records, rounds
        docs = workload.round(len(rounds))
        rounds.append(docs)


def traced_run(package, workload, docs, args, log):
    """Check rounds untraced for a third of the time, then the same rounds
    again with the wrappers installed; the difference in checking time per
    document is ``trace.overhead_s``."""
    import layertrace
    check_round(package, docs[:1], workload, log)     # warm-up
    reference, rounds = closed_loop(package, workload, docs,
                                    args.seconds / 3, log)
    tracer = layertrace.Tracer(package)
    tracer.install()
    try:
        records = []
        for batch in rounds:
            records += check_round(package, batch, workload, log, tracer)
    finally:
        tracer.uninstall()
    overhead_s = (busy(records) - busy(reference)) / len(records)
    values = tracer.metrics(len(records), overhead_s)
    units = dict(layertrace.LAYER_METRICS)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("trace-%s-%d.json" % (args.workload, args.seed))
    tracer.write(str(path), {"workload": args.workload, "seed": args.seed,
                             "documents": len(records), "rounds": len(rounds)})
    return records, rounds, {k: {"value": v, "unit": units[k]}
                             for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        log("error: %s not found; run from the root of a laxweyl checkout"
            % (SRC / PACKAGE))
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        log("error: unknown workload %r (have: %s)"
            % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    speed = Speed()
    package, setup_raw, setup_s = set_up(speed)
    origin = Path(package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        log("error: imported %s from %s, not from %s" % (PACKAGE, origin, SRC))
        return 2
    start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    docs = workload.round(0)
    print("first round made in %.3f s" % (time.perf_counter() - start))

    if args.trace:
        records, rounds, metrics = traced_run(package, workload, docs, args,
                                              log)
    else:
        records, rounds = closed_loop(package, workload, docs, args.seconds,
                                      log, speed)
        if not any(r["ok"] for r in records):
            log("error: no document passed; no metrics")
            return 1
        raw = end_to_end(records, setup_raw)
        print("raw times (median calibration loop %.4f ms):"
              % (statistics.median(speed.samples) * 1e3))
        for name, (value, unit) in raw.items():
            print("  %-28s %14.6g %s" % (name, value, unit))
        print("scaled to a %.1f ms calibration loop:"
              % (CALIBRATION_REF_S * 1e3))
        metrics = {k: {"value": v, "unit": u} for k, (v, u)
                   in end_to_end(records, setup_s, speed).items()}

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    report_classes(records, log)
    for name, m in metrics.items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("documents: %d attempted, %d failed, %d rounds"
          % (attempted, failed, len(rounds)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report_classes(records, log) -> None:
    """Raw latencies per document class (source, kind), cheapest first, on
    standard error: where the medians and the 90th percentile fall."""
    groups = {}
    for r in records:
        if r["ok"]:
            groups.setdefault((r["source"], r["kind"]), []).append(r["times"])
    rows = []
    for (source, kind), times in groups.items():
        cols = []
        for phase in ("doc", "lax", "geometry"):
            xs = [t[phase] * 1e3 for t in times if phase in t]
            cols.append("%s=%8.1f [%8.1f, %8.1f]" % (
                phase, statistics.median(xs), min(xs), max(xs))
                if xs else "%s=%30s" % (phase, "-"))
        rows.append((statistics.median(t["doc"] for t in times),
                     "  %-20s %-10s n=%-4d %s" % (source, kind, len(times),
                                                  "  ".join(cols))))
    for _, line in sorted(rows):
        log(line)


if __name__ == "__main__":
    sys.exit(main())
