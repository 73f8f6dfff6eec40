"""Run one workload of the sweedler benchmark and print its metrics.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: sweedler is imported from ``src/``.  One
client in one process sends verdicts in a closed loop, the next one as soon
as the last is answered.

Untraced (``--trace 0``): set-up runs several times (a fresh import of
sweedler, then building the workload's pass) and ``setup_s`` is its median.
The pass then runs until ``--seconds`` have passed; when it runs out, the
next pass is built with the clock stopped, so no verdict repeats an earlier
one.  Only the program's half of each verdict is timed, and every output is
checked against its expected answer after the clock stops.  Every time is
corrected for the shared host's speed by ``speed.Speedometer``; the raw
times go to the notes.

Traced (``--trace 1``): the tracer wraps the layers' public functions, set-up
runs once, and exactly one pass runs, so every count it reports is a count
of fixed work.  The spans of the latest traced run go to
``.perfbench/<workload>/spans.gz``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run, with its
environment and every failed verdict, goes to ``.perfbench/<workload>/``.
Exit codes: 0 all verdicts right, 1 a verdict failed, 2 usage error or no
sweedler sources to run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from functools import partial
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SETUP_WINDOW_S, Speedometer, peak_resident_bytes  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 21
SETUP_SLICES = 5  # speed slices timed before each set-up and after the last

FROM_TERMS = "bang.BangElement.from_terms"
ORACLES = ("encodings.church_value_oracle", "encodings.church_derivative_oracle",
           "encodings.bint_oracle", "encodings.mult_derivative_oracle")

# per-layer metrics of the traced run: name -> (unit, value from a Summary).
# Spans are read from the verdict phase unless a metric names another;
# self_pct is self time as a percentage of the whole traced run.
PER_LAYER = {
    "bang.from_terms.calls": ("count", lambda t: t.calls(FROM_TERMS)),
    "bang.from_terms.self_pct": ("%", lambda t: t.self_pct(FROM_TERMS)),
    "bang.from_terms.kets_out": ("count", lambda t: t.counts["bang.from_terms.kets_out"]),
    "bang.from_terms.calls_under_prom":
        ("count", lambda t: t.counts["bang.from_terms.calls_under_prom"]),
    "bang.promote.self_pct": ("%", lambda t: t.self_pct("bang.promote")),
    "bang.coproduct.self_pct": ("%", lambda t: t.self_pct("bang.coproduct")),
    "bang.partitions": ("count", lambda t: t.counts["bang.partitions"]),
    "bang.partitions.under_prom": ("count", lambda t: t.counts["bang.partitions.under_prom"]),
    "bang.subsets": ("count", lambda t: t.counts["bang.subsets"]),
    "semantics.apply_hom.calls": ("count", lambda t: t.calls("semantics.apply_hom")),
    "semantics.apply_hom.per_verdict":
        ("calls/verdict", lambda t: t.calls("semantics.apply_hom") / t.verdicts),
    "semantics.eval.self_pct": ("%", lambda t: t.self_pct(
        "semantics.nl_eval", "semantics.derivative_eval", "semantics.Denotation.eval")),
    "semantics.extensional_equal.self_pct":
        ("%", lambda t: t.self_pct("semantics.extensional_equal")),
    "semantics.rule.Prom.calls": ("count", lambda t: t.calls(tracing.PROM)),
    "semantics.denote_proof.self_pct": ("%", lambda t: t.self_pct("semantics.denote_proof")),
    "setup.semantics.denote_proof.self_pct":
        ("%", lambda t: t.self_pct("semantics.denote_proof", phase="setup")),
    "exact.apply.calls": ("count", lambda t: t.calls("exact.Matrix.apply")),
    "exact.apply.self_pct": ("%", lambda t: t.self_pct("exact.Matrix.apply")),
    "syntax.check_proof.calls": ("count", lambda t: t.calls("syntax.check_proof")),
    "sexpr.parse_proof.self_pct": ("%", lambda t: t.self_pct("sexpr.parse_proof")),
    "cli.main.self_pct": ("%", lambda t: t.self_pct("cli.main")),
    "poly.residue_pairing.calls": ("count", lambda t: t.calls("poly.residue_pairing")),
    "encodings.oracle.self_pct": ("%", lambda t: t.self_pct(*ORACLES, phase="check")),
    **{"%s.self_pct" % layer: ("%", lambda t, layer=layer: t.layer_self_pct(layer))
       for layer in tracing.LAYERS},
    "trace.spans": ("count", lambda t: t.spans),
    "trace.verdicts_per_s": ("1/s", lambda t: t.verdicts / t.busy),
}


# ---------------------------------------------------------------------------
# environment and set-up


def commit_hash(root):
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_at_start": list(os.getloadavg()), "commit": commit_hash(ROOT)}


def fresh_import():
    """Import every sweedler module anew, as a new process would."""
    for name in [n for n in sys.modules if n == "sweedler" or n.startswith("sweedler.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{layer: importlib.import_module("sweedler." + layer)
                              for layer in tracing.LAYERS})


def set_up(workload, seed, workdir, pass_index=0, mods=None):
    mods = mods or fresh_import()
    return mods, workloads.build(workload, mods, seed, os.path.join(workdir, "proofs"),
                                 pass_index)


# ---------------------------------------------------------------------------
# runs


def run_verdict(verdict):
    """The program's half of a verdict: (output, error text or None)."""
    try:
        return verdict.run(), None
    except Exception as e:  # a raising verdict is a failed verdict, not a crash
        return None, "%s: %s\n%s" % (type(e).__name__, e, traceback.format_exc())


def check_verdict(verdict, output):
    try:
        return verdict.check(output)
    except Exception as e:
        return "check raised %s: %s\n%s" % (type(e).__name__, e, traceback.format_exc())


def tail(latencies, pct):
    """Nearest-rank percentile of the latencies and how many lie beyond it."""
    ordered = sorted(latencies)
    idx = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[idx], len(ordered) - idx - 1


def timed_run(workload, seed, seconds, workdir):
    clock = time.perf_counter
    speed = Speedometer()
    spans = []
    mods = verdicts = None
    for _ in range(SETUP_REPS):
        mods = verdicts = None
        gc.collect()
        speed.force(SETUP_SLICES)
        t0 = clock()
        mods, verdicts = set_up(workload, seed, workdir)
        spans.append((t0, clock()))
    speed.force(SETUP_SLICES)
    gc.collect()

    outputs, times = [], []
    start = clock()
    deadline = start + seconds
    passes, i = 1, 0
    end = start
    while end < deadline:
        if i == len(verdicts):
            t0 = clock()
            _, verdicts = set_up(workload, seed, workdir, passes, mods)
            passes, i = passes + 1, 0
            deadline += clock() - t0  # later passes are built off the clock
        verdict = verdicts[i]
        t0 = clock()
        output = run_verdict(verdict)
        end = clock()
        times.append((t0, end))
        outputs.append((passes - 1, i, verdict, output))
        i += 1
        speed.sample()
    speed.force(3)

    failures = []
    for pass_index, n, verdict, (output, error) in outputs:
        error = error or check_verdict(verdict, output)
        if error:
            failures.append({"pass": pass_index, "index": n, "input": verdict.label,
                             "error": error})

    # every time as it would read where a speed slice takes NOMINAL_S; the
    # raw times go to the notes
    raw = [t1 - t0 for t0, t1 in times]
    latencies = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in times]
    raw_setups = [t1 - t0 for t0, t1 in spans]
    setups = [(t1 - t0) * speed.scale(t0, t1, SETUP_WINDOW_S) for t0, t1 in spans]
    pct = workloads.TAIL_PERCENTILE[workload]
    tail_s, beyond = tail(latencies, pct)
    metrics = {
        "verdicts_per_s": (len(latencies) / math.fsum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": ((peak_resident_bytes() - speed.table_bytes) / 2**20, "MB"),
    }
    notes = {"tail_percentile": pct, "tail_samples_beyond": beyond,
             "samples": len(latencies), "pass_length": len(verdicts), "passes": passes,
             "failed_share": len(failures) / len(latencies),
             "raw_verdicts_per_s": len(raw) / math.fsum(raw),
             "raw_latency_p50_ms": statistics.median(raw) * 1e3,
             "raw_latency_tail_ms": tail(raw, pct)[0] * 1e3,
             "raw_setup_s": statistics.median(raw_setups),
             "speed": speed.summary()}
    timeline = {"verdicts": [[t0 - start, t1 - t0] for t0, t1 in times],
                "setups": [[t0 - start, t1 - t0] for t0, t1 in spans],
                "slices": [[t - start, d] for t, d in zip(speed.times, speed.slices)]}
    if beyond < 10:
        print("warning: only %d samples beyond p%g" % (beyond, pct), file=sys.stderr)
    return len(latencies), failures, metrics, notes, timeline


def traced_run(workload, seed, workdir):
    tracer = tracing.Tracer()
    mods = fresh_import()
    tracer.install(mods)
    verdicts = tracer.phase("setup", -1, partial(
        workloads.build, workload, mods, seed, os.path.join(workdir, "proofs")))
    failures = []
    busy = 0.0
    for n, verdict in enumerate(verdicts):
        t0 = time.perf_counter()
        output, error = tracer.phase("verdict", n, partial(run_verdict, verdict))
        busy += time.perf_counter() - t0
        if error is None:
            error = tracer.phase("check", n, partial(check_verdict, verdict, output))
        if error:
            failures.append({"pass": 0, "index": n, "input": verdict.label, "error": error})

    summary = tracing.Summary(tracer, len(verdicts), busy)
    metrics = {name: (value(summary), unit) for name, (unit, value) in PER_LAYER.items()}

    spans_path = os.path.join(workdir, "spans.gz")
    tracer.write(spans_path, {"workload": workload, "seed": seed})
    counts = {m: v for m, (v, unit) in metrics.items() if unit == "count"}
    notes = {"pass_length": len(verdicts), "spans_file": os.path.relpath(spans_path, ROOT),
             "count_drift": compare_counts(workdir, seed, counts)}
    return len(verdicts), failures, metrics, notes, None


def compare_counts(workdir, seed, counts):
    """Counts that differ from the last traced run at this seed, if any.

    A traced pass is fixed work, so every count must repeat exactly; a
    difference exposes order-dependent behaviour such as sorting closures by
    address.  Differences are reported, never dropped.
    """
    path = os.path.join(workdir, "counts-seed%d.json" % seed)
    drift = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        drift = {m: [before.get(m), v] for m, v in counts.items() if before.get(m) != v}
        if drift:
            print("count drift against the last traced run at seed %d: %s"
                  % (seed, json.dumps(drift)), file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    return drift


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "sweedler", "__init__.py")):
        print("error: no sweedler sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    env = environment()
    print("environment: %s" % json.dumps(env))
    workdir = os.path.join(OUT, args.workload)
    os.makedirs(workdir, exist_ok=True)
    if args.trace:
        attempted, failures, metrics, notes, timeline = traced_run(
            args.workload, args.seed, workdir)
    else:
        attempted, failures, metrics, notes, timeline = timed_run(
            args.workload, args.seed, args.seconds, workdir)

    for f in failures:
        print("FAILED %s seed=%d pass=%d: %s\n  %s" % (
            args.workload, args.seed, f["pass"], f["input"],
            f["error"].rstrip().replace("\n", "\n  ")), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    print("notes: %s" % json.dumps(notes))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "attempted": attempted,
              "failed": len(failures), "metrics": {n: v for n, (v, _) in metrics.items()},
              "notes": notes, "failures": failures, "timeline": timeline}
    with open(os.path.join(workdir, "run-seed%d-trace%d.json" % (args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
