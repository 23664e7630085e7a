"""dyncomp benchmark: one seeded closed-loop workload, one client, one thread.

    python3 bench/run.py --workload circle-certify --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
  circle-certify  compare --out, verify --cert, birkhoff --check on a golden spec
  tower-refine    build_tower + refine_tower + column_counts on random partitions
  clopen-batch    clopen_comparison + verify_witness on random odometer sets
  all             the three back to back, printing every metric by name

The program is imported from src/ next to this directory; the seed only
shapes the inputs.  Set-up (import dyncomp, generate inputs, write specs)
is timed SETUP_REPS times and the median reported.  Ops then run back to
back in whole rounds for about --seconds (see go_on), and every op's output
is checked untimed; an op fails if it raises, exits non-zero, prints a
failing verdict, fails its check, or leaves DYNCOMP_BP_CAP set.  Times are
reference seconds (speed.py): wall seconds corrected for how fast the shared
machine ran the reference loop meanwhile.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each input
untraced and then traced (wrappers from tracer.py) and prints the per-layer
metrics, the trace coverage and the tracing overhead; spans are written to
.bench_trace/.  The last stdout line is one JSON object.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 11
BP_CAP = "DYNCOMP_BP_CAP"

import tracer as tracing  # noqa: E402  (sibling modules)
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402


def import_dyncomp():
    """Import dyncomp afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "dyncomp" or m.startswith("dyncomp.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dyncomp")
    cli = importlib.import_module("dyncomp.cli")
    modules = {m: sys.modules[m] for m in sys.modules if m == "dyncomp" or m.startswith("dyncomp.")}
    return SimpleNamespace(pkg=pkg, cli=cli, modules=modules)


def wall(start, end):
    return end - start


def setup(wl, seed, workdir, clock=wall):
    """SETUP_REPS fresh set-ups; returns (median seconds, dc, inputs) of the last."""
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()  # free the previous copy of the package, untimed
        start = perf_counter()
        os.makedirs(workdir)
        dc = import_dyncomp()
        inputs = wl.prepare(dc, seed, workdir)
        times.append(clock(start, perf_counter()))
    gc.collect()
    return statistics.median(times), dc, inputs


def run_op(wl, dc, inp, tr=None):
    """Timed op (traced by tr, if given) plus untimed check; returns
    ({step: (start, end)} or None, failures)."""
    if BP_CAP in os.environ:
        return None, ["%s was set before the op" % BP_CAP]
    try:
        if tr is None:
            steps, result = wl.run(dc, inp)
        else:
            tr.install(dc)
            try:
                steps, result = wl.run(dc, inp)
            finally:
                tr.uninstall()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        steps, failures = None, ["raised %s: %s" % (type(exc).__name__, exc)]
    else:
        try:
            failures = wl.check(dc, inp, result)
        except Exception as exc:
            failures = ["check raised %s: %s" % (type(exc).__name__, exc)]
    if BP_CAP in os.environ:
        failures.append("%s leaked out of the op" % BP_CAP)
        del os.environ[BP_CAP]
    return steps, failures


def quantile(values, q):
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """Highest percentile with at least ten samples beyond it, kept between
    the median and p95.  Above p95 the level would cross into clopen-batch's
    top 1%, its K = 4096 ops, at a run length that depends on machine speed.
    Returns (value, level)."""
    level = min(0.95, max(0.5, 1 - 10 / len(values)))
    return quantile(values, level), level


def go_on(i, round_len, start, seconds):
    """Whether a closed loop starts op i: always the first round, then a
    further round only if, at the mean op time so far, it ends within
    `seconds`.  A run thus holds whole rounds and ends near `seconds`."""
    if i % round_len:
        return True
    elapsed = perf_counter() - start
    return i == 0 or elapsed * (i + round_len) / i <= seconds


def measure(wl, dc, inputs, seconds, clock=wall):
    """Closed loop with one client for `seconds`, ending on a round boundary.
    Returns (attempted, failed, [{step: clock seconds}], failure notes)."""
    ops, failed, notes = [], 0, []
    start = perf_counter()
    i = 0
    while go_on(i, wl.round_len, start, seconds):
        steps, failures = run_op(wl, dc, inputs[i % len(inputs)])
        i += 1
        if failures:
            failed += 1
            notes.extend(failures)
        else:
            ops.append({step: clock(*interval) for step, interval in steps.items()})
    return i, failed, ops, notes


def measure_traced(wl, dc, inputs, seconds, tr):
    """Each input untraced, then traced, in whole rounds as measure() does."""
    attempted, failed, notes = 0, 0, []
    walls, pairs = {}, []
    start = perf_counter()
    i = 0
    while go_on(i, wl.round_len, start, seconds):
        inp = inputs[i % len(inputs)]
        plain, failures = run_op(wl, dc, inp)
        tr.op = i
        traced, traced_failures = run_op(wl, dc, inp, tr)
        for steps, fails in ((plain, failures), (traced, traced_failures)):
            attempted += 1
            if fails:
                failed += 1
                notes.extend(fails)
        if plain and traced:
            walls[i] = sum(wall(*interval) for interval in traced.values())
            pairs.append((sum(wall(*interval) for interval in plain.values()), walls[i]))
        i += 1
    return attempted, failed, walls, pairs, notes


def end_to_end(wl, setup_s, ops, attempted, failed):
    per_op = [sum(steps.values()) for steps in ops] or [float("nan")]
    busy = sum(per_op)
    op_tail, level = tail(per_op)
    metrics = {
        "op_s": (statistics.median(per_op), "s"),
        "op_s.tail": (op_tail, "s"),
        "ops_per_s": (len(ops) / busy if busy else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": ((attempted - failed) / attempted, "share"),
    }
    # The same numbers under the names a reader of each workload looks for.
    named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
             "failed_ops": (failed / attempted, "share")}
    if wl.name == "circle-certify":
        for step in ("compare_s", "verify_s", "birkhoff_check_s"):
            named[step] = (statistics.median(s[step] for s in ops) if ops else float("nan"), "s")
    elif wl.name == "tower-refine":
        named["refine_ops_per_s"] = (metrics["ops_per_s"][0], "ops/s")
        named["refine_op_s.tail"] = (op_tail, "s")
    else:
        named["clopen_ops_per_s"] = (metrics["ops_per_s"][0], "ops/s")
        named["clopen_op_ms.tail"] = (op_tail * 1000, "ms")
    info = "ops %d, tail percentile p%.2f" % (len(ops), 100 * level)
    return metrics, named, info


def run_workload(wl, seed, seconds, trace, workdir):
    if not trace:
        with SpeedProbe() as probe:
            start = perf_counter()
            setup_s, dc, inputs = setup(wl, seed, workdir, probe.seconds)
            attempted, failed, ops, notes = measure(wl, dc, inputs, seconds, probe.seconds)
            slowdown = probe.slowdown(start, perf_counter())
        metrics, named, info = end_to_end(wl, setup_s, ops, attempted, failed)
        info += ", machine %.2fx slower than the reference" % slowdown
        return attempted, failed, metrics, named, info, notes
    _, dc, inputs = setup(wl, seed, workdir)
    tr = tracing.Tracer()
    attempted, failed, walls, pairs, notes = measure_traced(wl, dc, inputs, seconds, tr)
    layer = tracing.layer_metrics(tr, walls)
    if pairs:
        layer["trace.overhead_s"] = statistics.median(t - p for p, t in pairs)
        layer["trace.overhead_share"] = layer["trace.overhead_s"] / statistics.median(p for p, _ in pairs)
    trace_path = os.path.join(ROOT, ".bench_trace", "%s-seed%d.tsv.gz" % (wl.name, seed))
    tr.write(trace_path)
    metrics = {name: (value, tracing.unit(name)) for name, value in layer.items()}
    info = "traced pairs %d, spans written to %s" % (len(pairs), os.path.relpath(trace_path, ROOT))
    return attempted, failed, metrics, metrics, info, notes


def fmt(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dyncomp", "__init__.py")):
        print("bench: no dyncomp sources under %s" % SRC, file=sys.stderr)
        return 2
    if BP_CAP in os.environ:
        print("bench: unset %s first; a cap would change what the ops compute" % BP_CAP,
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("bench: python %s, nproc %d, seed %d, %.0f s per workload, trace %d"
          % (platform.python_version(), os.cpu_count(), args.seed, args.seconds, args.trace))
    attempted = failed = 0
    metrics = {}
    workdir = os.path.join(".bench_work", "run-%d" % os.getpid())
    try:
        for name in names:
            wl = workloads.WORKLOADS[name]()
            a, f, m, named, info, notes = run_workload(wl, args.seed, args.seconds, args.trace, workdir)
            attempted, failed = attempted + a, failed + f
            print("%s: attempted %d, failed %d, %s" % (name, a, f, info))
            for note in notes[:20]:
                print("  failed op: %s" % note)
            for metric, (value, unit) in sorted(named.items()):
                print("  %-28s %14.6g %s" % (metric, value, unit))
            if args.workload == "all":
                metrics.update(("%s/%s" % (name, k), v) for k, v in named.items())
            else:
                metrics.update(m)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(".bench_work") and not os.listdir(".bench_work"):
            os.rmdir(".bench_work")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": fmt(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
