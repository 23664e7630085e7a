"""Self-test of the benchmark harness.

    python3 bench/selftest.py

1. Runs every workload once with --seconds 1, untraced and traced, and
   checks that the last line is the result object with exactly the metrics
   BENCHMARK.json names, each with its unit, and no failed op, and that the
   untraced table prints the workload's own metric names.
2. Runs one circle-certify op whose certificate has one witness shift
   changed by one before `verify --cert` reads it, and checks that the
   harness counts that op as failed.
3. Runs the benchmark from a directory holding only BENCHMARK.json and
   bench/, and checks that it exits non-zero without printing a result.
Exits 0 when every check holds.
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402  (sibling module)
import workloads  # noqa: E402

KEYS = {"correct", "attempted", "failed", "metrics"}
# The per-workload names each untraced run prints in its table.
TABLE = {
    "circle-certify": ("compare_s", "verify_s", "birkhoff_check_s"),
    "tower-refine": ("refine_ops_per_s", "refine_op_s.tail"),
    "clopen-batch": ("clopen_ops_per_s", "clopen_op_ms.tail"),
}
SHARED = ("setup_s", "peak_rss_mb", "failed_ops")


def bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics(spec):
    problems = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        for name in workloads.WORKLOADS:
            proc = bench(ROOT, name, trace)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append("%s trace %d printed no result: %s" % (name, trace, proc.stderr[-300:]))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if proc.returncode != 0 or set(result) != KEYS:
                problems.append("%s trace %d: exit %d, keys %s" % (name, trace, proc.returncode, sorted(result)))
            if got != wanted:
                problems.append("%s trace %d: metrics differ from BENCHMARK.json: %s"
                                % (name, trace, sorted(set(got.items()) ^ set(wanted.items()))))
            printed = {line.split()[0] for line in lines[1:-1] if line.startswith("  ")}
            missing = set(TABLE[name] + SHARED) - printed if trace == 0 else set()
            if missing:
                problems.append("%s: table lacks %s" % (name, sorted(missing)))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("%s trace %d: %d of %d ops failed" % (name, trace, result["failed"], result["attempted"]))
            print("%s trace %d: %d metrics, %d ops" % (name, trace, len(got), result["attempted"]))
    return problems


class TamperedCircle(workloads.CircleCertify):
    """The circle op, but verify reads a certificate with one shift moved by one."""

    def run(self, dc, inp):
        steps, outputs = super().run(dc, inp)
        with open(inp["cert"], encoding="utf-8") as fh:
            text = fh.read()
        text = re.sub(r"^shift (-?\d+)$", lambda m: "shift %d" % (int(m.group(1)) + 1),
                      text, count=1, flags=re.M)
        with open(inp["cert"], "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = dc.cli.run(["verify", "--spec", inp["spec"], "--cert", inp["cert"]])
        outputs["verify_s"] = (code, out.getvalue(), err.getvalue())
        return steps, outputs


def check_tampered():
    os.chdir(ROOT)
    workdir = os.path.join(".bench_work", "selftest-%d" % os.getpid())
    try:
        wl = TamperedCircle()
        _, dc, inputs = run.setup(wl, 0, workdir)
        steps, failures = run.run_op(wl, dc, inputs[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("tampered certificate: %s" % "; ".join(failures))
    if not any(f.startswith("verify_s exited 3") for f in failures):
        return ["a certificate with a shift changed by one was not a failed op"]
    return []


def check_bare():
    bare = os.path.join(ROOT, ".bench_work", "bare-%d" % os.getpid())
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "tower-refine", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: exit %d, stdout %d bytes" % (proc.returncode, len(proc.stdout)))
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["without the program the benchmark did not fail cleanly"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_bare() + check_tampered() + check_metrics(spec)
    for line in problems:
        print("FAIL %s" % line)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
