"""The three workloads: seeded inputs, one timed op, and an untimed check.

Each workload has
  prepare(dc, seed, workdir) -> list of op inputs (plain data and spec files),
  run(dc, inp)               -> ({step: (start, end)}, result), the timed part,
  check(dc, inp, result)     -> list of failure strings, untimed,
and `round_len`: a run stops only after a whole round of ops, so every run
holds the same mix of op kinds.  Ops call the program only through
`dyncomp.cli.run` and public names of the `dyncomp` package, looked up at
call time so the tracer's wrappers see them.
"""

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

VERDICTS = (
    "verdict pass ranges within [0, 1]",
    "verdict pass sums to 1 on the closed set",
    "verdict pass translated supports pairwise disjoint",
    "verdict pass translated supports inside the open set",
)


def sha256(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# -- circle-certify


README_SPEC = """# golden rotation, a closed arc C and a fatter open arc U
system circle
  field 5
  theta -1 1 2
end

region C
  piece 0 0 1 1 0 5 closed closed
end

region U
  piece 3 0 10 6 0 10 open open
end
"""
GOLDEN_SYSTEM = "system circle\n  field 5\n  theta -1 1 2\nend\n"
# C closed with length 1/5, U open with length 3/10, 1/10 apart; the
# Birkhoff pair F = [0, 1/10], E = (3/10, 6/10).  This shape fixes N0 = 32
# and the tower heights; other shapes cost two to thirty times as much.
ARCS = (
    ("C", Fraction(0), Fraction(1, 5), "closed"),
    ("U", Fraction(3, 10), Fraction(6, 10), "open"),
    ("F", Fraction(0), Fraction(1, 10), "closed"),
    ("E", Fraction(3, 10), Fraction(6, 10), "open"),
)
GRID = 40


def circle_spec(k):
    """The golden-family spec rotated by k/40; k = 0 is the README spec
    verbatim plus the Birkhoff pair.  No params block, so no bp-cap."""
    shift = Fraction(k, GRID)
    blocks = [README_SPEC if k == 0 else GOLDEN_SYSTEM]
    for name, lo, hi, kind in ARCS:
        if k == 0 and name in ("C", "U"):
            continue
        lo, hi = lo + shift, hi + shift
        if lo >= 1:
            lo, hi = lo - 1, hi - 1
        blocks.append(
            "\nregion %s\n  piece %d 0 %d %d 0 %d %s %s\nend\n"
            % (name, lo.numerator, lo.denominator, hi.numerator, hi.denominator, kind, kind)
        )
    return "".join(blocks)


def _load_pins():
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


class CircleCertify:
    """compare --out, verify --cert and birkhoff --check on one spec."""

    name = "circle-certify"
    # One op takes 25-35 s, so a run holds one op on one spec.  Its cost
    # depends on the offset, through where the arcs sit against the tower
    # base at 0: 23 to 35 s across the 40 offsets on a 2-core host.
    round_len = 1

    def __init__(self):
        self.pins = _load_pins()["circle-certify"]

    def prepare(self, dc, seed, workdir):
        k = 0 if seed == 0 else random.Random(seed).randrange(GRID)
        spec = os.path.join(workdir, "circle-%02d.spec" % k)
        with open(spec, "w", encoding="utf-8") as fh:
            fh.write(circle_spec(k))
        return [{"k": k, "spec": spec, "cert": spec[:-5] + ".cert"}]

    def run(self, dc, inp):
        if os.path.exists(inp["cert"]):
            os.remove(inp["cert"])
        steps, outputs = {}, {}
        for step, argv in (
            ("compare_s", ["compare", "--spec", inp["spec"], "--out", inp["cert"]]),
            ("verify_s", ["verify", "--spec", inp["spec"], "--cert", inp["cert"]]),
            ("birkhoff_check_s", ["birkhoff", "--spec", inp["spec"], "--check"]),
        ):
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                code = dc.cli.run(argv)
            steps[step] = (start, perf_counter())
            outputs[step] = (code, out.getvalue(), err.getvalue())
        return steps, outputs

    def check(self, dc, inp, outputs):
        failures = []
        for step, (code, out, err) in outputs.items():
            if code != 0:
                failures.append("%s exited %d: %s" % (step, code, err.strip()[:200]))
            if any(line.startswith(("fail", "verdict fail", "mismatch"))
                   for line in out.splitlines()):
                failures.append("%s printed a failing verdict" % step)
        compare_out = outputs["compare_s"][1]
        body, _, wrote = compare_out.rpartition("wrote ")
        if wrote.strip() != inp["cert"]:
            failures.append("compare did not write the certificate")
        verify_lines = outputs["verify_s"][1].splitlines()
        if tuple(verify_lines) != VERDICTS:
            failures.append("verify did not pass all four clauses")
        if not outputs["birkhoff_check_s"][1].endswith("checked N1 N1+1 2*N1\n"):
            failures.append("birkhoff --check did not check its windows")
        pin = self.pins.get(str(inp["k"]))
        if pin is not None:
            cert = b""
            if os.path.exists(inp["cert"]):
                with open(inp["cert"], "rb") as fh:
                    cert = fh.read()
            if sha256(body) != pin["compare"]:
                failures.append("compare stdout differs from the pinned digest")
            if sha256(cert) != pin["cert"]:
                failures.append("certificate bytes differ from the pinned digest")
            if sha256(outputs["birkhoff_check_s"][1]) != pin["birkhoff"]:
                failures.append("birkhoff stdout differs from the pinned digest")
        return failures


# -- tower-refine


class TowerRefine:
    """build_tower over a disjoint base, refine_tower against a random
    partition on a 1/96 grid, then column_counts per part (`dyncomp refine`)."""

    name = "tower-refine"
    # A round is one op for each base size N = 3..10 in seeded order.  Op
    # cost grows with the tallest column (34 for N <= 4, 55 up to N = 7,
    # then 89) and with the number of parts m, so m falls as N grows and op
    # costs stay within about a factor of two; the seed draws the six cut
    # points and which part owns each arc.
    round_len = 8
    POOL_ROUNDS = 40
    CUTS = 6

    def prepare(self, dc, seed, workdir):
        rng = random.Random(seed)
        inputs = []
        for _ in range(self.POOL_ROUNDS):
            sizes = list(range(3, 11))
            rng.shuffle(sizes)
            for n in sizes:
                m = 4 if n <= 4 else 3 if n <= 7 else 2
                cuts = sorted(rng.sample(range(96), self.CUTS))
                owners = list(range(m)) + [rng.randrange(m) for _ in range(self.CUTS - m)]
                rng.shuffle(owners)
                inputs.append({"n": n, "m": m, "cuts": cuts, "owners": owners})
        return inputs

    def run(self, dc, inp):
        pkg = dc.pkg
        start = perf_counter()
        R = pkg.ExactScalar.rational
        system = pkg.CircleRotation(pkg.golden_theta())
        cuts, m = inp["cuts"], inp["m"]
        arcs = [(R(cuts[i], 96), R(cuts[(i + 1) % len(cuts)], 96) + (1 if i + 1 == len(cuts) else 0))
                for i in range(len(cuts))]
        parts = [
            pkg.Region(system, [(lo, hi, True, True)
                                for (lo, hi), o in zip(arcs, inp["owners"]) if o == p])
            for p in range(m)
        ]
        tower = pkg.build_tower(system, pkg.disjoint_base(system, inp["n"]))
        refined = pkg.refine_tower(tower, parts)
        counts = [pkg.column_counts(refined, p) for p in parts]
        return {"op_s": (start, perf_counter())}, (parts, refined, counts)

    def check(self, dc, inp, result):
        parts, refined, counts = result
        levels = 0
        for _, _, level in refined.open_levels():
            if level.is_empty:
                continue
            levels += 1
            owners = sum(1 for p in parts if p.contains_region(level))
            if owners != 1:
                return ["an open level lies in %d parts" % owners]
        counted = sum(len(c) for per_part in counts for c in per_part)
        if counted != levels:
            return ["column_counts found %d levels, the tower has %d" % (counted, levels)]
        return []


# -- clopen-batch


def factor_bases(K):
    bases, n, d = [], K, 2
    while n > 1:
        while n % d == 0:
            bases.append(d)
            n //= d
        d += 1
    return bases


class ClopenBatch:
    """clopen_comparison then verify_witness (`dyncomp clopen-compare`) on
    random cylinder sets; every 100th op uses K = 4096."""

    name = "clopen-batch"
    # Op cost grows with K times |A|, over four orders of magnitude.  So
    # that runs hold the same mix, each round of 100 ops has the same
    # shapes in seeded order: for every K in SIZES, eleven sizes |B| spread
    # evenly over criterion 6's range [2, min(K, 48)] with |A| = |B| // 2,
    # and one K = 4096 op with |B| = 48, |A| = 24 that takes about 40% of
    # the round.  The seed draws the order and the cylinder indices.
    round_len = 100
    POOL_ROUNDS = 30
    SIZES = (8, 12, 24, 36, 48, 64, 96, 128, 256)
    PER_SIZE = 11

    def prepare(self, dc, seed, workdir):
        rng = random.Random(seed)
        shapes = []
        for K in self.SIZES:
            top = min(K, 48)
            for j in range(self.PER_SIZE):
                b_size = 2 + round(j * (top - 2) / (self.PER_SIZE - 1))
                shapes.append((K, b_size // 2, b_size))
        inputs = []
        for _ in range(self.POOL_ROUNDS):
            rng.shuffle(shapes)
            inputs.extend(self._op(rng, *shape) for shape in shapes)
            inputs.append(self._op(rng, 4096, 24, 48))
        return inputs

    @staticmethod
    def _op(rng, K, a_size, b_size):
        return {
            "K": K,
            "bases": factor_bases(K),
            "a": sorted(rng.sample(range(K), a_size)),
            "b": sorted(rng.sample(range(K), b_size)),
        }

    def run(self, dc, inp):
        pkg = dc.pkg
        start = perf_counter()
        system = pkg.Odometer(inp["bases"])
        A = pkg.CylinderRegion(system, inp["a"])
        B = pkg.CylinderRegion(system, inp["b"])
        witness = pkg.clopen_comparison(system, A, B)
        report = pkg.verify_witness(system, A, B, witness)
        return {"op_s": (start, perf_counter())}, report

    def check(self, dc, inp, report):
        failures = ["clause failed: " + name for name, ok in report.clauses if not ok]
        if len(report.clauses) != 4:
            failures.append("report has %d clauses" % len(report.clauses))
        if not dc.cli._brute_clopen_feasible(inp["K"], inp["a"], inp["b"]):
            failures.append("brute-force search finds no assignment")
        return failures


WORKLOADS = {w.name: w for w in (CircleCertify, TowerRefine, ClopenBatch)}
