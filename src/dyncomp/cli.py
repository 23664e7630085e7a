"""Command-line front end.

Subcommands map onto the library: `tower` and `refine` build and print
Rokhlin towers, `compare` runs the full dynamic-comparison pipeline and
writes a certificate file, `clopen-compare` matches clopen sets on an
odometer, `verify` re-checks a certificate file against its spec,
`birkhoff` builds a Birkhoff-average certificate, `smallness` and
`thincover` run the topological-smallness constructions, and `oracle`
runs brute-force cross-checks (integer-rotation return times, exhaustive
clopen matching, float sampling of Birkhoff averages).

Exit codes: 0 success, 1 usage or malformed input, 2 infeasible input
(the closed set is at least as large as the open set), 3 verification
failure or oracle disagreement, 4 any other domain error.  All output is
deterministic: no timestamps, and oracle randomness is seeded (--seed,
default 0).
"""

import argparse
import functools
import os
import random
import sys
from bisect import bisect_right

from .comparison import (
    ComparisonProvenance,
    ComparisonWitness,
    birkhoff_certificate,
    clopen_comparison,
    column_counts,
    dynamic_comparison,
    verify_certificate,
    verify_witness,
)
from .check import CircleCheck
from .certfile import load_certfile, make_certfile, write_certfile
from .errors import DyncompError, GapNonpositive, MalformedFile
from .plfun import DEFAULT_BP_CAP, integral
from .regions import CylinderRegion, Region
from .scalars import ExactScalar, HALF, golden_theta
from .smallness import (
    DEFAULT_DEPTH,
    leftover_cover,
    smallness_constant,
    thin_cover,
    verify_leftover_cover,
    verify_smallness,
    verify_thin_cover,
)
from .specfile import MAX_RESOLUTION, load_specfile, parse_scalar, positive_int, region_hash
from .systems import CircleRotation, Odometer
from .towers import build_tower, disjoint_base, refine_tower


BP_CAP = "DYNCOMP_BP_CAP"


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _flag_scalar(spec, text, what):
    system = spec.system
    theta = system.theta if isinstance(system, CircleRotation) else None
    D = getattr(system, "D", 1)
    value, at = parse_scalar(text.split(), 0, D, theta)
    if at != len(text.split()):
        raise MalformedFile("trailing tokens in %s" % what)
    return value


def _arc_text(region):
    if isinstance(region, CylinderRegion):
        return "{%s}" % ", ".join(str(i) for i in sorted(region.indices))
    if region.is_empty:
        return "{}"
    parts = []
    arcs = region.pieces if region.is_full else region.logical_arcs()
    for lo, hi, lc, hc in arcs:
        parts.append(
            "%s%s, %s%s"
            % ("[" if lc else "(", lo, hi, "]" if hc else ")")
        )
    return " u ".join(parts)


def _base_region(spec, args):
    """Tower base from --base LO HI (circle) or --region NAME."""
    system = spec.system
    if getattr(args, "base", None):
        if not isinstance(system, CircleRotation):
            raise MalformedFile("--base takes circle arcs; name a region instead")
        tokens = list(args.base)
        lo, at = parse_scalar(tokens, 0, system.D, system.theta)
        hi, at = parse_scalar(tokens, at, system.D, system.theta)
        if at != len(tokens):
            raise MalformedFile("--base takes exactly two scalars")
        return Region(system, [(lo, hi, True, True)])
    if getattr(args, "region", None):
        return spec.region(args.region)
    if getattr(args, "levels", None) is not None:
        return disjoint_base(system, positive_int(args.levels, "--levels"))
    raise MalformedFile("give the tower base via --base, --region or --levels")


def _print_tower(tower):
    for k, (cell, n) in enumerate(tower.columns):
        print(
            "column %d height %d measure %s cell %s"
            % (k, n, cell.measure(), _arc_text(cell))
        )
    kac = sum(
        (cell.measure() * ExactScalar.rational(n) for cell, n in tower.columns),
        start=ExactScalar.rational(0),
    )
    print("kac %s" % kac)


def cmd_tower(args):
    spec = load_specfile_checked(args)
    tower = build_tower(spec.system, _base_region(spec, args))
    _print_tower(tower)
    return 0


def cmd_refine(args):
    spec = load_specfile_checked(args)
    tower = build_tower(spec.system, _base_region(spec, args))
    parts = [spec.region(name).closure() for name in args.parts]
    rest = parts[0]
    for p in parts[1:]:
        rest = rest.union(p)
    rest = rest.complement().closure()
    if not rest.interior().is_empty:
        parts.append(rest)
    refined = refine_tower(tower, parts)
    _print_tower(refined)
    for name in args.parts:
        counts = column_counts(refined, spec.region(name))
        print("part %s levels %d" % (name, sum(len(c) for c in counts)))
    return 0


def _witness_summary(witness):
    prov = witness.provenance
    cert = prov.certificate
    if cert is not None:
        print(
            "certificate N0 %d sigma %s m0 %s N1 %d"
            % (cert.N0, cert.sigma, cert.m0, cert.N1)
        )
    for k, (n, measure) in enumerate(prov.tower):
        print("column %d height %d measure %s" % (k, n, measure))
    for table in prov.tables:
        for s, t, d in table.pairs:
            print("match column %d source %d target %d shift %d" % (table.column, s, t, d))
    print("leftover %d" % prov.leftover)
    print("entries %d" % len(witness.entries))


def _print_report(clauses):
    for name, passed in clauses:
        print("verdict %s %s" % ("pass" if passed else "fail", name))


def _params(spec, args):
    fraction = None
    if getattr(args, "sigma_fraction", None):
        fraction = _flag_scalar(spec, args.sigma_fraction, "--sigma-fraction")
    elif "sigma_fraction" in spec.params:
        fraction = spec.params["sigma_fraction"]
    depth = getattr(args, "depth", None)
    if depth is None:
        depth = spec.params.get("search_depth")
    else:
        depth = positive_int(depth, "--depth")
    epsilon = None
    if getattr(args, "epsilon", None):
        epsilon = _flag_scalar(spec, args.epsilon, "--epsilon")
    elif "epsilon" in spec.params:
        epsilon = spec.params["epsilon"]
    return fraction, depth, epsilon


def load_specfile_checked(args):
    """Load --spec, which the subcommand requires."""
    if not args.spec:
        raise MalformedFile("this subcommand needs --spec")
    return load_specfile(args.spec)


def _bp_cap(spec):
    """The breakpoint cap of one command: DYNCOMP_BP_CAP if set, else the
    spec's bp-cap, else the library default."""
    text = os.environ.get(BP_CAP)
    if text is not None:
        return positive_int(text, BP_CAP)
    return DEFAULT_BP_CAP if spec is None else spec.params.get("bp_cap", DEFAULT_BP_CAP)


def _emit_comparison(args, spec, witness):
    """Print the witness and the report of the construction's own check,
    and write the certificate file when --out is given."""
    report = witness.provenance.report
    _witness_summary(witness)
    _print_report(report.clauses)
    if args.out:
        inputs = tuple(zip((args.closed, args.open), witness.inputs))
        write_certfile(args.out, make_certfile(spec.system, inputs, witness, report))
        print("wrote %s" % args.out)
    return 0 if report.ok else 3


def cmd_compare(args):
    spec = load_specfile_checked(args)
    fraction, depth, _ = _params(spec, args)
    C, U = spec.region(args.closed), spec.region(args.open)
    witness = dynamic_comparison(spec.system, C, U, fraction, depth, _bp_cap(spec))
    return _emit_comparison(args, spec, witness)


def cmd_clopen_compare(args):
    spec = load_specfile_checked(args)
    witness = clopen_comparison(spec.system, spec.region(args.closed), spec.region(args.open))
    return _emit_comparison(args, spec, witness)


def cmd_verify(args):
    """Re-check a certificate file against its spec.  A circle file's entries
    stream into `check.CircleCheck` as integers, their bp line count held to
    the breakpoint cap; an odometer file's go through `verify_witness`."""
    spec = load_specfile_checked(args)
    if not args.cert:
        raise MalformedFile("verify needs --cert")
    checker = None

    def circle(system):
        nonlocal checker
        checker = CircleCheck(system.theta)
        return checker.add

    cf = load_certfile(args.cert, circle, _bp_cap(spec))
    ok = True
    if cf.system != spec.system:
        print("mismatch system echo differs from the spec file")
        ok = False
    if len(cf.hashes) != 2:
        raise MalformedFile("certificate must record exactly two inputs")
    regions = []
    for name, digest in cf.hashes:
        region = spec.region(name)
        regions.append(region)
        if region_hash(region) != digest:
            print("mismatch input %s hash differs from the spec file" % name)
            ok = False
    if ok:
        C, U = regions
        if checker is not None:
            clauses, _ = checker.report(C.closure().pieces, U.pieces)
        else:
            witness = ComparisonWitness(
                inputs=(C, U),
                entries=cf.entries,
                provenance=ComparisonProvenance(),
            )
            clauses = verify_witness(spec.system, C, U, witness).clauses
        _print_report(clauses)
        ok = all(passed for _, passed in clauses)
    return 0 if ok else 3


def cmd_birkhoff(args):
    spec = load_specfile_checked(args)
    F = spec.region(args.closed)
    E = spec.region(args.open)
    fraction, _, _ = _params(spec, args)
    cap = _bp_cap(spec)
    cert = birkhoff_certificate(spec.system, F, E, fraction, cap)
    print("integral %s" % integral(spec.system, cert.g))
    print("sigma %s" % cert.sigma)
    print("m0 %s" % cert.m0)
    print("N0 %d" % cert.N0)
    print("N1 %d" % cert.N1)
    if args.check:
        failures = verify_certificate(spec.system, cert, bp_cap=cap)
        for line in failures:
            print("fail %s" % line)
        if failures:
            return 3
        print("checked N1 N1+1 2*N1")
    return 0


def cmd_smallness(args):
    spec = load_specfile_checked(args)
    F = spec.region(args.region)
    _, depth, _ = _params(spec, args)
    cert = smallness_constant(spec.system, F, depth or DEFAULT_DEPTH)
    print("constant %d" % cert.constant)
    print("verdict %s" % cert.verdict)
    if cert.search_depth is not None:
        print("search-depth %d" % cert.search_depth)
    print("witness %s" % " ".join(str(d) for d in cert.witness))
    failures = verify_smallness(spec.system, F, cert)
    for line in failures:
        print("fail %s" % line)
    return 3 if failures else 0


def cmd_thincover(args):
    spec = load_specfile_checked(args)
    F = spec.region(args.region)
    U = spec.region(args.open)
    _, depth, epsilon = _params(spec, args)
    depth = depth or DEFAULT_DEPTH
    if epsilon is not None:
        cover = leftover_cover(spec.system, F, U, epsilon, depth)
        opens = cover.opens
        for j, (W, d) in enumerate(zip(opens, cover.shifts)):
            print("piece %d shift %d open %s" % (j, d, _arc_text(W)))
        total = sum((W.measure() for W in opens), start=ExactScalar.rational(0))
        print("mass %s epsilon %s" % (total, cover.epsilon))
        failures = verify_leftover_cover(spec.system, F, U, epsilon, cover)
    else:
        cover = thin_cover(spec.system, F, U, depth)
        for j, (W, d) in enumerate(zip(cover.opens, cover.shifts)):
            print("piece %d shift %d open %s" % (j, d, _arc_text(W)))
        print("nbhd %s" % _arc_text(cover.nbhd))
        failures = verify_thin_cover(spec.system, F, U, cover)
    for line in failures:
        print("fail %s" % line)
    return 3 if failures else 0


# -- brute-force oracles


def _golden_system():
    return CircleRotation(golden_theta())


def integer_return_counts(theta, q):
    """Return-time counts of the integer-rotation model at denominator q.

    The base [0, theta] becomes S = {0, ..., ceil(q*theta) - 1} in Z/q and
    the rotation becomes i -> i + round(q*theta); returns {time: count}.
    """
    r = theta * ExactScalar.rational(q)
    fl = r.floor()
    p = fl + 1 if (r - ExactScalar.rational(fl) - HALF).sign() > 0 else fl
    m = fl + 1  # ceil(q*theta), theta irrational
    members = [False] * q
    for i in range(m):
        members[i] = True
    counts = {}
    for i in range(m):
        k = 1
        j = (i + p) % q
        while not members[j]:
            k += 1
            j = (j + p) % q
        counts[k] = counts.get(k, 0) + 1
    return counts


def return_times_agree(system, counts, q):
    """Exact tower over [0, theta] vs. oracle counts.  Discretizing each
    cell endpoint moves a count by at most 1, so counts must match
    q * measure within 2 when q is a continued-fraction denominator."""
    tower = build_tower(
        system, Region(system, [(ExactScalar.rational(0), system.theta, True, True)])
    )
    exact = {n: cell.measure() for cell, n in tower.columns}
    if sorted(counts) != sorted(exact):
        return False
    if sum(k * c for k, c in counts.items()) != q:
        return False
    two = ExactScalar.rational(2)
    for n, mu in exact.items():
        diff = ExactScalar.rational(counts[n]) - mu * ExactScalar.rational(q)
        if (diff - two).sign() > 0 or (diff + two).sign() < 0:
            return False
    return True


def oracle_return_times(args):
    spec = load_specfile(args.spec) if args.spec else None
    system = spec.system if spec else _golden_system()
    if not isinstance(system, CircleRotation):
        raise MalformedFile("return-times oracle runs over circle rotations")
    q = args.q
    if q < 3:
        raise MalformedFile("need q >= 3")
    counts = integer_return_counts(system.theta, q)
    for k in sorted(counts):
        print("return-time %d count %d" % (k, counts[k]))
    print("kac %d/%d" % (sum(k * c for k, c in counts.items()), q))
    agree = return_times_agree(system, counts, q)
    print("oracle %s" % ("agree" if agree else "disagree"))
    return 0 if agree else 3


def _brute_clopen_feasible(K, a_indices, b_indices):
    """Whether A's level cylinders go injectively onto B's by translates.

    Translation by t - s (mod K) takes cylinder s onto cylinder t, so any
    injection of A's cylinders into B's is an assignment of translates,
    and a search for one never needs to backtrack: it succeeds exactly
    when |A| <= |B|."""
    return len(a_indices) <= len(b_indices)


def oracle_clopen(args):
    trials = positive_int(args.trials, "--trials")
    rng = random.Random(args.seed)
    K = args.K
    if not 2 <= K <= MAX_RESOLUTION:
        raise MalformedFile("need 2 <= K <= %d" % MAX_RESOLUTION)
    system = Odometer(_factor_bases(K))
    agree = 0
    for _ in range(trials):
        b_size = rng.randrange(2, K + 1)
        a_size = rng.randrange(1, b_size)
        a = sorted(rng.sample(range(K), a_size))
        b = sorted(rng.sample(range(K), b_size))
        A = CylinderRegion(system, a)
        B = CylinderRegion(system, b)
        ok = clopen_comparison(system, A, B).provenance.report.ok
        if ok and _brute_clopen_feasible(K, a, b):
            agree += 1
    print("trials %d agree %d/%d" % (trials, agree, trials))
    return 0 if agree == trials else 3


def _factor_bases(K):
    bases = []
    n, d = K, 2
    while n > 1:
        while n % d == 0:
            bases.append(d)
            n //= d
        d += 1
    return bases


def float_birkhoff_min(system, g, N, starts):
    """Float evaluation of min S_N g / N over the given start points."""
    theta = float(system.theta)
    xs = [float(x) for x, _ in g.breakpoints]
    vs = [float(v) for _, v in g.breakpoints]

    def geval(x):
        i = bisect_right(xs, x) - 1
        xa, va = xs[i], vs[i]
        if i < 0:  # before the first breakpoint: the segment wrapping 1 -> 0
            xa -= 1.0
        if i + 1 < len(xs):
            xb, vb = xs[i + 1], vs[i + 1]
        else:
            xb, vb = xs[0] + 1.0, vs[0]
        if xb == xa:
            return va
        return va + (vb - va) * (x - xa) / (xb - xa)

    best = None
    for x in starts:
        x = x % 1.0
        total = 0.0
        for _ in range(N):
            total += geval(x)
            x += theta
            if x >= 1.0:
                x -= 1.0
        if best is None or total / N < best:
            best = total / N
    return best


def oracle_birkhoff(args):
    samples = positive_int(args.samples, "--samples")
    spec = load_specfile(args.spec) if args.spec else None
    if spec is not None:
        system = spec.system
        F = spec.region(args.closed)
        E = spec.region(args.open)
        fraction, _, _ = _params(spec, args)
    else:
        system = _golden_system()
        R = ExactScalar.rational
        F = Region(system, [(R(0), R(1, 10), True, True)])
        E = Region(system, [(R(3, 10), R(6, 10), False, False)])
        fraction = None
    if not isinstance(system, CircleRotation):
        raise MalformedFile("birkhoff oracle runs over circle rotations")
    cert = birkhoff_certificate(system, F, E, fraction, _bp_cap(spec))
    rng = random.Random(args.seed)
    starts = [rng.random() for _ in range(samples)]
    best = float_birkhoff_min(system, cert.g, cert.N0, starts)
    sigma = float(cert.sigma)
    print("sigma %s" % cert.sigma)
    print("N0 %d" % cert.N0)
    print("float-min %.12f" % best)
    agree = best >= sigma - 1e-9
    print("oracle %s" % ("agree" if agree else "disagree"))
    return 0 if agree else 3


# -- argument plumbing


@functools.cache
def build_parser():
    """The argparse tree, built once per process: parsing keeps nothing in
    the parser, so every `run` reuses it."""
    parser = _Parser(prog="dyncomp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=False, cert=False):
        p.add_argument("--spec", help="spec file path")
        if out:
            p.add_argument("--out", help="write a certificate file here")
        if cert:
            p.add_argument("--cert", help="certificate file path")
        return p

    p = common(sub.add_parser("tower", help="build and print a Rokhlin tower"))
    p.add_argument("--base", nargs="+", help="closed base arc, two scalars")
    p.add_argument("--region", help="spec region to use as the base")
    p.add_argument("--levels", type=int, help="disjoint base for N levels")
    p.set_defaults(func=cmd_tower)

    p = common(sub.add_parser("refine", help="refine a tower against regions"))
    p.add_argument("--base", nargs="+")
    p.add_argument("--region")
    p.add_argument("--levels", type=int)
    p.add_argument("--parts", nargs="+", required=True, help="region names")
    p.set_defaults(func=cmd_refine)

    p = common(sub.add_parser("compare", help="dynamic comparison pipeline"), out=True)
    p.add_argument("--closed", default="C", help="closed region name (default C)")
    p.add_argument("--open", default="U", help="open region name (default U)")
    p.add_argument("--sigma-fraction", dest="sigma_fraction")
    p.add_argument("--depth", type=int)
    p.set_defaults(func=cmd_compare)

    p = common(sub.add_parser("clopen-compare", help="clopen matching"), out=True)
    p.add_argument("--closed", default="A")
    p.add_argument("--open", default="B")
    p.set_defaults(func=cmd_clopen_compare)

    p = common(sub.add_parser("verify", help="re-check a certificate file"), cert=True)
    p.set_defaults(func=cmd_verify)

    p = common(sub.add_parser("birkhoff", help="Birkhoff-average certificate"))
    p.add_argument("--closed", default="F")
    p.add_argument("--open", default="E")
    p.add_argument("--sigma-fraction", dest="sigma_fraction")
    p.add_argument("--check", action="store_true", help="spot-check N1, N1+1, 2*N1")
    p.set_defaults(func=cmd_birkhoff)

    p = common(sub.add_parser("smallness", help="smallness constant of a finite set"))
    p.add_argument("--region", default="F")
    p.add_argument("--depth", type=int)
    p.set_defaults(func=cmd_smallness)

    p = common(sub.add_parser("thincover", help="thin or leftover cover of a finite set"))
    p.add_argument("--region", default="F")
    p.add_argument("--open", default="U")
    p.add_argument("--epsilon", help="build the mass-bounded leftover cover instead")
    p.add_argument("--depth", type=int)
    p.set_defaults(func=cmd_thincover)

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    q = osub.add_parser("return-times", help="integer-rotation return times")
    q.add_argument("--spec")
    q.add_argument("--q", type=int, required=True, help="convergent denominator")
    q.set_defaults(func=oracle_return_times)

    q = osub.add_parser("clopen", help="exhaustive clopen matching")
    q.add_argument("--K", type=int, required=True)
    q.add_argument("--trials", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=oracle_clopen)

    q = osub.add_parser("birkhoff", help="float sampling of S_N0 g / N0")
    q.add_argument("--spec")
    q.add_argument("--closed", default="F")
    q.add_argument("--open", default="E")
    q.add_argument("--sigma-fraction", dest="sigma_fraction")
    q.add_argument("--samples", type=int, default=10000)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=oracle_birkhoff)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (MalformedFile, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except GapNonpositive as exc:
        print("infeasible: %s" % exc, file=sys.stderr)
        return 2
    except (RecursionError, NotImplementedError) as exc:
        # RuntimeErrors that are crashes, not a failed postcondition
        print("error [%s]: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4
    except RuntimeError as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return 3
    except DyncompError as exc:
        print("error [%s]: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
