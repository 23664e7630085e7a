"""`verify` as it ran before `check.CircleCheck`, kept as an oracle.

- `parse_certfile` reads the whole text into rows and builds every circle
  entry as a validating `PLFunction`.
- `verify_witness` decides the circle clauses on the PL and region
  kernels: ranges by sign tests on canonical breakpoint values, the sum
  over C's closure by `sum_of` and `extrema_on`, and the supports
  (`support_arcs`, rotated by `_rotated` in `translated_pieces`) by one
  keyed cell sweep against U's pieces (`soup_disjoint_inside`).
- `cmd_verify` is the old subcommand body on top of the two.

The command line's `verify` must give the same exit code, stdout and
stderr for every certificate, malformed ones included.
"""

from dyncomp.certfile import FORMAT_VERSION, CertificateFile, _ints
from dyncomp.cli import _print_report, load_specfile_checked
from dyncomp.comparison import ComparisonProvenance, ComparisonWitness, VerificationReport
from dyncomp.errors import MalformedFile, MixedAmbient
from dyncomp.plfun import (
    CylinderFunction,
    PLFunction,
    extrema_on,
    sum_extrema_on,
    sum_of,
    support_arcs,
    support_of,
)
from dyncomp.regions import (
    _ambient,
    _coverage,
    _critical_points,
    _rotated,
    disjoint_inside,
    translate_region,
)
from dyncomp.scalars import ONE, ZERO, _reduced, dyadic_keys
from dyncomp.specfile import exact_scalar, parse_system_echo, region_hash
from dyncomp.systems import CircleRotation, Odometer


def _field_scalar(a, b, c, D):
    if c == 0:
        raise MalformedFile("bad scalar triple: scalar denominator is zero")
    return _reduced(a, b, c, D)


def parse_certfile(text):
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    rows = [ln.split() for ln in lines if ln.strip()]
    if not rows or rows[0][:1] != ["dyncomp-cert"]:
        raise MalformedFile("not a certificate file (missing dyncomp-cert header)")
    head = _ints(rows[0][1:], 1, "version")[0]
    if head != FORMAT_VERSION:
        raise MalformedFile("unsupported certificate version %d" % head)
    at = 1
    if at >= len(rows) or rows[at][:2] != ["tool", "dyncomp"] or len(rows[at]) != 3:
        raise MalformedFile("missing tool line")
    tool = rows[at][2]
    at += 1
    if at >= len(rows) or rows[at][0] != "system":
        raise MalformedFile("missing system echo")
    system = parse_system_echo(rows[at][1:])
    D = 1 if isinstance(system, Odometer) else system.D
    at += 1
    hashes = []
    while at < len(rows) and rows[at][0] == "input":
        if len(rows[at]) != 3:
            raise MalformedFile("input lines read 'input NAME HASH'")
        hashes.append((rows[at][1], rows[at][2]))
        at += 1

    entries = []
    shift = None
    bps = []
    vals = None

    def close_entry():
        if shift is None:
            return
        if vals is not None:
            values = [ZERO] * system.resolution
            for i, v in vals:
                values[i] = v
            entries.append((CylinderFunction(values), shift))
        else:
            if not bps:
                raise MalformedFile("circle entry has no bp lines")
            entries.append((PLFunction(bps), shift))

    while at < len(rows) and rows[at][0] != "verdict":
        row = rows[at]
        if row[0] == "shift":
            close_entry()
            shift = _ints(row[1:], 1, "shift")[0]
            bps = []
            vals = [] if isinstance(system, Odometer) else None
        elif row[0] == "bp":
            if shift is None or vals is not None:
                raise MalformedFile("bp line outside a circle entry")
            xa, xb, xc, va, vb, vc = _ints(row[1:], 6, "bp")
            bps.append((_field_scalar(xa, xb, xc, D), _field_scalar(va, vb, vc, D)))
        elif row[0] == "val":
            if vals is None:
                raise MalformedFile("val line outside an odometer entry")
            i, a, b, c = _ints(row[1:], 4, "val")
            if not 0 <= i < system.resolution:
                raise MalformedFile("val index %d out of range" % i)
            vals.append((i, exact_scalar(a, b, c, D)))
        else:
            raise MalformedFile("unknown certificate line %r" % row[0])
        at += 1
    close_entry()

    verdicts = []
    while at < len(rows):
        row = rows[at]
        if row[0] != "verdict" or len(row) < 3 or row[1] not in ("pass", "fail"):
            raise MalformedFile("footer lines read 'verdict pass|fail NAME'")
        verdicts.append((" ".join(row[2:]), row[1] == "pass"))
        at += 1
    return CertificateFile(version=head, tool=tool, system=system, hashes=tuple(hashes),
                           entries=tuple(entries), verdicts=tuple(verdicts))


def soup_disjoint_inside(system, soup, U):
    _ambient(system, U)
    pieces = list(soup) + list(U.pieces)
    keys = dyadic_keys([e for lo, hi, _, _ in pieces for e in (lo, hi)] + [ONE])
    keyed = [(keys[2 * i], keys[2 * i + 1], lc, hc) for i, (_, _, lc, hc) in enumerate(pieces)]
    soup, upieces = keyed[:len(soup)], keyed[len(soup):]
    pts, (ucells, cells) = _critical_points([upieces, soup], 0, keys[-1])
    ucov, (si, sp) = _coverage(len(pts), upieces, ucells), _coverage(len(pts), soup, cells)
    inside = all(u or not s for us, ss in zip(ucov, (si, sp)) for u, s in zip(us, ss))
    return max(si) <= 1 and max(sp) <= 1, inside


def translated_pieces(system, entries):
    """The pieces of the entries' supports, each rotated by frac(d theta)."""
    shifts = {}
    soup = []
    for f, d in entries:
        arcs = support_arcs(f)
        if arcs is None:
            soup.append((ZERO, ONE, True, False))
            continue
        s = shifts.get(d)
        if s is None:
            s = shifts[d] = (system.theta * d).frac()
        soup += _rotated(arcs, s)
    return soup


def verify_witness(system, C, U, witness):
    circle = isinstance(system, CircleRotation)
    if not circle and not isinstance(system, Odometer):
        raise MixedAmbient("witness verification runs over circle rotations and odometers")
    entries = witness.entries
    failures = []
    ranges_ok = True
    for i, (f, _) in enumerate(entries):
        if circle:
            bad = not all(0 <= v.a <= v.c if not v.b else v.sign() >= 0 and v.cmp_int(1) <= 0
                          for _, v in f.breakpoints)
        else:
            lo, hi = f.range_bounds()
            bad = lo.sign() < 0 or (hi - ONE).sign() > 0
        if bad:
            ranges_ok = False
            failures.append("entry %d leaves [0, 1]" % i)
    part_ok = True
    CC = C.closure()
    if not CC.is_empty:
        fns = [f for f, _ in entries]
        if not fns:
            mn, mx = ZERO, ZERO
        elif circle:
            mn, mx = extrema_on(sum_of(fns), CC)
        else:
            mn, mx = sum_extrema_on(fns, CC)
        if mn != ONE or mx != ONE:
            part_ok = False
            failures.append("sum over the closed set spans [%s, %s]" % (mn, mx))
    if circle:
        disj_ok, inside_ok = soup_disjoint_inside(system, translated_pieces(system, entries), U)
    else:
        translated = [translate_region(system, support_of(system, f), d) for f, d in entries]
        disj_ok, inside_ok = disjoint_inside(system, translated, U)
    if not disj_ok:
        failures.append("translated supports overlap")
    if not inside_ok:
        failures.extend(
            "translated support %d leaves the open set" % i
            for i, (f, d) in enumerate(entries)
            if not U.contains_region(translate_region(system, support_of(system, f), d)))
    clauses = (
        ("ranges within [0, 1]", ranges_ok),
        ("sums to 1 on the closed set", part_ok),
        ("translated supports pairwise disjoint", disj_ok),
        ("translated supports inside the open set", inside_ok),
    )
    return VerificationReport(clauses=clauses, failures=tuple(failures))


def cmd_verify(args):
    spec = load_specfile_checked(args)
    if not args.cert:
        raise MalformedFile("verify needs --cert")
    with open(args.cert, "r", encoding="utf-8") as fh:
        cf = parse_certfile(fh.read())
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
        witness = ComparisonWitness(inputs=(C, U), entries=cf.entries,
                                    provenance=ComparisonProvenance())
        report = verify_witness(spec.system, C, U, witness)
        _print_report(report.clauses)
        ok = report.ok
    return 0 if ok else 3
