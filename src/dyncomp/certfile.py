"""Witness certificate files.

Layout of `emit_certfile` (UTF-8, line-oriented, no timestamps, so equal
inputs give byte-equal files):

    dyncomp-cert 1
    tool dyncomp 0.1.0
    system circle 5 -1 1 2
    input C <sha256 of the canonical region text>
    input U <sha256>
    shift -3                  # one block per witness entry
    bp 0 0 1 0 0 1            # breakpoint: x then value, both `a b c` triples
    bp ...
    shift 0                   # odometer entries list values instead
    val 4 1 0 1               # index then value triple; zero values omitted
    verdict pass ranges within [0, 1]
    verdict ...

`parse_certfile(emit_certfile(cf)) == cf` holds field by field, including
exact scalars; the entries slot round-trips the witness functions and
shifts, which is all `verify_witness` consumes.
"""

from dataclasses import dataclass

from .errors import MalformedFile
from .plfun import CylinderFunction, PLFunction
from .scalars import ZERO, _reduced
from .specfile import exact_scalar, region_hash, scalar_tokens, system_echo, parse_system_echo
from .systems import Odometer

try:
    from importlib.metadata import version as _dist_version

    TOOL_VERSION = _dist_version("dyncomp")
except Exception:  # pragma: no cover - not installed
    TOOL_VERSION = "0"

FORMAT_VERSION = 1


@dataclass(frozen=True)
class CertificateFile:
    version: int
    tool: str
    system: object
    hashes: tuple  # ((name, sha256 hex), ...)
    entries: tuple  # ((function, shift), ...)
    verdicts: tuple  # ((clause name, passed), ...)


def make_certfile(system, named_inputs, witness, report) -> CertificateFile:
    return CertificateFile(
        version=FORMAT_VERSION,
        tool=TOOL_VERSION,
        system=system,
        hashes=tuple((name, region_hash(r)) for name, r in named_inputs),
        entries=tuple(witness.entries),
        verdicts=tuple(report.clauses),
    )


def _in_field(x, system):
    if x.b != 0 and x.D != getattr(system, "D", 1):
        raise MalformedFile("scalar %s lies outside the system's field" % x)
    return scalar_tokens(x)


def _field_scalar(a, b, c, D):
    """(a + b sqrt(D))/c for the square-free D > 1 of a circle system,
    normalized by `_reduced` with no factoring of D; MalformedFile, as
    from exact_scalar, for a zero denominator."""
    if c == 0:
        raise MalformedFile("bad scalar triple: scalar denominator is zero")
    return _reduced(a, b, c, D)


def emit_certfile(cf) -> str:
    lines = [
        "dyncomp-cert %d" % cf.version,
        "tool dyncomp %s" % cf.tool,
        "system %s" % system_echo(cf.system),
    ]
    for name, digest in cf.hashes:
        lines.append("input %s %s" % (name, digest))
    for f, d in cf.entries:
        lines.append("shift %d" % d)
        if isinstance(f, CylinderFunction):
            for i, v in enumerate(f.values):
                if v != ZERO:
                    lines.append("val %d %s" % (i, _in_field(v, cf.system)))
        else:
            for x, v in f.breakpoints:
                lines.append(
                    "bp %s %s" % (_in_field(x, cf.system), _in_field(v, cf.system))
                )
    for name, passed in cf.verdicts:
        lines.append("verdict %s %s" % ("pass" if passed else "fail", name))
    return "".join(line + "\n" for line in lines)


def _ints(tokens, n, what):
    if len(tokens) != n:
        raise MalformedFile("%s expects %d integers" % (what, n))
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise MalformedFile("bad integer in %s line" % what) from None


def parse_certfile(text) -> CertificateFile:
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
    return CertificateFile(
        version=head,
        tool=tool,
        system=system,
        hashes=tuple(hashes),
        entries=tuple(entries),
        verdicts=tuple(verdicts),
    )


def write_certfile(path, cf):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_certfile(cf))


def load_certfile(path) -> CertificateFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_certfile(fh.read())
