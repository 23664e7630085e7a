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
shifts.  The parse reads the text one line at a time and hands each circle
entry, as it closes, to an entry reader: by default one that builds the
witness function, and in `verify` the checker `check.CircleCheck`, which
takes the bp rows as integers and builds no function.
"""

import math
from dataclasses import dataclass
from itertools import chain

from .errors import BreakpointBudget, MalformedFile
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
        return list(map(int, tokens))
    except ValueError:
        raise MalformedFile("bad integer in %s line" % what) from None


def _rows(text):
    """The token lists of the non-blank lines of text, one at a time, with
    no copy of the whole text; the lines are those of `str.splitlines`,
    which ends a line also at a separator other than a newline."""
    start, n = 0, len(text)
    while start < n:  # blocks of about 64 KB, cut after a newline
        end = text.find("\n", start + 65536)
        end = n if end < 0 else end + 1
        for line in text[start:end].splitlines():
            row = line.split()
            if row:
                yield row
        start = end


def _functions(system):
    """The default circle entry reader: it builds each entry's `PLFunction`
    and gives back (function, shift)."""
    D = system.D

    def entry(shift, rows):
        return PLFunction([(_reduced(xa, xb, xc, D), _reduced(va, vb, vc, D))
                           for xa, xb, xc, va, vb, vc in rows]), shift
    return entry


def _cylinder_entry(system):
    def entry(shift, vals):
        values = [ZERO] * system.resolution
        for i, v in vals:
            values[i] = v
        return CylinderFunction(values), shift
    return entry


def parse_certfile(text, circle=_functions, bp_cap=None) -> CertificateFile:
    """The certificate file in text.

    On a circle, circle(system) is called once the system echo is read, and
    the function it returns gets each entry as it closes, in file order, as
    its shift and its bp lines, each six integers with no zero denominator;
    its results fill the entries slot.  By default they are (PLFunction,
    shift).  Odometer entries are (CylinderFunction, shift).  With bp_cap,
    a file with more bp lines than that raises BreakpointBudget at the
    first one past it.
    """
    rows = _rows(text)
    row = next(rows, None)
    if row is None or row[:1] != ["dyncomp-cert"]:
        raise MalformedFile("not a certificate file (missing dyncomp-cert header)")
    head = _ints(row[1:], 1, "version")[0]
    if head != FORMAT_VERSION:
        raise MalformedFile("unsupported certificate version %d" % head)
    row = next(rows, None)
    if row is None or row[:2] != ["tool", "dyncomp"] or len(row) != 3:
        raise MalformedFile("missing tool line")
    tool = row[2]
    row = next(rows, None)
    if row is None or row[0] != "system":
        raise MalformedFile("missing system echo")
    system = parse_system_echo(row[1:])
    odometer = isinstance(system, Odometer)
    D = 1 if odometer else system.D
    take = _cylinder_entry(system) if odometer else circle(system)
    row = next(rows, None)
    hashes = []
    while row is not None and row[0] == "input":
        if len(row) != 3:
            raise MalformedFile("input lines read 'input NAME HASH'")
        hashes.append((row[1], row[2]))
        row = next(rows, None)

    entries, shift, lines, count = [], None, [], 0
    cap = math.inf if bp_cap is None else bp_cap
    for row in () if row is None else chain((row,), rows):
        tag = row[0]  # the branches in order of how often they come up
        if tag == "bp":
            if shift is None or odometer:
                raise MalformedFile("bp line outside a circle entry")
            bp = _ints(row[1:], 6, "bp")
            if not bp[2] or not bp[5]:
                raise MalformedFile("bad scalar triple: scalar denominator is zero")
            count += 1
            if count > cap:
                raise BreakpointBudget(
                    "certificate holds more than %d breakpoints (cap %d)" % (cap, cap))
            lines.append(bp)
        elif tag == "shift":
            if shift is not None:
                entries.append(_closed(take, shift, lines, odometer))
            shift = _ints(row[1:], 1, "shift")[0]
            lines = []
        elif tag == "verdict":
            break
        elif tag == "val":
            if shift is None or not odometer:
                raise MalformedFile("val line outside an odometer entry")
            i, a, b, c = _ints(row[1:], 4, "val")
            if not 0 <= i < system.resolution:
                raise MalformedFile("val index %d out of range" % i)
            lines.append((i, exact_scalar(a, b, c, D)))
        else:
            raise MalformedFile("unknown certificate line %r" % tag)
    else:
        row = None
    if shift is not None:
        entries.append(_closed(take, shift, lines, odometer))

    verdicts = []
    while row is not None:
        if row[0] != "verdict" or len(row) < 3 or row[1] not in ("pass", "fail"):
            raise MalformedFile("footer lines read 'verdict pass|fail NAME'")
        verdicts.append((" ".join(row[2:]), row[1] == "pass"))
        row = next(rows, None)
    return CertificateFile(
        version=head,
        tool=tool,
        system=system,
        hashes=tuple(hashes),
        entries=tuple(entries),
        verdicts=tuple(verdicts),
    )


def _closed(take, shift, lines, odometer):
    if not lines and not odometer:
        raise MalformedFile("circle entry has no bp lines")
    return take(shift, lines)


def write_certfile(path, cf):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_certfile(cf))


def load_certfile(path, circle=_functions, bp_cap=None) -> CertificateFile:
    """`parse_certfile` of the file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_certfile(fh.read(), circle, bp_cap)
