"""Line-oriented spec files describing a system, named regions and params.

Grammar (UTF-8, `#` starts a comment, blank lines ignored, every block is
closed by a bare `end`):

    system circle          # or: system odometer
    field 5                # D <= 10^6 for scalar triples (circle only)
    theta -1 1 2           # rotation angle, here (-1 + 1*sqrt(5))/2
    end

    region C
    piece 0/1 1/5 closed closed
    end

    region A               # odometer regions list cylinder indices
    indices 0 3 7
    end

    params                 # optional, all keys optional
    epsilon 1/100
    sigma-fraction 1/4
    search-depth 20000
    bp-cap 10000000
    end

Scalars are written `p/q` (rationals always carry the slash), as a triple
of integers `a b c` meaning (a + b*sqrt(D))/c with the system's D, or as
the keyword `theta` for the rotation angle.  Arc endpoints may exceed 1 to
express wrap-around (the pair is read as a lifted arc).  Unknown keys and
malformed lines raise MalformedFile.
"""

import hashlib
from dataclasses import dataclass

from .errors import MalformedFile
from .regions import CylinderRegion, Region
from .scalars import ExactScalar
from .systems import CircleRotation, Odometer

PARAM_KEYS = ("epsilon", "sigma-fraction", "search-depth", "bp-cap")
# Largest field D a file may declare: normalizing D factors it by trial
# division, which must stay fast on hostile input.
MAX_FIELD = 10**6
# Largest odometer resolution K a file may declare: regions, functions and
# towers on an odometer hold up to K entries each.
MAX_RESOLUTION = 4096


@dataclass(frozen=True)
class SpecFile:
    system: object
    regions: dict  # name -> Region | CylinderRegion
    params: dict  # epsilon, sigma_fraction: ExactScalar; search_depth, bp_cap: int

    def region(self, name):
        try:
            return self.regions[name]
        except KeyError:
            raise MalformedFile("spec file has no region named %r" % name) from None


def parse_scalar(tokens, pos, D, theta=None):
    """One scalar starting at tokens[pos]; returns (scalar, next position)."""
    if pos >= len(tokens):
        raise MalformedFile("expected a scalar, found end of line")
    tok = tokens[pos]
    if tok == "theta":
        if theta is None:
            raise MalformedFile("'theta' is only available once the system is known")
        return theta, pos + 1
    if "/" in tok:
        p, _, q = tok.partition("/")
        try:
            return ExactScalar.rational(int(p), int(q)), pos + 1
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedFile("bad rational %r: %s" % (tok, exc)) from None
    if pos + 2 >= len(tokens):
        raise MalformedFile("scalar triple %r is missing components" % tok)
    try:
        a, b, c = (int(tokens[pos + i]) for i in range(3))
    except ValueError:
        raise MalformedFile(
            "bad scalar %r (write rationals as p/q, irrationals as 'a b c')" % tok
        ) from None
    if b != 0 and D == 1:
        raise MalformedFile("scalar triple needs a 'field D' line before it")
    return exact_scalar(a, b, c, D), pos + 3


def exact_scalar(a, b, c, D):
    """ExactScalar(a, b, c, D) from parsed integers, or MalformedFile for a
    zero denominator or a bad field."""
    try:
        return ExactScalar(a, b, c, D)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedFile("bad scalar triple: %s" % exc) from None


def scalar_tokens(x) -> str:
    """Canonical `a b c` form (rationals have b = 0)."""
    return "%d %d %d" % (x.a, x.b, x.c)


def _int(tok, what):
    try:
        return int(tok)
    except ValueError:
        raise MalformedFile("bad %s %r" % (what, tok)) from None


def positive_int(tok, what):
    """int(tok), or MalformedFile naming `what` unless it is a positive
    integer."""
    value = _int(tok, what)
    if value < 1:
        raise MalformedFile("%s must be a positive integer, not %d" % (what, value))
    return value


def _field(tok, what):
    D = _int(tok, what)
    if D > MAX_FIELD:
        raise MalformedFile("field %d exceeds the bound %d" % (D, MAX_FIELD))
    return D


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_specfile(text) -> SpecFile:
    system = None
    kind = None
    field = 1
    theta = None
    regions = {}
    params = {}
    stream = _lines(text)

    def fail(lineno, msg):
        raise MalformedFile("line %d: %s" % (lineno, msg))

    def block(opener_lineno):
        out = []
        for lineno, tokens in stream:
            if tokens == ["end"]:
                return out
            out.append((lineno, tokens))
        raise MalformedFile("line %d: block is never closed by 'end'" % opener_lineno)

    for lineno, tokens in stream:
        head = tokens[0]
        if head == "system":
            if system is not None or kind is not None:
                fail(lineno, "more than one system block")
            if len(tokens) != 2 or tokens[1] not in ("circle", "odometer"):
                fail(lineno, "expected 'system circle' or 'system odometer'")
            kind = tokens[1]
            body = block(lineno)
            if kind == "circle":
                for ln, toks in body:
                    if toks[0] == "field" and len(toks) == 2:
                        field = _field(toks[1], "field")
                    elif toks[0] == "theta":
                        theta, at = parse_scalar(toks, 1, field)
                        if at != len(toks):
                            fail(ln, "trailing tokens after theta")
                    else:
                        fail(ln, "unknown system key %r" % toks[0])
                if theta is None:
                    fail(lineno, "circle system block never set theta")
                try:
                    system = CircleRotation(theta)
                except ValueError as exc:
                    fail(lineno, str(exc))
            else:
                bases = None
                truncation = None
                for ln, toks in body:
                    if toks[0] == "bases" and len(toks) > 1:
                        bases = [_int(t, "base") for t in toks[1:]]
                    elif toks[0] == "truncation" and len(toks) == 2:
                        truncation = _int(toks[1], "truncation")
                    else:
                        fail(ln, "unknown system key %r" % toks[0])
                if bases is None:
                    fail(lineno, "odometer system block never set bases")
                try:
                    system = _odometer(bases, truncation)
                except MalformedFile as exc:
                    fail(lineno, str(exc))
        elif head == "region":
            if len(tokens) != 2:
                fail(lineno, "expected 'region NAME'")
            name = tokens[1]
            if name in regions:
                fail(lineno, "duplicate region %r" % name)
            if system is None:
                fail(lineno, "region block before the system block")
            body = block(lineno)
            if isinstance(system, Odometer):
                indices = []
                for ln, toks in body:
                    if toks[0] != "indices":
                        fail(ln, "odometer regions take 'indices' lines only")
                    indices.extend(_int(t, "index") for t in toks[1:])
                try:
                    regions[name] = CylinderRegion(system, indices)
                except (ValueError, IndexError) as exc:
                    fail(lineno, str(exc))
            else:
                pieces = []
                for ln, toks in body:
                    if toks[0] != "piece":
                        fail(ln, "circle regions take 'piece' lines only")
                    lo, at = parse_scalar(toks, 1, field, theta)
                    hi, at = parse_scalar(toks, at, field, theta)
                    rest = toks[at:]
                    if len(rest) != 2 or any(t not in ("closed", "open") for t in rest):
                        fail(ln, "piece must end with two of closed|open")
                    pieces.append((lo, hi, rest[0] == "closed", rest[1] == "closed"))
                try:
                    regions[name] = Region(system, pieces)
                except ValueError as exc:
                    fail(lineno, str(exc))
        elif head == "params":
            if len(tokens) != 1:
                fail(lineno, "expected a bare 'params' line")
            if params:
                fail(lineno, "more than one params block")
            for ln, toks in block(lineno):
                key = toks[0]
                if key not in PARAM_KEYS:
                    fail(ln, "unknown params key %r" % key)
                if key in ("epsilon", "sigma-fraction"):
                    value, at = parse_scalar(toks, 1, field, theta)
                    if at != len(toks):
                        fail(ln, "trailing tokens after %s" % key)
                else:
                    if len(toks) != 2:
                        fail(ln, "%s takes one integer" % key)
                    value = positive_int(toks[1], key)
                params[key.replace("-", "_")] = value
        else:
            fail(lineno, "unknown block %r" % head)
    if system is None:
        raise MalformedFile("spec file has no system block")
    return SpecFile(system=system, regions=regions, params=params)


def load_specfile(path) -> SpecFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_specfile(fh.read())


def system_echo(system) -> str:
    """Single-line canonical echo, parseable by parse_system_echo."""
    if isinstance(system, CircleRotation):
        t = system.theta
        return "circle %d %s" % (t.D, scalar_tokens(t))
    return "odometer %d %s" % (
        system.truncation,
        " ".join(str(k) for k in system.bases),
    )


def parse_system_echo(tokens):
    if tokens and tokens[0] == "circle" and len(tokens) == 5:
        D = _field(tokens[1], "system echo")
        a, b, c = (_int(t, "system echo") for t in tokens[2:])
        return CircleRotation(exact_scalar(a, b, c, D))
    if tokens and tokens[0] == "odometer" and len(tokens) >= 3:
        truncation = _int(tokens[1], "truncation")
        return _odometer([_int(t, "base") for t in tokens[2:]], truncation)
    raise MalformedFile("bad system echo %r" % " ".join(tokens))


def _odometer(bases, truncation):
    """An Odometer from parsed fields, its resolution at most MAX_RESOLUTION."""
    try:
        system = Odometer(bases, truncation)
    except ValueError as exc:
        raise MalformedFile(str(exc)) from None
    if system.resolution > MAX_RESOLUTION:
        raise MalformedFile(
            "odometer resolution %d exceeds the bound %d" % (system.resolution, MAX_RESOLUTION)
        )
    return system


def region_text(region) -> str:
    """Canonical text form of a region, the input to region_hash."""
    if isinstance(region, CylinderRegion):
        return "indices %s\n" % " ".join(str(i) for i in sorted(region.indices))
    lines = []
    for lo, hi, lc, hc in region.pieces:
        lines.append(
            "piece %s %s %s %s"
            % (
                scalar_tokens(lo),
                scalar_tokens(hi),
                "closed" if lc else "open",
                "closed" if hc else "open",
            )
        )
    return "".join(line + "\n" for line in lines)


def region_hash(region) -> str:
    return hashlib.sha256(region_text(region).encode("utf-8")).hexdigest()
