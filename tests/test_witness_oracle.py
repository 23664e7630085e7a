"""verify_witness against the independent checker in witness_oracle.py, on
certificates that `compare` writes for the golden family and on mutants
that break one clause each."""

import time

import pytest

import witness_oracle
from dyncomp import cli
from dyncomp.certfile import parse_certfile
from dyncomp.comparison import ComparisonProvenance, ComparisonWitness, verify_witness
from dyncomp.scalars import ExactScalar
from dyncomp.specfile import parse_specfile

R = ExactScalar.rational


def family_spec(k):
    """The README's golden spec, C = [0, 1/5] closed and U = (3/10, 3/5)
    open, rotated by k/40 (lifted ends may pass 1)."""
    c, u = R(k, 40), (R(3, 10) + R(k, 40)).frac()
    arcs = ((c, c + R(1, 5)), (u, u + R(3, 10)))
    text = "system circle\nfield 5\ntheta -1 1 2\nend\n"
    for name, (lo, hi), kind in zip("CU", arcs, ("closed", "open")):
        text += "region %s\npiece %s %s %s %s\nend\n" % (name, lo, hi, kind, kind)
    return text, [arcs[0]], [arcs[1]]


def mutate(text, which):
    """The certificate text with one clause broken."""
    lines = text.splitlines(keepends=True)
    shifts = [i for i, ln in enumerate(lines) if ln.startswith("shift ")]
    if which == "range":  # a bp value raised above 1
        i = next(i for i, ln in enumerate(lines) if ln.startswith("bp "))
        lines[i] = " ".join(lines[i].split()[:4] + ["2", "0", "1"]) + "\n"
    elif which == "sum":  # a plateau point of the last entry lowered to 1/2
        i = next(i for i in range(shifts[-1], len(lines)) if lines[i].endswith(" 1 0 1\n"))
        lines[i] = lines[i][: -len(" 1 0 1\n")] + " 1 0 2\n"
    elif which == "disjoint":  # the last entry twice
        end = next(i for i in range(shifts[-1], len(lines)) if lines[i].startswith("verdict"))
        lines[end:end] = lines[shifts[-1]:end]
    else:  # a shift moved by 1
        d = int(lines[shifts[0]].split()[1])
        lines[shifts[0]] = "shift %d\n" % (d + 1)
    out = "".join(lines)
    assert out != text
    return out


def library_verdicts(spec, text):
    cf = parse_certfile(text)
    C, U = spec.region("C"), spec.region("U")
    witness = ComparisonWitness(
        inputs=(C, U),
        entries=cf.entries,
        provenance=ComparisonProvenance(certificate=None, tower=(), tables=(), leftover=0),
    )
    return tuple(passed for _, passed in verify_witness(spec.system, C, U, witness).clauses)


@pytest.mark.parametrize("k", [0, 20, 36])
def test_witness_oracle_agrees_with_verify_witness(tmp_path, capsys, k):
    start = time.perf_counter()
    text, closed_arcs, open_arcs = family_spec(k)
    spec_path = tmp_path / "f.spec"
    spec_path.write_text(text)
    cert_path = tmp_path / "f.cert"
    assert cli.run(["compare", "--spec", str(spec_path), "--out", str(cert_path)]) == 0
    capsys.readouterr()
    spec = parse_specfile(text)
    cert_text = cert_path.read_text()
    assert witness_oracle.check(cert_text, closed_arcs, open_arcs) == (True,) * 4
    assert library_verdicts(spec, cert_text) == (True,) * 4
    failed = set()
    for which in ("range", "sum", "disjoint", "inside"):
        bad = mutate(cert_text, which)
        verdicts = witness_oracle.check(bad, closed_arcs, open_arcs)
        assert verdicts == library_verdicts(spec, bad), which
        failed.update(i for i, passed in enumerate(verdicts) if not passed)
    assert failed == {0, 1, 2, 3}  # every clause is broken by some mutant
    assert time.perf_counter() - start < 10


def test_witness_oracle_imports_only_scalars_and_certfile():
    with open(witness_oracle.__file__, encoding="utf-8") as fh:
        imports = {ln.strip() for ln in fh if ln.startswith(("import ", "from "))}
    assert imports == {
        "from bisect import bisect_left",
        "from dyncomp import certfile",
        "from dyncomp.scalars import ExactScalar",
    }
