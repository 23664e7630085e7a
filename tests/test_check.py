"""The circle checker `check.CircleCheck` behind `dyncomp verify`: the same
exit code, stdout and stderr as the old path in tests/verify_oracle.py
(a whole-text parse into `PLFunction`s and the region-kernel check) on the
golden family, on mutants and on single edits of the golden certificate;
the bp line count held to the breakpoint cap; and no builder code run."""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import verify_oracle
from dyncomp import cli

GOLDEN = """\
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

region F
  piece 0 0 1 1 0 10 closed closed
end

region E
  piece 3 0 10 3 0 5 open open
end
"""


def rotated(k):
    """GOLDEN with C and U moved by k/40, each lifted to start in [0, 1)."""
    text = "system circle\nfield 5\ntheta -1 1 2\nend\n"
    for name, (lo, hi), kind in (("C", (0, 8), "closed"), ("U", (12, 24), "open")):
        lo, hi = lo + k, hi + k
        if lo >= 40:
            lo, hi = lo - 40, hi - 40
        text += "region %s\npiece %d/40 %d/40 %s %s\nend\n" % (name, lo, hi, kind, kind)
    return text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def old_run(argv):
    """cli.run with the old verify body in the parser."""
    new = cli.cmd_verify
    cli.cmd_verify = verify_oracle.cmd_verify
    cli.build_parser.cache_clear()
    try:
        return run(argv)
    finally:
        cli.cmd_verify = new
        cli.build_parser.cache_clear()


def certificate(directory, spec_text):
    spec = directory / "s.spec"
    spec.write_text(spec_text)
    cert = directory / "s.cert"
    assert run(["compare", "--spec", str(spec), "--out", str(cert)])[0] == 0
    return spec, cert.read_text()


def both(directory, spec, text):
    cert = directory / "m.cert"
    cert.write_text(text)
    argv = ["verify", "--spec", str(spec), "--cert", str(cert)]
    return run(argv), old_run(argv)


def mutants(text):
    """Shifts moved by 1 and bp lines with a value or an abscissa changed."""
    lines = text.splitlines(keepends=True)
    shifts = [i for i, ln in enumerate(lines) if ln.startswith("shift ")]
    bps = [i for i, ln in enumerate(lines) if ln.startswith("bp ")]
    out = []
    for i in shifts[::len(shifts) // 3][:3]:
        d = int(lines[i].split()[1])
        out.append(lines[:i] + ["shift %d\n" % (d + 1)] + lines[i + 1:])
    for i in bps[::len(bps) // 3][:3]:
        t = lines[i].split()
        for new in (t[:4] + ["1", "0", "2"], t[:4] + ["2", "0", "1"],
                    t[:1] + [str(int(t[1]) + 1)] + t[2:]):
            out.append(lines[:i] + [" ".join(new) + "\n"] + lines[i + 1:])
    return ["".join(m) for m in out]


@pytest.mark.parametrize("k", [0, 20, 36])
def test_verify_matches_the_old_path_on_the_family_and_mutants(tmp_path, k):
    spec, text = certificate(tmp_path, rotated(k))
    outcomes = set()
    for bad in [text] + mutants(text):
        new, old = both(tmp_path, spec, bad)
        assert new == old
        outcomes.add(new[0])
    assert outcomes == {0, 3}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    spec, text = certificate(directory, GOLDEN)
    return directory, spec, text.splitlines(keepends=True)


TOKENS = st.one_of(
    st.integers(-3, 300).map(str),
    st.sampled_from(["bp", "shift", "val", "verdict", "input", "pass", "fail", "tool",
                     "system", "circle", "odometer", "C", "U", "F", "E", "x", "1/2",
                     "-0", "007", "1_0", "١", "\x0b", "", "0 0 1"]),
    st.text("0123456789-+ \n", max_size=4),
)


@st.composite
def edits(draw, lines):
    """One token changed, or one line dropped, doubled or swapped with another."""
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["token", "nudge", "drop", "twice", "swap"]))
    out = list(lines)
    if kind in ("token", "nudge"):
        tokens = out[i].split()
        t = draw(st.integers(0, len(tokens) - 1))
        if kind == "nudge" and tokens[t].lstrip("-").isdigit():
            tokens[t] = str(int(tokens[t]) + draw(st.sampled_from([-1, 1, 2, -7])))
        else:
            tokens[t] = draw(TOKENS)
        out[i] = " ".join(tokens) + "\n"
    elif kind == "drop":
        del out[i]
    elif kind == "twice":
        out.insert(i, out[i])
    else:
        j = draw(st.integers(0, len(lines) - 1))
        out[i], out[j] = out[j], out[i]
    return "".join(out)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_verify_matches_the_old_path_on_single_edits(golden, data):
    directory, spec, lines = golden
    text = data.draw(edits(lines))
    new, old = both(directory, spec, text)
    assert new == old
    assert new[0] in (0, 1, 2, 3, 4) and "Traceback" not in new[2]


def test_verify_holds_the_file_to_the_breakpoint_cap(tmp_path, monkeypatch):
    # a file with more bp lines than the cap ends in exit 4 at the first
    # one past it, before any clause runs and before a later line is read
    spec, text = certificate(tmp_path, GOLDEN)
    count = text.count("\nbp ")
    cert = tmp_path / "c.cert"
    cert.write_text(text.replace("verdict pass ranges", "klein", 1))
    argv = ["verify", "--spec", str(spec), "--cert", str(cert)]
    monkeypatch.setenv(cli.BP_CAP, str(count - 1))
    assert run(argv) == (4, "", "error [BreakpointBudget]: certificate holds more than %d "
                                "breakpoints (cap %d)\n" % (count - 1, count - 1))
    monkeypatch.setenv(cli.BP_CAP, str(count))
    assert run(argv) == (1, "", "error: unknown certificate line 'klein'\n")
    cert.write_text(text)
    assert run(argv)[0] == 0


def test_verify_runs_no_builder_code(tmp_path):
    # the trusted base of a circle verify: no function of plfun, towers or
    # smallness, and of comparison only the witness data classes
    spec, text = certificate(tmp_path, GOLDEN)
    cert = tmp_path / "g.cert"
    cert.write_text(text)
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(record)
    try:
        code = run(["verify", "--spec", str(spec), "--cert", str(cert)])[0]
    finally:
        sys.setprofile(None)
    assert code == 0
    classes = ("ComparisonWitness.", "ComparisonProvenance.", "VerificationReport.")
    called = sorted("%s:%s" % (Path(c.co_filename).name, c.co_qualname) for c in seen
                    if Path(c.co_filename).name in ("plfun.py", "towers.py", "smallness.py")
                    or Path(c.co_filename).name == "comparison.py"
                    and not c.co_qualname.startswith(classes))
    assert called == []
    assert any(Path(c.co_filename).name == "check.py" for c in seen)
