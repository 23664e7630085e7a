import argparse
import hashlib
import os
import random
import re
import sys
import time

import pytest

from dyncomp import cli, comparison, scalars
from dyncomp.certfile import (
    CertificateFile,
    emit_certfile,
    make_certfile,
    parse_certfile,
)
from dyncomp.comparison import clopen_comparison, verify_witness
from dyncomp.errors import MalformedFile
from dyncomp.plfun import PLFunction
from dyncomp.regions import CylinderRegion, Region
from dyncomp.scalars import ExactScalar, golden_theta
from dyncomp.specfile import (
    parse_scalar,
    parse_specfile,
    parse_system_echo,
    region_hash,
    region_text,
    system_echo,
)
from dyncomp.systems import CircleRotation, Odometer
from dyncomp.towers import RokhlinTower

R = ExactScalar.rational
GOLDEN = CircleRotation(golden_theta())

SMALL_SPEC = """\
system circle
field 5
theta -1 1 2
end

region C
piece 0/1 1/8 closed closed
end

region U
piece 1/4 1/2 open open
end
"""

ODO_SPEC = """\
system odometer
bases 2 3
end
region A
indices 0 4
end
region B
indices 1 2 5
end
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- spec files


def test_parse_specfile_golden():
    spec = parse_specfile(SMALL_SPEC)
    assert spec.system == GOLDEN
    assert spec.region("C") == Region(GOLDEN, [(R(0), R(1, 8), True, True)])
    assert spec.region("U") == Region(GOLDEN, [(R(1, 4), R(1, 2), False, False)])
    assert spec.params == {}


def test_parse_specfile_params_and_odometer():
    spec = parse_specfile(
        SMALL_SPEC
        + "\nparams\nepsilon 1/100\nsigma-fraction 1/4\nsearch-depth 77\nbp-cap 12345\nend\n"
    )
    assert spec.params == {
        "epsilon": R(1, 100),
        "sigma_fraction": R(1, 4),
        "search_depth": 77,
        "bp_cap": 12345,
    }
    odo = parse_specfile(ODO_SPEC)
    assert odo.system == Odometer([2, 3])
    assert odo.region("A") == CylinderRegion(Odometer([2, 3]), [0, 4])
    truncated = parse_specfile("system odometer\nbases 2 3 2\ntruncation 2\nend\n")
    assert truncated.system == Odometer([2, 3, 2], truncation=2)


def test_cli_params_flags_beat_the_spec():
    spec = parse_specfile(SMALL_SPEC + "\nparams\nepsilon 1/100\nsigma-fraction 1/4\nend\n")
    flags = argparse.Namespace(sigma_fraction="1/3", depth=None, epsilon="1/50")
    assert cli._params(spec, flags) == (R(1, 3), None, R(1, 50))
    assert cli._params(spec, argparse.Namespace()) == (R(1, 4), None, R(1, 100))


def test_parse_specfile_scalar_forms():
    spec = parse_specfile(
        "system circle\nfield 5\ntheta -1 1 2\nend\n"
        "region X\npiece 0/1 theta closed open\npiece 9/10 3/2 open open\n"
        "piece 1/2 1/2 closed closed\nend\n"
    )
    X = spec.region("X")
    # [0, theta) and the wrap arc (9/10, 3/2) merge into one lifted arc
    assert X.measure() == golden_theta() + R(1, 10)
    assert X.contains_point(R(1, 2))
    assert X.contains_point(R(19, 20))  # inside the wrap-around arc
    assert not X.contains_point(golden_theta())


@pytest.mark.parametrize(
    "text",
    [
        "region C\nend\n",  # region before system
        "system circle\nfield 5\ntheta -1 1 2\nend\nsystem circle\nfield 5\ntheta -1 1 2\nend\n",
        "system circle\nfield 5\ntheta -1 1 2\nwidgets 3\nend\n",
        "system circle\nfield 5\ntheta -1 1 2\nend\nregion C\npiece 0/1 1/8 closed\nend\n",
        "system circle\nfield 5\ntheta -1 1 2\nend\nregion C\npiece 0/1 1/8 shut shut\nend\n",
        "system circle\nfield 5\ntheta -1 1 2\nend\nregion C\nend\nregion C\nend\n",
        "system circle\nfield 5\ntheta -1 1 2\nend\nparams\nwarp 9\nend\n",
        "system circle\ntheta -1 1 2\nend\n",  # triple before field
        "system circle\nfield 5\ntheta -1 1 2\n",  # unclosed block
        "system circle\nfield 5\nend\n",  # no theta
        "system odometer\nend\n",  # no bases
        "system circle\nfield 1000000000000000003\ntheta -1 1 2\nend\n",  # D too large
        "system odometer\nbases" + " 2" * 40 + "\nend\n",  # resolution 2^40 too large
        "system circle\nfield 5\ntheta -1 1 2\nend\nparams\nsearch-depth 0\nend\n",
        "system circle\nfield 5\ntheta -1 1 2\nend\nparams\nbp-cap 0\nend\n",
        "system circle\nfield 5\ntheta -1 1 2\nend\nparams\nbp-cap -5\nend\n",
        "",
    ],
)
def test_parse_specfile_rejects(text):
    with pytest.raises(MalformedFile):
        parse_specfile(text)


def test_parse_scalar_forms():
    theta = golden_theta()
    x, at = parse_scalar(["3/8"], 0, 5)
    assert (x, at) == (R(3, 8), 1)
    x, at = parse_scalar(["-1", "1", "2"], 0, 5)
    assert (x, at) == (theta.frac(), 3)
    x, at = parse_scalar(["theta", "rest"], 0, 5, theta)
    assert (x, at) == (theta, 1)
    with pytest.raises(MalformedFile):
        parse_scalar(["theta"], 0, 5)  # no theta available
    with pytest.raises(MalformedFile):
        parse_scalar(["1", "2"], 0, 5)  # truncated triple
    with pytest.raises(MalformedFile):
        parse_scalar(["wat"], 0, 5)


def test_system_echo_roundtrip():
    for system in (GOLDEN, Odometer([2, 3, 5], 2)):
        assert parse_system_echo(system_echo(system).split()) == system


def test_region_text_canonical():
    C = Region(GOLDEN, [(R(0), R(1, 8), True, True)])
    assert region_text(C) == "piece 0 0 1 1 0 8 closed closed\n"
    assert region_hash(C) == hashlib.sha256(region_text(C).encode()).hexdigest()
    A = CylinderRegion(Odometer([2, 3]), [4, 0])
    assert region_text(A) == "indices 0 4\n"


# -- certificate files


def test_certfile_roundtrip_clopen():
    system = Odometer([2, 3])
    A = CylinderRegion(system, [0, 4])
    B = CylinderRegion(system, [1, 2, 5])
    w = clopen_comparison(system, A, B)
    report = verify_witness(system, A, B, w)
    cf = make_certfile(system, (("A", A), ("B", B)), w, report)
    text = emit_certfile(cf)
    assert parse_certfile(text) == cf
    assert emit_certfile(parse_certfile(text)) == text
    assert "shift" in text and "val" in text and "verdict pass" in text


def _random_scalar(rng, allow_irrational=True):
    if allow_irrational and rng.random() < 0.4:
        return (golden_theta() * R(rng.randrange(1, 30))).frac()
    return R(rng.randrange(0, 100), rng.randrange(1, 100))


def _random_circle_entries(rng):
    entries = []
    for _ in range(rng.randrange(1, 4)):
        xs = sorted({_random_scalar(rng).frac() for _ in range(rng.randrange(1, 6))})
        bps = [(x, _random_scalar(rng, allow_irrational=False)) for x in xs]
        entries.append((PLFunction(bps), rng.randrange(-40, 40)))
    return tuple(entries)


def test_certfile_roundtrip_random():
    rng = random.Random(7)
    for trial in range(100):
        if trial % 3 == 2:
            system = Odometer([2, 3, 2])
            K = system.resolution
            from dyncomp.plfun import CylinderFunction

            entries = []
            for _ in range(rng.randrange(1, 4)):
                vals = [
                    R(rng.randrange(0, 3), rng.randrange(1, 5)) for _ in range(K)
                ]
                entries.append((CylinderFunction(vals), rng.randrange(-20, 20)))
            entries = tuple(entries)
        else:
            system = GOLDEN
            entries = _random_circle_entries(rng)
        cf = CertificateFile(
            version=1,
            tool="0.1.0",
            system=system,
            hashes=(("C", "ab" * 32), ("U", "cd" * 32)),
            entries=entries,
            verdicts=(
                ("ranges within [0, 1]", bool(rng.randrange(2))),
                ("sums to 1 on the closed set", True),
            ),
        )
        text = emit_certfile(cf)
        assert parse_certfile(text) == cf
        assert emit_certfile(parse_certfile(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        "",
        "dyncomp-cert 2\ntool dyncomp 0\nsystem circle 5 -1 1 2\n",
        "dyncomp-cert 1\nsystem circle 5 -1 1 2\n",
        "dyncomp-cert 1\ntool dyncomp 0\nsystem klein 1\n",
        "dyncomp-cert 1\ntool dyncomp 0\nsystem circle 1000000000000000003 -1 1 2\n",
        "dyncomp-cert 1\ntool dyncomp 0\nsystem circle 5 -1 1 2\nshift 0\n",
        "dyncomp-cert 1\ntool dyncomp 0\nsystem circle 5 -1 1 2\nbp 0 0 1 0 0 1\n",
        "dyncomp-cert 1\ntool dyncomp 0\nsystem circle 5 -1 1 2\nshift 0\nbp 0 0 1\n",
        "dyncomp-cert 1\ntool dyncomp 0\nsystem circle 5 -1 1 2\nverdict maybe x\n",
        "dyncomp-cert 1\ntool dyncomp 0\nsystem odometer 40" + " 2" * 40 + "\n",
    ],
)
def test_certfile_rejects(text):
    with pytest.raises(MalformedFile):
        parse_certfile(text)


# -- the command line


def test_cli_tower_golden(tmp_path, capsys):
    spec = write(tmp_path, "g.spec", SMALL_SPEC)
    assert cli.run(["tower", "--spec", spec, "--base", "0/1", "theta"]) == 0
    out = capsys.readouterr().out
    assert "column 0 height 1" in out
    assert "column 1 height 2" in out
    assert out.strip().endswith("kac 1/1")


def test_cli_tower_full_circle_base(tmp_path, capsys):
    spec = write(tmp_path, "y.spec", SMALL_SPEC + "region Y\npiece 0/1 1/1 closed closed\nend\n")
    for base in (["--base", "0/1", "1/1"], ["--region", "Y"]):
        assert cli.run(["tower", "--spec", spec] + base) == 0
        out = capsys.readouterr().out
        assert out == "column 0 height 1 measure 1/1 cell [0/1, 1/1)\nkac 1/1\n"


def test_cli_refine(tmp_path, capsys):
    spec = write(tmp_path, "g.spec", SMALL_SPEC)
    code = cli.run(
        ["refine", "--spec", spec, "--base", "0/1", "theta", "--parts", "C", "U"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "kac 1/1" in out
    assert re.search(r"part C levels \d+", out)


def test_cli_refine_odometer_adds_the_rest(tmp_path, capsys):
    # P covers a third of the 36 cylinders; the rest of the space becomes
    # the other part, as on the circle
    spec = write(
        tmp_path,
        "o.spec",
        "system odometer\nbases 2 3 2 3\nend\nregion P\nindices"
        + "".join(" %d" % i for i in range(12))
        + "\nend\n",
    )
    code = cli.run(["refine", "--spec", spec, "--levels", "3", "--parts", "P"])
    out = capsys.readouterr().out
    assert code == 0
    assert "kac 1/1" in out
    assert out.endswith("part P levels 6\n")


def test_cli_rejects_huge_odometer_quickly(tmp_path, capsys):
    # K = 2^40 cylinders: refused by both parsers before anything sized by K
    bases = " 2" * 40
    spec = write(
        tmp_path,
        "huge.spec",
        "system odometer\nbases%s\nend\nregion A\nindices 0\nend\n"
        "region B\nindices 1 2\nend\n" % bases,
    )
    cert = write(tmp_path, "huge.cert", "dyncomp-cert 1\ntool dyncomp 0\nsystem odometer 40%s\n" % bases)
    small = write(tmp_path, "o.spec", ODO_SPEC)
    for argv in (
        ["clopen-compare", "--spec", spec],
        ["verify", "--spec", small, "--cert", cert],
    ):
        start = time.perf_counter()
        assert cli.run(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert "exceeds the bound 4096" in capsys.readouterr().err


def test_cli_compare_verify_and_tamper(tmp_path, capsys):
    spec = write(tmp_path, "g.spec", SMALL_SPEC)
    cert = str(tmp_path / "w.cert")
    assert cli.run(["compare", "--spec", spec, "--out", cert]) == 0
    out = capsys.readouterr().out
    assert "verdict pass translated supports inside the open set" in out
    assert cli.run(["verify", "--spec", spec, "--cert", cert]) == 0
    capsys.readouterr()

    text = (tmp_path / "w.cert").read_text()
    bad = re.sub(r"^shift (-?\d+)$", "shift 97", text, count=1, flags=re.M)
    assert bad != text
    (tmp_path / "bad.cert").write_text(bad)
    assert cli.run(["verify", "--spec", spec, "--cert", str(tmp_path / "bad.cert")]) == 3
    capsys.readouterr()

    bad = re.sub(r"^input C \w+$", "input C 0f" * 1, text, count=1, flags=re.M)
    (tmp_path / "bad2.cert").write_text(bad)
    assert cli.run(["verify", "--spec", spec, "--cert", str(tmp_path / "bad2.cert")]) == 3
    capsys.readouterr()


def test_cli_verify_refuses_another_system_and_a_single_input(tmp_path, capsys):
    spec = write(tmp_path, "o.spec", ODO_SPEC)
    cert = tmp_path / "o.cert"
    assert cli.run(["clopen-compare", "--spec", spec, "--out", str(cert)]) == 0
    capsys.readouterr()
    text = cert.read_text()
    # bases 2 3 2 truncated at 2 have the spec's six cylinders, so only the
    # echo differs
    other = tmp_path / "other.cert"
    other.write_text(text.replace("system odometer 2 2 3\n", "system odometer 2 2 3 2\n"))
    assert cli.run(["verify", "--spec", spec, "--cert", str(other)]) == 3
    assert capsys.readouterr().out == "mismatch system echo differs from the spec file\n"
    single = tmp_path / "single.cert"
    single.write_text("".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("input B ")))
    assert cli.run(["verify", "--spec", spec, "--cert", str(single)]) == 1
    assert capsys.readouterr().err == "error: certificate must record exactly two inputs\n"


def test_cli_compare_deterministic(tmp_path, capsys):
    spec = write(tmp_path, "g.spec", SMALL_SPEC)
    a, b = str(tmp_path / "a.cert"), str(tmp_path / "b.cert")
    assert cli.run(["compare", "--spec", spec, "--out", a]) == 0
    out_a = capsys.readouterr().out
    assert cli.run(["compare", "--spec", spec, "--out", b]) == 0
    out_b = capsys.readouterr().out
    assert out_a.replace("a.cert", "") == out_b.replace("b.cert", "")
    assert (tmp_path / "a.cert").read_bytes() == (tmp_path / "b.cert").read_bytes()


def test_cli_clopen_compare(tmp_path, capsys):
    spec = write(tmp_path, "o.spec", ODO_SPEC)
    cert = str(tmp_path / "o.cert")
    assert cli.run(["clopen-compare", "--spec", spec, "--out", cert]) == 0
    out = capsys.readouterr().out
    assert "match column 0 source 0 target 1 shift 1" in out
    assert cli.run(["verify", "--spec", spec, "--cert", cert]) == 0


EMPTY_SOURCE_SPEC = (
    "system circle\nfield 5\ntheta -1 1 2\nend\n"
    "region F\nend\nregion E\npiece 0/1 1/2 open open\nend\n"
)


def test_cli_birkhoff_empty_source(tmp_path, capsys):
    spec = write(tmp_path, "b.spec", EMPTY_SOURCE_SPEC)
    assert cli.run(["birkhoff", "--spec", spec]) == 0
    out = capsys.readouterr().out
    assert "N0 4" in out and "N1 216" in out and "sigma 29/128" in out


def test_cli_bp_cap_lasts_one_run(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DYNCOMP_BP_CAP", raising=False)
    capped = write(tmp_path, "cap.spec", EMPTY_SOURCE_SPEC + "params\nbp-cap 5\nend\n")
    plain = write(tmp_path, "plain.spec", EMPTY_SOURCE_SPEC)
    assert cli.run(["birkhoff", "--check", "--spec", capped]) == 4  # S_4 needs 16
    assert "DYNCOMP_BP_CAP" not in os.environ
    assert cli.run(["birkhoff", "--check", "--spec", plain]) == 0
    assert "DYNCOMP_BP_CAP" not in os.environ
    monkeypatch.setenv("DYNCOMP_BP_CAP", "10000")
    assert cli.run(["birkhoff", "--check", "--spec", capped]) == 0  # the caller's cap wins
    assert os.environ["DYNCOMP_BP_CAP"] == "10000"
    capsys.readouterr()


def test_cli_oracle_birkhoff_honours_spec_bp_cap(tmp_path, capsys, monkeypatch):
    # g has 8 breakpoints, so the first doubling (S_2) would need up to 16
    monkeypatch.delenv("DYNCOMP_BP_CAP", raising=False)
    spec = write(tmp_path, "cap.spec", GOLDEN_FE_SPEC + "params\nbp-cap 5\nend\n")
    for argv in (["birkhoff"], ["oracle", "birkhoff", "--samples", "10"]):
        assert cli.run(argv + ["--spec", spec]) == 4
        assert "S_2 would need up to 16 breakpoints (cap 5)" in capsys.readouterr().err


def test_cli_rejects_nonpositive_integer_params(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DYNCOMP_BP_CAP", raising=False)
    spec = write(tmp_path, "b.spec", EMPTY_SOURCE_SPEC)
    assert cli.run(["smallness", "--spec", spec, "--region", "E", "--depth", "0"]) == 1
    assert "--depth must be a positive integer" in capsys.readouterr().err
    assert cli.run(["oracle", "birkhoff", "--samples", "0"]) == 1
    assert "--samples must be a positive integer" in capsys.readouterr().err
    assert cli.run(["oracle", "clopen", "--K", "12", "--trials", "-1"]) == 1
    assert "--trials must be a positive integer" in capsys.readouterr().err
    golden = write(tmp_path, "g.spec", SMALL_SPEC)
    for argv in (
        ["tower", "--spec", golden, "--levels", "0"],
        ["refine", "--spec", golden, "--levels", "-1", "--parts", "C"],
    ):
        assert cli.run(argv) == 1
        assert "--levels must be a positive integer" in capsys.readouterr().err
    zero = write(tmp_path, "zero.spec", EMPTY_SOURCE_SPEC + "params\nbp-cap 0\nend\n")
    assert cli.run(["birkhoff", "--spec", zero]) == 1
    assert "bp-cap must be a positive integer" in capsys.readouterr().err
    for value in ("abc", "0"):
        monkeypatch.setenv("DYNCOMP_BP_CAP", value)
        assert cli.run(["birkhoff", "--spec", spec]) == 1
        assert "DYNCOMP_BP_CAP" in capsys.readouterr().err


# The README's golden spec with the Birkhoff pair F = [0, 1/10], E = (3/10, 3/5)
GOLDEN_FE_SPEC = """\
# golden rotation, a closed arc C and a fatter open arc U
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


def sha256(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def test_cli_golden_outputs_byte_identical(tmp_path, capsys):
    # digests of compare stdout (up to its "wrote" line), the certificate
    # file and birkhoff --check stdout, as first emitted; any change to the
    # exact kernels that moves one byte of output fails here
    spec = write(tmp_path, "golden.spec", GOLDEN_FE_SPEC)
    cert = tmp_path / "golden.cert"
    assert cli.run(["compare", "--spec", spec, "--out", str(cert)]) == 0
    body, _, wrote = capsys.readouterr().out.rpartition("wrote ")
    assert wrote == "%s\n" % cert
    assert sha256(body) == "2e7eab51d34aacb66c230fdb6ad4545b60d97019581784db818ced2618cf8082"
    assert sha256(cert.read_bytes()) == (
        "d1f432ebb84ec8e5928a0a0e32470ba6f3154100bdb671c66a6a2ba4b0503d55"
    )
    assert cli.run(["verify", "--spec", spec, "--cert", str(cert)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "verdict pass ranges within [0, 1]",
        "verdict pass sums to 1 on the closed set",
        "verdict pass translated supports pairwise disjoint",
        "verdict pass translated supports inside the open set",
    ]
    assert cli.run(["birkhoff", "--spec", spec, "--check"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("checked N1 N1+1 2*N1\n")
    assert sha256(out) == "681e6fd5676c4e0a594214773a356d3ddd371324f5386ebaa40195c21618a827"


# The golden spec rotated by 20/40 (U = (4/5, 11/10) passes through 0) and by
# 36/40 (C = [9/10, 11/10] passes through 0), with the Birkhoff pair rotated
# alike, and the digests of compare stdout and the certificate as first
# emitted; birkhoff --check prints the same bytes at every rotation.
SEAM_SPECS = {
    20: ("1 0 2 7 0 10", "4 0 5 11 0 10", "1 0 2 3 0 5", "4 0 5 11 0 10",
         "22de904b4b18a8856c71613b013b136a6567faa181c3ad44babf508be467b8fd",
         "edc930d6d7ebc8a8adbad40ea9b2d4c694ef4001b8dbc1c84cdd5f1bfe4f8cc3"),
    36: ("9 0 10 11 0 10", "1 0 5 1 0 2", "9 0 10 1 0 1", "1 0 5 1 0 2",
         "6e307290476150a434fa13e79630fef20853e6e4f328db8fb60bf7b688c0e76e",
         "c6df01f63f0e9f75f45c585336ad0c0e6f8e591a333c2c72d96ed0de9ca9b96b"),
}


def seam_spec(k):
    C, U, F, E = SEAM_SPECS[k][:4]
    text = "system circle\n  field 5\n  theta -1 1 2\nend\n"
    for name, piece, kind in (("C", C, "closed"), ("U", U, "open"),
                              ("F", F, "closed"), ("E", E, "open")):
        text += "\nregion %s\n  piece %s %s %s\nend\n" % (name, piece, kind, kind)
    return text


@pytest.mark.parametrize("k", sorted(SEAM_SPECS))
def test_cli_seam_outputs_byte_identical(tmp_path, capsys, k):
    # the seam-cutting paths (trapezoids and supports through 0, levels and
    # arcs cut at the seam) pinned end to end
    spec = write(tmp_path, "seam.spec", seam_spec(k))
    cert = tmp_path / "seam.cert"
    assert cli.run(["compare", "--spec", spec, "--out", str(cert)]) == 0
    body, _, wrote = capsys.readouterr().out.rpartition("wrote ")
    assert wrote == "%s\n" % cert
    assert sha256(body) == SEAM_SPECS[k][4]
    assert sha256(cert.read_bytes()) == SEAM_SPECS[k][5]
    assert cli.run(["verify", "--spec", spec, "--cert", str(cert)]) == 0
    assert all(line.startswith("verdict pass") for line in capsys.readouterr().out.splitlines())
    assert cli.run(["birkhoff", "--spec", spec, "--check"]) == 0
    out = capsys.readouterr().out
    assert sha256(out) == "681e6fd5676c4e0a594214773a356d3ddd371324f5386ebaa40195c21618a827"


def test_matched_region_needs_no_sweep(tmp_path, capsys, monkeypatch):
    # the matched open levels, sorted by key and cut at the seam, give the
    # region the sweeping constructor builds, on the golden spec and the
    # seam specs (offsets 20 and 36 of the golden family, through 0)
    seen = []
    matched = comparison._matched

    def checked(system, levels):
        region = matched(system, levels)
        assert region == Region(system, [(lo, hi, False, False) for lo, hi in levels])
        seen.append(any(hi.cmp_int(1) > 0 for _, hi in levels))
        return region

    monkeypatch.setattr(comparison, "_matched", checked)
    for text in [GOLDEN_FE_SPEC] + [seam_spec(k) for k in sorted(SEAM_SPECS)]:
        spec = write(tmp_path, "m.spec", text)
        assert cli.run(["compare", "--spec", spec]) == 0
    capsys.readouterr()
    assert len(seen) == 1 + len(SEAM_SPECS) and any(seen)  # one attempt each, a level past 1


def test_cli_verify_rejects_zero_denominators(tmp_path, capsys):
    # a zero denominator anywhere in a certificate is a malformed file
    # (exit 1), never a raw ZeroDivisionError
    spec = write(tmp_path, "g.spec", SMALL_SPEC)
    cert = tmp_path / "w.cert"
    assert cli.run(["compare", "--spec", spec, "--out", str(cert)]) == 0
    capsys.readouterr()
    text = cert.read_text()
    for pattern, repl in (
        (r"^bp (-?\d+) (-?\d+) \d+ ", r"bp \1 \2 0 "),  # abscissa denominator
        (r"^(bp( -?\d+){5}) \d+$", r"\1 0"),  # value denominator
        (r"^system circle 5 -1 1 2$", "system circle 5 -1 1 0"),
    ):
        bad = re.sub(pattern, repl, text, count=1, flags=re.M)
        assert bad != text, pattern
        (tmp_path / "bad.cert").write_text(bad)
        assert cli.run(["verify", "--spec", spec, "--cert", str(tmp_path / "bad.cert")]) == 1
        assert "bad scalar triple" in capsys.readouterr().err
        with pytest.raises(MalformedFile):
            parse_certfile(bad)
    odo = "dyncomp-cert 1\ntool dyncomp 0\nsystem odometer 1 2 3\nshift 0\nval 1 1 0 0\n"
    with pytest.raises(MalformedFile, match="bad scalar triple"):
        parse_certfile(odo)


def test_cli_verify_fails_a_certificate_with_no_entries(tmp_path, capsys):
    # no shift lines: the sum over the non-empty closed set is 0, so the
    # partition clause fails (exit 3) instead of raising on an empty sum
    spec = write(tmp_path, "g.spec", SMALL_SPEC)
    cert = tmp_path / "w.cert"
    assert cli.run(["compare", "--spec", spec, "--out", str(cert)]) == 0
    capsys.readouterr()
    lines = cert.read_text().splitlines(keepends=True)
    bare = "".join(ln for ln in lines if not ln.startswith(("shift", "bp")))
    (tmp_path / "bare.cert").write_text(bare)
    assert cli.run(["verify", "--spec", spec, "--cert", str(tmp_path / "bare.cert")]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "verdict pass ranges within [0, 1]",
        "verdict fail sums to 1 on the closed set",
        "verdict pass translated supports pairwise disjoint",
        "verdict pass translated supports inside the open set",
    ]


def test_cli_golden_tower_and_refine_byte_identical(tmp_path, capsys):
    # stdout digests of `tower` and `refine` over a disjoint base for 32
    # levels, as first emitted, so the rotating translate and the indexed
    # sweep cannot move a byte
    spec = write(tmp_path, "golden.spec", GOLDEN_FE_SPEC)
    runs = (
        (["tower", "--levels", "32"],
         "8c174c93d966a6661facec3684df3c599c10a566c7a4bfc3c07e1f579210b329"),
        (["refine", "--levels", "32", "--parts", "C", "U"],
         "0badeb7fc3fe8a9293817414c477b926a4542dce2db92df35e169e90e82898a4"),
        (["refine", "--levels", "32", "--parts", "F", "E"],
         "ec93906be5a6f0945f72aa2106544f748b5e81d4a5b6e6da299e2671cad58240"),
    )
    for argv, digest in runs:
        assert cli.run(argv[:1] + ["--spec", spec] + argv[1:]) == 0
        assert sha256(capsys.readouterr().out) == digest


TWO_ARC_REGION = """\
region Y
  piece 0/1 1/10 closed closed
  piece 1/2 7/10 closed closed
end
"""


def test_cli_two_arc_and_full_circle_towers_byte_identical(tmp_path, capsys):
    # stdout digests, as first emitted, for the bases the golden pins miss:
    # [0, 1/10] u [1/2, 7/10], whose first return is walked and whose cells
    # include a two-arc one, and the full circle, one level with no step
    spec = write(tmp_path, "golden.spec", GOLDEN_FE_SPEC + "\n" + TWO_ARC_REGION)
    full = ["--base", "0", "0", "1", "1", "0", "1"]
    runs = (
        (["tower", "--region", "Y"],
         "95c59aa51e31eb06bdf215bc936c5d4761bef33a59bedcc4952a74c578105ed7"),
        (["refine", "--region", "Y", "--parts", "C"],
         "6cac7d328b27d19ac226bb2e3f9a3491db65cc10ca39aa758f8261b1908ca37b"),
        (["tower"] + full,
         "c8600f686c23f06ab13a1baa1644d042d6a71ffaa33c35913896ed00d6f56c5a"),
        (["refine"] + full + ["--parts", "C"],
         "9758e6325b513752647f14124f2e52adf8d72b7f765437484d6aee7ea6f38cb6"),
    )
    for argv, digest in runs:
        assert cli.run(argv[:1] + ["--spec", spec] + argv[1:]) == 0
        assert sha256(capsys.readouterr().out) == digest


MIXED_FIELD_SPEC = """\
# the golden rotation; the second field line makes Q's end sqrt(2)/4
system circle
  field 5
  theta -1 1 2
  field 2
end

region Q
  piece 0/1 0 1 4 closed closed
end
"""


def test_cli_refine_refuses_a_part_from_another_field(tmp_path, capsys):
    spec = write(tmp_path, "mixed.spec", MIXED_FIELD_SPEC)
    assert cli.run(["refine", "--spec", spec, "--levels", "8", "--parts", "Q"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "incompatible quadratic fields" in err
    # the whole circle takes no step, so its tower needs no theta and
    # refines against the sqrt(2) part, as it always has
    assert cli.run(["refine", "--spec", spec, "--base", "0/1", "1/1", "--parts", "Q"]) == 0
    assert sha256(capsys.readouterr().out) == (
        "513558438729fab18c7c2a188f10dc3077640c06049bef58fd43f9763403e208")


def _count_calls(monkeypatch, owners, name):
    """Replace owner.name by a counting wrapper on every owner; the returned
    list grows by one per call."""
    calls = []
    original = getattr(owners[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_cli_golden_work_stays_bounded(tmp_path, capsys):
    # calls to the two scalar builders over one golden compare, verify and
    # birkhoff --check, pinned 10% above the count they first had (7,600
    # and 11,192; 14,220 and 19,994 before verify streamed the file into
    # the integer checker, and 33,104 and 39,704 before flat segments, 0/1
    # level values and per-width trapezoids skipped their arithmetic); the
    # count is deterministic, so it guards the work where a wall-time
    # budget could not
    spec = write(tmp_path, "golden.spec", GOLDEN_FE_SPEC)
    cert = str(tmp_path / "golden.cert")
    codes = {scalars._reduced.__code__: "_reduced", scalars._new.__code__: "_new"}
    calls = dict.fromkeys(codes.values(), 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    sys.setprofile(count)
    try:
        codes_out = [cli.run(argv) for argv in (
            ["compare", "--spec", spec, "--out", cert],
            ["verify", "--spec", spec, "--cert", cert],
            ["birkhoff", "--spec", spec, "--check"])]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes_out == [0, 0, 0]
    assert calls["_reduced"] <= 8_360 and calls["_new"] <= 12_311, calls


def test_cli_reuses_one_parser(tmp_path, capsys):
    # the argparse tree is built once per process; a usage error, a flag
    # and a run without it, in either order, keep nothing from one run to
    # the next
    spec = write(tmp_path, "golden.spec", GOLDEN_FE_SPEC)
    runs = (["birkhoff", "--spec", spec, "--frobnicate"],
            ["birkhoff", "--spec", spec, "--sigma-fraction", "1/3"],
            ["birkhoff", "--spec", spec])
    first = []
    for argv in runs:
        first.append((cli.run(argv), capsys.readouterr()))
    assert [code for code, _ in first] == [1, 0, 0]
    assert first[0][1].err == "usage error: unrecognized arguments: --frobnicate\n"
    assert first[1][1].out != first[2][1].out
    for argv, want in reversed(list(zip(runs, first))):
        assert (cli.run(argv), capsys.readouterr()) == want
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("crash", [RecursionError("maximum recursion depth exceeded"),
                                   NotImplementedError("no such case")])
def test_cli_crashes_are_errors_not_failed_checks(tmp_path, capsys, monkeypatch, crash):
    # RecursionError and NotImplementedError are RuntimeErrors, but a crash
    # is not a failed proof: exit 4, named; a postcondition's RuntimeError
    # stays a verification failure, exit 3
    spec = write(tmp_path, "golden.spec", GOLDEN_FE_SPEC)

    def raising(*args):
        raise crash

    monkeypatch.setattr(cli, "birkhoff_certificate", raising)
    assert cli.run(["birkhoff", "--spec", spec]) == 4
    assert capsys.readouterr().err == "error [%s]: %s\n" % (type(crash).__name__, crash)

    def failing(*args):
        raise RuntimeError("certificate postcondition failed")

    monkeypatch.setattr(cli, "birkhoff_certificate", failing)
    assert cli.run(["birkhoff", "--spec", spec]) == 3
    assert capsys.readouterr().err == (
        "verification failure: certificate postcondition failed\n")


def test_cli_each_command_verifies_once(tmp_path, capsys, monkeypatch):
    witness_checks = _count_calls(monkeypatch, (comparison, cli), "verify_witness")
    tower_checks = _count_calls(monkeypatch, (RokhlinTower,), "verify")
    golden = write(tmp_path, "g.spec", SMALL_SPEC)
    odo = write(tmp_path, "o.spec", ODO_SPEC)
    for argv, witnesses, towers in (
        (["compare", "--spec", golden, "--out", str(tmp_path / "g.cert")], 1, 1),
        (["compare", "--spec", odo, "--closed", "A", "--open", "B"], 1, 0),
        (["clopen-compare", "--spec", odo, "--out", str(tmp_path / "o.cert")], 1, 0),
        (["refine", "--spec", golden, "--base", "0/1", "theta", "--parts", "C", "U"], 0, 1),
    ):
        del witness_checks[:], tower_checks[:]
        assert cli.run(argv) == 0
        assert (len(witness_checks), len(tower_checks)) == (witnesses, towers), argv
    capsys.readouterr()


def test_cli_compare_retries_with_taller_towers(tmp_path, capsys, monkeypatch):
    # a failed attempt triples N_base, and the third failure is the exit: a
    # search depth of 1 exhausts every attempt, and matched levels that leave
    # an arc of C uncovered end in ColumnDeficit
    spec = write(tmp_path, "golden.spec", GOLDEN_FE_SPEC)
    bases = []
    attempt = comparison._attempt

    def recorded(*args):
        bases.append(args[6])
        return attempt(*args)

    monkeypatch.setattr(comparison, "_attempt", recorded)
    assert cli.run(["compare", "--spec", spec, "--depth", "1"]) == 4
    assert bases == [32, 96, 288]
    assert capsys.readouterr().err == (
        "error [SearchExhausted]: no free translate into the target within depth 1\n")
    del bases[:]
    monkeypatch.setattr(comparison, "_source_levels", lambda tower, tables: [])
    assert cli.run(["compare", "--spec", spec]) == 4
    assert bases == [32, 96, 288]
    assert capsys.readouterr().err == (
        "error [ColumnDeficit]: matched levels leave an arc of C uncovered\n")


def test_cli_smallness_and_thincover(tmp_path, capsys):
    text = (
        "system circle\nfield 5\ntheta -1 1 2\nend\n"
        "region F\npiece 0/1 0/1 closed closed\npiece 1/2 1/2 closed closed\nend\n"
        "region U\npiece 3/10 6/10 open open\nend\n"
    )
    spec = write(tmp_path, "s.spec", text)
    assert cli.run(["smallness", "--spec", spec]) == 0
    out = capsys.readouterr().out
    assert "constant 1" in out and "verdict proven" in out
    assert cli.run(["thincover", "--spec", spec]) == 0
    out = capsys.readouterr().out
    assert "piece 0 shift" in out and "nbhd" in out and "fail" not in out
    assert cli.run(["thincover", "--spec", spec, "--epsilon", "1/50"]) == 0
    out = capsys.readouterr().out
    assert "mass" in out and "epsilon 1/50" in out and "fail" not in out


def test_cli_exit_codes(tmp_path, capsys):
    assert cli.run(["frobnicate"]) == 1
    capsys.readouterr()
    assert cli.run(["compare"]) == 1  # --spec missing
    capsys.readouterr()
    bad = write(tmp_path, "bad.spec", "system circle\nwidgets\nend\n")
    assert cli.run(["tower", "--spec", bad, "--base", "0/1", "1/4"]) == 1
    capsys.readouterr()
    infeasible = write(
        tmp_path,
        "inf.spec",
        "system circle\nfield 5\ntheta -1 1 2\nend\n"
        "region C\npiece 0/1 1/2 closed closed\nend\n"
        "region U\npiece 0/1 1/2 open open\nend\n",
    )
    assert cli.run(["compare", "--spec", infeasible]) == 2
    capsys.readouterr()
    notcert = write(tmp_path, "x.cert", "not a cert\n")
    spec = write(tmp_path, "g.spec", SMALL_SPEC)
    assert cli.run(["verify", "--spec", spec, "--cert", notcert]) == 1
    capsys.readouterr()


def test_cli_oracles(tmp_path, capsys):
    assert cli.run(["oracle", "return-times", "--q", "233"]) == 0
    out = capsys.readouterr().out
    assert "oracle agree" in out and "kac 233/233" in out
    assert cli.run(["oracle", "clopen", "--K", "12", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "agree 20/20" in out
    text = (
        "system circle\nfield 5\ntheta -1 1 2\nend\n"
        "region F\nend\nregion E\npiece 0/1 1/2 open open\nend\n"
    )
    spec = write(tmp_path, "b.spec", text)
    assert (
        cli.run(["oracle", "birkhoff", "--spec", spec, "--samples", "500"]) == 0
    )
    out = capsys.readouterr().out
    assert "oracle agree" in out


def test_brute_clopen_feasibility_is_a_count():
    # large sets, which a recursive search could not place, and more
    # source cylinders than targets, which a backtracking one takes
    # factorial time to refuse
    assert cli._brute_clopen_feasible(4096, range(1500), range(2000))
    assert not cli._brute_clopen_feasible(4096, range(2000), range(1500))


def test_integer_return_counts_golden():
    counts = cli.integer_return_counts(golden_theta(), 10946)
    assert counts == {1: 2586, 2: 4180}
    assert cli.return_times_agree(GOLDEN, counts, 10946)
    assert not cli.return_times_agree(GOLDEN, {1: 2586, 2: 4181}, 10946)
