"""The README's examples run as written.

The spec block under "Command line" is written to golden.spec, each
`$ dyncomp ...` line of the transcript runs through `cli.run` in that
directory, and its stdout must match the lines shown below it, where a
`...` line skips ahead to the next line that matches.  The library example
is executed, and each `print` must show what its `#` comment says.
"""

import re
import shlex
from pathlib import Path

from dyncomp import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks():
    """(info string, lines) of each fenced block in the README."""
    blocks, info, body = [], None, []
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if info is None:
                info, body = line[3:].strip(), []
            else:
                blocks.append((info, body))
                info = None
        elif info is not None:
            body.append(line)
    return blocks


def the_block(info, marker):
    (lines,) = [body for kind, body in fenced_blocks() if kind == info and marker in "\n".join(body)]
    return lines


def transcript(lines):
    """(argv, expected stdout lines) per `$ dyncomp` line."""
    runs = []
    for line in lines:
        if line.startswith("$ dyncomp "):
            runs.append((shlex.split(line)[2:], []))
        elif line and runs:
            runs[-1][1].append(line)
    return runs


def assert_matches(expected, actual):
    at, skipping = 0, False
    for line in expected:
        if line == "...":
            skipping = True
            continue
        if skipping:
            while at < len(actual) and actual[at] != line:
                at += 1
            skipping = False
        assert at < len(actual) and actual[at] == line, (line, actual[at:at + 3])
        at += 1
    assert skipping or at == len(actual), actual[at:]


def test_readme_command_line_transcript(tmp_path, monkeypatch, capsys):
    spec = the_block("", "system circle")
    (tmp_path / "golden.spec").write_text("\n".join(spec) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    runs = transcript(the_block("sh", "$ dyncomp"))
    assert [argv[0] for argv, _ in runs] == ["tower", "compare", "verify"]
    for argv, expected in runs:
        assert cli.run(argv) == 0, argv
        assert_matches(expected, capsys.readouterr().out.splitlines())


def test_readme_library_example(capsys):
    code = the_block("python", "dynamic_comparison")
    comments = [line.split("#", 1)[1].strip() for line in code if line.startswith("print(")]
    exec("\n".join(code), {})
    shown = capsys.readouterr().out.splitlines()
    assert len(shown) == len(comments) == 3
    for out, comment in zip(shown, comments):
        assert re.match(re.escape(out) + r"($|[:,])", comment), (out, comment)
