"""README examples against the code: the Library block runs, and each
`$ latgate ...` transcript is what `main` prints for that command line."""

import re
import shlex
from pathlib import Path

import pytest

from latgate.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
TRANSCRIPTS = [body for lang, body in BLOCKS if not lang and body.startswith("$ latgate ")]


def test_library_block_runs():
    [code] = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})


def test_transcripts_found():
    commands = [body.split("\n", 1)[0] for body in TRANSCRIPTS]
    assert commands == ["$ latgate analyze --catalog D12plus",
                        "$ latgate donaldson --catalog E8 --negate"]


@pytest.mark.parametrize("body", TRANSCRIPTS, ids=lambda body: body.split("\n", 1)[0])
def test_transcript_matches_main(body, capsys):
    # README wraps long lines, so whitespace is compared as word breaks only
    command, expected = body.split("\n", 1)
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out.split() == expected.split()
