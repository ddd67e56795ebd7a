"""README examples against the code: the Library block runs, each
`$ latgate ...` transcript is what `main` prints for that command line, the
CLI synopsis names the options the parser accepts, every `latgate.<name>`
the README points to resolves to a documented module, and the README names
every key of the `--stats` object."""

import argparse
import importlib
import inspect
import json
import re
import shlex
from pathlib import Path

import pytest

from latgate.cli import _build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
TRANSCRIPTS = [body for lang, body in BLOCKS if not lang and body.startswith("$ latgate ")]
SYNOPSIS = re.search(r"^## CLI\n\n```\n(.*?)^```", README, re.M | re.S).group(1)


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


def test_synopsis_matches_parser():
    documented = {line.split()[1]: set(re.findall(r"--[\w-]+", line))
                  for line in SYNOPSIS.splitlines()}
    [subparsers] = [a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    accepted = {name: {opt for action in sub._actions for opt in action.option_strings
                       if opt not in ("-h", "--help")}
                for name, sub in subparsers.choices.items()}
    assert documented == accepted



POINTERS = sorted(set(re.findall(r"\blatgate(?:\.[A-Za-z_]\w*)+", README)))


def test_pointers_found():
    assert {"latgate.core", "latgate.enumeration", "latgate.charvec"} <= set(POINTERS)


@pytest.mark.parametrize("pointer", POINTERS)
def test_pointer_resolves(pointer):
    # the longest importable prefix is the module, the rest names in it
    parts = pointer.split(".")
    cut = len(parts)
    while True:
        try:
            module = importlib.import_module(".".join(parts[:cut]))
            break
        except ModuleNotFoundError:
            cut -= 1
            assert cut > 1, f"{pointer} names no latgate module"
    assert (module.__doc__ or "").strip(), f"{module.__name__} has no docstring"
    target = module
    for name in parts[cut:]:
        assert hasattr(target, name), f"{pointer}: {target.__name__} has no {name}"
        target = getattr(target, name)


def test_stats_keys_named(capsys):
    assert main(["analyze", "--catalog", "Zn:2", "--json", "--stats"]) == 0
    keys = json.loads(capsys.readouterr().out)["stats"].keys()
    assert keys
    assert [key for key in keys if f"`{key}`" not in README] == []
