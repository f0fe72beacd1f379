"""Every ``python -m repro`` command the README shows parses (continuation
lines joined, ``# comments`` dropped) and every repository path it names
in backticks exists."""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]
README = (ROOT / "README.md").read_text("utf-8")
COMMAND_LINE = re.compile(r"^(?:\$ |PYTHONPATH=src )python -m repro (.*)$", re.MULTILINE)
INLINE_COMMAND = re.compile(r"`python -m repro ([^`]+)`")
PATH = re.compile(r"`((?:src|tests|benchmarks|examples)/[\w./-]*)`")


def commands(text):
    joined = re.sub(r"\\\n", " ", text)
    found = COMMAND_LINE.findall(joined) + INLINE_COMMAND.findall(joined)
    return [shlex.split(line, comments=True) for line in found]


@pytest.mark.parametrize("argv", commands(README), ids=" ".join)
def test_every_command_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README: python -m repro {' '.join(argv)}: "
                    f"{capsys.readouterr().err.strip()}")


@pytest.mark.parametrize("path", sorted(set(PATH.findall(README))))
def test_every_path_exists(path):
    assert (ROOT / path).exists(), f"README names {path}, which is gone"
