"""Every `pairflux ...` line of the README's command-line block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from pairflux.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\s+```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("pairflux ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the examples write their files to the working directory
    assert main(argv) == EXIT_OK
