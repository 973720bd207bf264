"""The README's examples run against the package as it is: a name its
library examples import that the package no longer exports fails here, and
so does a command line that no longer exits 0."""

import re
import shlex
from pathlib import Path

from macx.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_command_lines_run(monkeypatch, capsys):
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["macx"]]
    assert commands
    monkeypatch.chdir(README.parent)
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
