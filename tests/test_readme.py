"""The README's examples run as written: the Python quick start, and every
``tricarl`` command of its shell blocks through ``cli.main``."""

import re
import shlex
from pathlib import Path

from tricarl.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    (quick_start,) = blocks("python")
    namespace = {}
    exec(quick_start, namespace)
    assert namespace["g"] == -0.5  # as its comment says
    # commands join their backslash continuations; --out files land in tmp_path
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line, comments=True)
        for block in blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
    ]
    runs = [argv[1:] for argv in commands if argv[:1] == ["tricarl"]]
    assert len(runs) == 4
    for argv in runs:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""
