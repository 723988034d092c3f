"""The README's examples run as written, so a change to the library API or
to the command line cannot leave them stale."""

import json
import re
import shlex
from pathlib import Path

from kelvinasym import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(heading: str) -> str:
    return README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _python_block(heading: str) -> str:
    return re.search(r"```python\n(.*?)```", _section(heading), re.S).group(1)


def test_library_overview_block_runs(capsys):
    namespace: dict = {}
    exec(compile(_python_block("Library overview"), str(README), "exec"), namespace)
    assert abs(namespace["fit"].decay_slope + 1) < 0.15
    capsys.readouterr()


def test_command_line_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    # each block may read what an earlier one wrote (fit reads radial's
    # samples), so all of them run in one directory, in README order
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```sh\n(.*?)```", _section("Command line"), re.S)
    commands = []
    for block in blocks:
        argv = shlex.split(block.replace("\\\n", " "))
        assert argv[0] == "kelvinasym", block
        assert cli.dispatch(argv[1:]) == 0, block
        commands.append(argv[1])
    assert sorted(commands) == sorted(cli._COMMANDS)
    # the decay slope the README quotes for the fit example
    assert round(json.loads((tmp_path / "fit.json").read_text())["decay_slope"], 3) == -1.068
    capsys.readouterr()
