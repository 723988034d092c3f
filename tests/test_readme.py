"""The README's Python examples run as written, so a change to the library
API cannot leave them stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_overview_block_runs(capsys):
    namespace: dict = {}
    exec(compile(_python_block("Library overview"), str(README), "exec"), namespace)
    assert abs(namespace["fit"].decay_slope + 1) < 0.15
    capsys.readouterr()
