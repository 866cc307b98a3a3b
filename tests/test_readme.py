"""The README's ``## Library`` block runs as written, so the documented API cannot drift."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README.name} ## Library", "exec"), {})
