"""The public API cannot drift: the README's ``## Library`` block runs as written,
and ``linesurf.__all__`` names only what the package has."""

import re
from pathlib import Path

import linesurf

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README.name} ## Library", "exec"), {})


def test_public_names_are_attributes():
    assert [name for name in linesurf.__all__ if not hasattr(linesurf, name)] == []
    assert len(set(linesurf.__all__)) == len(linesurf.__all__)
    assert "euler_phi" not in linesurf.__all__  # phi(m) is the degree of Phi_m
