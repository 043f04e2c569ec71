"""The README's Library section runs as written, and names only exported API."""

import ast
import re
from pathlib import Path

import raidrsim

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks() -> list[str]:
    """The ```python blocks of the README's `## Library` section, in order."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)


def test_library_blocks_run(capsys):
    blocks = library_blocks()
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md Library block {i}", "exec"), {})
    assert capsys.readouterr().out


def test_library_blocks_import_exported_names():
    imported = [
        alias.name
        for block in library_blocks()
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "raidrsim"
        for alias in node.names
    ]
    assert imported
    assert sorted(set(imported) - set(raidrsim.__all__)) == []
