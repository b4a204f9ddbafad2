"""No module of the package imports a name it never reads.

No linter runs on the package, so this scan stands in for one rule of it.
It reads the source with ``ast``: a name bound by an import counts as read
if a ``Name`` node anywhere in the same module loads it (annotations
included).  An import that is kept on purpose, such as a module attribute
that another module rebinds or re-exports, carries ``# noqa: F401`` on its
line.  ``from __future__`` imports bind nothing and are skipped.
"""

import ast
from pathlib import Path

import sclkit

SOURCE = Path(sclkit.__file__).resolve().parent


def unused_imports(root: Path) -> set[str]:
    """``module:line:name`` for each import under ``root`` that is never read."""
    found = set()
    for path in sorted(root.glob("*.py")):
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    found.add(f"{path.stem}:{alias.lineno}:{name}")
    return found


def test_no_module_imports_a_name_it_never_reads():
    assert unused_imports(SOURCE) == set()


def test_the_scan_finds_each_kind_of_unused_import(tmp_path):
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import json as j\n"
        "from re import (\n    compile,\n    escape,\n)\n"
        "from typing import Sequence\n"
        "from sys import argv  # noqa: F401  (kept for another module)\n"
        "def f(x: Sequence) -> None:\n"
        "    return compile(x)\n"
    )
    assert unused_imports(tmp_path) == {"m:2:os", "m:3:os", "m:4:j", "m:7:escape"}
