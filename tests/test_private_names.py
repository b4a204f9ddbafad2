"""No module of the package defines a private name that the package never reads.

A module-level name that starts with one underscore is the package's own:
nothing outside it is meant to call it, so if no module of the package
reads it, it is dead code.  The scan reads the source with ``ast``: a name
counts as read if a ``Name`` node in any module loads it, or an attribute
access anywhere names it (``trees._shape``).  Names bound at module level
by ``def``, ``class`` or assignment are checked; dunder names and imports
are not (``tests/test_imports.py`` checks imports).
"""

import ast
from pathlib import Path

import sclkit

SOURCE = Path(sclkit.__file__).resolve().parent


def _bound(statement) -> list[ast.Name | ast.stmt]:
    """The nodes that bind a module-level name in ``statement``."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    found, stack = [], list(targets)
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack += target.elts
        elif isinstance(target, ast.Name):
            found.append(target)
    return found


def unread_private_names(root: Path) -> set[str]:
    """``module.name`` for each module-level private name under ``root``
    that no module under ``root`` reads."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    read = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = set()
    for module, tree in modules.items():
        for statement in tree.body:
            for node in _bound(statement):
                name = node.id if isinstance(node, ast.Name) else node.name
                if name.startswith("_") and not name.startswith("__") and name not in read:
                    found.add(f"{module}.{name}")
    return found


def test_every_private_name_is_read_in_the_package():
    assert unread_private_names(SOURCE) == set()


def test_the_scan_finds_each_kind_of_unread_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "import re as _re\n"
        "_READ, _UNREAD = 1, 2\n"
        "_ANNOTATED: int = 3\n"
        "[_LISTED, _PAIRED] = 4, 5\n"
        "__dunder__ = 6\n"
        "public = _READ\n"
        "def _called(): return _LISTED\n"
        "def _uncalled(): pass\n"
        "class _Unused:\n"
        "    _inner = 7\n"
        "async def _waited(): pass\n"
    )
    (tmp_path / "b.py").write_text("from . import a\nfrom .a import _called\na._PAIRED\n_called()\n")
    assert unread_private_names(tmp_path) == {"a._UNREAD", "a._ANNOTATED", "a._uncalled", "a._Unused", "a._waited"}
