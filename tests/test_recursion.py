"""Which functions of the package call themselves.

Depth should be bounded by the node cap, not by Python's recursion limit,
so a function that calls itself must be on the list below, with a reason.
The scan reads the source with ``ast``: a function counts if its body
(lambdas included, nested functions and classes not) calls its own bare
name; a method counts only if it calls ``self.<its name>(...)``, so that
``Equation.variables`` calling the module's ``variables`` does not count.
"""

import ast
from pathlib import Path

import sclkit

SOURCE = Path(sclkit.__file__).resolve().parent

ALLOWED = {
    # the normal-form helpers, the paper's clauses read as written
    "normalize._Helpers.neg_nf",
    "normalize._Helpers.neg_star",
    "normalize._Helpers.and_nf",
    "normalize._Helpers.and_star_tterm",
    "normalize._Helpers.and_star_fterm",
    "normalize._Helpers.and_star_tstar",
    # the JSON decoders: json.loads cannot nest deeper than they can
    "terms._from_json",
    "trees._tree_from_json",
    # the random generators, bounded by their max_depth
    "generate._shaped_scl_term.go",
    "generate.random_cp_term",
    "generate.random_term",
    "generate.random_tree",
    "generate.random_tterm",
    "generate.random_fterm",
}


def _body(fn):
    """The nodes of ``fn``'s body, not those of functions or classes in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack += ast.iter_child_nodes(node)


def _calls_itself(fn, is_method: bool) -> bool:
    for node in _body(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if is_method:
            if isinstance(f, ast.Attribute) and f.attr == fn.name:
                if isinstance(f.value, ast.Name) and f.value.id == "self":
                    return True
        elif isinstance(f, ast.Name) and f.id == fn.name:
            return True
    return False


def self_calling_functions(root: Path) -> set[str]:
    """``module.qualified.name`` of each function under ``root`` that calls itself."""
    found = set()
    for path in sorted(root.glob("*.py")):
        stack = [(ast.parse(path.read_text()), path.stem + ".", False)]
        while stack:
            node, prefix, in_class = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    stack.append((child, prefix + child.name + ".", True))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _calls_itself(child, in_class):
                        found.add(prefix + child.name)
                    stack.append((child, prefix + child.name + ".", False))
                else:
                    stack.append((child, prefix, in_class))
    return found


def test_only_the_allowed_functions_call_themselves():
    assert self_calling_functions(SOURCE) == ALLOWED


def test_the_scan_finds_each_kind_of_self_call(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(n):\n    return f(n - 1)\n"
        "def g(n):\n    h = lambda: g(n - 1)\n    return h()\n"
        "def outer():\n    def inner():\n        return inner()\n    return outer\n"
        "class C:\n"
        "    def variables(self):\n        return variables(self)\n"
        "    def walk(self):\n        return self.walk()\n"
        "    def other(self, x):\n        return x.other()\n"
    )
    assert self_calling_functions(tmp_path) == {"m.f", "m.g", "m.outer.inner", "m.C.walk"}
