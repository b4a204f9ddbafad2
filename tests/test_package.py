"""The lazy package: what an import or a subcommand loads, and that the
public names and the CLI behave as when every module was loaded up front.

Checks that need a cold package run in a fresh interpreter: in this
process, other tests have long since loaded every module.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import sclkit
from sclkit.cli import main

ENV = {**os.environ, "PYTHONPATH": str(Path(sclkit.__file__).resolve().parent.parent)}

# Every public name of the package, under the module that defines it.
PUBLIC = {
    "axioms": "Equation cp_axioms derived_laws dual_equation eqfscl_axioms eqfscl_minus"
    " rp_schemes",
    "cp": "basic_form basic_of decide_eq_cp is_basic_form scl_to_cp tree_of",
    "decompose": "Decomposition cd dd enumerate_candidates is_nondecomposable tsd witness",
    "errors": "DEFAULT_NODE_CAP ModeViolation NonClosedTerm NotInImage"
    " NotInNormalForm NotStarTerm ParseError SclError TreeTooLarge UnboundVariable"
    " UninterpretedAtom",
    "inverse": "invert invert_fterm invert_lterm invert_star invert_tterm",
    "models": "Assignment FiniteModel FreeModelCheck IndependenceEntry IndependenceRow"
    " ValidationResult eval_in_model independence_rows independence_suite"
    " model_from_json model_to_json valid_in_free_model validates",
    "normalize": "SnfClass and_nf and_star_fterm and_star_tstar and_star_tterm classify"
    " decide_eq in_normal_form is_star_class neg_nf neg_star nf or_nf",
    "parser": "parse",
    "terms": "And Atom Cond Const FALSE FullAnd FullOr MODES Not Or TRUE Term Var check_mode"
    " dual expand_full format_term substitute term_from_json term_to_json variables",
    "trees": "Leaf Node Tree eval_tree format_tree graft parse_tree replace tree_from_json"
    " tree_to_json",
}
NAMES = {name: module for module, names in PUBLIC.items() for name in names.split()}
SUBMODULES = sorted({*PUBLIC, "generate"})


def python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=60,
    )


def loaded_after(code):
    """The ``sclkit`` modules, and whether ``dataclasses`` is loaded, after
    ``code`` runs in a fresh interpreter."""
    probe = (
        "import json, sys\n"
        f"{code}\n"
        "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'sclkit')\n"
        "print(json.dumps([mods, 'dataclasses' in sys.modules]), file=sys.stderr)\n"
    )
    proc = python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def test_importing_the_package_and_the_cli_loads_no_engine():
    mods, dataclasses = loaded_after("import sclkit, sclkit.cli")
    assert mods == ["sclkit", "sclkit.cli", "sclkit.errors"]
    assert not dataclasses


def test_se_loads_only_the_evaluation_path():
    mods, dataclasses = loaded_after("from sclkit.cli import main; main(['se', 'a && !b'])")
    assert mods == ["sclkit", "sclkit.cli", "sclkit.errors", "sclkit.parser", "sclkit.terms",
                    "sclkit.trees"]
    assert not dataclasses


def test_eq_loads_cp_only_for_the_cp_engine():
    run = "from sclkit.cli import main; main(['eq', 'a', 'b', '--engine', '{}'])"
    for engine in ("tree", "nf"):
        mods, _ = loaded_after(run.format(engine))
        assert "sclkit.normalize" in mods and "sclkit.cp" not in mods
    mods, _ = loaded_after(run.format("cp"))
    assert "sclkit.cp" in mods and "sclkit.normalize" not in mods


def test_public_names_resolve_to_their_module_objects():
    for name, module in NAMES.items():
        assert getattr(sclkit, name) is getattr(import_module(f"sclkit.{module}"), name), name
    assert sclkit.DEFAULT_NODE_CAP is sclkit.trees.DEFAULT_NODE_CAP
    for module in SUBMODULES + ["cli"]:
        assert getattr(sclkit, module) is import_module(f"sclkit.{module}")


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from sclkit import *", namespace)
    assert set(sclkit.__all__) == set(NAMES) | set(SUBMODULES)
    for name in sclkit.__all__:
        assert namespace[name] is getattr(sclkit, name), name
    assert set(sclkit.__all__) <= set(dir(sclkit))


def test_unknown_names_raise_attribute_error():
    for name in ("replace_subtree", "no_such_name"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(sclkit, name)
    with pytest.raises(ImportError):
        exec("from sclkit import replace_subtree", {})


def test_names_resolve_from_a_cold_package():
    # each access imports its module on the spot; star import resolves the rest
    code = (
        "import sclkit\n"
        "from sclkit.trees import Node\n"
        "assert sclkit.Node is Node and sclkit.trees.Node is Node\n"
        "assert sclkit.Equation.__module__ == 'sclkit.axioms'\n"
        "namespace = {}\n"
        "exec('from sclkit import *', namespace)\n"
        "print(len([n for n in sclkit.__all__ if namespace[n] is getattr(sclkit, n)]))\n"
    )
    proc = python("-c", code)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{len(NAMES) + len(SUBMODULES)}\n"


CLI_CASES = [
    ["se", "!b && a"],
    ["se", "a || b", "--json"],
    ["se", "a || b", "--dot"],
    ["se", "(a || b) && (a || b) && (a || b)", "--cap", "9"],
    ["nf", "a &.& !b"],
    ["nf", "a", "--json"],
    ["nf", "a <| b |> c"],
    ["classify", "(a && T) || F"],
    ["classify", "a", "--json"],
    ["eq", "(a && b) && c", "a && (b && c)"],
    ["eq", "a && a", "a", "--engine", "nf"],
    ["eq", "!!a", "a", "--engine", "cp", "--json"],
    ["eq", "a &&", "a"],
    ["decompose", "((T <b> F) <a> F)", "--kind", "cd"],
    ["decompose", '{"node":"a","l":{"leaf":"T"},"r":{"leaf":"F"}}', "--kind", "tsd", "--json"],
    ["invert", "(F <b> (T <a> F))"],
    ["invert", "(T <a> T", "--json"],
    ["translate", "!a", "--to", "cp"],
    ["translate", "a &.& b", "--to", "full", "--json"],
    ["basic", "a || b"],
    ["basic", "é"],
    ["models", "check"],
    ["models", "check", "--json"],
    ["fuzz", "--count", "3", "--seed", "7"],
    ["--version"],
    ["--help"],
    ["eq", "only-one-arg"],
    ["se", "a", "--cap", "-1"],
    [],
]


@pytest.mark.parametrize("argv", CLI_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_subcommands_in_a_fresh_interpreter_match_in_process_main(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    proc = python("-m", "sclkit.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
