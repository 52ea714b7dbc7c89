"""The package's value types, the weight of importing it, and its
imports."""

import ast
import builtins
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import torex
from torex.constants import HodgeConstants
from torex.excess import Contribution
from torex.products import RefinementComponent
from torex.strata import StrataExpression, Summand, TreeTerm
from torex.trees import ExtremalTree, Smoothing


def tree():
    return ExtremalTree.from_code("(1(0(1)(1))(2))")


# each builds a fresh instance from equal fields, by keyword
VALUES = {
    "Contribution": lambda: Contribution(tree=tree(), terms=((0, (0, 0, 0, 0), 3),)),
    "Smoothing": lambda: Smoothing(target=tree(), edge_map=(1, 3)),
    "Summand": lambda: Summand(coeff=Fraction(1, 2), monos=((), ((("psi", -1, 1), 1),))),
    "TreeTerm": lambda: TreeTerm(tree=tree(), summands=(Summand(coeff=1, monos=((),)),)),
    "StrataExpression": lambda: StrataExpression(genus=4, terms=()),
    "RefinementComponent": lambda: RefinementComponent(
        sigma=(1, 1), cells=((0, 0, 1), (1, 1, 1)), excess_bundle=((1, 1),)),
    "HodgeConstants": lambda: HodgeConstants(tail_integral=Fraction(1, 24),
                                             triple_lambda=None),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_type_is_immutable_and_equal_by_fields(name):
    a, b = VALUES[name](), VALUES[name]()
    assert type(a).__name__ == name
    assert a == b and hash(a) == hash(b) and not a != b
    field = type(a)._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def fresh_python(code: str) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter that finds this package.  -S: no
    site hooks, so only the package's own imports count; -B: no bytecode
    written into the source tree."""
    src = str(Path(torex.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-S", "-B", "-c", code], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, timeout=60)


def bare_python(code: str) -> str:
    """stdout of code run by a fresh interpreter, which must exit 0."""
    res = fresh_python(code)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_import_leaves_out_dataclasses_and_inspect():
    code = ("import sys, torex.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert bare_python(code) == "[]"


def test_import_torex_loads_no_submodule():
    # the package binds only __version__ and TorexError, so a command
    # module can load the rest when it needs it
    code = ("import sys, torex; "
            "print(sorted(n for n in sys.modules if n.startswith('torex.')))")
    assert bare_python(code) == "[]"


LIBRARY = ["agring", "constants", "excess", "polyring", "products", "strata", "trees",
           "verify"]

# the torex submodules that have run, and those registered: a module the
# CLI registers lazily is of a ModuleType subclass until its first
# attribute access, and type() does not make that access
RAN = ("print([n[6:] for n, m in sorted(sys.modules.items()) "
       "if n.startswith('torex.') and type(m) is types.ModuleType], "
       "[n[6:] for n in sorted(sys.modules) if n.startswith('torex.')], sep='\\n')")


def test_import_cli_runs_no_other_module():
    ran, registered = bare_python("import sys, types, torex.cli; " + RAN).splitlines()
    assert ran == str(["cli"])
    assert registered == str(sorted(LIBRARY + ["cli"]))
    # on the package as an eager import would leave them
    code = "import torex.cli; print(all(hasattr(torex, n) for n in %r))" % LIBRARY
    assert bare_python(code) == "True"


@pytest.mark.parametrize("command, ran", [
    ("ring --genus 3", ["agring", "polyring"]),
    ("zeroint --genus 3", ["products"]),
    ("pullback --genus 3", ["excess", "polyring", "strata", "trees"]),
    ("verify-paper", LIBRARY),
    ("constants --genus 3", ["constants"]),
])
def test_command_runs_only_the_modules_it_uses(command, ran):
    code = ("import os, sys, types, torex.cli\n"
            "out, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
            "assert torex.cli.main(%r) == 0\n"
            "sys.stdout = out\n" % command.split()) + RAN
    assert bare_python(code).splitlines()[0] == str(sorted(ran + ["cli"]))


def test_direct_import_gives_ordinary_modules():
    # only the CLI registers modules lazily
    code = "import sys, types; from torex import strata; " + RAN
    ran, registered = bare_python(code).splitlines()
    assert ran == registered == str(["excess", "polyring", "strata", "trees"])


@pytest.mark.parametrize("name", ["constants", "trees"])
def test_module_imports_no_other_module(name):
    code = "import sys, types; from torex import %s; " % name + RAN
    ran, registered = bare_python(code).splitlines()
    assert ran == registered == str([name])


def test_error_handler_runs_no_other_module():
    # main catches the package's one error class, so reporting an error
    # runs no module the command did not
    code = ("import sys, types, torex.cli\n"
            "from torex import TorexError, strata\n"
            "def refuse(*args, **kwargs):\n"
            "    raise TorexError('no table for you')\n"
            "strata.assemble_pullback = refuse\n"
            "code = torex.cli.main(['pullback', '--genus', '3'])\n" + RAN + "\n"
            "sys.exit(code)\n")
    res = fresh_python(code)
    assert (res.returncode, res.stderr) == (1, "error: no table for you\n")
    assert res.stdout.splitlines()[0] == str(["cli", "excess", "polyring", "strata", "trees"])


@pytest.mark.parametrize("indent", range(7))
@pytest.mark.parametrize("n", [0, 1, 3])
def test_json_list_is_the_json_dumps_layout(n, indent):
    # an array standing indent deep in a document: json.dumps indents
    # each of its lines after the first by that much more
    def reference(obj):
        return json.dumps(obj, indent=1).replace("\n", "\n" + " " * indent)

    flat = ["x%d" % i for i in range(n)]
    assert torex.json_list([json.dumps(x) for x in flat], indent) == reference(flat)
    nested = [list(range(k)) for k in (3, 0, 1)[:n]]
    items = [torex.json_list([str(x) for x in xs], indent + 1) for xs in nested]
    assert torex.json_list(items, indent) == reference(nested)


MODULES = sorted(Path(torex.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    # __future__ imports are flags
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_package_defines_an_error_class(path):
    # one error class, torex.TorexError, so the CLI's one handler catches
    # every failure the library detects
    def is_error(base):
        name = ast.unparse(base).rpartition(".")[2]
        builtin = getattr(builtins, name, None)
        return name == "TorexError" or (isinstance(builtin, type)
                                        and issubclass(builtin, BaseException))

    tree = ast.parse(path.read_text(encoding="utf-8"))
    errors = [node.name for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and any(map(is_error, node.bases))]
    assert errors == (["TorexError"] if path.name == "__init__.py" else [])
