"""Every module-level function, class and constant of the package, and every
method and property of its classes, has a caller; every module parses under
the oldest Python that pyproject.toml admits; and no module leaves work for
the interpreter's exit, which the CLI skips.

A caller of a module-level name is a name or attribute in `src/`, an import
of the acceptance suite, a runner the CLI's command table names as
"module.function", or an entry of KEPT.  A caller of a method or property is
an attribute that `src/` or the acceptance suite reads, other than an option
argparse set (`args.<name>`), `self.<name>` in a class that defines no
method <name>, and a read on a local that only calls of a builtin class bind,
such as `cut = slice(a, b)`; dunder methods are the interpreter's hooks, and a method that
overrides one of a class outside the package, such as argparse's `error`, is
that class's.  Code that only unit tests call is deleted, not
kept; code that only a script in `scripts/` or `bench/` calls lives in that
script, so the package holds only what a command runs.
"""

import ast
import builtins
import importlib
from collections import Counter
from pathlib import Path

from collatzlab import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "collatzlab").glob("*.py"))

KEPT = {
    "trajectory_general": "the shortcut trajectory that odd-walk bookkeeping tests compare with",
    "survey_chunk_python": "the plain walk that the sweep is differential-tested against",
}


def _names(path: Path, only: type | None = None) -> set[str]:
    """The names a module imports, reads or calls; `only` keeps one node type."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if only is not None and not isinstance(node, only):
            continue
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(getattr(node, "ctx", None), ast.Store):
            continue  # an assignment defines a name, it does not use it
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _defined(node: ast.stmt) -> list[str]:
    """The module-level names a statement defines: a function, class or constant.

    Dunder names such as `__version__` are read by tools, not by the package.
    """
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def _methods(path: Path, node: ast.stmt) -> list[tuple[str, str]]:
    """(class, name) of each method and property a class statement of the module
    at path defines, hooks left out."""
    if not isinstance(node, ast.ClassDef):
        return []
    cls = getattr(importlib.import_module(f"collatzlab.{path.stem}"), node.name)
    outside = [vars(base) for base in cls.__mro__[1:] if base.__module__.split(".")[0] != "collatzlab"]
    return [(node.name, item.name) for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            and not any(item.name in names for names in outside)]


def _builtin_locals(function: ast.FunctionDef, shadowed: set[str]) -> set[str]:
    """The names that every binding in a function binds to a call of a builtin
    class the module does not shadow, such as `cut = slice(a, b)`, other than
    `type` and `super`, which return a class and a proxy."""
    stores = Counter(n.id for n in ast.walk(function)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    built = Counter(
        node.targets[0].id for node in ast.walk(function)
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id not in shadowed | {"type", "super"}
        and isinstance(getattr(builtins, node.value.func.id, None), type)
    )
    params = {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}
    return {name for name, count in built.items() if stores[name] == count and name not in params}


def _attribute_reads(path: Path) -> set[str]:
    """The attributes a module reads, less `args.<name>`, `self.<name>` in a
    class that defines no method <name>, and reads on a local that only a
    builtin class's call binds: none reads a method of a package class."""
    tree = ast.parse(path.read_text())

    def reads(node: ast.AST, owner: str) -> list[ast.Attribute]:
        return [n for n in ast.walk(node) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == owner]

    foreign = {id(n) for n in reads(tree, "args")}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            own = {item.name for item in cls.body if isinstance(item, ast.FunctionDef)}
            foreign |= {id(n) for n in reads(cls, "self") if n.attr not in own}
    shadowed = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            shadowed.add(n.id)
        elif isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            shadowed.add(n.name)
        elif isinstance(n, ast.alias):
            shadowed.add((n.asname or n.name).split(".")[0])
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for name in _builtin_locals(function, shadowed):
                foreign |= {id(n) for n in reads(function, name)}
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and id(n) not in foreign
            and not isinstance(n.ctx, ast.Store)}


def test_every_definition_has_a_caller():
    acceptance = ROOT / "tests" / "test_acceptance.py"
    used = _names(acceptance, only=ast.alias)
    used |= {c.run.split(".")[1] for c in (*cli.COMMANDS.values(), *cli.CHECKS.values())}
    for path in (ROOT / "src").rglob("*.py"):
        used |= _names(path)
    body = [(path, node) for path in PACKAGE for node in ast.parse(path.read_text()).body]
    defined = {name for _, node in body for name in _defined(node)}
    assert sorted(defined - used - KEPT.keys()) == []
    read = set().union(*map(_attribute_reads, (acceptance, *(ROOT / "src").rglob("*.py"))))
    assert [f"{cls}.{name}" for path, node in body for cls, name in _methods(path, node)
            if name not in read] == []


def test_builtin_locals_read_no_method(tmp_path):
    # a slice's start is no caller of a `start` property; a read on a package
    # class's instance, on type(...), on a shadowed builtin or on a local bound
    # to anything else still is
    path = tmp_path / "synthetic.py"
    cases = {
        "cut = slice(a, b)": False,
        "cut = Span(a, b)": True,
        "cut = type(a)": True,
        "cut = slice(a, b)\n    cut = a": True,
    }
    for binding, counts in cases.items():
        path.write_text(f"def first(a, b):\n    {binding}\n    return cut.start\n")
        assert ("start" in _attribute_reads(path)) is counts, binding
    path.write_text("from spans import Span as slice\n\n\n"
                    "def first(a, b):\n    cut = slice(a, b)\n    return cut.start\n")
    assert "start" in _attribute_reads(path)
    path.write_text("def first(cut, a, b):\n    cut = slice(a, b)\n    return cut.start\n")
    assert "start" in _attribute_reads(path)


def test_parses_under_python_3_10():
    # requires-python is >=3.10: the grammar of every module and script must be
    # 3.10's (a 3.11-only stdlib call is not seen here)
    paths = [*PACKAGE, *(ROOT / "scripts").glob("*.py")]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_nothing_left_for_the_exit():
    # cli.entry ends the process by os._exit, which runs no atexit handler,
    # weakref.finalize callback or __del__: no module may rely on one
    found = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [f"{path.name}: import {a.name}" for a in node.names
                          if a.name.split(".")[0] == "atexit"]
            elif isinstance(node, ast.ImportFrom) and node.module in ("atexit", "weakref"):
                found += [f"{path.name}: from {node.module} import {a.name}" for a in node.names
                          if node.module == "atexit" or a.name == "finalize"]
            elif isinstance(node, ast.Attribute) and node.attr == "finalize":
                found.append(f"{path.name}: .finalize")
            elif isinstance(node, ast.FunctionDef) and node.name == "__del__":
                found.append(f"{path.name}: def __del__")
    assert found == []
