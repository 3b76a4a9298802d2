"""Every module-level function, class and constant of the package has a caller,
and every module parses under the oldest Python that pyproject.toml admits.

A caller is a name or attribute in `src/`, an import of the acceptance suite,
a runner the CLI's command table names as "module.function", or an entry of
KEPT.  Code that only unit tests call is deleted, not kept; code that only a
script in `scripts/` or `bench/` calls lives in that script, so the package
holds only what a command runs.
"""

import ast
from pathlib import Path

from collatzlab import cli

ROOT = Path(__file__).resolve().parent.parent

KEPT = {
    "trajectory_general": "the shortcut trajectory that odd-walk bookkeeping tests compare with",
    "survey_chunk_python": "the plain walk that the sweep is differential-tested against",
}


def _names(path: Path, imports_only: bool = False) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif imports_only or isinstance(getattr(node, "ctx", None), ast.Store):
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


def test_every_definition_has_a_caller():
    used = _names(ROOT / "tests" / "test_acceptance.py", imports_only=True)
    used |= {c.run.split(".")[1] for c in (*cli.COMMANDS.values(), *cli.CHECKS.values())}
    for path in (ROOT / "src").rglob("*.py"):
        used |= _names(path)
    defined = {name for path in (ROOT / "src" / "collatzlab").glob("*.py")
               for node in ast.parse(path.read_text()).body for name in _defined(node)}
    assert sorted(defined - used - KEPT.keys()) == []


def test_parses_under_python_3_10():
    # requires-python is >=3.10: the grammar of every module and script must be
    # 3.10's (a 3.11-only stdlib call is not seen here)
    paths = [*(ROOT / "src" / "collatzlab").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
