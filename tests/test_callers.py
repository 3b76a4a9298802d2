"""Every module-level function and class of the package has a caller.

A caller is a name or attribute in `src/`, `scripts/` or `bench/`, an import
of the acceptance suite, or an entry of KEPT: code that only unit tests call
is deleted, not kept.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KEPT = {
    "trajectory_general": "the shortcut trajectory that odd-walk bookkeeping tests compare with",
    "survey_chunk_python": "the plain walk that the sweep is differential-tested against",
    "class_split": "the per-class view of the half split, tested against step_kind_at",
    "drift_bound": "the paper's exact drift bound, checked on every odd orbit prefix",
}


def _names(path: Path, imports_only: bool = False) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Name) and not imports_only:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not imports_only:
            names.add(node.attr)
    return names


def test_every_definition_has_a_caller():
    used = _names(ROOT / "tests" / "test_acceptance.py", imports_only=True)
    for path in (p for d in ("src", "scripts", "bench") for p in (ROOT / d).rglob("*.py")):
        used |= _names(path)
    defined = {node.name for path in (ROOT / "src" / "collatzlab").glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert sorted(defined - used - KEPT.keys()) == []
