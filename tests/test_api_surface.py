"""No API that nothing calls: every public module-level function or class
in ``src/amalgsep`` is referenced somewhere other than its own definition,
by the package itself, the benchmark or the acceptance suite."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "amalgsep").glob("*.py"))
USERS = [*SOURCES, *sorted((ROOT / "benchmark").glob("*.py")),
         ROOT / "tests" / "test_acceptance.py"]
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def references(tree: ast.Module) -> dict[str, set[str]]:
    """Each name the tree refers to as a ``Name``, an ``Attribute`` or an
    import alias, with the top-level definitions the references sit in
    ("" for module-level code)."""
    refs: dict[str, set[str]] = {}
    for stmt in tree.body:
        where = stmt.name if isinstance(stmt, DEFINITIONS) else ""
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            refs.setdefault(name, set()).add(where)
    return refs


def test_every_public_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in USERS}
    refs = {path: references(tree) for path, tree in trees.items()}
    unused = []
    for path in SOURCES:
        for stmt in trees[path].body:
            if not isinstance(stmt, DEFINITIONS) or stmt.name.startswith("_"):
                continue
            name = stmt.name
            if not any(refs[user].get(name, set()) - ({name} if user == path else set())
                       for user in USERS):
                unused.append(f"{path.stem}.{name}")
    assert unused == []
