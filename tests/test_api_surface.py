"""No API that nothing calls: every public module-level function or class
in ``src/amalgsep`` is referenced somewhere other than its own definition,
by the package itself, the benchmark or the acceptance suite. And two
kinds of error: every ``raise`` in the package is an ``InputError`` (bad
input, exit 2) or an ``AssertionError`` (a broken contract, exit 4). And
no ``id()`` call but an element's hash: a key made of an ``id()`` must hold
its object alive, or a new object can take over the id. And one
conjugation: ``multiply(multiply(invert(c), x), c)`` is spelt only in
``amalgam.conjugate``, which skips the identity conjugator."""

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


# The two raises outside the rule, by module, top-level definition and name.
OTHER_RAISES = {("cli", "_schema_errors", "NotImplementedError"),
                ("cli", "_positive_int", "ArgumentTypeError")}


def raised_name(node: ast.Raise) -> str:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.attr if isinstance(exc, ast.Attribute) else ast.unparse(exc)


def test_every_raise_is_an_input_error_or_an_assertion_error():
    stray = []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            where = stmt.name if isinstance(stmt, DEFINITIONS) else ""
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue            # a bare re-raise
                name = raised_name(node)
                if (name not in ("InputError", "AssertionError")
                        and (path.stem, where, name) not in OTHER_RAISES):
                    stray.append(f"{path.stem}.py:{node.lineno} raises {name}")
    assert stray == []
    errors = ast.parse((ROOT / "src" / "amalgsep" / "errors.py").read_text())
    assert [s.name for s in errors.body if isinstance(s, ast.ClassDef)] == ["InputError"]


# The one id() call outside the rule, by module and qualified definition:
# an element's hash of its presentation, which the element keeps alive.
ID_CALLS = {("amalgam", "AmalgamElement.__hash__")}


def definitions(tree: ast.Module):
    """Each top-level statement, and each statement in a top-level class,
    with its qualified name ("" for module-level code)."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for inner in stmt.body:
                name = inner.name if isinstance(inner, DEFINITIONS) else ""
                yield f"{stmt.name}.{name}".rstrip("."), inner
        else:
            yield stmt.name if isinstance(stmt, DEFINITIONS) else "", stmt


def test_no_id_calls_outside_element_hash():
    stray = []
    for path in SOURCES:
        for where, stmt in definitions(ast.parse(path.read_text(), str(path))):
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "id" and (path.stem, where) not in ID_CALLS):
                    stray.append(f"{path.stem}.py:{node.lineno} calls id() in {where or 'module'}")
    assert stray == []


def called_name(node) -> str | None:
    """The name a call calls, bare or as a module attribute."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_conjugation_is_spelt_only_in_amalgam_conjugate():
    stray = []
    for path in SOURCES:
        for where, stmt in definitions(ast.parse(path.read_text(), str(path))):
            for node in ast.walk(stmt):
                if (called_name(node) == "multiply" and node.args
                        and called_name(node.args[0]) == "multiply" and node.args[0].args
                        and called_name(node.args[0].args[0]) == "invert"
                        and (path.stem, where) != ("amalgam", "conjugate")):
                    stray.append(f"{path.stem}.py:{node.lineno} conjugates in {where}")
    assert stray == []
