"""No API that nothing calls: every public module-level function or class
in ``src/amalgsep`` is referenced somewhere other than its own definition,
by the package itself, the benchmark or the acceptance suite. And two
kinds of error: every ``raise`` in the package is an ``InputError`` (bad
input, exit 2) or an ``AssertionError`` (a broken contract, exit 4). And
no ``id()`` call at all: a key made of an ``id()`` must hold its object
alive, or a new object can take over the id, so an object that hashes by
identity is put in the key itself. And one conjugation:
``multiply(multiply(invert(c), x), c)`` is spelt only in
``amalgam.conjugate``, which skips the identity conjugator. And records
that behave as the frozen and mutable dataclasses they replaced did, so
that starting the CLI imports neither ``dataclasses`` nor what it pulls
in."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_no_id_calls():
    stray = []
    for path in SOURCES:
        for where, stmt in definitions(ast.parse(path.read_text(), str(path))):
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "id"):
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


def run_probe(code: str, *flags: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter with ``src``
    on the path."""
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# What ``dataclasses`` pulls in, and ``traceback``, which only a crash needs.
NOT_IMPORTED_AT_START = ("dataclasses", "inspect", "ast", "dis", "traceback")


def test_starting_the_cli_imports_no_dataclasses_or_traceback():
    # Only the modules the import itself adds count, so a ``site`` hook
    # that loads some of them before it does not matter.
    new = run_probe("import sys\n"
                    "before = set(sys.modules)\n"
                    "import amalgsep.cli\n"
                    "print(' '.join(sorted(set(sys.modules) - before)))\n").split()
    assert "amalgsep.cli" in new
    assert [name for name in NOT_IMPORTED_AT_START if name in new] == []


# Each record built with every field by keyword, and the checks on it; the
# checks are explicit, so they also hold under ``python -O``. A failed
# check prints its name.
RECORD_PROBE = """
import copy, dataclasses, pickle
from amalgsep import amalgam, catalog, compat, engine, fingrp, freegrp

def raises(fn, *args):
    try:
        fn(*args)
    except AssertionError:
        return True
    return False

def check(name, ok):
    if not ok:
        print(name)

Z4 = catalog.cyclic_group(4)
H = fingrp.subgroup_generated(Z4, [2])
pres = amalgam.build_amalgam(Z4, Z4, H, H, {0: 0, 2: 2})
twin = amalgam.build_amalgam(Z4, Z4, H, H, {0: 0, 2: 2})
chain = fingrp.NormalChain(group=Z4, links=(H, fingrp.subgroup_generated(Z4, [1])), prime=2)
fields = {
    fingrp.FiniteGroup: dict(order=4, table=Z4.table, inverse=Z4.inverse, names=Z4.names,
                             family_generators=(1,), automorphism_candidates=((3,),)),
    fingrp.Subgroup: dict(parent=Z4, members=H.members),
    fingrp.NormalChain: dict(group=Z4, links=chain.links, prime=2),
    amalgam.AmalgamPresentation: dict(
        A=Z4, B=Z4, H=H, K=H, phi=pres.phi, phi_inv=pres.phi_inv,
        transversal_a=pres.transversal_a, transversal_b=pres.transversal_b),
    amalgam.AmalgamElement: dict(pres=pres, core=2, syllables=(("B", 1),)),
    amalgam.CyclicMembership: dict(verdict="member", exponent=3, reason=None),
    catalog.CatalogEntry: dict(name="Z4", order=4, family_rank=0, params=(4,),
                               _builder=lambda: Z4),
    compat.PChainCertificate: dict(chain_a=chain, chain_b=chain, matching=()),
    compat.CompatiblePair: dict(mode="plain", prime=None, r_side=H, s_side=H,
                                certificate=None),
    compat.QuotientAmalgam: dict(presentation=pres, proj_a=int, proj_b=int),
    compat.FreeAmalgamDescription: dict(
        rank_a=1, rank_b=1, gen_names_a=("a",), gen_names_b=("b",),
        h_words=(((0, 2),),), k_words=(((0, 3),),)),
    compat.FamilyVerdict: dict(subject="g", family="Omega_A", verdict="separable",
                               witnesses=None, certifying=None, bound=None,
                               structural_note=None),
    engine.GluedHom: dict(target=Z4, target_name="Z4", map_a=(0, 1, 2, 3), map_b=(0, 3, 2, 1)),
    engine.FreeReducedForm: dict(chunks=(), core_exponent=2),
    freegrp.GenImages: dict(rank=1, target=Z4, images=(1,)),
}
by_identity = (amalgam.AmalgamPresentation, compat.QuotientAmalgam)
for cls, kwargs in fields.items():
    name = cls.__name__
    one, other = cls(**kwargs), cls(**kwargs)
    check(f"{name} equals itself", one == one and not one != one)
    if cls in by_identity:
        check(f"{name} compares by identity", one != other and hash(one) != hash(other))
    else:
        check(f"{name} compares by value", one == other and hash(one) == hash(other))
    check(f"{name} is no tuple", one != tuple(kwargs.values())
          and one != tuple(getattr(one, f) for f in cls._fields))
    for field, value in kwargs.items():
        check(f"{name}.{field} is kept", getattr(one, field) is value)
        check(f"{name}.{field} is frozen", raises(setattr, one, field, None)
              and raises(delattr, one, field) and getattr(one, field) is value)
    check(f"{name} has its fields for dataclasses",
          [f.name for f in dataclasses.fields(cls)] == list(kwargs))
    for clone in (copy.copy(one), dataclasses.replace(one)):
        check(f"{name} is rebuilt", type(clone) is cls and (clone == one) != (cls in by_identity)
              and all(getattr(clone, field) is value for field, value in kwargs.items()))

G = fingrp.FiniteGroup(**fields[fingrp.FiniteGroup])
bare = fingrp.FiniteGroup(4, Z4.table, Z4.inverse, Z4.names)
check("FiniteGroup ignores its candidates", G == bare and hash(G) == hash(bare)
      and (bare.family_generators, bare.automorphism_candidates) == ((), ()))
check("FiniteGroup compares its names", G != fingrp.FiniteGroup(4, Z4.table, Z4.inverse,
                                                                ("e", "x", "y", "z")))
check("FiniteGroup keeps a cache", Z4.element_orders == (1, 4, 2, 4)
      and "element_orders" in vars(Z4))
letters = [("A", 1), ("B", 1)]
x, y = amalgam.normalize(pres, letters), amalgam.normalize(pres, letters)
check("elements of one presentation", x == y and hash(x) == hash(y) and len({x, y}) == 1)
check("elements of two presentations", x != amalgam.normalize(twin, letters))
check("FiniteGroup is deep-copied and pickled",
      copy.deepcopy(G) == pickle.loads(pickle.dumps(G)) == G)
check("replace keeps the defaults", dataclasses.replace(bare, family_generators=(1,))
      .automorphism_candidates == ())
check("GenImages checks its length", raises(freegrp.GenImages, 2, Z4, (1,)))
check("CatalogEntry repr", repr(catalog.CatalogEntry(**fields[catalog.CatalogEntry]))
      == "CatalogEntry(name='Z4', order=4, family_rank=0, params=(4,))")
check("FreeReducedForm repr", repr(engine.FreeReducedForm((), 2))
      == "FreeReducedForm(chunks=(), core_exponent=2)")
one, other = (engine.WitnessReport("plain", None, "", "", "") for _ in range(2))
one.notes.append("note")
one.outcome = "member"
check("reports own their notes", other.notes == [] and one.outcome == "member")
check("reports compare by value", other == engine.WitnessReport("plain", None, "", "", ""))
check("reports have no hash", engine.WitnessReport.__hash__ is None)
tampered = dataclasses.replace(one, exponent=2)
check("reports are replaced", tampered.exponent == 2 and tampered.outcome == "member"
      and one.exponent is None)
one, other = (engine.CaseStudyReport("case", {}, []) for _ in range(2))
one.artifacts["x"] = 1
check("case reports own their artifacts", other.artifacts == {})
print("done")
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["asserts-on", "optimize"])
def test_records_keep_the_semantics_of_their_dataclasses(flags):
    assert run_probe(RECORD_PROBE, *flags).splitlines() == ["done"]
