"""The CLI's schema check against jsonschema, its reference.

``cli.validate_document`` interprets the package schemas itself, so that
no CLI process imports jsonschema. These tests hold it to jsonschema's
decision and message (``best_match_oracle``) on every single-field
replacement and deletion of a few valid documents per schema, and on
seeded mutants with several faults each.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import amalgsep
from amalgsep import cli
from amalgsep.cli import validate_document
from amalgsep.errors import InputError
from conftest import best_match_oracle, package_schema

KINDS = ("group", "presentation")
BASES = {
    "group": [
        {"schema": 1, "order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
         "names": ["e", "a", "a2"]},
        {"schema": 1, "order": 1, "table": [[0]]},
    ],
    "presentation": [
        {"schema": 1, "kind": "finite", "group_a": "z4a.json", "group_b": "z4b.json",
         "h": ["a2"], "k": ["b2"], "phi": {"e": "e", "a2": "b2"}},
        {"schema": 1, "kind": "finite", "group_a": {"schema": 1, "order": 1, "table": [[0]]},
         "group_b": "z2.json", "h": [], "k": [], "phi": {"e": "e"}},
        {"schema": 1, "kind": "free", "gens_a": ["a"], "gens_b": ["b", "c"],
         "h_words": ["a^2"], "k_words": ["b^2"]},
    ],
}
# Values put in place of a field: every JSON type, the schemas' constants,
# integral floats, negatives and the shapes of each field.
VALUES = [None, True, False, 0, 1, -1, 1.0, -2.0, 2.5, "", "a", "free", "finite",
          [], ["a"], [0, 1], [-1], [[0]], [["a"]], {}, {"e": "e"}, {"e": 1},
          {"schema": 1, "order": 1, "table": [[0]]}]
# Keys added to an object: fields of each schema, so mutants cross the
# presentation schema's if/then/else, and unknown ones.
EXTRA_KEYS = ["schema", "kind", "order", "table", "names", "gens_a", "h_words",
              "group_a", "h", "phi", "command", "output", "letters", "weird", "e"]
MUTANTS_PER_BASE = 4000


def _copy(doc):
    return json.loads(json.dumps(doc))


def _paths(doc, path=()):
    """Every location below the root of ``doc``, parents before children."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in list(items):
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _container(doc, path):
    return _at(doc, path[:-1]), path[-1]


def single_faults(base):
    yield base
    yield from map(_copy, VALUES)
    for path in _paths(base):
        doc = _copy(base)
        box, key = _container(doc, path)
        del box[key]
        yield doc
        for value in VALUES:
            doc = _copy(base)
            box, key = _container(doc, path)
            box[key] = _copy(value)
            yield doc


def multi_faults(base, rng: random.Random, count: int):
    """``count`` mutants of ``base`` with two to four faults each: a field
    replaced, a field deleted, or a key or item added."""
    for _ in range(count):
        doc = _copy(base)
        for _ in range(rng.randint(2, 4)):
            paths = list(_paths(doc))
            fault = rng.randrange(3)
            if fault < 2 and paths:
                box, key = _container(doc, rng.choice(paths))
                if fault == 0:
                    box[key] = _copy(rng.choice(VALUES))
                else:
                    del box[key]
                continue
            box = rng.choice([v for v in (_at(doc, p) for p in [(), *paths])
                              if isinstance(v, (dict, list))])
            if isinstance(box, dict):
                box[rng.choice(EXTRA_KEYS)] = _copy(rng.choice(VALUES))
            else:
                box.insert(rng.randint(0, len(box)), _copy(rng.choice(VALUES)))
        yield doc


def verdict(doc, kind: str) -> str | None:
    try:
        validate_document(doc, kind)
    except InputError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind", KINDS)
def test_validator_agrees_with_jsonschema(kind):
    rng = random.Random(f"schema-corpus-{kind}")
    checked = rejected = 0
    for base in BASES[kind]:
        assert best_match_oracle(base, kind) is None
        for doc in [*single_faults(base), *multi_faults(base, rng, MUTANTS_PER_BASE)]:
            want = best_match_oracle(doc, kind)
            if want is not None:
                want = f"{kind} document rejected: {want}"
                rejected += 1
            assert verdict(doc, kind) == want, doc
            checked += 1
    # The corpus exercises both decisions in bulk.
    assert rejected > checked // 2 and checked - rejected > len(BASES[kind])


def test_type_failure_breaks_ties_as_in_jsonschema(monkeypatch):
    # Two errors at the root: the first from a schema whose type the
    # document has, the second from a branch that names no type. The package
    # schemas never tie like this, so the corpus above cannot show it.
    schema = {"type": "object", "required": ["a"],
              "if": {"required": ["k"]}, "then": {"required": ["b"]}}
    doc = {"k": 1}
    error = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(schema).iter_errors(doc))
    assert error.message == "'b' is a required property"
    monkeypatch.setattr(cli, "_load_schema", lambda kind: schema)
    assert verdict(doc, "group") == f"group document rejected: {error.message}"


@pytest.mark.parametrize("kind", KINDS)
def test_package_schema_is_valid_under_its_meta_schema(kind):
    schema = package_schema(kind)
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("schema, doc", [
    ({"type": "string", "maxLength": 1}, "ab"),
    ({"properties": {"x": {"pattern": "^a"}}}, {"x": "b"}),
    ({"anyOf": [{"type": "string"}]}, 1),
    ({"const": [1]}, [1]),
])
def test_unsupported_schema_keyword_raises(monkeypatch, schema, doc):
    monkeypatch.setattr(cli, "_load_schema", lambda kind: schema)
    with pytest.raises(NotImplementedError):
        validate_document(doc, "group")


def test_cli_does_not_import_jsonschema(tmp_path):
    src = str(Path(amalgsep.__file__).resolve().parent.parent)
    g2 = str(Path(__file__).resolve().parent / "golden" / "inputs" / "g2.json")
    probe = (
        "import json, sys\n"
        "def loaded():\n"
        "    return [m for m in ('jsonschema', 'referencing', 'attrs') if m in sys.modules]\n"
        "import amalgsep.cli\n"
        "after_import = loaded()\n"
        f"code = amalgsep.cli.main(['--out', 'r.json', 'amalgam', 'build', {g2!r}])\n"
        "print(json.dumps([after_import, code, loaded()]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], 0, []]
