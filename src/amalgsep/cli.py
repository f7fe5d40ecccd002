"""Command-line front end.

Subcommands mirror the library: ``group check``, ``amalgam build``,
``amalgam reduce``, ``amalgam member``, ``isolate``, ``compat check``,
``compat enum``, ``witness``, and ``case``. Every run writes a JSON
report to the output path (default ``amalgsep_report.json``), then prints
a short human summary to stdout.

Exit codes: 0 success, 1 negative verdict (member, obstructed,
incompatible, not isolated, failed case assertion), 2 bad input from a
file or an argument (``InputError``, or an output path that cannot be
written), 3 search bound exhausted, 4 internal error (any other
exception, such as the AssertionError of a broken internal contract; the
report then reads ``{"outcome": "internal_error", "error": ...}``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources

from . import amalgam as am
from . import compat as cp
from . import engine as eng
from . import fingrp as fg
from .errors import InputError
from .freegrp import parse_word

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BOUND = 3
EXIT_INTERNAL = 4

DEFAULT_REPORT = "amalgsep_report.json"


@functools.cache
def _load_schema(kind: str) -> dict:
    text = resources.files("amalgsep.schemas").joinpath(f"{kind}.schema.json").read_text()
    return json.loads(text)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
}


def _has_type(x, types) -> bool:
    if isinstance(types, str):
        return _TYPES[types](x)
    return any(_TYPES[t](x) for t in types)


def _fail(out: list, path: tuple, schema: dict, x, message: str) -> None:
    out.append((path, message, not ("type" in schema and _has_type(x, schema["type"]))))


def _schema_errors(schema: dict, x, path: tuple, out: list) -> None:
    """Append ``(path, message, fails_type)`` for each way ``x`` fails ``schema``.

    A JSON Schema 2020-12 interpreter for the keywords of the package
    schemas only; any other keyword raises. Errors come in jsonschema's
    order (schema keywords in file order) with jsonschema's wording, and
    ``fails_type`` is false only when ``schema`` names a type ``x`` has.
    """
    for key, value in schema.items():
        if key == "type":
            if not _has_type(x, value):
                names = [value] if isinstance(value, str) else value
                _fail(out, path, schema, x, f"{x!r} is not of type {', '.join(map(repr, names))}")
        elif key == "const":
            if isinstance(value, (list, dict)):
                raise NotImplementedError("only scalar const values are supported")
            # As in JSON, a boolean equals only itself (Python has True == 1).
            if isinstance(x, bool) or isinstance(value, bool):
                same = x is value
            else:
                same = x == value
            if not same:
                _fail(out, path, schema, x, f"{value!r} was expected")
        elif key == "minimum":
            if _TYPES["number"](x) and x < value:
                _fail(out, path, schema, x, f"{x!r} is less than the minimum of {value!r}")
        elif key == "minItems":
            if isinstance(x, list) and len(x) < value:
                short = "should be non-empty" if value == 1 else "is too short"
                _fail(out, path, schema, x, f"{x!r} {short}")
        elif key == "items":
            if isinstance(x, list):
                for i, item in enumerate(x):
                    _schema_errors(value, item, path + (i,), out)
        elif key == "properties":
            if isinstance(x, dict):
                for name, sub in value.items():
                    if name in x:
                        _schema_errors(sub, x[name], path + (name,), out)
        elif key == "required":
            if isinstance(x, dict):
                for name in value:
                    if name not in x:
                        _fail(out, path, schema, x, f"{name!r} is a required property")
        elif key == "additionalProperties":
            if isinstance(x, dict):
                known = schema.get("properties", {})
                extras = [name for name in x if name not in known]
                if isinstance(value, dict):
                    for name in extras:
                        _schema_errors(value, x[name], path + (name,), out)
                elif value is False and extras:
                    listed = ", ".join(map(repr, sorted(extras, key=str)))
                    verb = "was" if len(extras) == 1 else "were"
                    _fail(out, path, schema, x,
                          f"Additional properties are not allowed ({listed} {verb} unexpected)")
        elif key == "if":
            probe: list = []
            _schema_errors(value, x, path, probe)
            branch = schema.get("else" if probe else "then")
            if branch is not None:
                _schema_errors(branch, x, path, out)
        elif key not in ("$schema", "title", "then", "else"):
            raise NotImplementedError(f"schema keyword {key!r} is not supported")


def validate_document(doc: dict, kind: str) -> None:
    """Check ``doc`` against the package schema ``<kind>.schema.json``.

    Raises ``InputError`` with the message of the error jsonschema's
    ``best_match`` would pick: the shallowest path, then the greatest
    path, then an instance that fails its schema's type, then the first.
    """
    errors: list = []
    _schema_errors(_load_schema(kind), doc, (), errors)
    if errors:
        _, message, _ = max(errors, key=lambda e: (-len(e[0]), e[0], e[2]))
        raise InputError(f"{kind} document rejected: {message}")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None


def load_group_file(path: str) -> fg.FiniteGroup:
    doc = _load_json(path)
    validate_document(doc, "group")
    return fg.group_from_json(doc)


def _resolve_group(ref, base_dir: str) -> fg.FiniteGroup:
    if isinstance(ref, str):
        return load_group_file(os.path.join(base_dir, ref))
    validate_document(ref, "group")
    return fg.group_from_json(ref)


def load_presentation_file(path: str):
    """Returns ('finite', AmalgamPresentation) or ('free', FreeAmalgamDescription)."""
    doc = _load_json(path)
    validate_document(doc, "presentation")
    base_dir = os.path.dirname(os.path.abspath(path))
    if doc["kind"] == "finite":
        A = _resolve_group(doc["group_a"], base_dir)
        B = _resolve_group(doc["group_b"], base_dir)
        H = fg.subgroup_generated(A, [A.index_of(n) for n in doc["h"]])
        K = fg.subgroup_generated(B, [B.index_of(n) for n in doc["k"]])
        phi = {A.index_of(h): B.index_of(k) for h, k in doc["phi"].items()}
        return "finite", am.build_amalgam(A, B, H, K, phi)
    desc = cp.FreeAmalgamDescription(
        rank_a=len(doc["gens_a"]), rank_b=len(doc["gens_b"]),
        gen_names_a=tuple(doc["gens_a"]), gen_names_b=tuple(doc["gens_b"]),
        h_words=tuple(parse_word(w, doc["gens_a"]) for w in doc["h_words"]),
        k_words=tuple(parse_word(w, doc["gens_b"]) for w in doc["k_words"]),
    )
    return "free", desc


def parse_free_letters(desc: cp.FreeAmalgamDescription, text: str):
    """Parse tagged free words like "A:a B:b^7"."""
    names = {"A": desc.gen_names_a, "B": desc.gen_names_b}
    return am.parse_tagged(text, lambda side, word: parse_word(word, names[side]), "word")


def write_report(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (report fields, stdout summary, exit code)
# and leaves writing and printing to ``main``.

Outcome = tuple[dict, str, int]


def cmd_group_check(args) -> Outcome:
    G = load_group_file(args.file)
    doc = {"valid": True, "order": G.order, "associativity": "verified"}
    return doc, f"group OK: order {G.order}, associativity verified", EXIT_OK


def cmd_amalgam_build(args) -> Outcome:
    kind, pres = load_presentation_file(args.file)
    if kind == "finite":
        doc = {
            "kind": kind,
            "factor_orders": [pres.A.order, pres.B.order],
            "amalgamated_order": pres.H.order,
            "coset_counts": [pres.A.order // pres.H.order,
                             pres.B.order // pres.K.order],
        }
        return (doc, f"amalgam OK: factors of order {pres.A.order} and {pres.B.order}, "
                     f"amalgamated subgroup of order {pres.H.order}", EXIT_OK)
    doc = {
        "kind": kind,
        "ranks": [pres.rank_a, pres.rank_b],
        "amalgamated_rank": len(pres.h_words),
    }
    return doc, f"amalgam OK: free factors of rank {pres.rank_a} and {pres.rank_b}", EXIT_OK


def _load_finite(path: str, what: str) -> am.AmalgamPresentation:
    kind, pres = load_presentation_file(path)
    if kind != "finite":
        raise InputError(f"{what} needs a finite-kind presentation")
    return pres


def cmd_amalgam_reduce(args) -> Outcome:
    pres = _load_finite(args.presentation, "amalgam reduce")
    letters = am.parse_letters(pres, args.word)
    x = am.normalize(pres, letters)
    doc = {
        "input": args.word,
        "normal_form": am.serialize_element(x),
        "core": pres.A.names[x.core],
        "syllables": [f"{side}:{pres.factor(side).names[t]}" for side, t in x.syllables],
        "syllable_length": am.syllable_length(x),
    }
    return (doc, f"normal form: {am.serialize_element(x)}  (length {am.syllable_length(x)})",
            EXIT_OK)


def cmd_amalgam_member(args) -> Outcome:
    pres = _load_finite(args.presentation, "amalgam member")
    h = am.normalize(pres, am.parse_letters(pres, args.h))
    g = am.normalize(pres, am.parse_letters(pres, args.g))
    verdict = am.cyclic_member(h, g)
    doc = {
        "h": args.h,
        "g": args.g,
        "verdict": verdict.verdict,
        "exponent": verdict.exponent,
        "reason": verdict.reason,
    }
    if verdict.is_member:
        # Membership is the negative outcome for separation queries.
        return doc, f"member: h = g^{verdict.exponent}", EXIT_NEGATIVE
    return doc, f"nonmember ({verdict.reason})", EXIT_OK


def cmd_isolate(args) -> Outcome:
    pres = _load_finite(args.presentation, "isolate")
    g = am.normalize(pres, am.parse_letters(pres, args.g))
    found = am.find_prime_root(g, args.p)
    doc = {
        "g": args.g,
        "p": args.p,
        "isolated": found is None,
    }
    if found is None:
        # An isolated <g> is its own closure.
        doc["closure"] = {"generator": am.serialize_element(g), "index": 1}
        return doc, f"isolated: closure generator {am.serialize_element(g)}, index 1", EXIT_OK
    q, root = found
    doc["root"] = {"prime": q, "element": am.serialize_element(root)}
    return doc, f"not isolated: {q}-th root {am.serialize_element(root)}", EXIT_NEGATIVE


def _subgroup_from_names(G: fg.FiniteGroup, csv: str | None) -> fg.Subgroup:
    if not csv:
        return fg.trivial_subgroup(G)
    gens = [G.index_of(name.strip()) for name in csv.split(",") if name.strip()]
    return fg.subgroup_generated(G, gens)


def _chains(cert: cp.PChainCertificate) -> dict:
    return {"chain_a": [list(l.sorted_members) for l in cert.chain_a.links],
            "chain_b": [list(l.sorted_members) for l in cert.chain_b.links]}


def cmd_compat_check(args) -> Outcome:
    pres = _load_finite(args.presentation, "compat check")
    R = _subgroup_from_names(pres.A, args.r)
    S = _subgroup_from_names(pres.B, args.s)
    doc = {
        "R": list(R.sorted_members),
        "S": list(S.sorted_members),
    }
    if args.p is None:
        ok = cp.is_compatible(pres, R, S)
        doc["mode"] = "plain"
        doc["compatible"] = ok
        return doc, "compatible" if ok else "not compatible", EXIT_OK if ok else EXIT_NEGATIVE
    pair = cp.is_p_compatible(pres, R, S, args.p)
    doc["mode"] = f"p={args.p}"
    doc["compatible"] = pair is not None
    if pair is None:
        return doc, "not p-compatible", EXIT_NEGATIVE
    cert = pair.certificate
    doc["certificate"] = {**_chains(cert),
                          "matching": [[list(a), list(b)] for a, b in cert.matching]}
    return doc, "p-compatible with chain certificate", EXIT_OK


def cmd_compat_enum(args) -> Outcome:
    pres = _load_finite(args.presentation, "compat enum")
    mode = "p" if args.p is not None else "plain"
    pairs = cp.enumerate_compatible_pairs(pres, mode, args.p)
    listing = []
    for pair in pairs:
        item = {
            "R": list(pair.r_side.sorted_members),
            "S": list(pair.s_side.sorted_members),
        }
        if pair.certificate is not None:
            item.update(_chains(pair.certificate))
        listing.append(item)
    doc = {
        "mode": "plain" if args.p is None else f"p={args.p}",
        "count": len(pairs),
        "pairs": listing,
    }
    return doc, f"{len(pairs)} compatible pair(s)", EXIT_OK


def cmd_witness(args) -> Outcome:
    kind, pres = load_presentation_file(args.presentation)
    mode = "p" if args.p is not None else "plain"
    parse = am.parse_letters if kind == "finite" else parse_free_letters
    report = eng.separate_from_cyclic(pres, parse(pres, args.h), parse(pres, args.g),
                                      mode=mode, p=args.p, max_order=args.max_order)
    doc = report.to_json()
    if report.outcome == "separated":
        return (doc, f"separated by a homomorphism onto {report.target_name} (target "
                     f"order {report.target_order}, image order {report.image_order})",
                EXIT_OK)
    if report.outcome == "member":
        return doc, f"member: h = g^{report.exponent}", EXIT_NEGATIVE
    if report.reason == "bound_exhausted":
        return doc, f"bound exhausted at {report.bound}", EXIT_BOUND
    return doc, f"obstructed: {report.reason}", EXIT_NEGATIVE


def cmd_case(args) -> Outcome:
    options = {"sec3": ("p", "q", "n"), "thm21": ("bound",), "cyclic-remark": ("trials",)}
    params = {k: getattr(args, k) for k in options[args.case] if getattr(args, k) is not None}
    report = eng.run_case_study(args.case, **params)
    summary = "\n".join(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})"
                        for name, ok, detail in report.assertions)
    return report.to_json(), summary, EXIT_OK if report.all_passed else EXIT_NEGATIVE


# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type of a bound or a count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amalgsep",
        description="Certificates for cyclic-subgroup separation in amalgamated "
                    "free products of finite groups.",
        epilog="Default bounds: compatible-pair catalog order <= 48, witness "
               "target order <= 256. Exit codes: 0 success, 1 negative verdict, "
               "2 input error, 3 bound exhausted, 4 internal error.")
    parser.add_argument("--out", default=DEFAULT_REPORT,
                        help=f"JSON report path (default {DEFAULT_REPORT})")
    sub = parser.add_subparsers(dest="command", required=True)

    grp = sub.add_parser("group", help="finite-group file operations")
    gsub = grp.add_subparsers(dest="subcommand", required=True)
    gc = gsub.add_parser("check", help="validate a group JSON file")
    gc.add_argument("file")
    gc.set_defaults(handler=cmd_group_check)

    ama = sub.add_parser("amalgam", help="amalgam word-engine operations")
    asub = ama.add_subparsers(dest="subcommand", required=True)
    ab = asub.add_parser("build", help="validate a presentation file")
    ab.add_argument("file")
    ab.set_defaults(handler=cmd_amalgam_build)
    ar = asub.add_parser("reduce", help="normal form of a tagged letter string")
    ar.add_argument("presentation")
    ar.add_argument("word")
    ar.set_defaults(handler=cmd_amalgam_reduce)
    amem = asub.add_parser("member", help="cyclic-subgroup membership")
    amem.add_argument("presentation")
    amem.add_argument("h")
    amem.add_argument("g")
    amem.set_defaults(handler=cmd_amalgam_member)

    iso = sub.add_parser("isolate", help="test p'-isolation of a cyclic subgroup")
    iso.add_argument("presentation")
    iso.add_argument("g")
    iso.add_argument("--p", type=int, required=True)
    iso.set_defaults(handler=cmd_isolate)

    com = sub.add_parser("compat", help="compatible-pair machinery")
    csub = com.add_subparsers(dest="subcommand", required=True)
    cc = csub.add_parser("check", help="check one pair (defaults to trivial subgroups)")
    cc.add_argument("presentation")
    cc.add_argument("--p", type=int)
    cc.add_argument("--r", help="comma-separated generator names for R")
    cc.add_argument("--s", help="comma-separated generator names for S")
    cc.set_defaults(handler=cmd_compat_check)
    ce = csub.add_parser("enum", help="enumerate all compatible pairs")
    ce.add_argument("presentation")
    ce.add_argument("--p", type=int)
    ce.set_defaults(handler=cmd_compat_enum)

    wit = sub.add_parser("witness", help="separate h from the cyclic subgroup of g")
    wit.add_argument("presentation")
    wit.add_argument("h")
    wit.add_argument("g")
    wit.add_argument("--p", type=int)
    wit.add_argument("--max-order", type=_positive_int, default=eng.DEFAULT_TARGET_BOUND)
    wit.set_defaults(handler=cmd_witness)

    case = sub.add_parser("case", help="run a scripted case study")
    case.add_argument("case", choices=["thm21", "sec3", "cyclic-remark"])
    case.add_argument("--p", type=int)
    case.add_argument("--q", type=int)
    case.add_argument("--n", type=_positive_int)
    case.add_argument("--bound", type=_positive_int)
    case.add_argument("--trials", type=_positive_int)
    case.set_defaults(handler=cmd_case)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    try:
        for key in ("p", "q"):
            value = getattr(args, key, None)
            if value is not None and not fg.is_prime(value):
                raise InputError(f"parameter --{key} must be prime, got {value}")
        doc, summary, code = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # A crash is neither a verdict nor bad input: say so, in the report
        # too, after the traceback that locates it. Only a crash imports
        # ``traceback``, which a normal run would pay for at start-up.
        import traceback
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
        print(f"internal error: {error}", file=sys.stderr)
        try:
            write_report({"schema": 1, "command": command,
                          "outcome": "internal_error", "error": error}, args.out)
        except OSError:
            pass
        return EXIT_INTERNAL
    if args.command != "case":      # a case report names its case instead
        doc = {"schema": 1, "command": command, **doc}
    try:
        write_report(doc, args.out)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
