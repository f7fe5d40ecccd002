"""Command-line front end.

Subcommands mirror the library: ``group check``, ``amalgam build``,
``amalgam reduce``, ``amalgam member``, ``isolate``, ``compat check``,
``compat enum``, ``witness``, and ``case``. Every run writes a JSON
report to the output path (default ``amalgsep_report.json``) and a short
human summary to stdout.

Exit codes: 0 success, 1 negative verdict (member, obstructed,
incompatible, not isolated, failed case assertion), 2 input error,
3 search bound exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources

import jsonschema

from . import amalgam as am
from . import compat as cp
from . import engine as eng
from . import fingrp as fg
from .errors import AmalgsepError, BoundExhausted, InputError
from .freegrp import parse_word

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BOUND = 3

DEFAULT_REPORT = "amalgsep_report.json"


@functools.cache
def _validator(kind: str):
    """The validator for one schema kind; the schema is read and checked once."""
    text = resources.files("amalgsep.schemas").joinpath(f"{kind}.schema.json").read_text()
    schema = json.loads(text)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_document(doc: dict, kind: str) -> None:
    # best_match is the error jsonschema.validate would raise.
    error = jsonschema.exceptions.best_match(_validator(kind).iter_errors(doc))
    if error is not None:
        raise InputError(f"{kind} document rejected: {error.message}")


@dataclass
class JobSpec:
    """Validated invocation: command, inputs, parameters, output path."""

    command: str
    inputs: list[str]
    parameters: dict
    output: str | None

    def __post_init__(self):
        for key in ("p", "q"):
            val = self.parameters.get(key)
            if val is not None and not fg.is_prime(val):
                raise InputError(f"parameter --{key} must be prime, got {val}")

    def to_json(self) -> dict:
        return {"schema": 1, "command": self.command, "inputs": list(self.inputs),
                "parameters": dict(self.parameters), "output": self.output}


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
    letters = []
    for token in text.split():
        if ":" not in token:
            raise InputError(f"letter {token!r} must look like SIDE:word")
        side, chunk = token.split(":", 1)
        if side not in ("A", "B"):
            raise InputError(f"unknown side {side!r} in {token!r}")
        names = desc.gen_names_a if side == "A" else desc.gen_names_b
        letters.append((side, parse_word(chunk, names)))
    return letters


def write_report(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _say(msg: str) -> None:
    print(msg)


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_group_check(args) -> int:
    G = load_group_file(args.file)
    doc = {
        "schema": 1,
        "command": "group check",
        "valid": True,
        "order": G.order,
        "associativity": ("verified" if G.associativity_verified
                          else "unverified-associativity"),
    }
    write_report(doc, args.out)
    _say(f"group OK: order {G.order}, associativity "
         f"{'verified' if G.associativity_verified else 'sampled only'}")
    return EXIT_OK


def cmd_amalgam_build(args) -> int:
    kind, pres = load_presentation_file(args.file)
    if kind == "finite":
        doc = {
            "schema": 1,
            "command": "amalgam build",
            "kind": kind,
            "factor_orders": [pres.A.order, pres.B.order],
            "amalgamated_order": pres.H.order,
            "coset_counts": [pres.A.order // pres.H.order,
                             pres.B.order // pres.K.order],
        }
        _say(f"amalgam OK: factors of order {pres.A.order} and {pres.B.order}, "
             f"amalgamated subgroup of order {pres.H.order}")
    else:
        doc = {
            "schema": 1,
            "command": "amalgam build",
            "kind": kind,
            "ranks": [pres.rank_a, pres.rank_b],
            "amalgamated_rank": len(pres.h_words),
        }
        _say(f"amalgam OK: free factors of rank {pres.rank_a} and {pres.rank_b}")
    write_report(doc, args.out)
    return EXIT_OK


def _require_finite(kind, pres, what: str):
    if kind != "finite":
        raise InputError(f"{what} needs a finite-kind presentation")
    return pres


def cmd_amalgam_reduce(args) -> int:
    kind, pres = load_presentation_file(args.presentation)
    _require_finite(kind, pres, "amalgam reduce")
    letters = am.parse_letters(pres, args.word)
    x = am.normalize(pres, letters)
    doc = {
        "schema": 1,
        "command": "amalgam reduce",
        "input": args.word,
        "normal_form": am.serialize_element(x),
        "core": pres.A.names[x.core],
        "syllables": [f"{side}:{pres.factor(side).names[t]}" for side, t in x.syllables],
        "syllable_length": am.syllable_length(x),
    }
    write_report(doc, args.out)
    _say(f"normal form: {am.serialize_element(x)}  (length {am.syllable_length(x)})")
    return EXIT_OK


def cmd_amalgam_member(args) -> int:
    kind, pres = load_presentation_file(args.presentation)
    _require_finite(kind, pres, "amalgam member")
    h = am.normalize(pres, am.parse_letters(pres, args.h))
    g = am.normalize(pres, am.parse_letters(pres, args.g))
    verdict = am.cyclic_member(h, g)
    doc = {
        "schema": 1,
        "command": "amalgam member",
        "h": args.h,
        "g": args.g,
        "verdict": verdict.verdict,
        "exponent": verdict.exponent,
        "reason": verdict.reason,
    }
    write_report(doc, args.out)
    if verdict.is_member:
        _say(f"member: h = g^{verdict.exponent}")
        # Membership is the negative outcome for separation queries.
        return EXIT_NEGATIVE
    _say(f"nonmember ({verdict.reason})")
    return EXIT_OK


def cmd_isolate(args) -> int:
    kind, pres = load_presentation_file(args.presentation)
    _require_finite(kind, pres, "isolate")
    g = am.normalize(pres, am.parse_letters(pres, args.g))
    isolated = am.is_p_prime_isolated(g, args.p)
    doc = {
        "schema": 1,
        "command": "isolate",
        "g": args.g,
        "p": args.p,
        "isolated": isolated,
    }
    if isolated:
        f, j = am.isolated_closure(g, args.p)
        doc["closure"] = {"generator": am.serialize_element(f), "index": j}
        _say(f"isolated: closure generator {am.serialize_element(f)}, index {j}")
        write_report(doc, args.out)
        return EXIT_OK
    q, root = am.find_prime_root(g, args.p)
    doc["root"] = {"prime": q, "element": am.serialize_element(root)}
    write_report(doc, args.out)
    _say(f"not isolated: {q}-th root {am.serialize_element(root)}")
    return EXIT_NEGATIVE


def _subgroup_from_names(G: fg.FiniteGroup, csv: str | None) -> fg.Subgroup:
    if not csv:
        return fg.trivial_subgroup(G)
    gens = [G.index_of(name.strip()) for name in csv.split(",") if name.strip()]
    return fg.subgroup_generated(G, gens)


def cmd_compat_check(args) -> int:
    kind, pres = load_presentation_file(args.presentation)
    _require_finite(kind, pres, "compat check")
    R = _subgroup_from_names(pres.A, args.r)
    S = _subgroup_from_names(pres.B, args.s)
    doc = {
        "schema": 1,
        "command": "compat check",
        "R": list(R.sorted_members),
        "S": list(S.sorted_members),
    }
    if args.p is None:
        ok = cp.is_compatible(pres, R, S)
        doc["mode"] = "plain"
        doc["compatible"] = ok
        write_report(doc, args.out)
        _say("compatible" if ok else "not compatible")
        return EXIT_OK if ok else EXIT_NEGATIVE
    pair = cp.is_p_compatible(pres, R, S, args.p)
    doc["mode"] = f"p={args.p}"
    doc["compatible"] = pair is not None
    if pair is not None:
        cert = pair.certificate
        doc["certificate"] = {
            "chain_a": [list(l.sorted_members) for l in cert.chain_a.links],
            "chain_b": [list(l.sorted_members) for l in cert.chain_b.links],
            "matching": [[list(a), list(b)] for a, b in cert.matching],
        }
    write_report(doc, args.out)
    _say("p-compatible with chain certificate" if pair else "not p-compatible")
    return EXIT_OK if pair else EXIT_NEGATIVE


def cmd_compat_enum(args) -> int:
    kind, pres = load_presentation_file(args.presentation)
    _require_finite(kind, pres, "compat enum")
    mode = "p" if args.p is not None else "plain"
    pairs = cp.enumerate_compatible_pairs(pres, mode, args.p)
    listing = []
    for pair in pairs:
        item = {
            "R": list(pair.r_side.sorted_members),
            "S": list(pair.s_side.sorted_members),
        }
        if pair.certificate is not None:
            item["chain_a"] = [list(l.sorted_members)
                               for l in pair.certificate.chain_a.links]
            item["chain_b"] = [list(l.sorted_members)
                               for l in pair.certificate.chain_b.links]
        listing.append(item)
    doc = {
        "schema": 1,
        "command": "compat enum",
        "mode": "plain" if args.p is None else f"p={args.p}",
        "count": len(pairs),
        "pairs": listing,
    }
    write_report(doc, args.out)
    _say(f"{len(pairs)} compatible pair(s)")
    return EXIT_OK


def cmd_witness(args) -> int:
    kind, pres = load_presentation_file(args.presentation)
    mode = "p" if args.p is not None else "plain"
    if kind == "finite":
        h = am.parse_letters(pres, args.h)
        g = am.parse_letters(pres, args.g)
    else:
        h = parse_free_letters(pres, args.h)
        g = parse_free_letters(pres, args.g)
    report = eng.separate_from_cyclic(pres, h, g, mode=mode, p=args.p,
                                      max_order=args.max_order)
    doc = report.to_json()
    doc["command"] = "witness"
    write_report(doc, args.out)
    if report.outcome == "separated":
        _say(f"separated by a homomorphism onto {report.target_name} "
             f"(target order {report.target_order}, image order {report.image_order})")
        return EXIT_OK
    if report.outcome == "member":
        _say(f"member: h = g^{report.exponent}")
        return EXIT_NEGATIVE
    if report.reason == "bound_exhausted":
        _say(f"bound exhausted at {report.bound}")
        return EXIT_BOUND
    _say(f"obstructed: {report.reason}")
    return EXIT_NEGATIVE


def cmd_case(args) -> int:
    params = {}
    if args.case == "sec3":
        params = {"p": args.p or 2, "q": args.q or 3, "n": args.n or 2}
    elif args.case == "thm21":
        params = {"bound": args.bound}
    else:
        params = {"trials": args.trials}
    report = eng.run_case_study(args.case.replace("-", "_"), **params)
    doc = report.to_json()
    write_report(doc, args.out)
    for name, ok, detail in report.assertions:
        _say(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    return EXIT_OK if report.all_passed else EXIT_NEGATIVE


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amalgsep",
        description="Certificates for cyclic-subgroup separation in amalgamated "
                    "free products of finite groups.",
        epilog="Default bounds: compatible-pair catalog order <= 48, witness "
               "target order <= 256. Exit codes: 0 success, 1 negative verdict, "
               "2 input error, 3 bound exhausted. AMALGSEP_THREADS caps worker "
               "threads.")
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
    wit.add_argument("--max-order", type=int, default=eng.DEFAULT_TARGET_BOUND)
    wit.set_defaults(handler=cmd_witness)

    case = sub.add_parser("case", help="run a scripted case study")
    case.add_argument("case", choices=["thm21", "sec3", "cyclic-remark"])
    case.add_argument("--p", type=int)
    case.add_argument("--q", type=int)
    case.add_argument("--n", type=int)
    case.add_argument("--bound", type=int, default=48)
    case.add_argument("--trials", type=int, default=100)
    case.set_defaults(handler=cmd_case)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = {k: v for k, v in vars(args).items()
              if k in ("p", "q", "n", "bound", "trials", "max_order") and v is not None}
    try:
        job = JobSpec(command=args.command, inputs=[], parameters=params,
                      output=args.out)
        validate_document(job.to_json(), "job")
        return args.handler(args)
    except BoundExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AmalgsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
