"""In-process workloads: seeded inputs, the timed operations, and their checks.

A workload is a function ``round(skel, label) -> list[Op]``. Building a
round generates its inputs and turns them into library objects through the
JSON path (``cli.validate_document`` then ``fingrp.group_from_json``,
which runs the verified ``construct_group``); that work is never timed.
Each ``Op`` holds the library call that is timed and a check, run later
and untimed, that raises ``CheckFailed`` on a wrong output.

Two random streams feed a round. ``skel`` draws the skeleton: the
amalgamated subgroups and the query words on catalog labels. It is
seeded by the workload alone, so every round of every run performs the
same list of operations up to isomorphism. ``label`` is seeded by the
command-line seed and draws what the library actually receives: a random
relabeling of every factor table, or for free factors a conjugator
applied to both query elements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import checkers as ck
import groups as gr
from amalgsep import amalgam as am
from amalgsep import cli
from amalgsep import compat as cp
from amalgsep import engine as eng
from amalgsep import fingrp as fg


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    # What the library receives, for the input fingerprint of a run.
    inputs: Any = None
    # Returns True when the (correct) output still counts as a failed
    # operation; see FREE_FALSE_MEMBER below.
    failed: Callable[[Any], bool] = lambda out: False


# ---------------------------------------------------------------------------
# Finite amalgams built from relabeled catalog tables


@dataclass
class FinitePres:
    """A relabeled copy of a skeleton amalgam.

    Query words are drawn on the catalog labels (``t0``, ``outside0``) and
    carried to the relabeled tables by ``perm``.
    """

    lib: Any                    # amalgsep AmalgamPresentation
    words: ck.FiniteAmalgam     # the benchmark's own word problem
    t0: dict                    # side -> catalog table
    outside0: dict              # side -> catalog elements outside H (resp. K)
    perm: dict                  # side -> catalog label -> relabeled index
    p: int
    names: dict                 # side -> element names

    def mapped(self, word0) -> list:
        return [(s, self.perm[s][x]) for s, x in word0]

    def random_word(self, skel: random.Random, length: int) -> list:
        """Alternating letters outside the amalgamated subgroup: a reduced
        word of that length."""
        side = skel.choice("AB")
        out = []
        for _ in range(length):
            out.append((side, skel.choice(self.outside0[side])))
            side = "B" if side == "A" else "A"
        return self.mapped(out)


def _group(table, prefix: str):
    names = gr.names_for(prefix, len(table))
    doc = {"schema": 1, "order": len(table), "table": [list(r) for r in table],
           "names": names}
    cli.validate_document(doc, "group")
    return fg.group_from_json(doc), names


def finite_presentation(skel: random.Random, label: random.Random, name_a: str,
                        name_b: str, h_order: int) -> FinitePres:
    """The skeleton draws the amalgamated cyclic subgroups on the catalog
    tables; ``label`` draws the relabeling the library receives."""
    t0 = {"A": gr.table_by_name(name_a), "B": gr.table_by_name(name_b)}
    gens0 = {s: skel.choice([e for e in range(len(t)) if gr.element_order(t, e) == h_order])
             for s, t in t0.items()}
    outside0 = {s: [e for e in range(len(t)) if e not in gr.generated(t, [gens0[s]])]
                for s, t in t0.items()}
    ta, pa = gr.relabel(t0["A"], label)
    tb, pb = gr.relabel(t0["B"], label)
    x, y = pa[gens0["A"]], pb[gens0["B"]]
    phi, hx, ky = {}, 0, 0
    for _ in range(h_order):
        phi[hx] = ky
        hx, ky = ta[hx][x], tb[ky][y]
    A, names_a = _group(ta, "a")
    B, names_b = _group(tb, "b")
    lib = am.build_amalgam(A, B, fg.subgroup_generated(A, [x]),
                           fg.subgroup_generated(B, [y]), phi)
    p = 2 if len(ta) % 2 == 0 else 3
    return FinitePres(lib, ck.FiniteAmalgam(ta, tb, phi), t0, outside0,
                      {"A": pa, "B": pb}, p, {"A": names_a, "B": names_b})


def _parse_letters(fp: FinitePres, text: str) -> list:
    out = []
    for token in text.split():
        side, name = token.split(":")
        out.append((side, fp.names[side].index(name)))
    return out


# ---------------------------------------------------------------------------
# finite-witness


WITNESS_BOUND = 32
# (A, B, order of the cyclic amalgamated subgroup); the last three glue
# groups of different prime orders, so p-mode has no chain certificate.
WITNESS_SHAPES = [
    ("Z4", "Z4", 2), ("D4", "Z8", 4), ("Z2xZ4", "D4", 2), ("Z8", "Z2xZ4", 4),
    ("D4", "Z2xZ4", 2), ("Z9", "Z9", 3), ("Z3xZ3", "Z9", 3),
    ("MC(9,4,3)", "Z3xZ9", 3), ("Z3xZ9", "MC(9,4,3)", 9),
    ("Z4", "D3", 2), ("Z2xZ4", "D6", 2), ("Z9", "Z3xD3", 3),
]


def _witness_op(fp: FinitePres, kind: str, h, g, mode: str) -> Op:
    p = fp.p if mode == "p" else None

    def call():
        return eng.separate_from_cyclic(fp.lib, h, g, mode=mode, p=p,
                                        max_order=WITNESS_BOUND)

    def check(rep):
        ck.check_witness_report(fp.words, h, g, rep.to_json(), p, (WITNESS_BOUND,),
                                lambda text: _parse_letters(fp, text))

    return Op(f"{kind}/{mode}", call, check, (fp.words.t, h, g))


def witness_queries(skel: random.Random, fp: FinitePres) -> list[tuple[str, list, list]]:
    words = fp.words
    g2 = fp.random_word(skel, 2)
    root = fp.random_word(skel, 2)
    # A generator inside one factor, with h in the same factor but outside
    # <g> where the factors allow it (else in the other factor).
    out0 = fp.outside0
    cands = [(s, x) for s in "AB" for x in out0[s]
             if not set(out0[s]) <= gr.generated(fp.t0[s], [x])]
    side, gs = skel.choice(cands or [("A", skel.choice(out0["A"]))])
    cyc = gr.generated(fp.t0[side], [gs])
    hs = [(side, x) for x in out0[side] if x not in cyc] or [("B", x) for x in out0["B"]]
    return [
        ("power", words.power(g2, skel.choice([2, 3, -1, -2])), g2),
        ("short", fp.random_word(skel, skel.choice([2, 3])), fp.random_word(skel, 2)),
        ("long", fp.random_word(skel, 4), fp.random_word(skel, 4)),
        ("factor", fp.random_word(skel, 1), fp.random_word(skel, 2)),
        ("root", fp.random_word(skel, 2), root * (3 if fp.p == 2 else 2)),
        ("in-factor", fp.mapped([skel.choice(hs)]), fp.mapped([(side, gs)])),
    ]


def finite_witness_round(skel: random.Random, label: random.Random) -> list[Op]:
    ops = []
    for shape in WITNESS_SHAPES:
        fp = finite_presentation(skel, label, *shape)
        for kind, h, g in witness_queries(skel, fp):
            for mode in ("plain", "p"):
                ops.append(_witness_op(fp, kind, h, g, mode))
    return ops


# ---------------------------------------------------------------------------
# lattice


# p-group amalgams with cyclic amalgamation, the setting of the paper's
# remark that every compatible pair then carries a p-chain certificate.
LATTICE_SHAPES = [
    ("D4", "Z2xZ4", 2), ("Z2xZ4", "Z2xZ4", 4), ("D8", "Z16", 8), ("Z9", "MC(9,4,3)", 3),
    ("MC(8,3,2)", "MC(8,5,2)", 4), ("Z3xZ3", "MC(9,4,3)", 3), ("Z8", "Z2xD4", 2),
    ("D4", "Z2xD2", 2), ("Z27", "MC(9,7,3)", 9), ("Z9", "Z3xZ9", 9),
    ("MC(9,4,3)", "MC(9,7,3)", 3), ("Z2xZ8", "D8", 8), ("Z16", "Z2xD4", 2),
]


def _members(pair) -> tuple[frozenset, frozenset]:
    return (pair.r_side.members, pair.s_side.members)


def lattice_op(skel: random.Random, label: random.Random, shape) -> Op:
    fp = finite_presentation(skel, label, *shape)
    pres, p = fp.lib, fp.p
    g = fp.perm["A"][skel.randrange(1, pres.A.order)]

    def call():
        plain = cp.enumerate_compatible_pairs(pres, "plain")
        certified = [cp.is_p_compatible(pres, pair.r_side, pair.s_side, p) for pair in plain]
        pmode = cp.enumerate_compatible_pairs(pres, "p", p)
        verdict = cp.family_separability(pres, "A", g, "p", p)
        return plain, certified, pmode, verdict

    def check(out):
        plain, certified, pmode, verdict = out
        lat = ck.PairLattice(fp.words)
        want = lat.plain_pairs()
        ck.require([_members(x) for x in plain] == want, "plain pair list differs")
        expect_p = []
        for (R, S), cert in zip(want, certified):
            ok = lat.p_compatible(R, S, p)
            ck.require((cert is not None) == ok, "p-compatibility verdict differs")
            # The paper's remark: with cyclic amalgamation every compatible
            # pair of a p-group amalgam is p-compatible.
            ck.require(ok, "compatible pair without a p-chain")
            if cert is not None:
                c = cert.certificate
                lat.check_certificate(R, S, [l.members for l in c.chain_a.links],
                                      [l.members for l in c.chain_b.links],
                                      c.matching, p)
                expect_p.append((R, S))
        ck.require([_members(x) for x in pmode] == expect_p, "p-mode pair list differs")
        lat.check_family_verdict(
            "A", g, expect_p, verdict.verdict,
            {x: N.members for x, N in (verdict.witnesses or {}).items()},
            verdict.certifying)

    return Op(f"lattice/{shape[0]}*{shape[1]}", call, check, (fp.words.t, fp.words.phi, g))


def lattice_round(skel: random.Random, label: random.Random) -> list[Op]:
    return [lattice_op(skel, label, shape) for shape in LATTICE_SHAPES]


# ---------------------------------------------------------------------------
# free-scan


PAIR_BOUND = 16
CLASS_BOUND = 24
# Separation queries per amalgam and mode: the cheap majority of a round,
# so the median operation sits inside one cluster of similar costs.
SEPARATIONS = 6


@dataclass
class FreePres:
    lib: Any                        # amalgsep FreeAmalgamDescription
    words: ck.FreeCyclicAmalgam
    names: dict


def free_presentation(names_a, names_b, h_word: str, k_word: str) -> FreePres:
    doc = {"schema": 1, "kind": "free", "gens_a": list(names_a),
           "gens_b": list(names_b), "h_words": [h_word], "k_words": [k_word]}
    cli.validate_document(doc, "presentation")
    u = ck.parse_free_word(h_word, names_a)
    v = ck.parse_free_word(k_word, names_b)
    lib = cp.FreeAmalgamDescription(
        rank_a=len(names_a), rank_b=len(names_b),
        gen_names_a=tuple(names_a), gen_names_b=tuple(names_b),
        h_words=(u,), k_words=(v,))
    return FreePres(lib, ck.FreeCyclicAmalgam(u, v), {"A": names_a, "B": names_b})


def power_congruence(p: int) -> FreePres:
    """<a, b | a^p = b^p>."""
    return free_presentation(["a"], ["b"], f"a^{p}", f"b^{p}")


def conjugator(label: random.Random, rank: int) -> list:
    """A random element x^±1 y^±1 with x and y generators of the two
    factors. Conjugating both h and g by it keeps the answer, and the
    engine undoes it when it cyclically reduces g. Its shape is fixed:
    with one to four letters, the cheap separations' cost varied by 18%
    between relabelings, and that cost sets free-scan's median latency."""
    side = label.choice("AB")
    return [(s, ((label.randrange(rank), label.choice((1, -1))),))
            for s in (side, "B" if side == "A" else "A")]


def free_letters(fp: FreePres, text: str) -> list:
    out = []
    for token in text.split():
        side, word = token.split(":")
        out.append((side, ck.parse_free_word(word, fp.names[side])))
    return out


def free_witness_op(fp: FreePres, kind: str, h, g, mode: str, p: int | None,
                    failed=lambda rep: False) -> Op:
    def call():
        return eng.separate_from_cyclic(fp.lib, h, g, mode=mode, p=p,
                                        max_order=WITNESS_BOUND, pair_bound=PAIR_BOUND)

    def check(rep):
        ck.check_witness_report(fp.words, h, g, rep.to_json(), p,
                                (PAIR_BOUND, WITNESS_BOUND))

    return Op(f"{kind}/{mode}", call, check, (fp.words.words, h, g), failed)


# A query the engine answers wrongly: h = g^2 b^16 and b^16 = a^16 is a
# nontrivial central element, so h lies outside <g>, yet the refinement
# scan finds no distinguishing pair up to the pair bound and the engine
# reports `member`. The exact check rejects `member`; the benchmark counts
# that answer as a failed operation.
FREE_FALSE_MEMBER = ("A:a B:b A:a B:b^17", "A:a B:b")
# The README's p = 2 free query.
FREE_README = ("A:a B:b^7", "A:a B:b A:a B:b A:a B:b A:a^2")


def _odd_exponent(rng: random.Random, p: int) -> int:
    return rng.choice([e for e in (-3, -2, -1, 1, 2, 3) if e % p])


def free_word_pair(rng: random.Random, p: int, length: int) -> list:
    """Alternating chunks a^i / b^j with exponents prime to p (so no chunk
    lies in the amalgamated subgroup)."""
    side = rng.choice("AB")
    out = []
    for _ in range(length):
        e = _odd_exponent(rng, p)
        out.append((side, ((0, 1 if e > 0 else -1),) * abs(e)))
        side = "B" if side == "A" else "A"
    return out


def rank2_word(rng: random.Random, length: int) -> list:
    side = rng.choice("AB")
    out = []
    for _ in range(length):
        word = ()
        while not word:
            word = ck.free_reduce(tuple((rng.randrange(2), rng.choice((1, -1)))
                                        for _ in range(rng.choice((1, 2)))))
        out.append((side, word))
        side = "B" if side == "A" else "A"
    return out


def doubling(label: random.Random) -> tuple[Any, list, list]:
    """<a, b^-1 a b> = <c, d^-1 c^2 d>, up to the automorphisms b -> b^-1
    and d -> d^-1 that ``label`` chooses (the class scan is exhaustive, so
    its work does not depend on the choice)."""
    sb, sd = label.choice((1, -1)), label.choice((1, -1))
    h_words = [((0, 1),), ((1, -sb), (0, 1), (1, sb))]
    k_words = [((0, 1),), ((1, -sd), (0, 1), (0, 1), (1, sd))]
    desc = cp.FreeAmalgamDescription(
        rank_a=2, rank_b=2, gen_names_a=("a", "b"), gen_names_b=("c", "d"),
        h_words=tuple(h_words), k_words=tuple(k_words))
    return desc, h_words, k_words


def _classes(out) -> list:
    return [(na, u.images, nb, v.images) for _, na, u, nb, v in out]


def class_op(kind: str, desc, h_words, k_words, bound: int, thm21: bool) -> Op:
    def call():
        return cp.enumerate_free_compatible_classes(desc, bound)

    def check(out):
        classes = _classes(out)
        ck.check_free_classes(classes, h_words, k_words, gr.table_by_name)
        if thm21:
            ck.check_thm21(classes, bound, gr.table_by_name)

    return Op(kind, call, check, (h_words, k_words, bound))


def free_scan_round(skel: random.Random, label: random.Random) -> list[Op]:
    """Fixed queries (the false member and the README query) plus skeleton
    queries conjugated by a seeded element of each amalgam."""
    fixed = power_congruence(2)
    ops = [
        free_witness_op(fixed, "false-member",
                        *(free_letters(fixed, t) for t in FREE_FALSE_MEMBER), "p", 2,
                        failed=lambda rep: rep.outcome == "member"),
        free_witness_op(fixed, "readme", *(free_letters(fixed, t) for t in FREE_README),
                        "p", 2),
    ]
    pc = {p: power_congruence(p) for p in (2, 3)}
    r2 = free_presentation(["a", "b"], ["c", "d"], "a b a b^-1", "c^2 d^2")
    desc, hw, kw = doubling(label)
    ops.append(class_op("classes/doubling", desc, hw, kw, CLASS_BOUND, thm21=True))
    for p in (2, 3):
        ops.append(class_op(f"classes/pc{p}", pc[p].lib, pc[p].lib.h_words,
                            pc[p].lib.k_words, CLASS_BOUND, thm21=False))
    ops.append(class_op("classes/rank2", r2.lib, r2.lib.h_words, r2.lib.k_words, 8,
                        thm21=False))

    def conjugated(fp: FreePres, h, g, rank: int):
        c = conjugator(label, rank)
        c_inv = fp.words.inverse(c)
        return c + h + c_inv, c + g + c_inv

    for p, mode in ((2, "plain"), (3, "plain"), (2, "p")):
        g = free_word_pair(skel, p, 2)
        h = pc[p].words.power(g, skel.choice((2, 3)))
        ops.append(free_witness_op(pc[p], "member", *conjugated(pc[p], h, g, 1), mode,
                                   p if mode == "p" else None))
    for p in (2, 3):
        for mode in ("plain", "p"):
            for _ in range(SEPARATIONS):
                g = free_word_pair(skel, p, 2)
                h = free_word_pair(skel, p, skel.choice((1, 2, 3)))
                ops.append(free_witness_op(pc[p], "separate", *conjugated(pc[p], h, g, 1),
                                           mode, p if mode == "p" else None))
    for _ in range(3):
        h, g = rank2_word(skel, 2), rank2_word(skel, 2)
        ops.append(free_witness_op(r2, "separate-rank2", *conjugated(r2, h, g, 2),
                                   "plain", None))
    return ops


IN_PROCESS = {
    "finite-witness": finite_witness_round,
    "lattice": lattice_round,
    "free-scan": free_scan_round,
}
