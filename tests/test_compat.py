import itertools
import json
import random

import pytest
from conftest import (
    cold_catalog,
    cold_group,
    cold_presentation,
    quotient_view,
    spy_calls,
)
from test_scans import FINITE_AMALGAMS, _finite_amalgam, _finite_queries, _free_queries

from amalgsep import compat, engine
from amalgsep.amalgam import build_amalgam, multiply, normalize, syllable_length
from amalgsep.catalog import catalog, cyclic_group, symmetric_group
from amalgsep.compat import (
    CompatiblePair,
    FreeAmalgamDescription,
    build_free_quotient_amalgam,
    build_quotient_amalgam,
    enumerate_compatible_pairs,
    enumerate_free_compatible_classes,
    family_separability,
    free_family_separability,
    is_compatible,
    is_p_compatible,
    presentation_residually_p,
)
from amalgsep.engine import conjugation_doubling_description, power_congruence_description
from amalgsep.errors import InputError
from amalgsep.fingrp import (
    Subgroup,
    quotient_with_projection,
    subgroup_generated,
    trivial_subgroup,
)
from amalgsep.freegrp import GenImages, induced_map, parse_word, restriction


def z4_subgroups(G):
    return {
        1: trivial_subgroup(G),
        2: subgroup_generated(G, [2]),
        4: subgroup_generated(G, [1]),
    }


class TestIsCompatible:
    def test_trivial_pair(self, g2, z4a, z4b):
        assert is_compatible(g2, trivial_subgroup(z4a), trivial_subgroup(z4b))

    def test_full_pair(self, g2, z4a, z4b):
        assert is_compatible(g2, subgroup_generated(z4a, [1]),
                             subgroup_generated(z4b, [1]))

    def test_mixed_pair_fails(self, g2, z4a, z4b):
        assert not is_compatible(g2, trivial_subgroup(z4a),
                                 subgroup_generated(z4b, [2]))


class TestPCompatible:
    def test_trivial_pair_p2(self, g2, z4a, z4b):
        pair = is_p_compatible(g2, trivial_subgroup(z4a), trivial_subgroup(z4b), 2)
        assert pair is not None
        cert = pair.certificate
        cert.chain_a.validate()
        cert.chain_b.validate()
        assert [l.order for l in cert.chain_a.links] == [1, 2, 4]
        # Matched family: {1, H} corresponds to {1, K}.
        assert cert.matching == (((0,), (0,)), ((0, 2), (0, 2)))

    def test_trivial_pair_p3_absent(self, g2, z4a, z4b):
        assert is_p_compatible(g2, trivial_subgroup(z4a),
                               trivial_subgroup(z4b), 3) is None

    def test_top_pair_any_p(self, g2, z4a, z4b):
        for p in (2, 3, 5):
            pair = is_p_compatible(g2, subgroup_generated(z4a, [1]),
                                   subgroup_generated(z4b, [1]), p)
            assert pair is not None
            assert len(pair.certificate.chain_a.links) == 1

    def test_p_certificates_imply_plain(self, g2):
        for pair in enumerate_compatible_pairs(g2, "p", 2):
            assert is_compatible(g2, pair.r_side, pair.s_side)


class TestEnumerate:
    def test_z4_amalgam_has_exactly_five(self, g2):
        pairs = enumerate_compatible_pairs(g2, "plain")
        got = {(p.r_side.sorted_members, p.s_side.sorted_members) for p in pairs}
        expect = {
            ((0,), (0,)),
            ((0, 2), (0, 2)),
            ((0, 2), (0, 1, 2, 3)),
            ((0, 1, 2, 3), (0, 2)),
            ((0, 1, 2, 3), (0, 1, 2, 3)),
        }
        assert got == expect
        # Independent brute force over all nine candidate pairs.
        brute = set()
        from amalgsep.fingrp import enumerate_normal_subgroups
        for R in enumerate_normal_subgroups(g2.A):
            for S in enumerate_normal_subgroups(g2.B):
                image = {g2.phi[x] for x in (R.members & g2.H.members)}
                if image == (S.members & g2.K.members):
                    brute.add((R.sorted_members, S.sorted_members))
        assert brute == got

    def test_p_mode_subset(self, g2):
        plain = {p.key() for p in enumerate_compatible_pairs(g2, "plain")}
        pmode = {p.key() for p in enumerate_compatible_pairs(g2, "p", 2)}
        assert pmode <= plain
        assert pmode  # nonempty: the trivial pair certifies

    def test_degenerate_full_amalgamation(self, z4a, z4b):
        H = subgroup_generated(z4a, [1])
        K = subgroup_generated(z4b, [1])
        pres = build_amalgam(z4a, z4b, H, K, {i: i for i in range(4)})
        pairs = enumerate_compatible_pairs(pres, "plain")
        # Compatibility collapses to R phi = S under the full isomorphism.
        for pair in pairs:
            assert {pres.phi[x] for x in pair.r_side.members} == set(pair.s_side.members)
        assert len(pairs) == 3


class TestInducedIso:
    """The identification hR -> (h phi)S of the quotient amalgam; an
    incompatible pair is rejected (``TestQuotientAmalgam``)."""

    def test_faithful_pair_copies_phi(self, g2, z4a, z4b):
        R, S = trivial_subgroup(z4a), trivial_subgroup(z4b)
        _, pa = quotient_with_projection(z4a, R)
        _, pb = quotient_with_projection(z4b, S)
        iso = build_quotient_amalgam(g2, CompatiblePair("plain", None, R, S)).presentation.phi
        assert iso == {pa[h]: pb[g2.phi[h]] for h in g2.H.members}
        assert len(iso) == 2

    def test_collapsing_pair(self, g2, z4a, z4b):
        R = subgroup_generated(z4a, [2])
        S = subgroup_generated(z4b, [2])
        iso = build_quotient_amalgam(g2, CompatiblePair("plain", None, R, S)).presentation.phi
        assert iso == {0: 0}


class TestQuotientAmalgam:
    def test_quarter_pair_gives_z2_factors(self, g2):
        pair = next(p for p in enumerate_compatible_pairs(g2, "plain")
                    if p.r_side.order == 2 and p.s_side.order == 2)
        qa = build_quotient_amalgam(g2, pair)
        assert qa.presentation.A.order == 2
        assert qa.presentation.H.order == 1

    def test_incompatible_rejected(self, g2, z4a, z4b):
        bad = CompatiblePair("plain", None, trivial_subgroup(z4a),
                             subgroup_generated(z4b, [2]))
        with pytest.raises(AssertionError, match="pair fails the compatibility equation"):
            build_quotient_amalgam(g2, bad)

    def test_projection_commutes_with_normalize(self, g2):
        rng = random.Random(9)
        pair = next(p for p in enumerate_compatible_pairs(g2, "plain")
                    if p.r_side.order == 2 and p.s_side.order == 4)
        qa = build_quotient_amalgam(g2, pair)
        for _ in range(500):
            letters = [(rng.choice(["A", "B"]),
                        rng.randrange(4)) for _ in range(rng.randrange(0, 7))]
            direct = qa.project(letters)
            via_normal_form = qa.project(normalize(g2, letters).letters())
            assert direct == via_normal_form

    def test_projection_is_multiplicative(self, g2):
        rng = random.Random(10)
        pair = enumerate_compatible_pairs(g2, "plain")[0]
        qa = build_quotient_amalgam(g2, pair)
        for _ in range(500):
            xs = [(rng.choice(["A", "B"]), rng.randrange(4))
                  for _ in range(rng.randrange(0, 5))]
            ys = [(rng.choice(["A", "B"]), rng.randrange(4))
                  for _ in range(rng.randrange(0, 5))]
            assert qa.project(xs + ys) == multiply(qa.project(xs), qa.project(ys))


class TestFreeQuotients:
    def test_square_identification_instance(self):
        # Rank-one factors glued along squares; generator images of order 4
        # produce the amalgam of two cyclic groups of order 4 over the
        # common square.
        desc = FreeAmalgamDescription(
            rank_a=1, rank_b=1, gen_names_a=("a",), gen_names_b=("b",),
            h_words=(parse_word("a^2", ["a"]),),
            k_words=(parse_word("b^2", ["b"]),))
        Z4 = cyclic_group(4)
        u = GenImages(1, Z4, (1,))
        v = GenImages(1, Z4, (1,))
        assert induced_map(restriction(u, desc.h_words), restriction(v, desc.k_words)) is not None
        qa = build_free_quotient_amalgam(desc, u, v)
        assert qa.presentation.A.order == 4
        assert qa.presentation.H.sorted_members == (0, 2)
        # a^2 and b^2 project to the identified amalgam generator.
        x = qa.project([("A", parse_word("a^2", ["a"]))])
        y = qa.project([("B", parse_word("b^2", ["b"]))])
        assert x == y

    def test_incompatible_rejected(self):
        desc = FreeAmalgamDescription(
            rank_a=1, rank_b=1, gen_names_a=("a",), gen_names_b=("b",),
            h_words=(parse_word("a^2", ["a"]),),
            k_words=(parse_word("b^2", ["b"]),))
        u = GenImages(1, cyclic_group(4), (1,))
        v = GenImages(1, cyclic_group(2), (1,))
        # b^2 dies while a^2 survives: restriction kernels differ.
        assert induced_map(restriction(u, desc.h_words), restriction(v, desc.k_words)) is None
        with pytest.raises(AssertionError, match="restriction kernels differ"):
            build_free_quotient_amalgam(desc, u, v)


A_WORD = (((0, 1),),)


@pytest.mark.parametrize("args,message", [
    ((1, 1, ("a",), ("b",), (((1, 1),),), A_WORD), "side A names a generator outside 0..0"),
    ((1, 1, ("a",), ("b",), A_WORD, (((0, 1), (-1, 1)),)),
     "side B names a generator outside 0..0"),
    ((2, 1, ("a", "b"), ("c",), (((0, 1), (2, -1)),), A_WORD),
     "side A names a generator outside 0..1"),
    ((0, 1, (), ("b",), ((),), A_WORD), "side A has no generators"),
    ((1, 0, ("a",), (), A_WORD, ((),)), "side B has no generators"),
    # a a a^-1 a reduces to a^2; read as it stands, a^2 = w would be no member of <w>.
    ((1, 1, ("a",), ("b",), (((0, 1), (0, 1), (0, -1), (0, 1)),), (((0, 1), (0, 1)),)),
     "basis word 1 of side A is not freely reduced"),
])
def test_free_descriptions_the_scanner_cannot_take_are_rejected(args, message):
    # A basis word over a generator the side lacks once crashed the class
    # scan and the witness query with IndexError; a side with no generators
    # is one the presentation schema forbids.
    with pytest.raises(InputError, match=message):
        FreeAmalgamDescription(*args)


class TestResiduallyP:
    def test_z4_amalgam_is_residually_2(self, g2):
        assert presentation_residually_p(g2, 2)

    def test_not_residually_3(self, g2):
        assert not presentation_residually_p(g2, 3)

    def test_s3_degenerate_not_residually_2(self, s3):
        full_h = subgroup_generated(s3, list(s3.elements()))
        pres = build_amalgam(s3, s3, full_h, full_h, {i: i for i in s3.elements()})
        assert not presentation_residually_p(pres, 2)

    def test_trivial_factors(self):
        from amalgsep.fingrp import construct_group
        G1 = construct_group([[0]])
        pres = build_amalgam(G1, G1, trivial_subgroup(G1), trivial_subgroup(G1), {0: 0})
        assert presentation_residually_p(pres, 2)


class TestFamilySeparability:
    def test_generator_of_factor_is_trivially_separable(self, g2):
        v = family_separability(g2, "A", 1, "plain")
        assert v.verdict == "separable"
        assert v.witnesses == {}

    def test_square_separable_via_trivial_pair(self, g2):
        v = family_separability(g2, "A", 2, "plain")
        assert v.verdict == "separable"
        assert set(v.witnesses) == {1, 3}
        for x, R in v.witnesses.items():
            assert R.sorted_members == (0,)

    def test_free_square_not_separated(self):
        from amalgsep.engine import conjugation_doubling_description
        desc = conjugation_doubling_description()
        v = free_family_separability(desc, "A", parse_word("a^2", ["a", "b"]),
                                     bound=12)
        assert v.verdict == "not_separated"
        assert v.certifying == "a"
        assert v.bound == 12


class TestPropOneNecessity:
    def test_quotient_hom_kernels_are_compatible(self, g2):
        # Every homomorphism of the amalgam onto a finite group restricts
        # to a compatible pair of factor kernels.
        from amalgsep.engine import enumerate_quotient_homs
        from amalgsep.compat import CompatiblePair
        from amalgsep.fingrp import Subgroup
        pair = next(p for p in enumerate_compatible_pairs(g2, "plain")
                    if p.r_side.order == 1 and p.s_side.order == 1)
        qa = build_quotient_amalgam(g2, pair)
        pres = qa.presentation
        for T in (cyclic_group(4), cyclic_group(8), symmetric_group(3)):
            for hom in enumerate_quotient_homs(qa, T):
                R = Subgroup(pres.A, frozenset(
                    x for x in pres.A.elements() if hom.map_a[x] == 0))
                S = Subgroup(pres.B, frozenset(
                    x for x in pres.B.elements() if hom.map_b[x] == 0))
                assert is_compatible(pres, R, S)


class TestCyclicCollapseExhaustive:
    @pytest.mark.parametrize("n,p", [(4, 2), (8, 2), (9, 3)])
    def test_all_cyclic_amalgams_collapse(self, n, p):
        # Exhaustive over amalgamated subgroup choices and identifications:
        # for cyclic-factor amalgams every plain-compatible pair carries a
        # p-chain certificate.
        from math import gcd
        A = cyclic_group(n)
        B = cyclic_group(n)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for d in divisors:
            H = subgroup_generated(A, [n // d] if d > 1 else [])
            K = subgroup_generated(B, [n // d] if d > 1 else [])
            assert H.order == d
            gen_h = n // d if d > 1 else 0
            for j in range(1, d + 1):
                if gcd(j, d) != 1:
                    continue
                # phi sends the chosen generator to its j-th multiple.
                phi = {}
                x, y = 0, 0
                for _ in range(d):
                    phi[x] = y
                    x = (x + gen_h) % n if d > 1 else 0
                    y = (y + j * (n // d)) % n if d > 1 else 0
                pres = build_amalgam(A, B, H, K, phi)
                for pair in enumerate_compatible_pairs(pres, "plain"):
                    assert is_p_compatible(pres, pair.r_side, pair.s_side, p) \
                        is not None, (n, d, j, pair.key())


def _free_letter_lists(desc, rng, n=8) -> list[list]:
    """n lists of letters (side, free word) with random words."""
    out = []
    for _ in range(n):
        letters = []
        for side in rng.choice(["A", "B", "AB", "BA", "ABA"]):
            rank = desc.rank_a if side == "A" else desc.rank_b
            letters.append((side, tuple((rng.randrange(rank), rng.choice((1, -1)))
                                        for _ in range(rng.randint(1, 4)))))
        out.append(letters)
    return out


def _finite_letter_lists(pres, rng, n=8) -> list[list]:
    """n lists of letters (side, factor element) with random elements."""
    return [[(side, rng.randrange(pres.factor(side).order))
             for side in rng.choice(["A", "B", "AB", "BAB"])] for _ in range(n)]


class TestQuotientMemo:
    """A quotient amalgam, memoized for free factors, equals a fresh build
    of the same pair on cold groups, whose memos are empty
    (``conftest.quotient_view``)."""

    @pytest.mark.parametrize("desc,name", [
        (power_congruence_description(3), "Z9"),
        (power_congruence_description(2), "Z8"),
        (conjugation_doubling_description(), "S3")])
    def test_free_pairs_on_one_target(self, desc, name):
        # Every compatible pair of assignments, not only the scan's
        # leaders, so that many pairs share a memo entry, and some pairs
        # share both images but not the gluing.
        T = next(e for e in catalog(16) if e.name == name).build()
        words = _free_letter_lists(desc, random.Random(name))
        keys = set()
        for images_a in itertools.product(T.elements(), repeat=desc.rank_a):
            u = GenImages(desc.rank_a, T, images_a)
            for images_b in itertools.product(T.elements(), repeat=desc.rank_b):
                v = GenImages(desc.rank_b, T, images_b)
                iso = induced_map(restriction(u, desc.h_words), restriction(v, desc.k_words))
                if iso is None:
                    continue
                keys.add((u.image_members(), v.image_members(), frozenset(iso.items())))
                cold = cold_group(T)
                want = build_free_quotient_amalgam(desc, GenImages(desc.rank_a, cold, images_a),
                                                   GenImages(desc.rank_b, cold, images_b))
                got = build_free_quotient_amalgam(desc, u, v)
                assert quotient_view(got, words) == quotient_view(want, words), (
                    images_a, images_b)
        assert len({key[:2] for key in keys}) < len(keys)

    @pytest.mark.parametrize("h_word,k_word,bound", [("a^2", "b^4", 32), ("a^2", "b^2", 32),
                                                     ("a^3", "b^3", 27)])
    def test_free_pairs_on_two_targets(self, h_word, k_word, bound):
        # In p-mode each side of a class keeps its own first target: a^2
        # has an image of order 2 first on Z4, b^4 first on Z8. The class
        # scan has built every quotient already.
        p = 3 if "3" in h_word else 2
        desc = FreeAmalgamDescription(1, 1, ("a",), ("b",), (parse_word(h_word, ["a"]),),
                                      (parse_word(k_word, ["b"]),))
        words = _free_letter_lists(desc, random.Random(h_word + k_word))
        classes = enumerate_free_compatible_classes(desc, bound, p)
        assert classes
        for _, _, u, _, v in classes:
            want = build_free_quotient_amalgam(desc, GenImages(1, cold_group(u.target), u.images),
                                               GenImages(1, cold_group(v.target), v.images))
            got = build_free_quotient_amalgam(desc, u, v)
            assert quotient_view(got, words) == quotient_view(want, words)
        assert (k_word == "b^4") == any(u.target != v.target for *_, u, _, v in classes)

    @pytest.mark.parametrize("amalgam", FINITE_AMALGAMS, ids=lambda a: "-".join(map(str, a)))
    def test_finite_pairs(self, amalgam):
        # Plain and p-mode pairs on a presentation whose caches are warm.
        pres = _finite_amalgam(*amalgam)
        words = _finite_letter_lists(pres, random.Random(repr(amalgam)))
        for mode, p in (("plain", None), ("p", 2), ("p", 3)):
            for pair in enumerate_compatible_pairs(pres, mode, p):
                got = build_quotient_amalgam(pres, pair)
                cold = cold_presentation(pres)
                want = build_quotient_amalgam(cold, CompatiblePair(
                    mode, p, Subgroup(cold.A, pair.r_side.members),
                    Subgroup(cold.B, pair.s_side.members)))
                assert quotient_view(got, words) == quotient_view(want, words)

    def test_an_in_factor_query_builds_no_quotient(self, monkeypatch):
        # Queries inside one factor name the trivial factor pair and are
        # scanned on the presentation itself, cold and repeated, in either
        # mode.
        pres = _finite_amalgam("D4", "Z8", 2)
        builds = spy_calls(monkeypatch, compat, "build_amalgam")

        def run():
            return [engine.separate_from_cyclic(pres, [(side, h)], [(side, g)], mode, p,
                                                32).to_json()
                    for side, h, g in (("A", 4, 1), ("B", 1, 2), ("B", 3, 2))
                    for mode, p in (("plain", None), ("p", 2))]

        first = run()
        assert {doc["pair"] for doc in first} == {"(1,1) -> factor pair ((1, (0,)), (1, (0,)))"}
        assert [run() for _ in range(2)] == [first] * 2
        assert builds == []


@pytest.mark.parametrize("sweep", ["finite", "free"])
def test_reports_match_with_a_cold_and_a_warm_memo(monkeypatch, sweep):
    # Cold: each query on a cold catalog, and for finite factors on a cold
    # copy of its presentation, so that no quotient is memoized yet. Warm:
    # the sweep twice on one catalog and the same presentations, so the
    # second pass reads every quotient from the memos.
    def queries():
        rng = random.Random(5)
        return list(_finite_queries(rng) if sweep == "finite" else _free_queries(rng))

    def report(query):
        try:
            return json.dumps(engine.separate_from_cyclic(*query).to_json(), sort_keys=True)
        except InputError as exc:  # g = 1
            return str(exc)

    cold = []
    for target, *rest in queries():
        cold_catalog(monkeypatch)
        if sweep == "finite":
            target = cold_presentation(target)
        cold.append(report((target, *rest)))
    cold_catalog(monkeypatch)
    warm = queries()
    assert [report(query) for query in warm] == cold
    assert [report(query) for query in warm] == cold
