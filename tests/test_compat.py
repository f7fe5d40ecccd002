import random

import pytest

from amalgsep.amalgam import build_amalgam, multiply, normalize, syllable_length
from amalgsep.catalog import cyclic_group, symmetric_group
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
from amalgsep.fingrp import (
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
