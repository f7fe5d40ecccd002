import gc
import itertools
import weakref

import pytest

from amalgsep.amalgam import build_amalgam, cyclic_member, normalize, power, serialize_element
from amalgsep.catalog import catalog, cyclic_group, entry_is_p_group
from amalgsep.compat import build_quotient_amalgam, enumerate_compatible_pairs
from amalgsep.engine import (
    WitnessReport,
    enumerate_quotient_homs,
    find_length_preserving_pair,
    free_cyclically_reduce,
    free_reduced_form,
    power_congruence_description,
    run_case_study,
    separate_from_cyclic,
)
from amalgsep.errors import InputError, UnknownCase
from amalgsep.fingrp import construct_group, is_p_power, subgroup_generated
from amalgsep.freegrp import parse_word
from conftest import cyclic_table, elements_up_to_length


def identity_quotient(pres):
    pair = next(p for p in enumerate_compatible_pairs(pres, "plain")
                if p.r_side.order == 1 and p.s_side.order == 1)
    return build_quotient_amalgam(pres, pair)


class TestQuotientHoms:
    def test_trivial_target_single_map(self, g2):
        qa = identity_quotient(g2)
        from amalgsep.fingrp import construct_group
        one = construct_group([[0]])
        homs = enumerate_quotient_homs(qa, one)
        assert len(homs) == 1

    def test_z4_congruence_count(self, g2):
        # Factor maps a -> x^i, b -> x^j glue exactly when 2i = 2j mod 4.
        qa = identity_quotient(g2)
        homs = enumerate_quotient_homs(qa, cyclic_group(4))
        assert len(homs) == 8
        expected = {(i, j) for i in range(4) for j in range(4)
                    if (2 * i) % 4 == (2 * j) % 4}
        got = {(hom.map_a[qa.proj_a(1)], hom.map_b[qa.proj_b(1)]) for hom in homs}
        assert got == expected

    def test_order_obstruction_gives_constant_only(self, g2):
        qa = identity_quotient(g2)
        homs = enumerate_quotient_homs(qa, cyclic_group(3))
        assert len(homs) == 1
        assert set(homs[0].map_a) == {0}

    def test_every_hom_is_multiplicative(self, g2):
        qa = identity_quotient(g2)
        pres = qa.presentation
        T = cyclic_group(8)
        for hom in enumerate_quotient_homs(qa, T):
            for x in pres.A.elements():
                for y in pres.A.elements():
                    assert hom.map_a[pres.A.table[x][y]] == \
                        T.table[hom.map_a[x]][hom.map_a[y]]


class TestLengthPreservingPair:
    def test_finite_factors_trivial_pair(self, g2):
        wq = find_length_preserving_pair(g2, [[("A", 1), ("B", 1)]])
        assert wq.qa.presentation.A.order == g2.A.order

    def test_free_square_identification(self):
        desc = power_congruence_description(2)
        ab = [("A", parse_word("a", ["a"])), ("B", parse_word("b", ["b"]))]
        wq = find_length_preserving_pair(desc, [ab])
        img = wq.qa.project(ab)
        assert len(img.syllables) == 2


class TestFreeReducedForms:
    def test_square_relation_collapse(self):
        desc = power_congruence_description(2)
        # (ab)^3 a^2: the trailing square migrates into the last b-chunk.
        letters = ([("A", parse_word("a", ["a"])), ("B", parse_word("b", ["b"]))] * 3
                   + [("A", parse_word("a^2", ["a"]))])
        form = free_reduced_form(desc, letters)
        assert form.length == 6

    def test_pure_amalgam_power(self):
        desc = power_congruence_description(2)
        form = free_reduced_form(desc, [("A", parse_word("a^6", ["a"]))])
        assert form.length == 0 and form.core_exponent == 3

    def test_identity(self):
        desc = power_congruence_description(2)
        form = free_reduced_form(
            desc, [("A", parse_word("a", ["a"])), ("A", parse_word("a^-1", ["a"]))])
        assert form.is_identity()

    def test_cyclic_reduction(self):
        desc = power_congruence_description(2)
        a = ("A", parse_word("a", ["a"]))
        b = ("B", parse_word("b", ["b"]))
        a_inv = ("A", parse_word("a^-1", ["a"]))
        form = free_reduced_form(desc, [a_inv, a, b, ("A", parse_word("a", ["a"]))])
        red, conj = free_cyclically_reduce(desc, form)
        # a^-1 (ab) a is cyclically reduced only after one rotation.
        assert red.length <= form.length


class TestSeparateFinite:
    def test_member_detected(self, g2):
        ab = [("A", 1), ("B", 1)]
        rep = separate_from_cyclic(g2, ab * 2, ab)
        assert rep.outcome == "member" and rep.exponent == 2

    def test_trivial_g_rejected(self, g2):
        with pytest.raises(InputError):
            separate_from_cyclic(g2, [("A", 1)], [])

    def test_plain_separation_same_length(self, g2):
        rep = separate_from_cyclic(g2, [("A", 1), ("B", 3)], [("A", 1), ("B", 1)])
        assert rep.outcome == "separated"
        assert rep.reverified

    def test_caches_die_with_the_presentation(self):
        A = construct_group(cyclic_table(4))
        B = construct_group(cyclic_table(4))
        pres = build_amalgam(A, B, subgroup_generated(A, [2]),
                             subgroup_generated(B, [2]), {0: 0, 2: 2})
        rep = separate_from_cyclic(pres, [("A", 1), ("B", 3)], [("A", 1), ("B", 1)])
        assert rep.outcome == "separated"
        quotient_a = pres.quotient_cache["(1,1)"].qa.presentation.A
        assert quotient_a.hom_cache
        alive = weakref.ref(pres), weakref.ref(quotient_a)
        del pres, A, B, rep, quotient_a
        gc.collect()
        assert [ref() for ref in alive] == [None, None]

    def test_plain_separation_factor_element(self, g2):
        # h = a (length 1), g = ab: powers of g never have length 1.
        rep = separate_from_cyclic(g2, [("A", 1)], [("A", 1), ("B", 1)])
        assert rep.outcome == "separated"

    def test_p_mode_not_isolated_obstruction(self, g2):
        h = [("A", 1), ("B", 1), ("A", 2)]
        g = [("A", 1), ("B", 1)] * 3 + [("A", 2)]
        rep = separate_from_cyclic(g2, h, g, mode="p", p=2)
        assert rep.outcome == "obstructed"
        assert rep.reason == "not_isolated"
        assert rep.root_prime == 3

    def test_p_mode_separation_in_g2(self, g2):
        # g = (ab)^2 is 2'-isolated; h = ab cannot be a power of it.
        rep = separate_from_cyclic(g2, [("A", 1), ("B", 1)],
                                   [("A", 1), ("B", 1)] * 2, mode="p", p=2)
        assert rep.outcome == "separated"
        assert is_p_power(rep.image_order, 2)

    def test_soundness_against_word_engine(self, g2):
        # All pairs with up to three syllables: the engine never separates
        # a genuine member and never claims membership that powers refute.
        elements = elements_up_to_length(g2, 3)
        pairs_checked = 0
        for h in elements:
            for g in elements:
                if g.is_identity():
                    continue
                pairs_checked += 1
                want = cyclic_member(h, g)
                rep = separate_from_cyclic(g2, h.letters(), g.letters(),
                                           max_order=16)
                if want.is_member:
                    assert rep.outcome == "member"
                    assert power(g, rep.exponent) == h
                else:
                    assert rep.outcome != "member"
        assert pairs_checked > 150

    def test_witness_reports_deterministic(self, g2):
        h, g = [("A", 1), ("B", 3)], [("A", 1), ("B", 1)]
        one = separate_from_cyclic(g2, h, g).to_json()
        two = separate_from_cyclic(g2, h, g).to_json()
        assert one == two


class TestSeparateFree:
    def test_square_identification_p2(self):
        desc = power_congruence_description(2)
        a = ("A", parse_word("a", ["a"]))
        b = ("B", parse_word("b", ["b"]))
        h = [a, ("B", parse_word("b^7", ["b"]))]
        g = [a, b] * 3 + [("A", parse_word("a^2", ["a"]))]
        rep = separate_from_cyclic(desc, h, g, mode="p", p=2, max_order=256)
        assert rep.outcome == "separated"
        assert is_p_power(rep.target_order, 2)
        assert is_p_power(rep.image_order, 2)
        assert rep.reverified

    def test_member_of_power(self):
        desc = power_congruence_description(2)
        a = ("A", parse_word("a", ["a"]))
        b = ("B", parse_word("b", ["b"]))
        rep = separate_from_cyclic(desc, [a, b] * 4, [a, b] * 2)
        assert rep.outcome == "member" and rep.exponent == 2

    def test_plain_separation(self):
        desc = power_congruence_description(2)
        a = ("A", parse_word("a", ["a"]))
        b = ("B", parse_word("b", ["b"]))
        rep = separate_from_cyclic(desc, [a], [a, b])
        assert rep.outcome == "separated"


class TestNoSeparatingHomExists:
    def test_p_obstructed_case_has_no_2_group_witness(self, g2):
        # Exhaustive confirmation: when h^3 = g, every homomorphism onto a
        # catalog 2-group of order <= 64 keeps h inside <g>.
        qa = identity_quotient(g2)
        h = qa.project([("A", 1), ("B", 1), ("A", 2)])
        g = qa.project([("A", 1), ("B", 1)] * 3 + [("A", 2)])
        assert power(h, 3) == g
        checked = 0
        for entry in catalog(64):
            if not entry_is_p_group(entry, 2):
                continue
            T = entry.build()
            for hom in enumerate_quotient_homs(qa, T):
                th, tg = hom.apply(h), hom.apply(g)
                x, member = 0, False
                for _ in range(T.element_order(tg)):
                    if x == th:
                        member = True
                        break
                    x = T.table[x][tg]
                assert member, entry.name
                checked += 1
        assert checked > 100


class TestCaseStudies:
    def test_sec3_default(self):
        rep = run_case_study("sec3", p=2, q=3, n=2)
        assert rep.all_passed
        assert rep.artifacts["x_n"] == 3

    def test_sec3_other_prime(self):
        rep = run_case_study("sec3", p=3, q=2, n=2)
        assert rep.all_passed

    def test_cyclic_remark_short(self):
        rep = run_case_study("cyclic_remark", trials=10)
        assert rep.all_passed

    def test_unknown_case(self):
        with pytest.raises(UnknownCase):
            run_case_study("nonsense")

    def test_report_serializes(self):
        rep = run_case_study("sec3", p=2, q=3, n=2)
        doc = rep.to_json()
        assert doc["all_passed"] is True
        assert len(doc["assertions"]) == 3


class TestNonResiduallyP:
    def test_p_mode_on_unsuitable_presentation(self, s3):
        # Degenerate amalgam with a non-2-group factor: no index-2 chain
        # reaches the top, so the p-mode machinery cannot start.
        from amalgsep.amalgam import build_amalgam
        from amalgsep.fingrp import subgroup_generated
        full = subgroup_generated(s3, list(s3.elements()))
        pres = build_amalgam(s3, s3, full, full, {i: i for i in s3.elements()})
        rot = next(x for x in s3.elements() if s3.element_order(x) == 3)
        tr = next(x for x in s3.elements() if s3.element_order(x) == 2)
        rep = separate_from_cyclic(pres, [("A", tr)], [("A", rot)],
                                   mode="p", p=2)
        assert rep.outcome == "obstructed"
        assert rep.reason == "bound_exhausted"
        assert any("residually" in note for note in rep.notes)
