import gc
import itertools
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import amalgsep

from amalgsep.amalgam import build_amalgam, cyclic_member, normalize, power, serialize_element
from amalgsep.catalog import catalog, cyclic_group, entry_is_p_group
from amalgsep.compat import build_quotient_amalgam, enumerate_compatible_pairs
from amalgsep.engine import (
    WitnessReport,
    _free_member_exponent,
    _free_query_forms,
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

    def test_factor_nonmember_collapsed_by_first_quotient(self):
        # a^2 lies outside <a^3>, but the first pair (Z2) identifies it with
        # the image of g^0. The refined pair must keep h outside all of <g>
        # in its quotient, not just apart from that one power.
        desc = power_congruence_description(2)
        rep = separate_from_cyclic(desc, [("A", parse_word("a^2", ["a"]))],
                                   [("A", parse_word("a^3", ["a"]))])
        assert rep.outcome == "separated" and rep.reverified
        assert rep.target_name == "Z3"


def _letters(draw, p, sides, nonzero_mod_p):
    """Alternating chunks x^e on the given sides, x the side's generator."""
    out = []
    for side in sides:
        e = draw(st.integers(-5, 5).filter(
            lambda e: e % p != 0 if nonzero_mod_p else e != 0))
        out.append((side, ((0, 1 if e > 0 else -1),) * abs(e)))
    return out


@st.composite
def free_query(draw, cyclically_reduced=False):
    """(p, g, c) on power_congruence_description(p): a generator g and a
    conjugator c. With ``cyclically_reduced`` g alternates with an even
    number of chunks, none in the amalgam, so it has cyclic length >= 2."""
    p = draw(st.sampled_from([2, 3]))
    if cyclically_reduced:
        n = draw(st.sampled_from([2, 4]))
        g = _letters(draw, p, ["A", "B"] * (n // 2), True)
    else:
        start = draw(st.sampled_from("AB"))
        n = draw(st.integers(1, 4))
        g = _letters(draw, p, [start, "B" if start == "A" else "A"] * 2, False)[:n]
    c = _letters(draw, p, draw(st.sampled_from(["", "A", "B", "AB", "BA", "ABA"])), False)
    return p, g, c


def _inverse(letters):
    return [(side, tuple((i, -e) for i, e in reversed(w))) for side, w in reversed(letters)]


def _exact_exponent(desc, h, g):
    return _free_member_exponent(desc, *_free_query_forms(desc, h, g))


class TestExactFreeMembership:
    """The symbolic membership decision on <a, b ; a^p = b^p>."""

    @given(free_query(), st.integers(-4, 4))
    @settings(max_examples=150, deadline=None)
    def test_conjugated_powers_are_members_with_their_exponent(self, query, k):
        p, g, c = query
        desc = power_congruence_description(p)
        assume(not free_reduced_form(desc, g).is_identity())
        cg = c + g + _inverse(c)
        g_pow = g * k if k >= 0 else _inverse(g) * -k
        # Small bounds: a member is decided before any catalog scan.
        rep = separate_from_cyclic(desc, c + g_pow + _inverse(c), cg,
                                   max_order=8, pair_bound=8)
        assert (rep.outcome, rep.exponent) == ("member", k)
        assert rep.to_json().keys() == {"schema", "query", "outcome", "exponent"}

    @given(free_query(cyclically_reduced=True), st.integers(-3, 3),
           st.integers(-3, 3).filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_central_factor_is_never_a_member(self, query, k, j):
        # a^(pj) is central and nontrivial; g has cyclic length >= 2, so
        # g^k a^(pj) = g^m would force a^(pj) into <g> at length 0.
        p, g, c = query
        desc = power_congruence_description(p)
        g_pow = g * k if k >= 0 else _inverse(g) * -k
        central = [("A", ((0, 1 if j > 0 else -1),) * (p * abs(j)))]
        h = c + g_pow + central + _inverse(c)
        assert _exact_exponent(desc, h, c + g + _inverse(c)) is None

    @given(free_query(), free_query())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_length_preserving_quotient(self, gq, hq):
        # A homomorphism keeps membership: wherever the quotient says "not
        # a member" the exact check must agree, and an exact member h = g^k
        # maps to the k-th power there. For l(g) >= 2 the quotient keeps
        # the exponent unique too.
        p, g, c = gq
        desc = power_congruence_description(p)
        assume(not free_reduced_form(desc, g).is_identity())
        h = hq[1] + hq[2]
        g_red, h_trans = _free_query_forms(desc, h, c + g + _inverse(c))
        assume(g_red.length >= 1)
        wq = find_length_preserving_pair(
            desc, [g_red.letters(desc), h_trans.letters(desc)])
        image_h = wq.qa.project(h_trans.letters(desc))
        image_g = wq.qa.project(g_red.letters(desc))
        verdict = cyclic_member(image_h, image_g)
        exact = _free_member_exponent(desc, g_red, h_trans)
        if not verdict.is_member:
            assert exact is None
        if exact is not None:
            assert power(image_g, exact) == image_h
            if g_red.length >= 2:
                assert verdict.exponent == exact

    def test_false_member_is_bound_exhausted(self):
        # h = g^2 b^32 with b^32 = a^32 central and nontrivial: no pair up
        # to 48 tells h from g^2, and the engine says so.
        desc = power_congruence_description(2)
        a = ("A", parse_word("a", ["a"]))
        b = ("B", parse_word("b", ["b"]))
        rep = separate_from_cyclic(desc, [a, b, a, ("B", parse_word("b^33", ["b"]))],
                                   [a, b], mode="p", p=2)
        assert (rep.outcome, rep.reason, rep.bound) == ("obstructed", "bound_exhausted", 48)


def test_reverification_failure_raises_under_optimize():
    # A homomorphism that does not separate (h = g) is handed to the
    # certificate check in a ``python -O`` process, where asserts are off.
    code = """
from amalgsep import engine
from amalgsep.amalgam import build_amalgam
from amalgsep.catalog import cyclic_group
from amalgsep.fingrp import subgroup_generated
A, B = cyclic_group(4), cyclic_group(4)
pres = build_amalgam(A, B, subgroup_generated(A, [2]), subgroup_generated(B, [2]), {0: 0, 2: 2})
qa = engine._trivial_pair_quotient(pres).qa
x = qa.project([("A", 1), ("B", 1)])
hom = next(engine._iter_quotient_homs(qa, cyclic_group(2), "Z2"))
try:
    engine._certify(engine._report_base("plain", None, "", ""), qa, x, x, hom)
except AssertionError as exc:
    print("raised", __debug__, exc)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(amalgsep.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "raised False certificate failed re-verification"


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
