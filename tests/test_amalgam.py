import math
import random

import pytest

from amalgsep import amalgam
from amalgsep.amalgam import (
    AmalgamElement,
    build_amalgam,
    conjugate,
    cyclic_member,
    cyclically_reduce,
    element_order,
    extract_root,
    find_prime_root,
    identity_element,
    invert,
    is_cyclically_reduced,
    is_p_prime_isolated,
    multiply,
    normalize,
    parse_letters,
    power,
    serialize_element,
    syllable_length,
)
from amalgsep.errors import InputError
from amalgsep.fingrp import subgroup_generated
from conftest import elements_of_length, elements_up_to_length, spy_calls


class TestBuild:
    def test_z4_family(self, g2):
        assert g2.transversal_a == (0, 1, 0, 1)
        assert g2.H.sorted_members == (0, 2)

    def test_order_mismatch_rejected(self, z4a, z4b):
        H = subgroup_generated(z4a, [2])
        K = subgroup_generated(z4b, [2])
        with pytest.raises(InputError, match="map is not an isomorphism: image differs from K"):
            build_amalgam(z4a, z4b, H, K, {0: 0, 2: 0})

    def test_full_amalgamation_degenerate(self, z4a, z4b):
        H = subgroup_generated(z4a, [1])
        K = subgroup_generated(z4b, [1])
        pres = build_amalgam(z4a, z4b, H, K, {i: i for i in range(4)})
        # G is isomorphic to the factor: every element has length 0.
        x = normalize(pres, [("A", 1), ("B", 1), ("A", 3)])
        assert syllable_length(x) == 0
        assert x.core == 1  # a * b * a^3 = a * a * a^3 = a


class TestNormalize:
    def test_amalgam_element(self, g2):
        x = normalize(g2, [("A", 2)])
        assert x.core == 2 and x.syllables == ()

    def test_two_syllables(self, g2):
        x = normalize(g2, [("A", 1), ("B", 1)])
        assert syllable_length(x) == 2

    def test_factor_collapse(self, g2):
        assert normalize(g2, [("A", 1), ("A", 3)]).is_identity()

    def test_parse_and_serialize(self, g2):
        letters = parse_letters(g2, "A:a B:b A:a3")
        x = normalize(g2, letters)
        assert serialize_element(x)  # stable round trip through parse
        again = normalize(g2, parse_letters(g2, serialize_element(x)))
        assert again == x


class TestArithmetic:
    def test_inverse_pair(self, g2):
        assert multiply(normalize(g2, [("A", 1)]), normalize(g2, [("A", 3)])).is_identity()

    def test_invert_of_ab(self, g2):
        ab = normalize(g2, [("A", 1), ("B", 1)])
        # Oracle: normalize the letter sequence of b^-1 a^-1 directly.
        expected = normalize(g2, [("B", 3), ("A", 3)])
        assert invert(ab) == expected
        assert multiply(ab, invert(ab)).is_identity()

    def test_power_length_growth(self, g2):
        ab = normalize(g2, [("A", 1), ("B", 1)])
        x = power(ab, 3)
        assert syllable_length(x) == 6

    def test_presentation_mismatch(self, g2, z9_amalgam):
        x = normalize(g2, [("A", 1)])
        y = normalize(z9_amalgam, [("A", 1)])
        with pytest.raises(AssertionError, match="elements live in different presentations"):
            multiply(x, y)


class TestSyllableLength:
    def test_identity(self, g2):
        assert syllable_length(identity_element(g2)) == 0

    def test_single(self, g2):
        assert syllable_length(normalize(g2, [("A", 1)])) == 1

    def test_double(self, g2):
        assert syllable_length(normalize(g2, [("A", 1), ("B", 1)])) == 2


class TestCyclicReduction:
    def test_already_reduced(self, g2):
        ab = normalize(g2, [("A", 1), ("B", 1)])
        y, c = cyclically_reduce(ab)
        assert y == ab and c.is_identity()

    def test_bab(self, g2):
        bab = normalize(g2, [("B", 1), ("A", 1), ("B", 1)])
        y, c = cyclically_reduce(bab)
        # b a b = b * a^3 * b^-1 through the identification of squares.
        assert y == normalize(g2, [("A", 3)])
        assert c == normalize(g2, [("B", 1)])
        assert multiply(multiply(c, y), invert(c)) == bab

    def test_amalgam_element_untouched(self, g2):
        x = normalize(g2, [("A", 2)])
        y, c = cyclically_reduce(x)
        assert y == x and c.is_identity()


class TestOrder:
    def test_infinite(self, g2):
        assert element_order(normalize(g2, [("A", 1), ("B", 1)])) == math.inf

    def test_conjugate_of_factor_element(self, g2):
        bab = normalize(g2, [("B", 1), ("A", 1), ("B", 1)])
        assert element_order(bab) == 4

    def test_identity(self, g2):
        assert element_order(identity_element(g2)) == 1


class TestCyclicMember:
    def test_constructed_power(self, g2):
        ab = normalize(g2, [("A", 1), ("B", 1)])
        res = cyclic_member(power(ab, 4), power(ab, 2))
        assert res.is_member and res.exponent == 2

    def test_inverse_is_member(self, g2):
        # In this amalgam b * a equals (a * b)^-1, so membership holds.
        ab = normalize(g2, [("A", 1), ("B", 1)])
        ba = normalize(g2, [("B", 1), ("A", 1)])
        assert ba == invert(ab)
        res = cyclic_member(ba, ab)
        assert res.is_member and res.exponent == -1

    def test_genuine_nonmember_same_length(self, g2):
        ab = normalize(g2, [("A", 1), ("B", 1)])
        ab3 = normalize(g2, [("A", 1), ("B", 3)])
        res = cyclic_member(ab3, ab)
        assert not res.is_member

    def test_core_element_nonmember(self, g2):
        a2 = normalize(g2, [("A", 2)])
        ab = normalize(g2, [("A", 1), ("B", 1)])
        res = cyclic_member(a2, ab)
        assert not res.is_member

    def test_finite_generator(self, g2):
        a = normalize(g2, [("A", 1)])
        a3 = normalize(g2, [("A", 3)])
        res = cyclic_member(a3, a)
        assert res.is_member and res.exponent == 3


class TestRoots:
    def test_constructed_cube(self, g2):
        ab = normalize(g2, [("A", 1), ("B", 1)])
        root = extract_root(power(ab, 3), 3)
        assert root is not None and power(root, 3) == power(ab, 3)

    def test_no_square_root_of_ab(self, g2):
        ab = normalize(g2, [("A", 1), ("B", 1)])
        assert extract_root(ab, 2) is None

    def test_square_of_ab(self, g2):
        ab = normalize(g2, [("A", 1), ("B", 1)])
        root = extract_root(power(ab, 2), 2)
        assert root is not None and power(root, 2) == power(ab, 2)

    def test_short_elements_are_a_contract_violation(self, g2):
        # find_prime_root asks only for primes dividing a cyclic reduction
        # length n >= 2; elements of length 0 and 1 have no such prime.
        for letters in ([], [("A", 2)], [("A", 1)], [("B", 1), ("A", 1), ("B", 3)]):
            with pytest.raises(AssertionError, match="cyclic reduction length"):
                extract_root(normalize(g2, letters), 2)

    def test_roots_against_enumeration(self, g2):
        # Brute force over all normal forms of the root length.
        for n, q in ((4, 2), (6, 3)):
            for g in elements_of_length(g2, n):
                if not is_cyclically_reduced(g):
                    continue
                expected = any(power(h, q) == g
                               for h in elements_of_length(g2, n // q))
                assert (extract_root(g, q) is not None) == expected


class TestIsolation:
    def test_cube_is_not_isolated(self, g2):
        ab = normalize(g2, [("A", 1), ("B", 1)])
        assert not is_p_prime_isolated(power(ab, 3), 2)

    def test_square_is_isolated(self, g2):
        ab = normalize(g2, [("A", 1), ("B", 1)])
        assert is_p_prime_isolated(power(ab, 2), 2)

    def test_ab_is_isolated(self, g2):
        ab = normalize(g2, [("A", 1), ("B", 1)])
        assert is_p_prime_isolated(ab, 2)

    def test_finite_order_rejected(self, g2):
        with pytest.raises(InputError, match=r"infinite-order \(element has finite order\)"):
            is_p_prime_isolated(normalize(g2, [("A", 1)]), 2)

    def test_root_search_checks_its_preconditions(self, g2):
        ab = normalize(g2, [("A", 1), ("B", 1)])
        with pytest.raises(AssertionError, match="4 is not prime"):
            find_prime_root(ab, 4)
        with pytest.raises(InputError, match=r"infinite-order \(element has finite order\)"):
            find_prime_root(normalize(g2, [("B", 1), ("A", 1), ("B", 1)]), 2)
        with pytest.raises(InputError, match="residually-p-ambient"):
            find_prime_root(ab, 3)


class TestWorkCounts:
    """The word engine makes no product whose result it does not use."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 13])
    def test_power_multiplies_popcount_plus_log2(self, g2, monkeypatch, k):
        x = normalize(g2, [("A", 1), ("B", 1), ("A", 2), ("B", 3)])
        want = identity_element(g2)
        for _ in range(k):
            want = multiply(want, x)
        calls = spy_calls(monkeypatch, amalgam, "multiply")
        assert power(x, k) == want
        assert len(calls) == bin(k).count("1") + k.bit_length() - 1

    def test_cyclic_member_of_a_reduced_generator_never_inverts(self, g2, monkeypatch):
        gens = [g for g in elements_up_to_length(g2, 3)
                if not g.is_identity() and is_cyclically_reduced(g)]
        queries = [(power(g, k), g, k) for g in gens for k in (1, 2, 3)]
        calls = spy_calls(monkeypatch, amalgam, "invert")
        verdicts = [(cyclic_member(h, g), g, k) for h, g, k in queries]
        assert calls == []
        assert all(v.is_member for v, _, _ in verdicts)
        assert all(v.exponent == k for v, g, k in verdicts if syllable_length(g) >= 2)

    def test_conjugate_by_the_identity_is_the_element(self, g2, monkeypatch):
        x = normalize(g2, [("B", 1), ("A", 1), ("B", 1)])
        c = normalize(g2, [("B", 1)])
        assert conjugate(x, c) == multiply(multiply(invert(c), x), c) == normalize(g2, [("A", 3)])
        calls = spy_calls(monkeypatch, amalgam, "multiply")
        assert conjugate(x, identity_element(g2)) is x
        assert calls == []


def random_letters(pres, rng, max_len=8):
    letters = []
    for _ in range(rng.randrange(0, max_len + 1)):
        side = rng.choice(["A", "B"])
        letters.append((side, rng.randrange(pres.factor(side).order)))
    return letters


class TestPropertySuites:
    def test_normal_form_against_rebracketing(self, g2, z9_amalgam):
        rng = random.Random(101)
        for pres in (g2, z9_amalgam):
            for _ in range(250):
                letters = random_letters(pres, rng)
                whole = normalize(pres, letters)
                # Random re-association: multiply the two halves.
                cut = rng.randrange(0, len(letters) + 1)
                left = normalize(pres, letters[:cut])
                right = normalize(pres, letters[cut:])
                assert multiply(left, right) == whole

    def test_power_length_law(self, g2, z9_amalgam):
        rng = random.Random(202)
        checked = 0
        for pres in (g2, z9_amalgam):
            while checked < 250 or pres is z9_amalgam and checked < 500:
                g = normalize(pres, random_letters(pres, rng, 6))
                g, _ = cyclically_reduce(g)
                if syllable_length(g) < 2:
                    checked += 1  # skip bookkeeping still advances
                    continue
                for k in (1, 2, 3, 4, 5, -1, -5):
                    pk = power(g, k)
                    assert syllable_length(pk) == abs(k) * syllable_length(g)
                    assert is_cyclically_reduced(pk)
                checked += 1

    def test_cyclic_member_of_random_powers(self, g2):
        rng = random.Random(303)
        for _ in range(250):
            g = normalize(g2, random_letters(g2, rng, 5))
            k = rng.choice([-5, -3, -2, -1, 1, 2, 3, 4, 5])
            h = power(g, k)
            res = cyclic_member(h, g)
            assert res.is_member
            assert power(g, res.exponent) == h

    def test_conjugation_consistency(self, g2, z9_amalgam):
        rng = random.Random(404)
        for pres in (g2, z9_amalgam):
            for _ in range(250):
                x = normalize(pres, random_letters(pres, rng))
                y, c = cyclically_reduce(x)
                assert multiply(multiply(c, y), invert(c)) == x

    def test_random_roots_recovered(self, g2):
        rng = random.Random(505)
        for _ in range(120):
            h = normalize(g2, random_letters(g2, rng, 3))
            if syllable_length(h) > 2:
                continue
            for q in (2, 3):
                g = power(h, q)
                if syllable_length(cyclically_reduce(g)[0]) < 2:
                    continue
                root = extract_root(g, q)
                assert root is not None, (h, q)
                assert power(root, q) == g
