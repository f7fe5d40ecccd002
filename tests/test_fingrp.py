import itertools

import pytest

from amalgsep.catalog import catalog
from amalgsep.errors import (
    NoIdentity,
    NotAssociative,
    NotCyclic,
    NotInvertible,
    NotNormal,
    PreconditionViolated,
)
from amalgsep.fingrp import (
    Subgroup,
    construct_group,
    enumerate_normal_subgroups,
    find_p_chain,
    is_normal,
    is_p_power,
    is_p_prime_isolated_cyclic_finite,
    make_homomorphism,
    product_set,
    quotient_with_projection,
    separating_core,
    subgroup_from_members,
    subgroup_generated,
    trivial_subgroup,
)
from conftest import (
    all_subgroups_oracle,
    chains_exist_oracle,
    cyclic_table,
    is_normal_oracle,
    normal_subgroups_oracle,
)


class TestConstructGroup:
    def test_cyclic_order_4(self, z4a):
        assert z4a.order == 4
        assert z4a.inverse == (0, 3, 2, 1)
        assert z4a.element_order(1) == 4

    def test_trivial_group(self):
        G = construct_group([[0]])
        assert G.order == 1

    def test_s3_from_permutation_composition(self, s3):
        # Oracle: compose permutations exhaustively and compare tables.
        perms = sorted(itertools.permutations(range(3)))
        for i, p in enumerate(perms):
            for j, q in enumerate(perms):
                composed = tuple(p[q[x]] for x in range(3))
                assert perms[s3.table[i][j]] == composed
        assert s3.order == 6

    def test_identity_not_first_rejected(self):
        table = [[1, 0], [0, 1]]
        with pytest.raises(NoIdentity):
            construct_group(table)

    def test_nonassociative_latin_square_names_triple(self):
        # Smallest nonassociative loop has order 5.
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(NotAssociative) as exc:
            construct_group(table)
        a, b, c = exc.value.triple
        t = table
        assert t[t[a][b]][c] != t[a][t[b][c]]

    def test_broken_row_rejected(self):
        with pytest.raises(NotInvertible):
            construct_group([[0, 1, 2], [1, 2, 0], [2, 0, 2]])


class TestSubgroups:
    def test_square_generates_order_2(self, z4a):
        S = subgroup_generated(z4a, [2])
        assert S.sorted_members == (0, 2)

    def test_empty_generating_set(self, s3):
        assert subgroup_generated(s3, []).sorted_members == (0,)

    def test_s3_generated_by_transposition_and_rotation(self, s3):
        # Closure oracle: find a transposition and a 3-cycle by order.
        transposition = next(x for x in s3.elements() if s3.element_order(x) == 2)
        rotation = next(x for x in s3.elements() if s3.element_order(x) == 3)
        S = subgroup_generated(s3, [transposition, rotation])
        assert S.order == 6

    def test_subgroup_from_members_validates(self, z4a):
        subgroup_from_members(z4a, {0, 2})
        from amalgsep.errors import NotSubgroup
        with pytest.raises(NotSubgroup):
            subgroup_from_members(z4a, {0, 1})


class TestNormalSubgroups:
    @pytest.mark.parametrize("fixture", ["z4a", "s3"])
    def test_matches_oracle(self, fixture, request):
        G = request.getfixturevalue(fixture)
        got = [S.members for S in enumerate_normal_subgroups(G)]
        assert got == normal_subgroups_oracle(G)

    def test_z4_has_three(self, z4a):
        assert [S.order for S in enumerate_normal_subgroups(z4a)] == [1, 2, 4]

    def test_s3_has_three(self, s3):
        assert [S.order for S in enumerate_normal_subgroups(s3)] == [1, 3, 6]

    def test_trivial_group(self):
        G = construct_group([[0]])
        assert len(enumerate_normal_subgroups(G)) == 1

    def test_d4_five_plus(self):
        from amalgsep.catalog import dihedral_group
        G = dihedral_group(4)
        got = [S.members for S in enumerate_normal_subgroups(G)]
        assert got == normal_subgroups_oracle(G)

    def test_mutated_result_does_not_leak(self):
        G = construct_group(cyclic_table(12))
        first = enumerate_normal_subgroups(G)
        expected = list(first)
        first.reverse()
        first.pop()
        first.append(trivial_subgroup(G))
        assert enumerate_normal_subgroups(G) == expected


CATALOG_32 = {e.name: e for e in catalog(32)}


class TestLatticeOracle:
    """The cached lattice, the class-by-class join and normality by
    generators, each against brute force on every catalog group up to
    order 32 and on the fixture groups."""

    @pytest.mark.parametrize("name", [*CATALOG_32, "z4a", "z4b", "s3", "z9a", "z9b"])
    def test_lattice_and_normality(self, name, request):
        if name in CATALOG_32:
            G = CATALOG_32[name].build()
        elif name in ("z9a", "z9b"):
            z9 = request.getfixturevalue("z9_amalgam")
            G = z9.A if name == "z9a" else z9.B
        else:
            G = request.getfixturevalue(name)
        got = [S.members for S in enumerate_normal_subgroups(G)]
        assert got == normal_subgroups_oracle(G)
        for ms in all_subgroups_oracle(G):
            assert is_normal(G, Subgroup(G, ms)) == is_normal_oracle(G, ms)
        assert subgroup_generated(G, G.generators).order == G.order
        assert 2 ** len(G.generators) <= G.order


class TestQuotient:
    def test_z4_mod_square(self, z4a):
        N = subgroup_generated(z4a, [2])
        Q, proj = quotient_with_projection(z4a, N)
        assert Q.order == 2
        assert proj(1) == proj(3) != 0

    def test_full_quotient_is_trivial(self, s3):
        Q, proj = quotient_with_projection(s3, subgroup_generated(s3, list(s3.elements())))
        assert Q.order == 1
        assert set(proj.mapping) == {0}

    def test_s3_mod_a3(self, s3):
        A3 = next(S for S in enumerate_normal_subgroups(s3) if S.order == 3)
        Q, proj = quotient_with_projection(s3, A3)
        assert Q.order == 2
        # Derived via coset table: rotations map to 0, transpositions to 1.
        for x in s3.elements():
            assert proj(x) == (0 if x in A3.members else 1)

    def test_not_normal_rejected(self, s3):
        t = next(x for x in s3.elements() if s3.element_order(x) == 2)
        S = subgroup_generated(s3, [t])
        with pytest.raises(NotNormal):
            quotient_with_projection(s3, S)

    def test_projection_is_homomorphism_small_orders(self, z4a, s3):
        for G in (z4a, s3):
            for N in enumerate_normal_subgroups(G):
                Q, proj = quotient_with_projection(G, N)
                make_homomorphism(G, Q, proj.mapping)  # raises when broken


class TestPChains:
    def test_z4_chain(self, z4a):
        chain = find_p_chain(z4a, trivial_subgroup(z4a), 2)
        assert chain is not None
        chain.validate()
        assert [l.order for l in chain.links] == [1, 2, 4]

    def test_top_pair_empty_chain(self, s3):
        full = subgroup_generated(s3, list(s3.elements()))
        chain = find_p_chain(s3, full, 2)
        assert chain is not None
        assert len(chain.links) == 1

    def test_s3_has_no_2_chain(self, s3):
        assert find_p_chain(s3, trivial_subgroup(s3), 2) is None

    def test_cross_check_exhaustive_small(self, z4a, s3):
        from amalgsep.catalog import cyclic_group, dihedral_group, direct_product
        groups = [z4a, s3, dihedral_group(4), cyclic_group(12),
                  direct_product(cyclic_group(2), cyclic_group(8))]
        for G in groups:
            assert G.order <= 32
            for R in enumerate_normal_subgroups(G):
                for p in (2, 3):
                    chain = find_p_chain(G, R, p)
                    assert (chain is not None) == chains_exist_oracle(G, R.members, p)
                    if chain is not None:
                        chain.validate()


class TestIsolation:
    def test_whole_group_is_isolated(self, z4a):
        F = subgroup_generated(z4a, [1])
        assert is_p_prime_isolated_cyclic_finite(z4a, F, 2)

    def test_z6_square_subgroup_not_3prime_isolated(self):
        z6 = construct_group(cyclic_table(6))
        F = subgroup_generated(z6, [2])
        # x^3 squared is the identity, inside F, yet x^3 is not in F.
        assert not is_p_prime_isolated_cyclic_finite(z6, F, 3)

    def test_z4_square_subgroup_2prime_isolated(self, z4a):
        F = subgroup_generated(z4a, [2])
        assert is_p_prime_isolated_cyclic_finite(z4a, F, 2)

    def test_noncyclic_rejected(self):
        from amalgsep.catalog import dihedral_group
        d2 = dihedral_group(2)
        full = subgroup_generated(d2, list(d2.elements()))
        with pytest.raises(NotCyclic):
            is_p_prime_isolated_cyclic_finite(d2, full, 2)

    def test_agrees_with_double_loop(self, s3):
        from amalgsep.catalog import cyclic_group, dihedral_group
        from amalgsep.fingrp import is_cyclic_subgroup, prime_factors
        groups = [s3, cyclic_group(12), dihedral_group(6), cyclic_group(16)]
        for G in groups:
            assert G.order <= 48
            seen = set()
            for x in G.elements():
                F = subgroup_generated(G, [x])
                if F.members in seen:
                    continue
                seen.add(F.members)
                for p in (2, 3, 5):
                    got = is_p_prime_isolated_cyclic_finite(G, F, p)
                    want = True
                    for y in G.elements():
                        for q in prime_factors(G.exponent()):
                            if q != p and G.power(y, q) in F.members and y not in F.members:
                                want = False
                    assert got == want, (G.order, F.sorted_members, p)


class TestSeparatingCore:
    def test_outside_fy_returns_y(self):
        from amalgsep.catalog import cyclic_group
        z8 = cyclic_group(8)
        Y = subgroup_generated(z8, [2])
        F = trivial_subgroup(z8)
        N = separating_core(z8, Y, F, 1, 2)
        assert N.members == Y.members

    def test_z4_inside_case(self, z4a):
        Y = subgroup_generated(z4a, [2])
        F = trivial_subgroup(z4a)
        N = separating_core(z4a, Y, F, 2, 2)
        assert is_p_power(z4a.order // N.order, 2)
        assert 2 not in product_set(z4a, F.members, N.members)

    def test_f_equal_x_rejected(self, z4a):
        Y = subgroup_generated(z4a, [2])
        F = subgroup_generated(z4a, [1])
        with pytest.raises(PreconditionViolated):
            separating_core(z4a, Y, F, 2, 2)

    def test_postconditions_on_mixed_group(self):
        from amalgsep.catalog import cyclic_group, direct_product
        z12 = cyclic_group(12)
        Y = subgroup_generated(z12, [2])  # index 2
        # F = <4> has order 3 and is 2'-isolated.
        F = subgroup_generated(z12, [4])
        for g in z12.elements():
            if g in F.members:
                continue
            N = separating_core(z12, Y, F, g, 2)
            assert is_normal(z12, N)
            assert is_p_power(z12.order // N.order, 2)
            assert g not in product_set(z12, F.members, N.members)
