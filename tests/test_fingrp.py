import itertools
import os
import re
import subprocess
import sys

import pytest

from amalgsep import catalog as catalog_module
from amalgsep import fingrp
from amalgsep.catalog import catalog, targets
from amalgsep.errors import InputError
from amalgsep.fingrp import (
    Subgroup,
    abelianization,
    construct_group,
    enumerate_normal_subgroups,
    greedy_generators,
    group_from_json,
    is_normal,
    is_p_power,
    is_prime,
    is_p_prime_isolated_cyclic_finite,
    prime_factors,
    prime_powers,
    product_set,
    quotient_with_projection,
    respects_generators,
    separating_core,
    subgroup_as_group,
    subgroup_from_members,
    subgroup_generated,
    trivial_subgroup,
    trusted_group,
)
from conftest import (
    all_subgroups_oracle,
    associative_oracle,
    automorphisms_oracle,
    catalog_group_oracle,
    conjugacy_classes_oracle,
    cyclic_table,
    derived_subgroup_oracle,
    generating_set_oracle,
    intercalate_swapped,
    is_normal_oracle,
    leaders_oracle,
    normal_subgroups_oracle,
    reduced_latin_squares,
    relabeled,
    symmetry_group_oracle,
    with_candidates,
)


class TestIntegers:
    @staticmethod
    def prime_powers_oracle(n):
        """{q: q^a} by testing every q <= n for primality and division."""
        out = {}
        for q in range(2, n + 1):
            if n % q == 0 and all(q % d for d in range(2, q)):
                out[q] = q
                while n % (out[q] * q) == 0:
                    out[q] *= q
        return out

    def test_prime_powers_against_brute_force(self):
        for n in range(1, 2001):
            want = self.prime_powers_oracle(n)
            assert prime_powers(n) == want, n
            assert prime_factors(n) == sorted(want), n
            assert is_prime(n) == (want == {n: n}), n

    def test_large_prime_stops_at_square_root(self):
        # A loop that steps q up to n would not return here.
        p = 1_000_000_007
        assert is_prime(p)
        assert prime_factors(2 * p) == [2, p]
        assert prime_powers(4 * p) == {2: 4, p: p}


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
        with pytest.raises(InputError, match="element 0 is not a two-sided identity"):
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
        with pytest.raises(InputError, match="table is not associative on triple") as exc:
            construct_group(table)
        a, b, c = map(int, re.search(r"\((\d+), (\d+), (\d+)\)$", str(exc.value)).groups())
        t = table
        assert t[t[a][b]][c] != t[a][t[b][c]]

    def test_broken_row_rejected(self):
        with pytest.raises(InputError, match="element 2 has no two-sided inverse"):
            construct_group([[0, 1, 2], [1, 2, 0], [2, 0, 2]])

    @pytest.mark.parametrize("doc", [{"order": 1}, {"table": [[0]]}, {}, [[0]]],
                             ids=["no-table", "no-order", "empty", "list"])
    def test_group_document_without_order_or_table_rejected(self, doc):
        with pytest.raises(InputError, match="must carry order and table"):
            group_from_json(doc)


def _accepts(table) -> bool:
    """Whether ``construct_group`` accepts the table; a rejection must name
    a real fault: a failing triple, or an element whose only right inverse
    is not a left inverse."""
    try:
        G = construct_group(table)
    except InputError as exc:
        if m := re.fullmatch(r"table is not associative on triple \((\d+), (\d+), (\d+)\)",
                             str(exc)):
            x, y, z = map(int, m.groups())
            assert table[table[x][y]][z] != table[x][table[y][z]]
        else:
            x = int(re.fullmatch(r"element (\d+) has no two-sided inverse", str(exc)).group(1))
            assert table[table[x].index(0)][x] != 0
        return False
    assert G.table == tuple(map(tuple, table))
    return True


class TestLightsTest:
    """Associativity is checked on generators alone; it must agree with the
    full cubic check on every table it sees."""

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 1), (3, 1), (4, 4), (5, 56), (6, 9408)])
    def test_reduced_latin_squares(self, n, count):
        squares = list(reduced_latin_squares(n))
        assert len(squares) == count
        for table in squares:
            assert _accepts(table) == associative_oracle(table), table

    def test_intercalate_swaps_of_catalog_groups(self):
        # A swapped table keeps the identity and the Latin property; it is
        # rarely a group again, so most tables here must be rejected.
        rejected = 0
        for entry in catalog(64):
            G, _ = relabeled(entry.build(), entry.name)
            table = intercalate_swapped(G, entry.name)
            if table is not None:
                ok = associative_oracle(table)
                assert _accepts(table) == ok, entry.name
                rejected += not ok
        assert rejected > 200


class TestTrustedGroup:
    def test_catalog_matches_entrywise_constructions(self):
        # Every family and product shape up to order 64 (340 entries);
        # catalog(256) repeats them with about 60 million table entries.
        entries = catalog(64)
        by_key = {e.key(): e for e in entries}
        for entry in entries:
            G, want = entry.build(), catalog_group_oracle(entry, by_key)
            assert ((G.table, G.inverse, G.names)
                    == (want.table, want.inverse, want.names)), entry.name

    @pytest.mark.parametrize("table", [
        [[0, 1], [1, 1]],                    # no inverse in row 1
        [[0, 1, 2], [1, 2, 0], [2, 2, 1]],   # 1 * 2 = e but 2 * 1 != e
    ])
    def test_missing_inverse_rejected(self, table):
        with pytest.raises(AssertionError, match="element 1 has no two-sided inverse"):
            trusted_group(table)


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
        with pytest.raises(AssertionError, match="inverse of 1 missing"):
            subgroup_from_members(z4a, {0, 1})


class TestGreedyGenerators:
    def test_central_generators_span_the_centre(self, monkeypatch):
        # The centre test is put only to elements outside the span of the
        # generators picked before them.
        from amalgsep import catalog as cat
        asked, real = [], cat.greedy_generators

        def recording(G, keep):
            def spy(z):
                asked.append((z, keep(z)))
                return asked[-1][1]
            return real(G, spy)

        monkeypatch.setattr(cat, "greedy_generators", recording)
        for entry in catalog(32):
            G = entry.build()
            asked.clear()
            gens = cat._central_generators(G)
            centre = {z for z in G.elements()
                      if all(G.table[z][g] == G.table[g][z] for g in G.elements())}
            assert subgroup_generated(G, gens).members == centre, entry.name
            picked = []
            for z, central in asked:
                assert z not in subgroup_generated(G, picked).members, entry.name
                if central:
                    picked.append(z)
            assert picked == gens, entry.name


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
# Each catalog group up to order 32 under two seeded relabelings that fix
# element 0. Generating sets, class orbits and search orders follow the
# labels, so the results must not.
RELABELED_32 = [(name, seed) for name in CATALOG_32 for seed in (1, 2)]


def relabeled_32(name: str, seed: int):
    return relabeled(CATALOG_32[name].build(), f"{name}:{seed}")[0]


def check_lattice(G) -> None:
    got = [S.members for S in enumerate_normal_subgroups(G)]
    assert got == normal_subgroups_oracle(G)
    for ms in all_subgroups_oracle(G):
        assert is_normal(G, Subgroup(G, ms)) == is_normal_oracle(G, ms)
    assert subgroup_generated(G, G.generators).order == G.order
    assert 2 ** len(G.generators) <= G.order


class TestLatticeOracle:
    """The cached lattice, the joins of class closures and normality by
    generators, each against brute force on every catalog group up to
    order 32, on two relabelings of each and on the fixture groups."""

    @pytest.mark.parametrize("name", [*CATALOG_32, "z4a", "z4b", "s3", "z9a", "z9b"])
    def test_lattice_and_normality(self, name, request):
        if name in CATALOG_32:
            G = CATALOG_32[name].build()
        elif name in ("z9a", "z9b"):
            z9 = request.getfixturevalue("z9_amalgam")
            G = z9.A if name == "z9a" else z9.B
        else:
            G = request.getfixturevalue(name)
        check_lattice(G)

    @pytest.mark.parametrize("name,seed", RELABELED_32)
    def test_relabeled_lattice_and_normality(self, name, seed):
        check_lattice(relabeled_32(name, seed))


class TestConjugacyClasses:
    """Class orbits under conjugation by ``generators`` against
    conjugation by every element."""

    @pytest.mark.parametrize("name", CATALOG_32)
    def test_catalog_groups(self, name):
        G = CATALOG_32[name].build()
        assert fingrp.conjugacy_classes(G) == conjugacy_classes_oracle(G)

    @pytest.mark.parametrize("name,seed", RELABELED_32)
    def test_relabeled_groups(self, name, seed):
        G = relabeled_32(name, seed)
        assert fingrp.conjugacy_classes(G) == conjugacy_classes_oracle(G)


def _fields(G):
    return (G.order, G.table, G.inverse, G.names)


class TestOrbitLeaders:
    @pytest.mark.parametrize("bound, p", [(64, None)])
    def test_leaders_match_a_full_listing(self, bound, p):
        # The leaders close orbits under generators of S, while the oracle
        # lists all of S; every generator must pass a full table check.
        # Above order 64 the listing is out of reach: S has over 300,000
        # maps on D2xMC(8,3,8).
        for entry in targets(bound, p):
            T = entry.build()
            tab = T.table
            for s in T._symmetries():
                assert sorted(s) == list(T.elements()), entry.name
                assert all(s[tab[a][b]] == tab[s[a]][s[b]]
                           for a in T.elements() for b in T.elements()), entry.name
            elements, pairs = leaders_oracle(T, symmetry_group_oracle(T))
            assert T.orbit_leaders == elements, entry.name
            assert T.pair_leaders == pairs, entry.name

    def test_leaders_include_those_of_the_full_automorphism_group(self):
        # S lies in Aut(T), so each Aut-leader is least in its S-orbit too.
        # Rank-4 entries are left out: their brute force tries 16^4 maps.
        for entry in targets(24):
            T = entry.build()
            if len(generating_set_oracle(T)) >= 4:
                continue
            elements, pairs = leaders_oracle(T, automorphisms_oracle(T))
            assert set(elements) <= set(T.orbit_leaders), entry.name
            got = {(x, y) for x, ys in T.pair_leaders for y in ys}
            assert {(x, y) for x, ys in pairs for y in ys} <= got, entry.name

    def test_exponent_two_targets_are_pruned(self):
        # Inner automorphisms and power maps alone kept 4,061 pairs here
        # and fixed every element of D2, Z2xD2 and D2xD2.
        assert sum(len(ys) for e in targets(24) for _, ys in e.build().pair_leaders) <= 2000
        for entry in targets(16):
            if entry.name in ("D2", "Z2xD2", "D2xD2"):
                assert len(entry.build().orbit_leaders) < entry.order, entry.name

    @pytest.mark.parametrize("name, candidate", [("D6", (2, 6)), ("Z2xZ4", (1, 4))],
                             ids=["non-unit-power", "swap-of-unequal-members"])
    def test_non_automorphisms_are_rejected(self, name, candidate):
        # D6: r -> r^2, s -> s with 2 not a unit mod 6. Z2xZ4: the swap of
        # the generators (1, 0) and (0, 1), of orders 2 and 4.
        G = CATALOG_32[name].build()
        bare = with_candidates(G, ())
        bad = with_candidates(G, G.automorphism_candidates + (candidate,))
        images = fingrp._extend(G, G.family_generators, candidate)
        assert not fingrp._is_automorphism(G, images)
        assert bad._symmetries() == G._symmetries() != bare._symmetries()
        assert bad.orbit_leaders == G.orbit_leaders
        assert bad.pair_leaders == G.pair_leaders

    def test_products_list_only_central_moves_that_exist(self, monkeypatch):
        # A product lists g -> g z only when some f with f(g) = z and f = 1
        # on the other generators exists. Listing by the order of g's image
        # in G^ab alone adds moves that the check rejects, and no others.
        products = [e for e in targets(64) if e.family_rank == 4]
        built = [e.build() for e in products]

        def ab_orders(G, gens):
            q, proj = abelianization(G)
            return [q.element_order(proj[g]) for g in gens]

        monkeypatch.setattr(catalog_module, "_orders_mod_others", ab_orders)
        rejected = 0
        for entry, G in zip(products, built):
            assert all(fingrp._is_automorphism(G, fingrp._extend(G, G.family_generators, c))
                       for c in G.automorphism_candidates), entry.name
            loose = entry._builder()
            assert loose._symmetries() == G._symmetries(), entry.name
            rejected += len(loose.automorphism_candidates) - len(G.automorphism_candidates)
        assert rejected > 0


class TestDerivedTables:
    """Subgroup and quotient tables of a group skip the associativity
    check, which they inherit from it. They must equal what full
    validation builds from the same table."""

    @pytest.mark.parametrize("name", list(CATALOG_32))
    def test_trusted_path_matches_validated_path(self, name):
        G = CATALOG_32[name].build()
        for ms in all_subgroups_oracle(G):
            sub, _ = subgroup_as_group(G, Subgroup(G, ms))
            assert _fields(construct_group(sub.table, sub.names)) == _fields(sub)
        for N in enumerate_normal_subgroups(G):
            Q, _ = quotient_with_projection(G, N)
            assert _fields(construct_group(Q.table, Q.names)) == _fields(Q)


class TestQuotient:
    def test_z4_mod_square(self, z4a):
        N = subgroup_generated(z4a, [2])
        Q, proj = quotient_with_projection(z4a, N)
        assert Q.order == 2
        assert proj[1] == proj[3] != 0

    def test_full_quotient_is_trivial(self, s3):
        Q, proj = quotient_with_projection(s3, subgroup_generated(s3, list(s3.elements())))
        assert Q.order == 1
        assert set(proj) == {0}

    def test_s3_mod_a3(self, s3):
        A3 = next(S for S in enumerate_normal_subgroups(s3) if S.order == 3)
        Q, proj = quotient_with_projection(s3, A3)
        assert Q.order == 2
        # Derived via coset table: rotations map to 0, transpositions to 1.
        for x in s3.elements():
            assert proj[x] == (0 if x in A3.members else 1)

    def test_not_normal_rejected(self, s3):
        t = next(x for x in s3.elements() if s3.element_order(x) == 2)
        S = subgroup_generated(s3, [t])
        with pytest.raises(AssertionError, match="subgroup is not normal in its parent"):
            quotient_with_projection(s3, S)

    def test_projection_is_homomorphism_small_orders(self, z4a, s3):
        for G in (z4a, s3):
            for N in enumerate_normal_subgroups(G):
                Q, proj = quotient_with_projection(G, N)
                assert respects_generators(G, Q, proj)


# The factors of the benchmark's finite-witness amalgams.
WITNESS_FACTORS = ["Z4", "D4", "Z8", "Z2xZ4", "Z9", "Z3xZ3", "MC(9,4,3)", "Z3xZ9", "D3",
                   "D6", "Z3xD3"]


class TestAbelianization:
    """G/G' against the subgroup generated by every commutator."""

    @staticmethod
    def check(G):
        Q, proj = abelianization(G)
        derived = derived_subgroup_oracle(G)
        assert frozenset(x for x in G.elements() if proj[x] == 0) == derived
        assert respects_generators(G, Q, proj)
        assert Q.order == G.order // len(derived)
        assert all(row[b] == Q.table[b][a] for a, row in enumerate(Q.table) for b in Q.elements())
        assert (Q is G) == (len(derived) == 1)

    @pytest.mark.parametrize("entry", list(targets(64)), ids=lambda e: e.name)
    def test_catalog_classes(self, entry):
        self.check(entry.build())

    @pytest.mark.parametrize("name,seed", [(n, s) for n in WITNESS_FACTORS for s in (1, 2)])
    def test_relabeled_witness_factors(self, name, seed):
        self.check(relabeled_32(name, seed))


class TestPChains:
    def test_validate_rejects_a_step_of_index_p_squared(self, z4a):
        chain = fingrp.NormalChain(z4a, (trivial_subgroup(z4a),
                                         subgroup_generated(z4a, [1])), 2)
        with pytest.raises(AssertionError, match="index-2"):
            chain.validate()

    def test_validate_rejects_under_optimize(self):
        # The same chain in a ``python -O`` process, where asserts are off.
        code = """
from amalgsep import catalog as catalog_module
from amalgsep import fingrp
from amalgsep.catalog import cyclic_group
G = cyclic_group(4)
chain = fingrp.NormalChain(G, (fingrp.trivial_subgroup(G), fingrp.subgroup_generated(G, [1])), 2)
try:
    chain.validate()
except AssertionError as exc:
    print("raised", __debug__, exc)
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(fingrp.__file__)))
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "raised False chain step is not an index-2 inclusion"


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
        with pytest.raises(AssertionError, match="F is not cyclic"):
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
        with pytest.raises(AssertionError, match=r"g-outside-F \(g lies in F\)"):
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
