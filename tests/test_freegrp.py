import itertools
import random

import pytest
from conftest import scan_gen_images_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgsep.catalog import cyclic_group, symmetric_group
from amalgsep.errors import RankMismatch
from amalgsep.freegrp import (
    GenImages,
    fold_subgroup,
    format_word,
    graph_member,
    induced_map,
    kernel_key,
    parse_word,
    primitive_root,
    reduce_word,
    scan_gen_images,
    word_inv,
    word_mul,
    word_pow,
)

letters = st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])), max_size=30)


class TestReduce:
    def test_cancellation(self):
        assert reduce_word([(0, 1), (1, 1), (1, -1)]) == ((0, 1),)

    def test_empty(self):
        assert reduce_word([]) == ()

    def test_leading_cancellation(self):
        assert reduce_word([(0, -1), (0, 1), (1, 1)]) == ((1, 1),)

    @given(letters)
    def test_idempotent_and_nonincreasing(self, raw):
        w = reduce_word(raw)
        assert reduce_word(w) == w
        assert len(w) <= len(raw)

    @given(letters, letters, letters)
    @settings(max_examples=400)
    def test_concat_reduce_associative(self, a, b, c):
        left = word_mul(word_mul(reduce_word(a), reduce_word(b)), reduce_word(c))
        right = word_mul(reduce_word(a), word_mul(reduce_word(b), reduce_word(c)))
        assert left == right

    def test_parse_format_roundtrip(self):
        w = parse_word("a b^-1 a^2", ["a", "b"])
        assert w == ((0, 1), (1, -1), (0, 1), (0, 1))
        assert format_word(w, ["a", "b"]) == "a b^-1 a^2"


class TestFolding:
    def test_single_generator_loop(self):
        g = fold_subgroup([((0, 1),)], rank=2)
        assert g.n_states == 1

    def test_square_in_rank_one(self):
        g = fold_subgroup([((0, 1), (0, 1))], rank=1)
        assert g.n_states == 2
        assert graph_member(g, ((0, 1), (0, 1)))
        assert not graph_member(g, ((0, 1),))

    def test_conjugate_pair_graph(self):
        # <a, b^-1 a b>: two states, an a-loop at each, one b-edge between.
        # (Spanning-tree reading recovers exactly these two generators.)
        gens = [((0, 1),), ((1, -1), (0, 1), (1, 1))]
        g = fold_subgroup(gens, rank=2)
        assert g.n_states == 2
        assert graph_member(g, gens[1])
        # (b^-1 a b)^2 folds through the same edges.
        assert graph_member(g, ((1, -1), (0, 1), (0, 1), (1, 1)))
        assert not graph_member(g, ((0, 1), (1, 1)))
        assert not graph_member(g, ((1, 1),))

    def test_empty_word_always_member(self):
        g = fold_subgroup([((0, 1), (1, 1))], rank=2)
        assert graph_member(g, ())

    def test_membership_against_bounded_enumeration(self):
        # Naive oracle: products of the generators up to length 8. The
        # words are reduced and so is each generator, so a product reduces
        # by cancelling at the seam alone.
        def seam(w, g):
            k = 0
            while k < min(len(w), len(g)) and w[-1 - k] == (g[k][0], -g[k][1]):
                k += 1
            return w[:len(w) - k] + g[k:]

        rng = random.Random(7)
        checked = 0
        for trial in range(25):
            gens = []
            for _ in range(rng.randrange(1, 4)):
                raw = [(rng.randrange(2), rng.choice([1, -1]))
                       for _ in range(rng.randrange(1, 5))]
                w = reduce_word(raw)
                if w:
                    gens.append(w)
            if not gens:
                continue
            graph = fold_subgroup(gens, rank=2)
            alphabet = gens + [word_inv(w) for w in gens]
            known = {()}
            frontier = [()]
            for _ in range(8):
                nxt = []
                for w in frontier:
                    for g in alphabet:
                        u = seam(w, g)
                        if u not in known:
                            known.add(u)
                            nxt.append(u)
                frontier = nxt
            for w in known:
                assert graph_member(graph, w), (gens, w)
            checked += len(known)
            # Spot-check some non-members of bounded length.
            for _ in range(30):
                raw = [(rng.randrange(2), rng.choice([1, -1]))
                       for _ in range(rng.randrange(0, 5))]
                w = reduce_word(raw)
                if graph_member(graph, w):
                    continue  # cannot refute membership without a bound
                assert w not in known
        assert checked == 921_815


class TestPrimitiveRoot:
    def test_square(self):
        w = parse_word("a a", ["a"])
        root, m = primitive_root(w)
        assert (root, m) == (((0, 1),), 2)

    def test_primitive(self):
        w = parse_word("a b", ["a", "b"])
        assert primitive_root(w) == (w, 1)

    def test_conjugated_power(self):
        w = parse_word("b a a b^-1", ["a", "b"])
        root, m = primitive_root(w)
        assert m == 2
        assert word_pow(root, 2) == w


class TestGenImages:
    def test_rank1_z4_counts(self):
        # The image of x is cyclic of order ord(x), so the kernel depends
        # on that order alone: the first element of each order stands for
        # all four assignments.
        got = [u.images for u, _ in scan_gen_images(1, cyclic_group(4))]
        assert got == [(0,), (1,), (2,)]
        assert len(list(scan_gen_images_oracle(1, cyclic_group(4)))) == 4

    def test_rank2_z2_counts(self):
        # Z2 has no nontrivial power map or inner automorphism.
        got = [u.images for u, _ in scan_gen_images(2, cyclic_group(2))]
        assert got == list(itertools.product(range(2), repeat=2))

    def test_s3_generating_pairs(self, s3):
        # Exhaustive oracle: the 18 pairs whose closure is all of S3 fall
        # into 3 conjugacy orbits of 6, and the scan keeps one of each.
        from amalgsep.fingrp import subgroup_generated
        gens = [u.images for u, _ in scan_gen_images(2, s3)
                if len(u.image_members()) == 6]
        want = {(x, y) for x in s3.elements() for y in s3.elements()
                if subgroup_generated(s3, [x, y]).order == 6}
        assert len(gens) == 3 and len(want) == 18
        assert {(s3.conjugate(x, g), s3.conjugate(y, g))
                for x, y in gens for g in s3.elements()} == want

    def test_evaluate(self):
        u = GenImages(2, cyclic_group(4), (1, 2))
        assert u.evaluate(parse_word("a b", ["a", "b"])) == 3
        assert u.evaluate(parse_word("a^-1", ["a", "b"])) == 3


class TestKernelsEqual:
    def test_identical_maps(self):
        u = GenImages(1, cyclic_group(4), (1,))
        assert induced_map(u, u) is not None

    def test_rank1_z2_generator_vs_identity(self):
        T = cyclic_group(2)
        u = GenImages(1, T, (1,))
        v = GenImages(1, T, (0,))
        assert induced_map(u, v) is None

    def test_rank2_z4_doubling(self):
        # Fiber-product oracle: the word a lands in one kernel only after
        # squaring, so the kernels differ; witnessed by the word a^2.
        T = cyclic_group(4)
        u = GenImages(2, T, (1, 1))
        v = GenImages(2, T, (2, 2))
        assert induced_map(u, v) is None
        w = parse_word("a^2", ["a", "b"])
        assert u.evaluate(w) != 0 and v.evaluate(w) == 0

    def test_rank_mismatch(self):
        T = cyclic_group(2)
        with pytest.raises(RankMismatch):
            induced_map(GenImages(1, T, (1,)), GenImages(2, T, (1, 0)))

    def test_equivalence_relation_exhaustive_small(self):
        # Reflexive and symmetric over all rank-1 maps into Z6 and S3.
        targets = [cyclic_group(6), symmetric_group(3)]
        maps = [GenImages(1, T, (i,)) for T in targets for i in T.elements()]
        for u in maps:
            assert induced_map(u, u) is not None
        for u in maps:
            for v in maps:
                assert (induced_map(u, v) is None) == (induced_map(v, u) is None)
        # Transitivity on random triples.
        rng = random.Random(3)
        for _ in range(200):
            u, v, w = (rng.choice(maps) for _ in range(3))
            if induced_map(u, v) is not None and induced_map(v, w) is not None:
                assert induced_map(u, w) is not None

    def test_kernel_key_matches_kernels_equal(self):
        targets = [cyclic_group(4), cyclic_group(8), symmetric_group(3)]
        maps = [GenImages(1, T, (i,)) for T in targets for i in T.elements()]
        for u in maps:
            for v in maps:
                assert (kernel_key(u) == kernel_key(v)) == (induced_map(u, v) is not None)
