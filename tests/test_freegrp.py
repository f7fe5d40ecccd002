import itertools
import random

import pytest
from conftest import (
    cold_catalog,
    cold_group,
    induced_map_oracle,
    kernel_key_oracle,
    scan_gen_images_oracle,
    spy_calls,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgsep import catalog as catalog_module
from amalgsep import compat, engine, freegrp
from amalgsep.catalog import cyclic_group, dihedral_group, symmetric_group
from amalgsep.compat import enumerate_free_compatible_classes
from amalgsep.fingrp import subgroup_generated
from amalgsep.freegrp import (
    GenImages,
    format_word,
    induced_map,
    kernel_key,
    parse_word,
    primitive_root,
    reduce_word,
    scan_gen_images,
    word_inv,
    word_mul,
    word_pow,
    word_power_exponent,
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


class TestWordPowerExponent:
    AB = ["a", "b"]

    @staticmethod
    def brute_force(x, w):
        """The t with x = w^t among |t| <= len(x) + 1; 0 for the empty x."""
        if not x:
            return 0
        for t in range(-len(x) - 1, len(x) + 2):
            if word_pow(w, t) == x:
                return t
        return None

    @staticmethod
    def cases():
        """(x, w) pairs over two letters: 300 random w, about a third of
        them conjugated, each with a random x and with a power of w."""
        rng = random.Random(20)

        def word(n):
            return reduce_word([(rng.randrange(2), rng.choice([1, -1])) for _ in range(n)])

        for _ in range(300):
            w = word(rng.randrange(6))
            if rng.random() < 0.3:      # conjugate, so w is not cyclically reduced
                c = word(rng.randrange(1, 3))
                w = word_mul(word_mul(c, w), word_inv(c))
            yield word(rng.randrange(10)), w
            yield word_pow(w, rng.randrange(-4, 5)), w

    def test_against_brute_force_powers(self):
        signs = set()
        for x, w in self.cases():
            want = self.brute_force(x, w)
            assert word_power_exponent(x, w) == want, (x, w)
            if x and want is not None:
                signs.add(want > 0)
        assert signs == {True, False}

    def test_conjugated_generator(self):
        w = parse_word("b a b^-1", self.AB)
        assert word_power_exponent(parse_word("b a^3 b^-1", self.AB), w) == 3
        assert word_power_exponent(parse_word("b a^-2 b^-1", self.AB), w) == -2
        assert word_power_exponent(parse_word("a", self.AB), w) is None
        assert word_power_exponent(parse_word("b a b^-1 a", self.AB), w) is None

    def test_proper_powers(self):
        r = parse_word("a b", self.AB)
        w = word_pow(r, 2)
        assert word_power_exponent(word_pow(r, 3), w) is None
        assert word_power_exponent(word_pow(r, 4), w) == 2
        assert word_power_exponent(word_pow(r, -6), w) == -3

    def test_empty_words(self):
        a = parse_word("a", self.AB)
        assert word_power_exponent((), a) == 0
        assert word_power_exponent((), ()) == 0
        assert word_power_exponent(a, ()) is None

    def test_square_in_rank_one(self):
        w = parse_word("a^2", ["a"])
        assert word_power_exponent(w, w) == 1
        assert word_power_exponent(parse_word("a", ["a"]), w) is None


class TestWorkCounts:
    def test_membership_builds_at_most_two_powers(self, monkeypatch):
        # |w^t| = 2|c| + |t||u| fixes |t|, so x is compared with w^t and
        # w^-t only, and neither is built one product at a time.
        muls = spy_calls(monkeypatch, freegrp, "word_mul")
        pows = spy_calls(monkeypatch, freegrp, "word_pow")
        for x, w in TestWordPowerExponent.cases():
            muls.clear()
            pows.clear()
            word_power_exponent(x, w)
            assert muls == [] and len(pows) <= 2, (x, w)

    def test_word_pow_is_one_reduction(self, monkeypatch):
        muls = spy_calls(monkeypatch, freegrp, "word_mul")
        for _, w in TestWordPowerExponent.cases():
            for k in (-3, -1, 0, 2, 5):
                want = ()
                for _ in range(abs(k)):
                    want = word_mul(want, w if k > 0 else word_inv(w))
                assert word_pow(w, k) == want, (w, k)
        assert muls == []

    @pytest.mark.parametrize("scan", ["classes", "pairs"])
    def test_each_target_and_images_is_walked_once(self, monkeypatch, scan):
        # On cold catalog groups a scan walks each (target, images) pair it
        # reads once. Repeating it on an equal fresh description walks
        # nothing, gives the same output and leaves the caches as they were.
        cold_catalog(monkeypatch)
        reads = spy_calls(monkeypatch, freegrp, "_labelled_walk")
        walks = spy_calls(monkeypatch, freegrp, "_walk")
        a, c = ["a", "b"], ["c", "d"]

        def run():
            desc = engine.conjugation_doubling_description()
            if scan == "classes":
                return [(key, na, u.images, nb, v.images)
                        for key, na, u, nb, v in enumerate_free_compatible_classes(desc, 12)]
            chunks = [parse_word("b", a)], [parse_word("d", c), parse_word("c d", c)]
            return [text for text, _ in engine._free_pair_scan(desc, *chunks, None, 12)]

        first = run()
        assert first and walks and len(walks) == len(set(walks)) == len(set(reads))
        sizes = walk_cache_sizes()
        assert sum(sizes.values()) == len(walks)
        walks.clear()
        assert [run() for _ in range(3)] == [first] * 3
        assert walks == []
        assert walk_cache_sizes() == sizes

    def test_class_scan_wraps_and_sorts_only_what_it_keeps(self, monkeypatch):
        # The scanner yields image tuples, so the class scan builds one
        # GenImages per (key, side) slot that it fills, and sorts (by repr)
        # only the keys that both sides reach. On the doubling amalgam at
        # 24 the scans yield 519 assignments with 94 keys, 13 on both sides.
        desc = engine.conjugation_doubling_description()
        keys = [{key for entry in catalog_module.targets(24)
                 for _, key in scan_gen_images(rank, entry.build(), words, distinct=True)}
                for rank, words in ((desc.rank_a, desc.h_words), (desc.rank_b, desc.k_words))]
        matched = keys[0] & keys[1]
        builds = spy_calls(monkeypatch, GenImages, "__init__")
        reprs: list = []
        monkeypatch.setattr(compat, "repr", lambda key: reprs.append(key) or repr(key),
                            raising=False)
        out = enumerate_free_compatible_classes(desc, 24)
        assert len(keys[0] | keys[1]) == 94 and len(matched) == 13
        assert len(builds) == len(keys[0]) + len(keys[1])
        assert len(reprs) == len(matched) and set(reprs) == matched
        assert [key for key, *_ in out] == sorted(matched, key=repr)

    def test_a_repeated_free_separation_builds_no_quotient(self, monkeypatch):
        # The catalog targets keep every quotient presentation, and each
        # presentation its factor maps, so the same separation on an equal
        # fresh description builds neither and reports the same. The
        # queries pass past rejected pairs, end exhausted after naming the
        # first length-preserving pair, and refine a power collision.
        cold_catalog(monkeypatch)
        builds = spy_calls(monkeypatch, compat, "build_amalgam")
        lists = spy_calls(monkeypatch, engine, "_factor_homs")
        queries = [(2, "A:a B:b^-3", "A:a B:b^3", "plain", None, 48),
                   (2, "A:a B:b A:a B:b^17", "A:a B:b", "p", 2, 16),
                   (2, "A:a B:b", "A:a B:b A:a B:b A:a B:b", "p", 2, 16),
                   (3, "A:a^2 B:b", "A:a B:b", "plain", None, 48)]

        def letters(text):
            return [(side, parse_word(word, ["a"] if side == "A" else ["b"]))
                    for side, word in (token.split(":") for token in text.split())]

        def run(p, h, g, mode, prime, bound):
            desc = engine.power_congruence_description(p)
            return engine.separate_from_cyclic(desc, letters(h), letters(g), mode, prime,
                                               pair_bound=bound).to_json()

        first = [run(*query) for query in queries]
        assert builds and lists
        assert {doc["outcome"] for doc in first} == {"separated", "obstructed"}
        builds.clear()
        lists.clear()
        assert [[run(*query) for query in queries] for _ in range(2)] == [first] * 2
        assert builds == [] and lists == []


def walk_cache_sizes() -> dict[str, int]:
    """The number of walks each catalog group keeps, by entry name."""
    return {name: len(G._walk_cache[0]) for name, G in catalog_module._BUILD_CACHE.items()
            if "_walk_cache" in vars(G)}


class TestGenImages:
    def test_rank1_z4_counts(self):
        # The image of x is cyclic of order ord(x), so the kernel depends
        # on that order alone: the first element of each order stands for
        # all four assignments.
        got = [images for images, _ in scan_gen_images(1, cyclic_group(4))]
        assert got == [(0,), (1,), (2,)]
        assert len(list(scan_gen_images_oracle(1, cyclic_group(4)))) == 4

    def test_rank2_z2_counts(self):
        # Z2 has no nontrivial power map or inner automorphism.
        got = [images for images, _ in scan_gen_images(2, cyclic_group(2))]
        assert got == list(itertools.product(range(2), repeat=2))

    def test_s3_generating_pairs(self, s3):
        # Exhaustive oracle: the 18 pairs whose closure is all of S3 fall
        # into 3 conjugacy orbits of 6, and the scan keeps one of each.
        from amalgsep.fingrp import subgroup_generated
        gens = [images for images, _ in scan_gen_images(2, s3)
                if len(GenImages(2, s3, images).image_members()) == 6]
        want = {(x, y) for x in s3.elements() for y in s3.elements()
                if subgroup_generated(s3, [x, y]).order == 6}
        assert len(gens) == 3 and len(want) == 18
        assert {(s3.conjugate(x, g), s3.conjugate(y, g))
                for x, y in gens for g in s3.elements()} == want

    def test_evaluate(self):
        u = GenImages(2, cyclic_group(4), (1, 2))
        assert u.evaluate(parse_word("a b", ["a", "b"])) == 3
        assert u.evaluate(parse_word("a^-1", ["a", "b"])) == 3


class TestInducedMap:
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
        with pytest.raises(AssertionError, match="ranks 1 and 2 differ"):
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
                assert (kernel_key(u) == kernel_key(v)) == (induced_map_oracle(u, v) is not None)

    # Each test below gets cold targets and calls the function twice per
    # argument: the first call walks the images, the second reads the walk
    # the target kept.
    @pytest.mark.parametrize("rank", [1, 2])
    def test_matches_diagonal_closure(self, rank):
        maps = cold_maps(rank)
        found = 0
        for u in maps:
            for v in maps:
                want = induced_map_oracle(u, v)
                assert induced_map(u, v) == want == induced_map(u, v), (u, v)
                found += want is not None
        assert found > len(maps)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_kernel_key_and_image_match_the_oracles(self, rank):
        for u in cold_maps(rank):
            want = kernel_key_oracle(u.target, u.images)
            assert kernel_key(u) == want == kernel_key(u), u
        for u in cold_maps(rank):
            want = subgroup_generated(u.target, u.images).members
            assert u.image_members() == want == u.image_members(), u


def cold_maps(rank: int) -> list[GenImages]:
    """Every map of the given rank into cold copies of Z4, Z6, S3 and D4."""
    targets = [cyclic_group(4), cyclic_group(6), symmetric_group(3), dihedral_group(4)]
    return [GenImages(rank, T, images) for T in map(cold_group, targets)
            for images in itertools.product(T.elements(), repeat=rank)]
