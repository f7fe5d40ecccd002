"""Catalog and free-factor scans against the oracles of ``conftest``.

The library's scans memoize kernel keys, test each kernel class once and
slice a catalog built once; the oracles scan every assignment and every
pair with no memo, on a catalog built afresh for each bound.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from conftest import (
    closure_oracle,
    evaluate_oracle,
    free_classes_oracle,
    free_pair_scan_oracle,
    kernel_key_oracle,
)

from amalgsep import engine
from amalgsep.catalog import _build_catalog, catalog
from amalgsep.compat import FreeAmalgamDescription, enumerate_free_compatible_classes
from amalgsep.engine import conjugation_doubling_description, power_congruence_description
from amalgsep.freegrp import GenImages, kernel_key, parse_word, scan_gen_images


class TestCatalog:
    N = 64

    def test_every_bound_is_a_prefix_of_the_largest(self):
        full = catalog(self.N)
        for n in range(self.N + 1):
            fresh = _build_catalog(n)
            assert catalog(n) == fresh == tuple(e for e in full if e.order <= n)
            assert [e.name for e in catalog(n)] == [e.name for e in fresh]

    def test_a_smaller_bound_after_a_larger_one(self):
        assert catalog(12) == _build_catalog(12)
        assert catalog(80) == _build_catalog(80)
        assert catalog(12) == _build_catalog(12)

    def test_result_cannot_be_mutated(self):
        entries = catalog(16)
        assert isinstance(entries, tuple)
        with pytest.raises(TypeError):
            entries[0] = entries[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            entries[0].name = "Z1"
        assert catalog(16)[0].name == "Z2"


class TestKernelKey:
    def test_matches_oracle_on_small_targets(self):
        for entry in catalog(12):
            T = entry.build()
            for rank in (1, 2):
                for images in itertools.product(T.elements(), repeat=rank):
                    assert kernel_key(GenImages(rank, T, images)) == kernel_key_oracle(T, images)


class TestScanGenImages:
    def test_chunk_filter_and_keys_match_brute_force(self):
        names = ["a", "b"]
        basis = [parse_word("b^-1 a b", names)]
        chunks = [parse_word("a", names), parse_word("a b^2", names)]
        for entry in catalog(12):
            T = entry.build()
            got = [(u.images, key) for u, key in scan_gen_images(2, T, basis, chunks)]
            want = []
            for images in itertools.product(T.elements(), repeat=2):
                him = evaluate_oracle(T, images, basis[0])
                hsub = closure_oracle(T, [him])
                if all(evaluate_oracle(T, images, c) not in hsub for c in chunks):
                    want.append((images, kernel_key_oracle(T, (him,))))
            assert got == want

    def test_distinct_yields_the_first_of_each_key(self):
        words = [parse_word("a^2", ["a"])]
        for entry in catalog(16):
            T = entry.build()
            got = [(u.images, key) for u, key in scan_gen_images(1, T, words, distinct=True)]
            want, seen = [], set()
            for x in T.elements():
                key = kernel_key_oracle(T, (T.table[x][x],))
                if key not in seen:
                    seen.add(key)
                    want.append(((x,), key))
            assert got == want


def _doubling(sb: int, sd: int) -> FreeAmalgamDescription:
    return FreeAmalgamDescription(
        rank_a=2, rank_b=2, gen_names_a=("a", "b"), gen_names_b=("c", "d"),
        h_words=(((0, 1),), ((1, -sb), (0, 1), (1, sb))),
        k_words=(((0, 1),), ((1, -sd), (0, 1), (0, 1), (1, sd))))


def _rank2() -> FreeAmalgamDescription:
    a, c = ["a", "b"], ["c", "d"]
    return FreeAmalgamDescription(
        rank_a=2, rank_b=2, gen_names_a=tuple(a), gen_names_b=tuple(c),
        h_words=(parse_word("a b a b^-1", a),), k_words=(parse_word("c^2 d^2", c),))


def _classes(desc, bound, p=None):
    return [(key, na, u.images, nb, v.images)
            for key, na, u, nb, v in enumerate_free_compatible_classes(desc, bound, p)]


class TestFreeClasses:
    # Each of b and d with both signs; (1, 1) is the thm21 case study, whose
    # reports the golden tests pin at bounds 21 and 48.
    @pytest.mark.parametrize("sb,sd", [(1, -1), (-1, 1)])
    def test_doubling_both_signs(self, sb, sd):
        desc = _doubling(sb, sd)
        assert _classes(desc, 24) == free_classes_oracle(desc, 24)

    def test_doubling_is_the_case_study_description(self):
        assert _doubling(1, 1) == conjugation_doubling_description()

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("mode", ["plain", "p"])
    def test_power_congruence(self, p, mode):
        desc = power_congruence_description(p)
        q = p if mode == "p" else None
        assert _classes(desc, 24, q) == free_classes_oracle(desc, 24, q)

    def test_rank2(self):
        desc = _rank2()
        assert _classes(desc, 8) == free_classes_oracle(desc, 8)


def _letters(desc, text):
    out = []
    for token in text.split():
        side, word = token.split(":")
        names = desc.gen_names_a if side == "A" else desc.gen_names_b
        out.append((side, parse_word(word, names)))
    return out


PC2, PC3 = power_congruence_description(2), power_congruence_description(3)
# (description, h, g, mode, p, pair bound). The false-member queries
# h = g^2 b^16 and h = g^2 b^32, and h = ab with h^3 = g in p-mode (the
# power-collision filter), run a refining scan through the whole catalog.
PAIR_QUERIES = [
    (PC2, "A:a B:b A:a B:b^33", "A:a B:b", "p", 2, 48),
    (PC2, "A:a B:b A:a B:b^17", "A:a B:b", "p", 2, 16),
    (PC2, "A:a B:b A:a B:b^17", "A:a B:b", "plain", None, 16),
    (PC2, "A:a B:b^7", "A:a B:b A:a B:b A:a B:b A:a^2", "p", 2, 48),
    (PC2, "B:b", "A:a^2", "plain", None, 48),
    (PC2, "A:a^3 B:b", "A:a B:b^-1", "plain", None, 16),
    (PC2, "A:a B:b", "A:a B:b A:a B:b A:a B:b", "p", 2, 16),
    (PC3, "A:a^2 B:b", "A:a B:b", "plain", None, 48),
    (PC3, "A:a B:b^2 A:a", "A:a^-1 B:b", "p", 3, 48),
    (PC3, "B:b^3", "A:a^6", "p", 3, 27),
    (_rank2(), "A:a B:d", "A:b B:c", "plain", None, 16),
    (_rank2(), "A:a^2 B:c B:d", "A:a B:c", "plain", None, 16),
]


class TestFreePairScan:
    def test_first_pair_matches_oracle(self, monkeypatch):
        calls = []
        real = engine._free_pair_scan

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append((args, kwargs, out))
            return out

        monkeypatch.setattr(engine, "_free_pair_scan", spy)
        for desc, h, g, mode, p, bound in PAIR_QUERIES:
            n = len(calls)
            engine.separate_from_cyclic(desc, _letters(desc, h), _letters(desc, g),
                                        mode=mode, p=p, max_order=32, pair_bound=bound)
            assert len(calls) > n, (h, g)
        assert any(kw.get("accept") is not None for _, kw, _ in calls)
        for args, kwargs, got in calls:
            want = free_pair_scan_oracle(*args, **kwargs)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0]
                assert got[1].pair.key() == want[1].pair.key()

    @pytest.mark.parametrize("desc,orders", [
        (PC2, (6, 3)), (PC2, (3, 6)), (PC2, (9, 9)), (PC3, (6, 2)), (PC3, (4, 4)),
        (_rank2(), (6, 3)), (_rank2(), (8, 4))])
    def test_first_pair_under_invariant_filters(self, desc, orders):
        # The orders of the two quotient factors are isomorphism invariants
        # that single out pairs lying after many rejected ones, some with
        # the same restriction kernels but other kernels.
        def accept(qa):
            return (qa.presentation.A.order, qa.presentation.B.order) == orders

        got = engine._free_pair_scan(desc, [], [], None, 16, accept=accept)
        want = free_pair_scan_oracle(desc, [], [], None, 16, accept=accept)
        assert want is not None
        assert got[0] == want[0]
