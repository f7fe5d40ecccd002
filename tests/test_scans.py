"""Catalog and free-factor scans against the oracles of ``conftest``.

The library's scans memoize kernel keys, test each kernel class once and
walk one catalog target per isomorphism class; the oracles scan every
assignment and every pair with no memo, on a catalog built afresh for
each bound, and the isomorphism oracle searches for bijective
homomorphisms between the tables themselves.
"""

from __future__ import annotations

import copy
import itertools
import random
import subprocess
import sys

import pytest
from conftest import (
    all_targets,
    assert_leaders_of,
    catalog_oracle,
    catalog_twins_oracle,
    closure_oracle,
    cold_catalog,
    evaluate_oracle,
    exponent_set_oracle,
    finish_scan_oracle,
    free_classes_oracle,
    free_pair_scan_oracle,
    free_query_forms,
    in_factor_scan_oracle,
    isomorphism_oracle,
    kernel_key_oracle,
    scan_gen_images_oracle,
    shuffled_targets,
    spy_calls,
    with_candidates,
)

from amalgsep import catalog as catalog_module
from amalgsep import amalgam, compat, engine, fingrp, freegrp
from amalgsep.amalgam import build_amalgam, normalize
from amalgsep.catalog import catalog, iso_key, member_keys, targets
from amalgsep.compat import FreeAmalgamDescription, enumerate_free_compatible_classes
from amalgsep.engine import conjugation_doubling_description, power_congruence_description
from amalgsep.errors import InputError
from amalgsep.fingrp import is_p_power, subgroup_generated
from amalgsep.freegrp import GenImages, kernel_key, parse_word, reduce_word, scan_gen_images


class TestCatalog:
    N = 64

    def test_every_bound_is_a_prefix_of_the_largest(self):
        full = catalog(self.N)
        for n in range(self.N + 1):
            fresh = catalog_oracle(n)
            assert catalog(n) == fresh == tuple(e for e in full if e.order <= n)
            assert [e.name for e in catalog(n)] == [e.name for e in fresh]

    def test_a_smaller_bound_after_a_larger_one(self):
        assert catalog(12) == catalog_oracle(12)
        assert catalog(80) == catalog_oracle(80)
        assert catalog(12) == catalog_oracle(12)

    @pytest.mark.parametrize("n", [1, 2, 4, 32, 128, 255, 256, 257, 300])
    def test_matches_the_eager_oracle_entry_by_entry(self, n):
        def fields(entries):
            return [(e.name, e.order, e.family_rank, e.params) for e in entries]

        got, want = catalog(n), catalog_oracle(n)
        assert fields(got) == fields(want)
        # Builders run directly, past the build cache that both share.
        for g, w in list(zip(got, want))[::37]:
            assert g._builder().table == w._builder().table, g.name

    def test_result_cannot_be_mutated(self):
        entries = catalog(16)
        assert isinstance(entries, tuple)
        with pytest.raises(TypeError):
            entries[0] = entries[1]
        with pytest.raises(AssertionError):
            entries[0].name = "Z1"
        assert entries[0].name == catalog(16)[0].name == "Z2"


class TestTargets:
    def test_dropped_entries_are_isomorphic_to_the_kept_one(self):
        kept = {iso_key(e): e for e in targets(64)}
        dropped = [e for e in catalog(64) if kept[iso_key(e)] is not e]
        assert dropped
        for entry in dropped:
            G, H = kept[iso_key(entry)].build(), entry.build()
            f = isomorphism_oracle(G, H)
            assert f is not None, entry.name
            assert sorted(f.values()) == list(H.elements())
            assert all(f[G.table[a][b]] == H.table[f[a]][f[b]]
                       for a in G.elements() for b in G.elements())

    @pytest.mark.parametrize("bound,count", [(32, 36), (64, 137)])
    def test_drops_exactly_the_oracle_twins(self, bound, count):
        names = {e.name for e in targets(bound)}
        dropped = {e.name for e in catalog(bound)} - names
        twins = catalog_twins_oracle(bound)
        assert dropped == set(twins) and len(dropped) == count
        assert set(twins.values()) <= names

    def test_smaller_bounds_and_primes_are_prefixes_and_filters(self):
        full = list(targets(128))
        for n in (1, 2, 12, 32, 48, 64, 100, 128):
            assert list(targets(n)) == full[:len(list(targets(n)))]
            assert list(targets(n)) == [e for e in full if e.order <= n]
            for p in (2, 3, 5):
                assert list(targets(n, p)) == [e for e in targets(n) if is_p_power(e.order, p)]

    def test_keys_are_computed_on_demand(self):
        code = ("import amalgsep.cli\n"
                "from amalgsep import catalog\n"
                "assert not catalog._SCANNED\n"
                "scan = catalog.targets(256)\n"
                "print([next(scan).name for _ in range(3)], len(catalog._SCANNED))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "['Z2', 'Z3', 'Z4'] 3"


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
            got = list(scan_gen_images(2, T, basis, chunks))
            want = []
            for images in itertools.product(T.elements(), repeat=2):
                him = evaluate_oracle(T, images, basis[0])
                hsub = closure_oracle(T, [him])
                if all(evaluate_oracle(T, images, c) not in hsub for c in chunks):
                    want.append((images, kernel_key_oracle(T, (him,))))
            assert_leaders_of(got, want, T, 2)

    def test_distinct_yields_the_first_of_each_key(self):
        words = [parse_word("a^2", ["a"])]
        for entry in catalog(16):
            T = entry.build()
            got = list(scan_gen_images(1, T, words, distinct=True))
            want, seen = [], set()
            for x in T.elements():
                key = kernel_key_oracle(T, (T.table[x][x],))
                if key not in seen:
                    seen.add(key)
                    want.append(((x,), key))
            assert got == want

    @pytest.mark.parametrize("rank,bound", [(1, 24), (2, 24), (3, 8)])
    def test_leaders_match_the_full_product(self, rank, bound):
        rng = random.Random(rank)

        def word():
            return reduce_word([(rng.randrange(rank), rng.choice((1, -1)))
                                for _ in range(rng.randint(1, 4))])

        for entry, _ in itertools.product(targets(bound), range(2)):
            basis = [word() for _ in range(rng.randint(1, 2))]
            chunks = [word() for _ in range(rng.randint(0, 2))]
            _assert_scan_matches_full_product(rank, entry.build(), basis, chunks)

    # Bases in which b has exponent sum 0, so a distinct scan takes one
    # image of b per centre coset, and at rank 3 one c per coset when c is
    # absent; the chunks' sums of a, b or c are nonzero. Random words
    # rarely have a zero sum.
    @pytest.mark.parametrize("rank,bound,chunk_sets", [
        (2, 24, [[], ["b"], ["a b^2"]]),
        (3, 8, [[], ["b"], ["c", "b c^-1"]])])
    @pytest.mark.parametrize("basis", ["b^-1 a b", "b a b^-1", "b^-1 a^2 b", "a b a^-1 b^-1"])
    def test_zero_sum_bases_match_the_full_product(self, rank, bound, chunk_sets, basis):
        names = ["a", "b", "c"][:rank]
        for entry, chunks in itertools.product(targets(bound), chunk_sets):
            _assert_scan_matches_full_product(
                rank, entry.build(), [parse_word(basis, names)],
                [parse_word(w, names) for w in chunks])

    @pytest.mark.parametrize("name,bound,lookups", [("doubling", 24, 1302), ("rank2", 8, 187)])
    def test_class_scans_evaluate_one_image_per_centre_coset(self, monkeypatch, name, bound,
                                                             lookups):
        # b and d have exponent sum 0 in the doubling bases, and b in
        # a b a b^-1 (c^2 d^2 has none). Without the centre cut the scans
        # evaluate 3,696 and 272 assignments, one walk lookup each.
        desc = _doubling(1, 1) if name == "doubling" else _rank2()
        reads = spy_calls(monkeypatch, freegrp, "_labelled_walk")
        enumerate_free_compatible_classes(desc, bound)
        assert len(reads) == lookups

    def test_an_unchecked_non_automorphism_loses_kernels(self, monkeypatch):
        # D6 given the candidate r -> r^2, s -> s (2 is not a unit mod 6).
        # The check drops it; with the check patched out, the scan prunes
        # by it and misses kernels that the full product has.
        D6 = next(e for e in targets(12) if e.name == "D6").build()
        candidates = D6.automorphism_candidates + ((2, 6),)
        basis = [((0, 1),), ((1, 1),)]
        _assert_scan_matches_full_product(2, with_candidates(D6, candidates), basis, [])
        monkeypatch.setattr(fingrp, "_is_automorphism", lambda G, f: True)
        with pytest.raises(AssertionError):
            _assert_scan_matches_full_product(2, with_candidates(D6, candidates), basis, [])


def _assert_scan_matches_full_product(rank, T, basis, chunks):
    """``scan_gen_images`` on T keeps the first assignment of every kernel
    of the full product, and with ``distinct`` yields what it yields."""
    for distinct in (False, True):
        got = list(scan_gen_images(rank, T, basis, chunks, distinct))
        want = list(scan_gen_images_oracle(rank, T, basis, chunks, distinct))
        if distinct:
            assert got == want
        else:
            assert_leaders_of(got, want, T, rank)


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
# power-collision filter), run their scan through the whole catalog; for
# h = a^-3 b^-1 the first pair keeping h outside <g> collides.
PAIR_QUERIES = [
    (PC2, "A:a B:b A:a B:b^33", "A:a B:b", "p", 2, 48),
    (PC2, "A:a B:b A:a B:b^17", "A:a B:b", "p", 2, 16),
    (PC2, "A:a B:b A:a B:b^17", "A:a B:b", "plain", None, 16),
    (PC2, "A:a B:b^7", "A:a B:b A:a B:b A:a B:b A:a^2", "p", 2, 48),
    (PC2, "B:b", "A:a^2", "plain", None, 48),
    (PC2, "A:a^3 B:b", "A:a B:b^-1", "plain", None, 16),
    (PC2, "A:a B:b", "A:a B:b A:a B:b A:a B:b", "p", 2, 16),
    (PC2, "A:a^-3 B:b^-1", "A:a B:b A:a B:b A:a B:b", "p", 2, 48),
    (PC3, "A:a^2 B:b", "A:a B:b", "plain", None, 48),
    (PC3, "A:a B:b^2 A:a", "A:a^-1 B:b", "p", 3, 48),
    (PC3, "B:b^3", "A:a^6", "p", 3, 27),
    (_rank2(), "A:a B:d", "A:b B:c", "plain", None, 16),
    (_rank2(), "A:a^2 B:c B:d", "A:a B:c", "plain", None, 16),
]


def _first_pair(desc, a_chunks, b_chunks, p, bound, accept=None):
    """The text of the first pair ``_free_pair_scan`` yields whose quotient
    passes ``accept`` and, in p-mode, is residually p, or None."""
    return next((text for text, qa in engine._free_pair_scan(desc, a_chunks, b_chunks, p, bound)
                 if (accept is None or accept(qa))
                 and (p is None or compat.presentation_residually_p(qa.presentation, p))), None)


class TestFreePairScan:
    @staticmethod
    def _oracle_pairs(desc, h, g, p, bound):
        """The oracle's first pair texts (or None) under no filter, with h
        outside <g>, and with h outside and h^n' apart from g^k and g^-k,
        where n' is the p'-part of n = l(g) and k = l(h) n' / n (p-mode,
        n >= 2 and k whole; else the third is the second)."""
        g_red, h_trans = free_query_forms(desc, _letters(desc, h), _letters(desc, g))
        chunks = g_red.syllables + h_trans.syllables
        h_letters, g_letters = h_trans.letters(), g_red.letters()
        scan = ([w for s, w in chunks if s == "A"], [w for s, w in chunks if s == "B"],
                p, bound)
        n, m = amalgam.syllable_length(g_red), amalgam.syllable_length(h_trans)
        n_prime = n
        while p is not None and n_prime and n_prime % p == 0:
            n_prime //= p

        def outside(qa):
            return not amalgam.cyclic_member(qa.project(h_letters),
                                             qa.project(g_letters)).is_member

        def apart(qa):
            if p is None or n < 2 or m * n_prime % n:
                return outside(qa)
            hn = amalgam.power(qa.project(h_letters), n_prime)
            gk = amalgam.power(qa.project(g_letters), m * n_prime // n)
            return outside(qa) and hn != gk and hn != amalgam.invert(gk)

        texts = [free_pair_scan_oracle(desc, *scan, accept=f) for f in (None, outside, apart)]
        return n, [t and t[0] for t in texts]

    def test_first_pair_matches_oracle(self):
        # An accepted pair names the report; else the first pair keeping h
        # outside <g> (which collided), else the first length-preserving
        # one, except that a generator of length 0 names none.
        named_first = 0
        for desc, h, g, mode, p, bound in PAIR_QUERIES:
            rep = engine.separate_from_cyclic(desc, _letters(desc, h), _letters(desc, g),
                                              mode=mode, p=p, max_order=32, pair_bound=bound)
            n, (first, outside, accepted) = self._oracle_pairs(desc, h, g, p, bound)
            if accepted is not None:
                assert rep.outcome != "member" and rep.pair_desc == accepted, (h, g)
            else:
                assert rep.reason == "bound_exhausted", (h, g)
                assert rep.pair_desc == (None if n == 0 else outside or first), (h, g)
                named_first += outside is None and first is not None
        # Some scans pass no pair, so their first length-preserving pair
        # names the report.
        assert named_first

    def test_each_query_scans_the_pairs_once(self, monkeypatch):
        scans = spy_calls(monkeypatch, engine, "_free_pair_scan")
        for desc, h, g, mode, p, bound in PAIR_QUERIES:
            del scans[:]
            engine.separate_from_cyclic(desc, _letters(desc, h), _letters(desc, g),
                                        mode=mode, p=p, max_order=32, pair_bound=bound)
            assert len(scans) == 1, (h, g)

    @pytest.mark.parametrize("desc,orders", [
        (PC2, (6, 3)), (PC2, (3, 6)), (PC2, (9, 9)), (PC3, (6, 2)), (PC3, (4, 4)),
        (_rank2(), (6, 3)), (_rank2(), (8, 4))])
    def test_first_pair_under_invariant_filters(self, desc, orders):
        # The orders of the two quotient factors are isomorphism invariants
        # that single out pairs lying after many rejected ones, some with
        # the same restriction kernels but other kernels.
        def accept(qa):
            return (qa.presentation.A.order, qa.presentation.B.order) == orders

        got = _first_pair(desc, [], [], None, 16, accept)
        want = free_pair_scan_oracle(desc, [], [], None, 16, accept=accept)
        assert want is not None
        assert got == want[0]

    @pytest.mark.parametrize("desc,a_chunks,b_chunks,p", [
        (PC2, [], [], None), (PC2, ["a"], ["b^2"], None), (PC2, [], [], 2),
        (PC2, ["a"], ["b"], 2),
        (PC3, [], [], None), (PC3, ["a^2"], ["b"], None), (PC3, [], [], 3),
        (PC3, ["a"], ["b"], 3),
        (_rank2(), [], [], None), (_rank2(), ["a", "b^2"], ["c", "d"], None),
        (_rank2(), [], [], 2), (_rank2(), ["b"], ["c d"], 2),
        (_doubling(1, 1), [], [], None), (_doubling(1, 1), ["b"], ["d", "c d"], None),
        (_doubling(1, 1), [], [], 2), (_doubling(1, 1), ["a b"], ["d"], 2)])
    def test_leaders_give_the_full_product_pair(self, monkeypatch, desc, a_chunks, b_chunks, p):
        # Isomorphism-invariant filters that pass pairs deep in the scan,
        # some on nonabelian targets, and one that passes nothing, so each
        # scan also runs to its bound.
        def abelian(G):
            return all(G.table[x][y] == G.table[y][x] for x in G.elements() for y in G.elements())

        a_chunks = [parse_word(w, desc.gen_names_a) for w in a_chunks]
        b_chunks = [parse_word(w, desc.gen_names_b) for w in b_chunks]
        accepts = [None,
                   lambda qa: (qa.presentation.A.order, qa.presentation.B.order) in ((6, 3), (4, 8)),
                   lambda qa: (not abelian(qa.presentation.A)
                               and qa.presentation.A.order != qa.presentation.B.order),
                   lambda qa: qa.presentation.H.order == 4 and qa.presentation.A.order > 4,
                   lambda qa: False]
        got = [_first_pair(desc, a_chunks, b_chunks, p, 16, f) for f in accepts]
        monkeypatch.setattr(engine, "scan_gen_images", scan_gen_images_oracle)
        want = [_first_pair(desc, a_chunks, b_chunks, p, 16, f) for f in accepts]
        assert got == want
        assert got[-1] is None


# The slow path swaps the class scan for a loop over the whole catalog.
# Every filter of the three scanners is an isomorphism invariant and the
# kept entry precedes its twins, so each scan must give the same result.

FINITE_AMALGAMS = [("Z4", "Z4", 2), ("D4", "Z8", 2), ("Z2xZ4", "D4", 4), ("Z4", "D3", 2),
                   ("Z9", "Z9", 3), ("D3", "Z6", 3), ("Z3xZ3", "Z9", 3), ("D4", "D4", 2),
                   ("Z3xZ9", "MC(9,4,3)", 9)]


def _finite_amalgam(name_a, name_b, d):
    """Two catalog groups glued along the first elements of order d."""
    A, B = (next(e for e in catalog(32) if e.name == n).build() for n in (name_a, name_b))
    x, y = A.element_orders.index(d), B.element_orders.index(d)
    phi, hx, ky = {}, 0, 0
    for _ in range(d):
        phi[hx] = ky
        hx, ky = A.table[hx][x], B.table[ky][y]
    return build_amalgam(A, B, subgroup_generated(A, [x]), subgroup_generated(B, [y]), phi)


def _finite_word(pres, rng):
    """Alternating letters outside the amalgamated subgroups."""
    side, out = rng.choice("AB"), []
    for _ in range(rng.randint(1, 3)):
        factor, sub = (pres.A, pres.H) if side == "A" else (pres.B, pres.K)
        out.append((side, rng.choice([x for x in factor.elements() if x not in sub.members])))
        side = "B" if side == "A" else "A"
    return out


def _finite_queries(rng):
    for name_a, name_b, d in FINITE_AMALGAMS:
        pres = _finite_amalgam(name_a, name_b, d)
        for mode, p in (("plain", None), ("p", 2), ("p", 3)):
            for _ in range(8):
                yield (pres, _finite_word(pres, rng), _finite_word(pres, rng), mode, p, 32)


def _free_text(desc, rng):
    syllables = []
    side = rng.choice("AB")
    for _ in range(rng.randint(1, 3)):
        names = desc.gen_names_a if side == "A" else desc.gen_names_b
        syllables.append(f"{side}:{rng.choice(names)}^{rng.choice([-2, -1, 1, 2, 3])}")
        side = "B" if side == "A" else "A"
    return _letters(desc, " ".join(syllables))


def _free_queries(rng):
    # h = g^2 b^16 lies outside <g>, and every pair up to order 32 keeps
    # it inside: its pair scans run through the whole catalog.
    for mode, p in (("plain", None), ("p", 2)):
        yield (PC2, _letters(PC2, "A:a B:b A:a B:b^17"), _letters(PC2, "A:a B:b"),
               mode, p, 32, 32)
    for desc, mode, p in ((PC2, "plain", None), (PC2, "p", 2), (PC3, "plain", None),
                          (PC3, "p", 3), (_rank2(), "plain", None)):
        for _ in range(5):
            yield (desc, _free_text(desc, rng), _free_text(desc, rng), mode, p, 32, 32)


def _scan_record(monkeypatch, slow, seed):
    """What every _finish_scan call of a seeded sweep returned, every free
    report, and the free class scans, on the class scan or the slow path."""
    if slow:
        monkeypatch.setattr(engine, "targets", all_targets)
        monkeypatch.setattr(compat, "targets", all_targets)
    record = []
    finish = engine._finish_scan

    def finish_spy(*args):
        out = finish(*args)
        record.append(("finish", out.to_json()))
        return out

    monkeypatch.setattr(engine, "_finish_scan", finish_spy)
    rng = random.Random(seed)
    for query in [*_finite_queries(rng), *_free_queries(rng)]:
        try:
            out = engine.separate_from_cyclic(*query)
        except InputError as exc:  # g = 1; the same on both paths
            record.append(("error", str(exc)))
            continue
        if isinstance(query[0], FreeAmalgamDescription):
            record.append(("free", out.to_json()))
    for desc, bound, p in ((_doubling(1, 1), 24, None), (PC2, 32, 2), (PC3, 27, 3),
                           (PC3, 32, None), (_rank2(), 8, None)):
        record.append(("classes", _classes(desc, bound, p)))
    monkeypatch.undo()
    return record


@pytest.mark.parametrize("seed", [1, 2])
def test_class_scan_matches_the_full_catalog(monkeypatch, seed):
    fast = _scan_record(monkeypatch, False, seed)
    assert fast == _scan_record(monkeypatch, True, seed)
    finished = [doc for tag, doc, *_ in fast if tag == "finish"]
    for mode in ("plain", "p"):
        outcomes = {(doc["outcome"], doc.get("bound")) for doc in finished
                    if doc["query"]["mode"] == mode}
        assert ("obstructed", 32) in outcomes and any(o == "separated" for o, _ in outcomes)
    free = [doc for tag, doc in fast if tag == "free" and doc["outcome"] != "member"]
    assert {doc["query"]["prime"] is None for doc in free} == {True, False}
    # Some scans pass no pair (their reports carry a note), and some separate.
    assert any(doc.get("notes") for doc in free)
    assert any(doc["outcome"] == "separated" for doc in free)


# Direct products are decided from their members' exponent sets; the
# oracle probes every product. Each query below passes every smaller
# class up to its bound and separates only at the named product. In the
# last two, h lies in <g> in G^ab, so the abelian member is skipped and
# probed only when the product needs its exponent set.
PRODUCT_QUERIES = [
    (("D4", "Z8", 4), [("B", 5), ("A", 5), ("B", 7), ("A", 5)],
     [("A", 7), ("B", 7), ("A", 7), ("B", 5)], "plain", None, 256, "D8xD8"),
    (("Z9", "Z9", 3), [("B", 5), ("A", 8)], [("A", 5), ("B", 5)], "p", 3, 256,
     "Z9xMC(9,4,3)"),
    (("D3", "Z6", 2), [("B", 2)], [("A", 4), ("B", 1)], "plain", None, 32, "Z3xD3"),
]


def _product_queries():
    for shape, h, g, mode, p, bound, _ in PRODUCT_QUERIES:
        yield (_finite_amalgam(*shape), h, g, mode, p, bound)


def _finish_pairs(monkeypatch, queries):
    """(library report, oracle report, whether abelian targets were
    skipped, abelian probes made then) for every _finish_scan call of the
    queries."""
    finish, member, probe, pairs = engine._finish_scan, engine._abelian_member, \
        engine._probe_entry, []
    scan: dict = {}

    def member_spy(*args):
        scan["skip"] = member(*args)
        return scan["skip"]

    def probe_spy(pres, hq, gq, entry):
        if scan.get("skip") and not iso_key(entry)[1]:
            scan["late"] = scan.get("late", 0) + 1
        return probe(pres, hq, gq, entry)

    def spy(report, *args):
        want = finish_scan_oracle(copy.deepcopy(report), *args).to_json()
        scan.clear()
        got = finish(report, *args)
        pairs.append((got.to_json(), want, scan.get("skip"), scan.get("late", 0)))
        scan.clear()
        return got

    monkeypatch.setattr(engine, "_finish_scan", spy)
    monkeypatch.setattr(engine, "_abelian_member", member_spy)
    monkeypatch.setattr(engine, "_probe_entry", probe_spy)
    for query in queries:
        try:
            engine.separate_from_cyclic(*query)
        except InputError:  # g = 1
            pass
    return pairs


@pytest.mark.parametrize("reps", ["kept", "shuffled"])
def test_products_decided_by_exponents_match_probing_them(monkeypatch, reps):
    if reps == "shuffled":
        # A product whose member is not the entry probed for its class
        # needs the twin lookup by isomorphism key.
        scan = shuffled_targets(5)
        chosen = {iso_key(e): e for e in scan(32)}
        assert any(chosen[iso_key(m)] != m
                   for e in chosen.values() if member_keys(e)
                   for m in catalog(32) if m.key() in e.params)
        monkeypatch.setattr(engine, "targets", scan)
    rng = random.Random(4)
    free = [q for q in _free_queries(rng) if q[0] is PC2][:8]
    products = list(_product_queries()) if reps == "kept" else []
    pairs = _finish_pairs(monkeypatch, [*products, *_finite_queries(rng), *free])
    for got, want, _, _ in pairs:
        assert got == want
    docs = [got for got, *_ in pairs]
    if products:
        assert [d["certificate"]["target"] for d in docs[:len(products)]] == \
            [q[-1] for q in PRODUCT_QUERIES]
    modes = {(d["query"]["mode"], d["outcome"], d.get("bound")) for d in docs}
    assert {("plain", "obstructed", 32), ("p", "obstructed", 32)} <= modes
    assert any(d["query"]["g"].startswith("A:((") for d in docs)  # a free query
    # Abelian targets were skipped in both modes, on finite and free
    # scans, and there products probed an abelian member for its exponents.
    late: dict[tuple, int] = {}
    for d, _, skip, n in pairs:
        if skip:
            kind = (d["query"]["mode"], d["query"]["g"].startswith("A:(("))
            late[kind] = late.get(kind, 0) + n
    assert set(late) == {(mode, free) for mode in ("plain", "p") for free in (False, True)}
    if products:
        assert all(late.values())


def test_scans_build_only_the_products_that_separate(monkeypatch):
    """A finite sweep at bound 32 builds the table of no product target
    but the ones it certifies onto: the rest are decided without one."""
    queries = list(_finite_queries(random.Random(6)))  # factor tables built here
    monkeypatch.setattr(catalog_module, "_BUILD_CACHE", {})
    docs = []
    for query in queries:
        try:
            docs.append(engine.separate_from_cyclic(*query).to_json())
        except InputError:
            pass
    products = {e.name for e in catalog(32) if member_keys(e)}
    built = products & set(catalog_module._BUILD_CACHE)
    certified = {d["certificate"]["target"] for d in docs if d["outcome"] == "separated"}
    assert built <= certified
    # Exhausted scans passed every product class up to the bound.
    assert sum(d.get("reason") == "bound_exhausted" for d in docs) >= 10


def test_probe_exponent_sets_match_every_glued_hom():
    """The exponent set ``_probe_entry`` returns, from the orbit leaders and
    probes it tried, is that of every glued homomorphism, the S-invariance
    the product rule rests on; it is empty when the entry separates."""
    failed = separated = 0
    for pres, h_letters, g_letters, _, p, _ in _finite_queries(random.Random(5)):
        h, g = normalize(pres, h_letters), normalize(pres, g_letters)
        for entry in targets(16, p):
            hom, spectrum = engine._probe_entry(pres, h, g, entry)
            if hom is None:
                assert spectrum == exponent_set_oracle(pres, h, g, entry.build()), entry.name
                failed += 1
            else:
                assert spectrum == set(), entry.name
                separated += 1
    assert failed and separated


def test_abelianization_leaves_fewer_abelian_probes(monkeypatch):
    """Abelian-target probes on a fixed finite sweep at bound 32, with the
    abelianization test and with ``_abelian_member`` always False, which
    probes every abelian target as the scan did without it. The reports
    are the same; the count is deterministic."""
    probe, member = engine._probe_entry, engine._abelian_member

    def sweep(skip: bool) -> tuple[int, list]:
        count = 0

        def spy(pres, hq, gq, entry):
            nonlocal count
            count += not iso_key(entry)[1]
            return probe(pres, hq, gq, entry)

        monkeypatch.setattr(engine, "_probe_entry", spy)
        monkeypatch.setattr(engine, "_abelian_member", member if skip else lambda *a: False)
        docs = []
        for query in _finite_queries(random.Random(6)):
            try:
                docs.append(engine.separate_from_cyclic(*query).to_json())
            except InputError:
                pass
        return count, docs

    (fewer, docs), (every, want) = sweep(True), sweep(False)
    assert docs == want
    assert (fewer, every) == (170, 378)


def test_probe_lists_build_fewer_maps(monkeypatch):
    """Factor homomorphisms built over a fixed finite sweep at bound 32,
    with the probe lists restricted and with ``_factor_homs`` ignoring the
    restriction, which lists every map. Each sweep builds its factors
    afresh and gets cold targets, so the counts are deterministic; the
    reports are the same."""
    factor_homs = engine._factor_homs

    def sweep(restrict: bool) -> tuple[int, list]:
        built = 0

        def spy(G, T, only=None):
            nonlocal built
            out = factor_homs(G, T, only if restrict else None)
            built += len(out)
            return out

        cold_catalog(monkeypatch)
        monkeypatch.setattr(engine, "_factor_homs", spy)
        docs = []
        for query in _finite_queries(random.Random(6)):
            try:
                docs.append(engine.separate_from_cyclic(*query).to_json())
            except InputError:
                pass
        return built, docs

    (fewer, docs), (every, want) = sweep(True), sweep(False)
    assert docs == want
    assert (fewer, every) == (576, 1214)


def _in_factor_queries(rng):
    """Per amalgam and mode, g one letter and h one element of g's factor,
    in the amalgamated subgroup or not."""
    for name_a, name_b, d in FINITE_AMALGAMS:
        pres = _finite_amalgam(name_a, name_b, d)
        for mode, p in (("plain", None), ("p", 2), ("p", 3)):
            for _ in range(4):
                side = rng.choice("AB")
                factor = pres.factor(side)
                yield (pres, [(side, rng.randrange(factor.order))],
                       [(side, rng.randrange(1, factor.order))], mode, p, 32)


@pytest.mark.parametrize("seed", [5, 6])
def test_short_generators_match_the_quotient_path(seed):
    """A query whose generator has length <= 1 once cyclically reduced is
    scanned on the presentation itself. Its report equals the scan on the
    quotient by the first compatible pair that keeps h outside <g>R in g's
    factor (``in_factor_scan_oracle``), and that pair is always the
    trivial one: h lies outside <g>, and the trivial pair comes first."""
    chosen = {"plain": 0, "p": 0}
    rng = random.Random(seed)
    for pres, h, g, mode, p, bound in [*_finite_queries(rng), *_in_factor_queries(rng)]:
        want = in_factor_scan_oracle(pres, h, g, mode, p, bound)
        if want is None:
            continue
        doc, pair = want
        assert engine.separate_from_cyclic(pres, h, g, mode, p, bound).to_json() == doc
        if pair is not None:
            assert pair.r_side.order == pair.s_side.order == 1
            assert engine.IN_FACTOR_PAIR == f" -> factor pair {pair.key()}"
            chosen[mode] += 1
    assert min(chosen.values()) >= 10, chosen
