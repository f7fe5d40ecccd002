"""Shared fixtures and independent oracle helpers.

The oracles here deliberately avoid the library's own search paths:
subgroups are enumerated by closure growth, chains by exhaustive
recursion, and amalgam elements of a given length by direct construction
of all normal forms.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from importlib import resources
from math import gcd

import jsonschema
import pytest

from amalgsep import amalgam as am
from amalgsep import catalog as catalog_module
from amalgsep import engine
from amalgsep.amalgam import AmalgamElement, AmalgamPresentation, build_amalgam, normalize
from amalgsep.catalog import (
    CYCLIC_MAX,
    DIHEDRAL_MAX,
    METACYCLIC_M_MAX,
    SYMMETRIC_MAX,
    CatalogEntry,
    _mult_order,
    cyclic_group,
    dihedral_group,
    direct_product,
    iso_key,
    metacyclic_group,
    symmetric_group,
)
from amalgsep.compat import (
    build_free_quotient_amalgam,
    build_quotient_amalgam,
    enumerate_compatible_pairs,
    presentation_residually_p,
)
from amalgsep.fingrp import (
    FiniteGroup,
    Subgroup,
    construct_group,
    default_names,
    enumerate_normal_subgroups,
    is_p_power,
    product_set,
    subgroup_generated,
)
from amalgsep.freegrp import (
    GenImages,
    reduce_word,
    word_mul,
    word_pow,
    word_power_exponent,
)


def spy_calls(monkeypatch, module, name) -> list[tuple]:
    """The argument tuples of every call of ``module.<name>`` from now on."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def cold_group(G: FiniteGroup) -> FiniteGroup:
    """A group equal to G with none of G's derived data cached yet: G
    rebuilt from its fields, by ``Record.__reduce__``."""
    cls, args = G.__reduce__()
    return cls(*args)


def cold_catalog(monkeypatch) -> None:
    """Until the test ends, ``CatalogEntry.build`` hands out cold groups:
    each table built so far is swapped for its ``cold_group``, and any
    other is built afresh. Work counted on catalog groups then does not
    depend on which tests ran before in the same process."""
    monkeypatch.setattr(catalog_module, "_BUILD_CACHE", {
        name: cold_group(G) for name, G in catalog_module._BUILD_CACHE.items()})


def cold_presentation(pres: AmalgamPresentation) -> AmalgamPresentation:
    """A presentation equal to ``pres`` on ``cold_group`` copies of its
    factors, so nothing derived from either is cached yet."""
    A, B = cold_group(pres.A), cold_group(pres.B)
    return build_amalgam(A, B, Subgroup(A, pres.H.members), Subgroup(B, pres.K.members),
                         dict(pres.phi))


def quotient_view(qa, letter_lists) -> tuple:
    """A quotient amalgam by value: its factor tables and names, its
    amalgamated subgroups and gluing, and the normal forms it projects
    each letter list to. A memoized quotient and a fresh build of the
    same pair agree on it."""
    q = qa.presentation
    forms = [(x.core, x.syllables) for x in map(qa.project, letter_lists)]
    return (q.A.table, q.A.names, q.B.table, q.B.names, q.H.members, q.K.members, q.phi,
            forms)


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


@pytest.fixture(scope="session")
def z4a():
    return construct_group(cyclic_table(4), ["e", "a", "a2", "a3"])


@pytest.fixture(scope="session")
def z4b():
    return construct_group(cyclic_table(4), ["e", "b", "b2", "b3"])


@pytest.fixture(scope="session")
def s3():
    """S3 built from permutation composition (independent of the catalog)."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    return construct_group(table)


@pytest.fixture(scope="session")
def g2(z4a, z4b):
    """The order-4 cyclic amalgam: Z4 * Z4 glued along the squares."""
    H = subgroup_generated(z4a, [2])
    K = subgroup_generated(z4b, [2])
    return build_amalgam(z4a, z4b, H, K, {0: 0, 2: 2})


@pytest.fixture(scope="session")
def z9_amalgam():
    z9a = construct_group(cyclic_table(9), ["e"] + [f"a{i}" for i in range(1, 9)])
    z9b = construct_group(cyclic_table(9), ["e"] + [f"b{i}" for i in range(1, 9)])
    H = subgroup_generated(z9a, [3])
    K = subgroup_generated(z9b, [3])
    return build_amalgam(z9a, z9b, H, K, {0: 0, 3: 3, 6: 6})


def relabeled(G: FiniteGroup, seed) -> tuple[FiniteGroup, list[int]]:
    """An isomorphic copy of G under a seeded random permutation of its
    elements that fixes 0, drawn as ``benchmark/groups.relabel`` draws it,
    with ``perm[old] = new``."""
    n = G.order
    perm = [0] + random.Random(seed).sample(range(1, n), n - 1)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    return construct_group([[perm[G.table[inv[i]][inv[j]]] for j in range(n)]
                            for i in range(n)]), perm


def with_candidates(G: FiniteGroup, candidates) -> FiniteGroup:
    """A new group with G's table and ``family_generators`` but the given
    ``automorphism_candidates``; it equals G."""
    return FiniteGroup(G.order, G.table, G.inverse, G.names, G.family_generators,
                       tuple(candidates))


def relabeled_amalgam(pres: AmalgamPresentation, seed) -> AmalgamPresentation:
    """The amalgam carried over to ``relabeled`` copies of both factors."""
    A, pa = relabeled(pres.A, f"A:{seed}")
    B, pb = relabeled(pres.B, f"B:{seed}")
    return build_amalgam(A, B, Subgroup(A, frozenset(pa[h] for h in pres.H.members)),
                         Subgroup(B, frozenset(pb[k] for k in pres.K.members)),
                         {pa[h]: pb[k] for h, k in pres.phi.items()})


# ---------------------------------------------------------------------------
# Oracles


def associative_oracle(table) -> bool:
    """Whether (x y) z = x (y z) for every triple: the full O(n^3) check."""
    n = len(table)
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def reduced_latin_squares(n: int):
    """Every n x n Latin square whose first row and first column are
    0, 1, ..., n-1 (so 0 is a two-sided identity), by backtracking cell by
    cell; each is yielded as a list of row tuples."""
    sq = [[i if j == 0 else j if i == 0 else -1 for j in range(n)] for i in range(n)]
    rows = [set(r) - {-1} for r in sq]
    cols = [{r[j] for r in sq} - {-1} for j in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [tuple(r) for r in sq]
            return
        i, j = cells[k]
        for v in range(n):
            if v not in rows[i] and v not in cols[j]:
                sq[i][j] = v
                rows[i].add(v)
                cols[j].add(v)
                yield from fill(k + 1)
                rows[i].discard(v)
                cols[j].discard(v)

    yield from fill(0)


def intercalate_swapped(G: FiniteGroup, seed) -> list[list[int]] | None:
    """G's table with one seeded intercalate swapped away from row and
    column 0, or None when G has none there. For an involution t and
    elements a, b, the cells (a, b), (t a, d), with d = a^-1 t a b, hold
    u = a b, and the cells (a, d), (t a, b) hold v = a d; exchanging u and v
    keeps a Latin square with identity 0."""
    rng = random.Random(seed)
    tab, inv = G.table, G.inverse
    involutions = [t for t in G.elements() if t and tab[t][t] == 0]
    if not involutions:
        return None
    t = rng.choice(involutions)
    a_pool = [a for a in range(1, G.order) if a != t]
    if not a_pool:
        return None
    a = rng.choice(a_pool)
    c, conj = tab[t][a], tab[tab[inv[a]][t]][a]
    b = rng.choice([b for b in range(1, G.order) if b != inv[conj]])
    d = tab[conj][b]
    table = [list(row) for row in tab]
    u, v = table[a][b], table[a][d]
    table[a][b] = table[c][d] = v
    table[a][d] = table[c][b] = u
    return table


def closure_oracle(G: FiniteGroup, gens) -> frozenset[int]:
    """Least subgroup containing ``gens``: breadth-first products of the
    generators and their inverses."""
    steps = set(gens) | {G.inverse[g] for g in gens}
    members, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in steps:
            y = G.table[x][g]
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


def derived_subgroup_oracle(G: FiniteGroup) -> frozenset[int]:
    """The subgroup generated by every commutator x^-1 y^-1 x y."""
    t, inv = G.table, G.inverse
    return closure_oracle(G, {t[t[inv[x]][inv[y]]][t[x][y]]
                              for x in G.elements() for y in G.elements()})


def all_subgroups_oracle(G: FiniteGroup) -> list[frozenset[int]]:
    """Every subgroup in canonical order: the closures of single elements
    and of pairs, then closure growth by one element at a time until no
    new subgroup appears."""
    found = {}
    for x in G.elements():
        for y in G.elements():
            found.setdefault(closure_oracle(G, (x, y)), (x, y))
    frontier = list(found.items())
    while frontier:
        S, gens = frontier.pop()
        for x in G.elements():
            if x in S:
                continue
            T = closure_oracle(G, gens + (x,))
            if T not in found:
                found[T] = gens + (x,)
                frontier.append((T, gens + (x,)))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def is_normal_oracle(G: FiniteGroup, members: frozenset[int]) -> bool:
    """Normality by conjugation with every element of G."""
    return all(G.conjugate(x, g) in members for x in members for g in G.elements())


def normal_subgroups_oracle(G: FiniteGroup) -> list[frozenset[int]]:
    return [ms for ms in all_subgroups_oracle(G) if is_normal_oracle(G, ms)]


def conjugacy_classes_oracle(G: FiniteGroup) -> list[frozenset[int]]:
    """Conjugacy classes by conjugation with every element, sorted by
    (size, least member)."""
    classes = {frozenset(G.conjugate(x, g) for g in G.elements()) for x in G.elements()}
    return sorted(classes, key=lambda c: (len(c), min(c)))


def chain_families_oracle(G: FiniteGroup, R: Subgroup, H: Subgroup, p: int) -> dict:
    """Every intersection-set family {link n H} over chains R < ... < G of
    normal subgroups with index-p steps, each with its first witness
    chain: the search ``compat`` ran for every pair before it memoized
    families on the presentation."""
    if not is_p_power(G.order // R.order, p):
        return {}
    normals = [N.members for N in enumerate_normal_subgroups(G)
               if R.members <= N.members]
    top = frozenset(G.elements())
    families: dict[frozenset, tuple] = {}
    seen_states = set()

    def ascend(cur: frozenset, chain: tuple, fam: frozenset) -> None:
        state = (cur, fam)
        if state in seen_states:
            return
        seen_states.add(state)
        if cur == top:
            if fam not in families:
                families[fam] = chain
            return
        want = len(cur) * p
        for N in normals:
            if len(N) == want and cur < N:
                ascend(N, chain + (N,), fam | {frozenset(N & H.members)})

    ascend(R.members, (R.members,), frozenset({frozenset(R.members & H.members)}))
    return families


def p_compatible_oracle(pres: AmalgamPresentation, fams_a: dict, fams_b: dict):
    """(chain_a, chain_b, matching) as member tuples for a p-compatible
    pair, else None, from the pair's ``chain_families_oracle`` families on
    each side, matched under phi in sorted order of the A-side family."""
    if not fams_a or not fams_b:
        return None
    for fam_a in sorted(fams_a, key=lambda fam: sorted(tuple(sorted(s)) for s in fam)):
        phi_fam = frozenset(frozenset(pres.phi[x] for x in s) for s in fam_a)
        if phi_fam in fams_b:
            matching = tuple(sorted((tuple(sorted(s)), tuple(sorted(pres.phi[x] for x in s)))
                                    for s in fam_a))
            return (tuple(fams_a[fam_a]), tuple(fams_b[phi_fam]), matching)
    return None


def p_pairs_oracle(pres: AmalgamPresentation, mode: str, p=None) -> list[tuple]:
    """The compatible ('plain') or p-compatible ('p') pairs as the
    all-pairs scan over N(A) x N(B) finds them, each pair tested from
    scratch: (R members, S members, certificate or None) in scan order.
    Each side's families are built from scratch too, once per subgroup."""
    normals_a = enumerate_normal_subgroups(pres.A)
    normals_b = enumerate_normal_subgroups(pres.B)
    if mode == "p":
        fams_a = [chain_families_oracle(pres.A, R, pres.H, p) for R in normals_a]
        fams_b = [chain_families_oracle(pres.B, S, pres.K, p) for S in normals_b]
    out = []
    for i, R in enumerate(normals_a):
        for j, S in enumerate(normals_b):
            if mode == "plain":
                image = {pres.phi[x] for x in R.members & pres.H.members}
                if image == S.members & pres.K.members:
                    out.append((R.members, S.members, None))
            else:
                cert = p_compatible_oracle(pres, fams_a[i], fams_b[j])
                if cert is not None:
                    out.append((R.members, S.members, cert))
    return out


def family_verdict_oracle(G: FiniteGroup, g: int, pairs: list[tuple]):
    """(verdict, certifying element, {excluded x: first separating R})
    for side A from ``p_pairs_oracle`` pairs: x is excluded by R when it
    lies outside the product set <g>R."""
    cyc = closure_oracle(G, [g])
    members = list(dict.fromkeys(R for R, _, _ in pairs))
    witnesses = {}
    for x in G.elements():
        if x in cyc:
            continue
        hit = next((R for R in members
                    if x not in {G.table[c][r] for c in cyc for r in R}), None)
        if hit is None:
            return ("not_separated", x, None)
        witnesses[x] = hit
    return ("separable", None, witnesses)


def nonidentity_reps(pres: AmalgamPresentation, side: str) -> list[int]:
    trans = pres.transversal_a if side == "A" else pres.transversal_b
    return sorted(set(trans) - {0})


def elements_of_length(pres: AmalgamPresentation, n: int) -> list[AmalgamElement]:
    """All normal forms with exactly n syllables, built directly."""
    cores = sorted(pres.H.members)
    if n == 0:
        return [AmalgamElement(pres, c, ()) for c in cores]
    out = []
    for start in ("A", "B"):
        sides = [start if i % 2 == 0 else ("B" if start == "A" else "A")
                 for i in range(n)]
        pools = [nonidentity_reps(pres, s) for s in sides]
        for combo in itertools.product(*pools):
            syls = tuple(zip(sides, combo))
            for c in cores:
                out.append(AmalgamElement(pres, c, syls))
    return out


def elements_up_to_length(pres, n):
    out = []
    for k in range(n + 1):
        out.extend(elements_of_length(pres, k))
    return out


def generating_set_oracle(G: FiniteGroup) -> tuple[int, ...]:
    """Generators picked in index order, each outside the closure of the
    ones before it."""
    gens: tuple[int, ...] = ()
    span = closure_oracle(G, gens)
    for x in G.elements():
        if x not in span:
            gens += (x,)
            span = closure_oracle(G, gens)
    return gens


def homs_oracle(G: FiniteGroup, T: FiniteGroup) -> list[tuple[int, ...]]:
    """All homomorphisms G -> T as sorted mapping tuples, by brute force:
    every tuple of images of ``generating_set_oracle(G)`` whose orders
    divide the generators' orders is spread over G along words in the
    generators, and the map is kept when it is multiplicative on all
    |G|^2 pairs."""
    gens = generating_set_oracle(G)
    words = {0: ()}
    frontier = [0]
    while frontier:
        x = frontier.pop(0)
        for i, g in enumerate(gens):
            y = G.table[x][g]
            if y not in words:
                words[y] = words[x] + (i,)
                frontier.append(y)
    pools = [[t for t in T.elements() if G.element_order(g) % T.element_order(t) == 0]
             for g in gens]
    out = []
    for images in itertools.product(*pools):
        mapping = []
        for x in G.elements():
            acc = 0
            for i in words[x]:
                acc = T.table[acc][images[i]]
            mapping.append(acc)
        if all(mapping[G.table[a][b]] == T.table[mapping[a]][mapping[b]]
               for a in G.elements() for b in G.elements()):
            out.append(tuple(mapping))
    return sorted(out)


def symmetry_group_oracle(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Every map in the group S of the leader scans, listed by element: the
    closure of the identity map under composition with the generators
    ``G._symmetries()`` returns (in a finite group every element is a
    positive word in generators)."""
    gens = [tuple(s) for s in G._symmetries()]
    ident = tuple(G.elements())
    seen, out = {ident}, [ident]
    for f in out:                       # grows while it is walked
        for s in gens:
            h = tuple([s[x] for x in f])
            if h not in seen:
                seen.add(h)
                out.append(h)
    return out


def automorphisms_oracle(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Aut(G), by brute force: the bijective maps among ``homs_oracle(G, G)``."""
    return [f for f in homs_oracle(G, G) if len(set(f)) == G.order]


def leaders_oracle(G: FiniteGroup, maps) -> tuple[tuple, tuple]:
    """The elements x with s(x) >= x for every listed map s, and the pairs
    least in their diagonal orbit under the maps (which must be a group),
    as ``(x, ys)`` like ``FiniteGroup.pair_leaders``: pairs are visited in
    ascending order, and one no earlier orbit reached leads a new orbit,
    all of whose pairs are marked."""
    els = G.elements()
    elements = tuple(x for x in els if min(s[x] for s in maps) == x)
    marked, pairs = set(), {}
    for x, y in itertools.product(els, repeat=2):
        if (x, y) not in marked:
            pairs.setdefault(x, []).append(y)
            marked.update((s[x], s[y]) for s in maps)
    return elements, tuple((x, tuple(ys)) for x, ys in pairs.items())


def first_separating_hom_oracle(homs, h, g):
    """The first of ``homs`` (glued homomorphisms, in their given order)
    that sends h outside the cyclic subgroup of g's image, by listing that
    subgroup as powers; None if there is none."""
    for hom in homs:
        T = hom.target
        tg = hom.apply(g)
        powers, x = {0}, tg
        while x != 0:
            powers.add(x)
            x = T.table[x][tg]
        if hom.apply(h) not in powers:
            return hom
    return None


def exponent_set_oracle(pres: AmalgamPresentation, h, g, T: FiniteGroup) -> set:
    """{(order of theta(g), k) : theta(h) = theta(g)^k} over every glued
    homomorphism theta into T, from the unrestricted factor lists, with k
    found by listing the powers of theta(g)."""
    out = set()
    for ma, bucket in engine._glue(pres, engine._factor_homs(pres.A, T),
                                   engine._factor_homs(pres.B, T)):
        for mb in bucket:
            hom = engine.GluedHom(T, "", ma, mb)
            th, tg = hom.apply(h), hom.apply(g)
            powers = [0]
            while (x := T.table[powers[-1]][tg]) != 0:
                powers.append(x)
            if th in powers:
                out.add((len(powers), powers.index(th)))
    return out


def evaluate_oracle(T: FiniteGroup, images, word) -> int:
    """The image of a free word under the generator images, letter by letter."""
    acc = 0
    for gen, sign in word:
        x = images[gen] if sign > 0 else T.inverse[images[gen]]
        acc = T.table[acc][x]
    return acc


def kernel_key_oracle(T: FiniteGroup, images) -> tuple:
    """The kernel fingerprint as first written: a breadth-first walk of the
    image group from a FIFO queue, then the table relabelled by discovery
    order."""
    step = list(images) + [T.inverse[g] for g in images]
    label = {0: 0}
    order_seen = [0]
    queue = [0]
    while queue:
        a = queue.pop(0)
        for g in step:
            b = T.table[a][g]
            if b not in label:
                label[b] = len(label)
                order_seen.append(b)
                queue.append(b)
    table = tuple(tuple(label[T.table[a][g]] for g in step) for a in order_seen)
    return (len(images), table)


def induced_map_oracle(u: GenImages, v: GenImages) -> dict[int, int] | None:
    """``freegrp.induced_map`` as it was before it read the labelled walk:
    the closure of the diagonal subgroup of target(u) x target(v) generated
    by the paired generator images. The kernels are equal iff it meets both
    axis factors trivially, and then it is the graph of the map."""
    Tu, Tv = u.target, v.target
    gen_pairs = list(zip(u.images, v.images))
    gen_pairs += [(Tu.inverse[a], Tv.inverse[b]) for a, b in gen_pairs]
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        a, b = frontier.pop()
        for ga, gb in gen_pairs:
            p = (Tu.table[a][ga], Tv.table[b][gb])
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    if any((a == 0) != (b == 0) for a, b in seen):
        return None
    return dict(seen)


def _restricted_key(T, images, words):
    return kernel_key_oracle(T, [evaluate_oracle(T, images, w) for w in words])


def scan_gen_images_oracle(rank, target, basis=(), chunks=(), distinct=False):
    """``freegrp.scan_gen_images`` as it was before it skipped automorphic
    images: every assignment of ``target^rank`` in lexicographic order,
    with the same chunk filter and ``distinct`` rule, and keys and
    basis-image subgroups from the oracles in a memo of its own."""
    table, inverse = target.table, target.inverse

    def program(w):
        return [gen if sign > 0 else rank + gen for gen, sign in w]

    def value(prog, ext):
        acc = 0
        for i in prog:
            acc = table[acc][ext[i]]
        return acc

    basis_progs = [program(w) for w in basis]
    chunk_progs = [program(w) for w in chunks]
    memo = {}
    serials = {}
    seen = set()
    for images in itertools.product(range(target.order), repeat=rank):
        ext = images + tuple([inverse[x] for x in images])
        restricted = tuple([value(prog, ext) for prog in basis_progs])
        hit = memo.get(restricted)
        if hit is None:
            key = kernel_key_oracle(target, restricted)
            hit = memo[restricted] = (key, serials.setdefault(key, len(serials)),
                                      closure_oracle(target, restricted))
        key, serial, sub = hit
        if chunk_progs and any(value(prog, ext) in sub for prog in chunk_progs):
            continue
        if distinct:
            if serial in seen:
                continue
            seen.add(serial)
        yield images, key


def assert_leaders_of(got, want, T, rank):
    """``got`` is an ordered subsequence of ``want``, both lists of
    (images, restricted key), and both give the same first assignment for
    every (restricted key, kernel key) pair."""
    rest = iter(want)
    assert all(item in rest for item in got)

    def firsts(pairs):
        out = {}
        for images, key in pairs:
            out.setdefault((key, kernel_key_oracle(T, images)), images)
        return out

    assert firsts(got) == firsts(want)


def free_classes_oracle(desc, bound: int, p=None) -> list[tuple]:
    """The free class scan with no memo or deduplication: one kernel key
    per assignment of every catalog target, as (key, name_a, images_a,
    name_b, images_b) in the order of ``enumerate_free_compatible_classes``."""
    rec: dict[tuple, list] = {}
    for side, rank, words in ((0, desc.rank_a, desc.h_words), (1, desc.rank_b, desc.k_words)):
        for entry in catalog_oracle(bound):
            if p is not None and not is_p_power(entry.order, p):
                continue
            T = entry.build()
            for images in itertools.product(T.elements(), repeat=rank):
                if p is not None and not is_p_power(len(closure_oracle(T, images)), p):
                    continue
                slot = rec.setdefault(_restricted_key(T, images, words), [None, None])
                if slot[side] is None:
                    slot[side] = (entry.name, T, images)
    out = []
    for key in sorted(rec, key=repr):
        a, b = rec[key]
        if a is None or b is None:
            continue
        if p is not None:
            qa = build_free_quotient_amalgam(desc, GenImages(desc.rank_a, a[1], a[2]),
                                             GenImages(desc.rank_b, b[1], b[2]))
            if not presentation_residually_p(qa.presentation, p):
                continue
        out.append((key, a[0], a[2], b[0], b[2]))
    return out


def free_pair_scan_oracle(desc, a_chunks, b_chunks, p, bound, accept=None):
    """The length-preserving pair scan with no deduplication: every
    compatible pair of every catalog target in scan order, each with its
    own quotient amalgam. Returns the pair text and quotient of the first
    pair that passes, or None."""
    wh, wk = desc.h_words[0], desc.k_words[0]
    for entry in catalog_oracle(bound):
        if p is not None and not is_p_power(entry.order, p):
            continue
        T = entry.build()

        def good(rank, w, chunks):
            out = []
            for images in itertools.product(T.elements(), repeat=rank):
                sub = closure_oracle(T, [evaluate_oracle(T, images, w)])
                if all(evaluate_oracle(T, images, c) not in sub for c in chunks):
                    out.append(images)
            return out

        good_v = good(desc.rank_b, wk, b_chunks)
        buckets: dict[tuple, list] = {}
        for v in good_v:
            buckets.setdefault(_restricted_key(T, v, desc.k_words), []).append(v)
        for u in good(desc.rank_a, wh, a_chunks):
            for v in buckets.get(_restricted_key(T, u, desc.h_words), ()):
                if p is not None and not (is_p_power(len(closure_oracle(T, u)), p)
                                          and is_p_power(len(closure_oracle(T, v)), p)):
                    continue
                qa = build_free_quotient_amalgam(desc, GenImages(desc.rank_a, T, u),
                                                 GenImages(desc.rank_b, T, v))
                if accept is not None and not accept(qa):
                    continue
                if p is not None and not presentation_residually_p(qa.presentation, p):
                    continue
                return (f"{entry.name}:{u}|{v}", qa)
    return None


def free_reduced_form_oracle(desc, letters) -> engine.FreeReducedForm:
    """The reduced form by merge and restart: merge every run of same-side
    chunks, rewrite the leftmost chunk lying in the amalgamated subgroup as
    the other side's power, and start again from the left until no chunk
    lies in it."""
    wh, wk = desc.h_words[0], desc.k_words[0]
    chunks = [(side, reduce_word(word)) for side, word in letters]
    chunks = [(side, word) for side, word in chunks if word]

    def merge(seq):
        out = []
        for side, word in seq:
            if out and out[-1][0] == side:
                merged = word_mul(out.pop()[1], word)
                if merged:
                    out.append((side, merged))
            else:
                out.append((side, word))
        return out

    chunks = merge(chunks)
    changed = True
    while changed:
        changed = False
        for i, (side, word) in enumerate(chunks):
            w_own, w_other, other = (wh, wk, "B") if side == "A" else (wk, wh, "A")
            t = word_power_exponent(word, w_own)
            if t is None:
                continue
            if len(chunks) == 1:
                return engine.FreeReducedForm((), t)
            replacement = [(other, word_pow(w_other, t))] if t else []
            chunks = merge(chunks[:i] + replacement + chunks[i + 1:])
            changed = True
            break
    return engine.FreeReducedForm(tuple(chunks))


# ---------------------------------------------------------------------------
# Catalog order oracle: every entry up to the bound built eagerly, by
# family loops and two sorts, as the catalog did before it generated
# entries in scan order.


def catalog_oracle(max_order: int) -> tuple[CatalogEntry, ...]:
    entries: list[CatalogEntry] = []
    for n in range(2, CYCLIC_MAX + 1):
        if n <= max_order:
            entries.append(CatalogEntry(f"Z{n}", n, 0, (n,),
                                        (lambda n=n: cyclic_group(n))))
    for n in range(2, DIHEDRAL_MAX + 1):
        if 2 * n <= max_order:
            entries.append(CatalogEntry(f"D{n}", 2 * n, 1, (n,),
                                        (lambda n=n: dihedral_group(n))))
    for m in range(3, METACYCLIC_M_MAX + 1):
        for k in range(2, m - 1):
            if gcd(k, m) != 1:
                continue
            base = _mult_order(k, m)
            for j in range(base, max_order // m + 1, base):
                entries.append(CatalogEntry(
                    f"MC({m},{k},{j})", m * j, 2, (m, k, j),
                    (lambda m=m, k=k, j=j: metacyclic_group(m, k, j))))
    for n in range(3, SYMMETRIC_MAX + 1):
        order = 1
        for i in range(2, n + 1):
            order *= i
        if order <= max_order:
            entries.append(CatalogEntry(f"S{n}", order, 3, (n,),
                                        (lambda n=n: symmetric_group(n))))
    entries.sort(key=lambda e: e.key())
    base = tuple(entries)
    for i, e1 in enumerate(base):
        for e2 in base[i:]:
            order = e1.order * e2.order
            if order <= max_order:
                entries.append(CatalogEntry(
                    f"{e1.name}x{e2.name}", order, 4, (e1.key(), e2.key()),
                    (lambda a=e1, b=e2: direct_product(a.build(), b.build()))))
    entries.sort(key=lambda e: e.key())
    return tuple(entries)


# ---------------------------------------------------------------------------
# Catalog oracle: the constructions the catalog used before it built tables
# row by row, one product and one inverse search at a time.


def trusted_group_oracle(table, names=None) -> FiniteGroup:
    n = len(table)
    inverse = [next(y for y in range(n) if table[x][y] == 0) for x in range(n)]
    return FiniteGroup(order=n, table=tuple(tuple(row) for row in table),
                       inverse=tuple(inverse),
                       names=tuple(names if names is not None else default_names(n)))


def metacyclic_group_oracle(m: int, k: int, j: int) -> FiniteGroup:
    def mul(a: int, b: int) -> int:
        l1, i1 = divmod(a, m)
        l2, i2 = divmod(b, m)
        return ((l1 + l2) % j) * m + (i1 * pow(k, l2, m) + i2) % m

    return trusted_group_oracle([[mul(a, b) for b in range(m * j)] for a in range(m * j)])


def direct_product_oracle(G1: FiniteGroup, G2: FiniteGroup) -> FiniteGroup:
    n2 = G2.order
    order = G1.order * n2
    table = [[0] * order for _ in range(order)]
    for a1, b1, a2, b2 in itertools.product(G1.elements(), G2.elements(),
                                            G1.elements(), G2.elements()):
        table[a1 * n2 + b1][a2 * n2 + b2] = G1.table[a1][a2] * n2 + G2.table[b1][b2]
    return trusted_group_oracle(table)


def catalog_group_oracle(entry, by_key: dict) -> FiniteGroup:
    """The group of a catalog entry; ``by_key`` maps each entry's key to it,
    for the factors of a product. Cyclic, dihedral and symmetric tables are
    the catalog's own, since their construction is unchanged."""
    if entry.family_rank == 2:
        return metacyclic_group_oracle(*entry.params)
    if entry.family_rank == 4:
        return direct_product_oracle(*(catalog_group_oracle(by_key[key], by_key)
                                       for key in entry.params))
    G = entry.build()
    return trusted_group_oracle(G.table, G.names)


# ---------------------------------------------------------------------------
# Isomorphism oracle: invariants, then a backtracking search for a
# bijective homomorphism. It knows nothing of the catalog's parameters.


def _element_orders_oracle(G: FiniteGroup) -> list[int]:
    out = []
    for x in G.elements():
        n, y = 1, x
        while y != 0:
            y, n = G.table[y][x], n + 1
        out.append(n)
    return out


def _invariants_oracle(G: FiniteGroup) -> tuple:
    """Element orders, centre size, commuting pairs, commutators and squares."""
    els = G.elements()
    commuting = sum(G.table[x][y] == G.table[y][x] for x in els for y in els)
    centre = sum(all(G.table[x][y] == G.table[y][x] for y in els) for x in els)
    commutators = {G.table[G.table[G.inverse[x]][G.inverse[y]]][G.table[x][y]]
                   for x in els for y in els}
    squares = {G.table[x][x] for x in els}
    return (G.order, tuple(sorted(_element_orders_oracle(G))), centre, commuting,
            len(commutators), len(squares))


def isomorphism_oracle(G: FiniteGroup, H: FiniteGroup) -> dict | None:
    """An isomorphism G -> H as a dict, or None when there is none.

    Generators of G are taken greedily by descending element order. Their
    images are chosen one at a time among the elements of H of the same
    order, and after each choice the map is grown from the identity along
    the Cayley graph of the generators chosen so far; it must give every
    element one value and stay injective. Consistency on every edge makes
    the map a homomorphism on the subgroup those generators span."""
    if G.order != H.order:
        return None
    og, oh = _element_orders_oracle(G), _element_orders_oracle(H)
    if sorted(og) != sorted(oh):
        return None
    gens: list[int] = []
    span = closure_oracle(G, ())
    for x in sorted(G.elements(), key=lambda x: -og[x]):
        if x not in span:
            gens.append(x)
            span = closure_oracle(G, gens)

    def grow(images) -> dict | None:
        f, frontier = {0: 0}, [0]
        while frontier:
            x = frontier.pop()
            for g, t in zip(gens, images):
                y, v = G.table[x][g], H.table[f[x]][t]
                if y not in f:
                    f[y] = v
                    frontier.append(y)
                elif f[y] != v:
                    return None
        return f if len(set(f.values())) == len(f) else None

    def search(images) -> dict | None:
        f = grow(images)
        if f is None or len(images) == len(gens):
            return f
        want = og[gens[len(images)]]
        for t in H.elements():
            if oh[t] == want and t not in f.values():
                found = search(images + (t,))
                if found is not None:
                    return found
        return None

    return search(())


@functools.lru_cache(maxsize=None)
def catalog_twins_oracle(bound: int) -> dict[str, str]:
    """Each entry of the catalog up to ``bound`` that is isomorphic to an
    earlier one, mapped to the name of the earliest such entry."""
    reps: dict[tuple, list] = {}
    twins = {}
    for entry in catalog_oracle(bound):
        G = entry.build()
        bucket = reps.setdefault(_invariants_oracle(G), [])
        for name, R in bucket:
            if isomorphism_oracle(R, G) is not None:
                twins[entry.name] = name
                break
        else:
            bucket.append((entry.name, G))
    return twins


def all_targets(max_order: int, p=None):
    """The scan loop without isomorphism classes: every entry of the
    catalog, p-groups only when ``p`` is given."""
    for entry in catalog_oracle(max_order):
        if p is None or is_p_power(entry.order, p):
            yield entry


def shuffled_targets(seed):
    """A ``targets`` that keeps one entry per isomorphism-key class, as
    ``catalog.targets`` does, but a seeded random one instead of the first,
    and a base member whenever the class has one: a product's members are
    then often not the entries the scan probed for their classes."""
    @functools.cache
    def chosen(max_order: int, p) -> list[CatalogEntry]:
        classes: dict[tuple, list[CatalogEntry]] = {}
        for entry in catalog_oracle(max_order):
            if p is None or is_p_power(entry.order, p):
                classes.setdefault(iso_key(entry), []).append(entry)
        rng = random.Random(f"{seed}:{max_order}:{p}")
        return [rng.choice([e for e in members if e.family_rank != 4] or members)
                for members in classes.values()]

    return lambda max_order, p=None: iter(chosen(max_order, p))


def finish_scan_oracle(report, pres, hq, gq, p, max_order):
    """``engine._finish_scan`` with every target probed by ``_probe_entry``,
    direct products included, on the scan's own ``targets``."""
    for entry in engine.targets(max_order, p):
        hom, _ = engine._probe_entry(pres, hq, gq, entry)
        if hom is not None:
            return engine._certify(report, pres, hq, gq, hom)
    return engine._exhausted(report, max_order)


def in_factor_scan_oracle(pres: AmalgamPresentation, h_letters, g_letters, mode: str, p,
                          max_order: int):
    """The report of a query whose generator has length <= 1 once
    cyclically reduced, by the quotient path: when h lies in g's factor or
    in the amalgamated subgroup, the scan runs on the quotient amalgam by
    the first compatible pair (R, S) with h outside <g>R in that factor,
    on projected h and g, else on the presentation. Returns the report's
    JSON and that pair (None when none was chosen); None when the query
    does not reach that case (g = 1, a generator of length >= 2, a member,
    or p-mode on a presentation that is not residually p). No pair keeping
    h outside raises StopIteration."""
    g, h = normalize(pres, g_letters), normalize(pres, h_letters)
    gr, c = am.cyclically_reduce(g)
    ht = am.conjugate(h, c)
    if (g.is_identity() or am.syllable_length(gr) > 1 or am.cyclic_member(ht, gr).is_member
            or (p is not None and not presentation_residually_p(pres, p))):
        return None
    report = engine.WitnessReport(mode, p, engine._letters_text(h_letters),
                                  engine._letters_text(g_letters), "", pair_desc="(1,1)")
    (g_side, g_elem), h_fac = am.factor_element_of(gr), am.factor_element_of(ht)
    chosen = None
    if h_fac is not None and (h_fac[0] == g_side or not ht.syllables):
        h_elem = pres.core_on(g_side, ht.core) if not ht.syllables else h_fac[1]
        factor = pres.factor(g_side)
        cyc = subgroup_generated(factor, [g_elem])
        chosen = next(pair for pair in enumerate_compatible_pairs(pres, mode, p)
                      if h_elem not in product_set(factor, cyc.members, (
                          pair.r_side if g_side == "A" else pair.s_side).members))
    if chosen is None:
        engine._finish_scan(report, pres, h, g, p, max_order)
    else:
        qa = build_quotient_amalgam(pres, chosen)
        report.pair_desc += f" -> factor pair {chosen.key()}"
        engine._finish_scan(report, qa.presentation, qa.project(h.letters()),
                            qa.project(g.letters()), p, max_order)
    return report.to_json(), chosen


# ---------------------------------------------------------------------------
# Schema oracle: jsonschema itself, which the CLI no longer imports.


def package_schema(kind: str) -> dict:
    text = resources.files("amalgsep.schemas").joinpath(f"{kind}.schema.json").read_text()
    return json.loads(text)


@functools.cache
def _jsonschema_validator(kind: str):
    schema = package_schema(kind)
    return jsonschema.validators.validator_for(schema)(schema)


def best_match_oracle(doc, kind: str) -> str | None:
    """The message of jsonschema's ``best_match`` error for ``doc`` against
    the package schema ``kind``, or None when ``doc`` is valid."""
    error = jsonschema.exceptions.best_match(_jsonschema_validator(kind).iter_errors(doc))
    return None if error is None else error.message
