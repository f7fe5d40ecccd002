"""Free-group words, cyclic membership, and finite-quotient images.

Finite-index normal subgroups of free factors are never materialized as
element sets; they are carried around as ``GenImages``: the images of the
free generators in a finite target group, the subgroup being the kernel
of the induced map. Every walk over the assignments of a target goes
through ``scan_gen_images``, which yields only orbit leaders under the
target's automorphism group S (``FiniteGroup._symmetries``: inner
automorphisms or power maps, and the checked automorphisms the catalog
construction names): an ordered subsequence of the full product that
holds the first assignment of every kernel. When it yields one
assignment per key, a generator other than the first whose exponent
sum vanishes in every word it evaluates takes one image per coset of
the target's centre: a central factor z on that image multiplies each
word's value by z^0, so nothing it reads changes. It compiles its words
once into (coordinate, inverted) steps, evaluates them inline on each
image tuple, and yields the bare tuples; callers wrap in a
``GenImages`` only the assignments they keep.

A kernel is known by one breadth-first labelling of the image group from
its marked generators (``_labelled_walk``). ``kernel_key``,
``induced_map``, ``GenImages.image_members`` and the scanner's keys and
chunk filter all read it. Each labelling is made once per target and
image tuple and kept on the target (``FiniteGroup._walk_cache``), so a
scan walks nothing that an earlier scan on the same group walked.

Membership of a word x in a cyclic subgroup <w> is decided by length: the
length of x fixes the one exponent t with |w^t| = |x|, up to sign
(``word_power_exponent``; Lyndon and Schupp, Combinatorial Group Theory,
ch. I).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InputError
from .fingrp import FiniteGroup, Record

Letter = tuple[int, int]          # (generator index, sign +1/-1)
FreeWord = tuple[Letter, ...]


def reduce_word(raw: Iterable[Letter]) -> FreeWord:
    """Freely reduce a letter sequence (cancel adjacent x x^-1 pairs)."""
    out: list[Letter] = []
    for gen, sign in raw:
        if sign not in (1, -1):
            raise AssertionError(f"letter sign must be +1 or -1, got {sign}")
        if out and out[-1][0] == gen and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


def word_mul(u: FreeWord, v: FreeWord) -> FreeWord:
    """The reduced product of the reduced words u and v, whose letters
    cancel only at the junction."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == (v[k][0], -v[k][1]):
        k += 1
    return u[:len(u) - k] + v[k:]


def word_inv(u: FreeWord) -> FreeWord:
    return tuple((g, -s) for g, s in reversed(u))


def word_pow(u: FreeWord, k: int) -> FreeWord:
    """u^k for the reduced word u = c v c^-1, v cyclically reduced: the
    word c v^k c^-1, which is reduced for k != 0."""
    if k < 0:
        u, k = word_inv(u), -k
    if not k:
        return ()
    c, v = _cyclic_core(u)
    return c + v * k + u[len(c) + len(v):]


def parse_word(text: str, gen_names: Sequence[str]) -> FreeWord:
    """Parse "a b^-1 a^2" style words over the given generator names."""
    letters: list[Letter] = []
    for token in text.split():
        if "^" in token:
            name, exp = token.split("^", 1)
            try:
                k = int(exp)
            except ValueError:
                raise InputError(f"bad exponent in token {token!r}") from None
        else:
            name, k = token, 1
        try:
            gen = list(gen_names).index(name)
        except ValueError:
            raise InputError(f"unknown generator {name!r}") from None
        sign = 1 if k > 0 else -1
        letters.extend([(gen, sign)] * abs(k))
    return reduce_word(letters)


def format_word(w: FreeWord, gen_names: Sequence[str]) -> str:
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        gen, sign = w[i]
        j = i
        while j < len(w) and w[j] == (gen, sign):
            j += 1
        k = (j - i) * sign
        parts.append(gen_names[gen] if k == 1 else f"{gen_names[gen]}^{k}")
        i = j
    return " ".join(parts)


def _cyclic_core(w: FreeWord) -> tuple[FreeWord, FreeWord]:
    """(c, u) with w = c u c^-1 and u cyclically reduced, for reduced w."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == (w[j - 1][0], -w[j - 1][1]):
        i, j = i + 1, j - 1
    return w[:i], w[i:j]


def word_power_exponent(x: FreeWord, w: FreeWord) -> Optional[int]:
    """The exponent t with x = w^t, or None; decides x in <w> in a free group.

    x and w are reduced words. Write w = c u c^-1 with u cyclically
    reduced, nonempty when w is. For t != 0, w^t = c u^t c^-1 is reduced
    and has length 2|c| + |t||u|, so the length of x fixes |t|, and x is
    in <w> iff it equals w^t or w^-t for that t.
    """
    if not x:
        return 0
    if not w:
        return None
    c, u = _cyclic_core(w)
    t, rest = divmod(len(x) - 2 * len(c), len(u))
    if t < 1 or rest:
        return None
    for e in (t, -t):
        if word_pow(w, e) == x:
            return e
    return None


def primitive_root(w: FreeWord) -> tuple[FreeWord, int]:
    """Write w = r^m with r not a proper power; returns (r, m).

    Handles non-cyclically-reduced words by conjugating the root back.
    """
    c, u = _cyclic_core(w)
    n = len(u)
    for d in range(1, n + 1):
        if n % d:
            continue
        if word_pow(u[:d], n // d) == u:
            return (reduce_word(c + u[:d] + word_inv(c)), n // d)
    return (w, 1)                   # w is empty: for n >= 1, d = n matches


def subgroup_rank(words: Sequence[FreeWord]) -> int:
    """The rank of the (free) subgroup the words generate: the bouquet of
    their loops at one vertex is folded, two edges with one label leaving
    one vertex identified until none are (an edge u -x-> v leaves v as
    x^-1), into the Stallings graph, whose rank edges - vertices + 1 is
    the subgroup's (J. Stallings, Topology of finite graphs, Invent. Math.
    71, 1983). k words are a free basis iff the rank is k, free groups of
    finite rank being Hopfian."""
    parent = [0]                    # union-find forest over the vertices
    edges = []                      # (u, gen, v): u reads gen to v
    for word in words:
        u = 0
        for i, (gen, sign) in enumerate(word):
            v = 0 if i == len(word) - 1 else len(parent)
            if v:
                parent.append(v)
            edges.append((u, gen, v) if sign > 0 else (v, gen, u))
            u = v

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    folded = True
    while folded:                   # a pass without a fold saw current roots only
        folded = False
        ends: dict[tuple, int] = {}
        for u, gen, v in edges:
            for start, sign, end in ((u, 1, v), (v, -1, u)):
                x, y = find(ends.setdefault((find(start), gen, sign), end)), find(end)
                if x != y:
                    parent[x], folded = y, True
    vertices = {find(x) for x in range(len(parent))}
    return len({(find(u), gen, find(v)) for u, gen, v in edges}) - len(vertices) + 1


class GenImages(Record):
    """Images of the free generators in a finite target group.

    Represents the normal subgroup ker(induced map) of the free group;
    its index is the order of the subgroup the images generate.
    """

    __slots__ = _fields = ("rank", "target", "images")

    def __init__(self, rank: int, target: FiniteGroup, images: tuple[int, ...]):
        if len(images) != rank:
            raise AssertionError("images length must equal rank")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    def evaluate(self, w: FreeWord) -> int:
        T = self.target
        acc = 0
        for gen, sign in w:
            x = self.images[gen] if sign > 0 else T.inverse[self.images[gen]]
            acc = T.table[acc][x]
        return acc

    def image_members(self) -> frozenset[int]:
        """The subgroup the images generate: the elements of their walk."""
        return frozenset(_labelled_walk(self.target, self.images)[0])


def scan_gen_images(rank: int, target: FiniteGroup, basis: Sequence[FreeWord] = (),
                    chunks: Sequence[FreeWord] = (), distinct: bool = False
                    ) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """The orbit leaders among the assignments of ``target^rank``, rank >= 1,
    in lexicographic order, each as its image tuple with
    ``kernel_key(restriction(u, basis))``.

    Rank 1 takes the first element of each element order. Higher ranks
    take (x, y) from ``target.pair_leaders``, the pairs least in their
    orbit under S, and the later coordinates from all of the target.
    Every assignment that is least among those with its kernel is a
    leader. At rank 1 the image of u is cyclic of order ord(x), so the
    kernel <a^ord(x)> depends on that order alone. At higher ranks, for an
    automorphism s of the target, s*u has the kernel of u, and so the same
    chunk verdict and the same restricted key: ``kernel_key`` is the BFS
    normal form of the marked image, which s carries over label for label.
    The least assignment of a kernel is least in its diagonal orbit, so
    its first two coordinates are a least pair.
    The scan is thus an ordered subsequence of the full product that keeps
    the first assignment of every (restricted key, kernel) pair. The
    restricted key depends on the kernel alone, so the first assignment of
    a key is the first of a kernel, and with ``distinct`` the scan yields
    exactly what the full product would.

    With ``distinct``, a coordinate c whose generator has exponent sum
    sigma_c(w) = 0 in every word w of ``basis`` and ``chunks`` is also cut
    to the centre Z of the target: for c = 1, each x keeps the first y of
    each coset y Z among its pair-leader ys (``central_pair_leaders``;
    one y on an abelian target), and for c >= 2 the coordinate takes the
    least element of each coset (``centre_cosets``). Multiplying the image
    of generator c by a central z multiplies the value of every word w by
    z^sigma_c(w) = 1, so no value, restricted key or chunk verdict changes,
    and the cut keeps, for every leader assignment, one that is no later
    and has its values. The first leader assignment of a key is thus kept,
    and the scan still yields it and nothing else for that key.

    An assignment is skipped when some word of ``chunks`` maps into the
    subgroup generated by the images of ``basis``, and with ``distinct``
    when an earlier assignment was yielded with the same key. Each word is
    compiled once per scan into (coordinate, inverted) steps and evaluated
    inline by table lookups on the images and their inverses; its first
    step is the image itself, as 0 is the identity. The scan yields image
    tuples, so a caller builds a ``GenImages`` only for those it keeps.
    The key and the basis-image subgroup are both read off the labelled
    walk of the basis images, which the target keeps for every later scan
    (``_labelled_walk``).
    """
    table, inverse = target.table, target.inverse
    # Each word as its first step and the rest; the empty word is compiled
    # as x^-1 x, which is its value.
    words = (*basis, *chunks)
    compiled = []
    for w in words:
        steps = [(gen, sign < 0) for gen, sign in w] or [(0, True), (0, False)]
        compiled.append((*steps[0], steps[1:]))
    n_basis = len(basis)
    seen: set[int] = set()
    if rank == 1:
        orders = target.element_orders
        assignments = [(x,) for x in sorted(map(orders.index, set(orders)))]
    else:
        # blind(c): generator c has exponent sum 0 in every word, so a
        # central factor on its image changes no value.
        def blind(c: int) -> bool:
            return distinct and all(w.count((c, 1)) == w.count((c, -1)) for w in words)

        n = target.order
        rest = list(itertools.product(*(
            [y for y in range(n) if target.centre_cosets[y] == y] if blind(c) else range(n)
            for c in range(2, rank))))
        leaders = target.central_pair_leaders if blind(1) else target.pair_leaders
        assignments = ((x, y) + r for x, ys in leaders for y in ys for r in rest)
    for images in assignments:
        values = []
        for c, inverted, steps in compiled:
            acc = inverse[images[c]] if inverted else images[c]
            for c, inverted in steps:
                x = images[c]
                acc = table[acc][inverse[x] if inverted else x]
            values.append(acc)
        sub, labelled, number = _labelled_walk(target, tuple(values[:n_basis]))
        if chunks and any(map(sub.__contains__, values[n_basis:])):
            continue
        if distinct:
            if number in seen:
                continue
            seen.add(number)
        yield images, (n_basis, labelled)


def induced_map(u: GenImages, v: GenImages) -> Optional[dict[int, int]]:
    """The map u(w) -> v(w) over the free words w, from the image of u onto
    the image of v, when ker u = ker v; None when the kernels differ.

    The labelled tables of ``_labelled_walk`` are equal iff the kernels
    are (``kernel_key``), and then the same words reach the element
    labelled i in both images, so it maps to its namesake.
    """
    if u.rank != v.rank:
        raise AssertionError(f"ranks {u.rank} and {v.rank} differ")
    elems_u, table_u, _ = _labelled_walk(u.target, u.images)
    elems_v, table_v, _ = _labelled_walk(v.target, v.images)
    if table_u != table_v:
        return None
    return dict(zip(elems_u, elems_v))


def restriction(u: GenImages, words: Sequence[FreeWord]) -> GenImages:
    """Induced map on the subgroup with the given generating words.

    The words are taken as a free basis of the subgroup, so the result is
    a GenImages of rank len(words) into the same target.
    """
    return GenImages(len(words), u.target, tuple(u.evaluate(w) for w in words))


def _labelled_walk(T: FiniteGroup, images: tuple[int, ...]) -> tuple[tuple[int, ...], tuple, int]:
    """The walk of ``images`` on T (``_walk``), made once and then read from
    T's walk cache (``FiniteGroup._walk_cache``)."""
    walk = T._walk_cache[0].get(images)
    return _walk(T, images) if walk is None else walk


def _walk(T: FiniteGroup, images: tuple[int, ...]) -> tuple[tuple[int, ...], tuple, int]:
    """Breadth-first walk of the subgroup of T that ``images`` generate,
    from the identity, stepping by the images and then their inverses: the
    elements in the order they are labelled, per label the labels its steps
    reach, and the number of that labelled table among T's.

    The walk is kept in T's walk cache by image tuple. Equal labelled
    tables are kept once and numbered in the order they are first seen, so
    on T a number stands for its table.
    """
    walks, tables = T._walk_cache
    step = list(images) + [T.inverse[g] for g in images]
    label = {0: 0}
    order_seen = [0]
    table = []
    for a in order_seen:            # grows while it is walked
        row = T.table[a]
        out = []
        for g in step:
            b = row[g]
            lb = label.get(b)
            if lb is None:
                lb = label[b] = len(order_seen)
                order_seen.append(b)
            out.append(lb)
        table.append(tuple(out))
    labelled = tuple(table)
    labelled, number = tables.setdefault(labelled, (labelled, len(tables)))
    walks[images] = walk = (tuple(order_seen), labelled, number)
    return walk


def kernel_key(u: GenImages) -> tuple:
    """Canonical fingerprint of ker(u): BFS normal form of the image group
    with its marked generator tuple. Two GenImages of the same rank have
    equal kernels iff their keys coincide."""
    return (u.rank, _labelled_walk(u.target, u.images)[1])
