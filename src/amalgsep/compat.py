"""Compatibility of normal subgroup pairs, quotient amalgams, and family verdicts.

A pair (R, S) of normal subgroups of the factors is compatible when the
identifying isomorphism carries R n H onto S n K; it is p-compatible when
additionally both subgroups connect to their factors by chains of normal
subgroups with index-p steps whose H/K-intersection sets correspond.
Compatible pairs induce an amalgam of the quotient factors together with
a projection; the p-compatibility of the trivial pair is exactly the
residual p-finiteness certificate for an amalgam of finite groups. Each
free quotient is built once per targets, images and gluing, and kept on
u's target, so what is cached on it serves every later query that
reaches it.

Pairs are enumerated as a join: N(B) is bucketed by S n K, and each R
meets only the S with S n K = phi(R n H). That is compatibility itself,
and it loses no p-compatible pair: R n H is the least member of every
chain family of R, and phi preserves inclusion, so matched families have
matched least members. Each side's chain families and each pair's
p-verdict are computed once and kept on the presentation.

Chain families are found in one memoized top-down pass per (side, p)
over the factor's index-p cover edges (``FiniteGroup.normal_covers``),
with the witness chains a depth-first ascent finds first; each A-side
family's phi-image and certificate parts are built once per (R, p).

Free factors are handled through GenImages kernels: a pair of assignments
is compatible when the induced maps on the amalgamated subgroup's free
basis have equal kernels. The class scan keeps the first assignment of
each kernel class and side, over the targets in catalog order, and wraps
only that one in a ``GenImages``: the scanner yields bare image tuples
and reads each kernel key from the target's walk cache. Only the classes
both sides reach are sorted and returned. The scanner skips images that
differ by an element of the target's automorphism group S
(``FiniteGroup._symmetries``: inner automorphisms or power maps, and the
checked automorphisms the catalog construction names) before any word is
evaluated; they have the same kernel, so the first assignment of each
class is unchanged.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Optional

from .amalgam import (
    AmalgamElement,
    AmalgamPresentation,
    FreeAmalgamPresentation,
    build_amalgam,
    normalize,
)
from .catalog import targets
from .errors import InputError
from .fingrp import (
    FiniteGroup,
    NormalChain,
    Record,
    Subgroup,
    enumerate_normal_subgroups,
    is_normal,
    is_p_power,
    is_prime,
    product_set,
    quotient_with_projection,
    subgroup_as_group,
    subgroup_generated,
    trivial_subgroup,
)
from .freegrp import (
    FreeWord,
    GenImages,
    format_word,
    induced_map,
    primitive_root,
    restriction,
    scan_gen_images,
    subgroup_rank,
    word_pow,
    word_power_exponent,
)


class PChainCertificate(Record):
    """Witness for p-compatibility: chains on both sides plus the matched
    correspondence of H/K-intersection sets."""

    __slots__ = _fields = ("chain_a", "chain_b", "matching")

    def __init__(self, chain_a: NormalChain, chain_b: NormalChain,
                 matching: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]):
        object.__setattr__(self, "chain_a", chain_a)
        object.__setattr__(self, "chain_b", chain_b)
        object.__setattr__(self, "matching", matching)


class CompatiblePair(Record):
    """A compatible pair of normal subgroups of the two factors."""

    __slots__ = _fields = ("mode", "prime", "r_side", "s_side", "certificate")

    def __init__(self, mode: str, prime: Optional[int], r_side: Subgroup, s_side: Subgroup,
                 certificate: Optional[PChainCertificate] = None):
        object.__setattr__(self, "mode", mode)      # 'plain' | 'p'
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "r_side", r_side)
        object.__setattr__(self, "s_side", s_side)
        object.__setattr__(self, "certificate", certificate)

    def key(self):
        return (self.r_side.key(), self.s_side.key())


def _check_normal_pair(pres: AmalgamPresentation, R: Subgroup, S: Subgroup) -> None:
    if R.parent is not pres.A or S.parent is not pres.B:
        raise AssertionError("pair subgroups must live in the presentation factors")
    if not is_normal(pres.A, R):
        raise InputError("R is not normal in A")
    if not is_normal(pres.B, S):
        raise InputError("S is not normal in B")


def is_compatible(pres: AmalgamPresentation, R: Subgroup, S: Subgroup) -> bool:
    """Whether phi maps R n H onto S n K."""
    _check_normal_pair(pres, R, S)
    image = {pres.phi[x] for x in (R.members & pres.H.members)}
    return image == (S.members & pres.K.members)


def _check_prime(p) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise AssertionError("p-mode needs a prime p" if p is None else f"{p} is not prime")


def _chain_families(pres: AmalgamPresentation, side: str, N: Subgroup, p: int) -> dict:
    """All achievable intersection-set families {link n H} over chains
    N = N0 < ... < Nm = G with index-p steps, links normal in G, where G
    is the factor on ``side`` and H its amalgamated subgroup.

    Returns a dict family -> one witness chain (as a tuple of member
    frozensets, ascending) in canonical family order, computed once per
    (side, N, p) and kept in the presentation's cache.

    One memoized top-down pass per (side, p): ``fams(G)`` is
    {{G n H}: (G,)}, and ``fams(M)`` keeps, over the index-p covers U of M
    in canonical order and the items (f, chain) of ``fams(U)`` in
    discovery order, the first f | {M n H} -> (M,) + chain. Each witness
    is the first chain with its family in the depth-first ascent from N
    over covers in canonical order: that ascent lists the chains from M
    by first cover U, then as the ascent from U lists them, so by
    induction on [G:M] the first chain from M with family F continues the
    first chain from U whose family f gives F.
    """
    key = ("chain-families", side, N.members, p)
    if key in pres.compat_cache:
        return pres.compat_cache[key]
    G, H = (pres.A, pres.H) if side == "A" else (pres.B, pres.K)
    covers = G.normal_covers(p)
    top = frozenset(G.elements())
    memo = pres.compat_cache.setdefault(("suffix-families", side, p), {})

    def fams(cur: frozenset) -> dict:
        out = memo.get(cur)
        if out is None:
            mark = frozenset(cur & H.members)
            out = memo[cur] = {frozenset({mark}): (cur,)} if cur == top else {}
            for U in covers[cur]:
                for fam, chain in fams(U).items():
                    fam = fam | {mark}
                    if fam not in out:
                        out[fam] = (cur,) + chain
        return out

    families = fams(N.members) if is_p_power(G.order // N.order, p) else {}
    out = pres.compat_cache[key] = dict(
        sorted(families.items(), key=lambda kv: sorted(tuple(sorted(s)) for s in kv[0])))
    return out


def _phi_families(pres: AmalgamPresentation, R: Subgroup, p: int) -> tuple:
    """The A-side chain families of R in canonical order as (phi image,
    witness chain, matching), the last two as a certificate holds them,
    built once per (R, p) and kept in the presentation's cache."""
    key = ("phi-families", R.members, p)
    out = pres.compat_cache.get(key)
    if out is None:
        A, phi = pres.A, pres.phi
        out = pres.compat_cache[key] = tuple(
            (frozenset(frozenset(phi[x] for x in s) for s in fam),
             NormalChain(A, tuple(Subgroup(A, ms) for ms in chain), p),
             tuple(sorted((tuple(sorted(s)), tuple(sorted(phi[x] for x in s))) for s in fam)))
            for fam, chain in _chain_families(pres, "A", R, p).items())
    return out


def _p_pair(pres: AmalgamPresentation, R: Subgroup, S: Subgroup,
            p: int) -> Optional[CompatiblePair]:
    """is_p_compatible without its input checks, one verdict per
    (R, S, p) kept in the presentation's cache."""
    key = ("p-pair", R.members, S.members, p)
    if key in pres.compat_cache:
        return pres.compat_cache[key]
    pair = None
    fams_a = _phi_families(pres, R, p)
    fams_b = _chain_families(pres, "B", S, p) if fams_a else {}
    for phi_fam, chain_a, matching in fams_a:
        if phi_fam in fams_b:
            chain_b = NormalChain(pres.B, tuple(Subgroup(pres.B, ms) for ms in fams_b[phi_fam]), p)
            pair = CompatiblePair("p", p, R, S, PChainCertificate(chain_a, chain_b, matching))
            break
    pres.compat_cache[key] = pair
    return pair


def is_p_compatible(pres: AmalgamPresentation, R: Subgroup, S: Subgroup,
                    p: int) -> Optional[CompatiblePair]:
    """Certificate of p-compatibility, or None.

    Chains are enumerated independently on each side, deduplicated by
    their intersection-set families; the correspondence condition is then
    a matching of subgroup-set families under phi, in canonical order of
    the A-side families. Families and verdicts are memoized on the
    presentation; p and the pair are checked on every call. A p-compatible
    pair is compatible: R n H is the least member of every chain family
    of R, and phi preserves inclusion.
    """
    _check_prime(p)
    _check_normal_pair(pres, R, S)
    return _p_pair(pres, R, S, p)


def enumerate_compatible_pairs(pres: AmalgamPresentation, mode: str = "plain",
                               p: Optional[int] = None) -> list[CompatiblePair]:
    """All compatible pairs over products of normal subgroups, canonical order.

    A join, not an N(A) x N(B) scan: each R meets only the S with
    S n K = phi(R n H), which is compatibility itself and holds for every
    p-compatible pair, since R n H is the least member of each chain
    family of R and phi preserves inclusion. The pairs are computed once
    per (mode, p) and kept in the presentation's cache; each call returns
    a new list of them.
    """
    if mode not in ("plain", "p"):
        raise AssertionError(f"unknown mode {mode!r}")
    if mode == "p":
        _check_prime(p)
    key = ("compatible-pairs", mode, p if mode == "p" else None)
    pairs = pres.compat_cache.get(key)
    if pairs is None:
        buckets: dict[frozenset, list[Subgroup]] = {}
        for S in enumerate_normal_subgroups(pres.B):
            buckets.setdefault(S.members & pres.K.members, []).append(S)
        out = []
        for R in enumerate_normal_subgroups(pres.A):
            image = frozenset(pres.phi[x] for x in R.members & pres.H.members)
            for S in buckets.get(image, ()):
                if mode == "plain":
                    out.append(CompatiblePair("plain", None, R, S))
                elif (pair := _p_pair(pres, R, S, p)) is not None:
                    out.append(pair)
        pairs = pres.compat_cache[key] = tuple(out)
    return list(pairs)


class QuotientAmalgam(Record):
    """An amalgam of quotient (or image) factors plus projection data.

    ``proj_a`` and ``proj_b`` send a letter's payload on each side to its
    quotient factor element: a factor element under the quotient map for
    finite parents, a free word through its generator images for free
    ones. A quotient amalgam equals only itself.
    """

    __slots__ = _fields = ("presentation", "proj_a", "proj_b")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, presentation: AmalgamPresentation, proj_a: Callable[[Any], int],
                 proj_b: Callable[[Any], int]):
        self._fill(presentation, proj_a, proj_b)

    def project(self, letters) -> AmalgamElement:
        return normalize(self.presentation, [
            (side, (self.proj_a if side == "A" else self.proj_b)(payload))
            for side, payload in letters])


def build_quotient_amalgam(pres: AmalgamPresentation,
                           pair: CompatiblePair) -> QuotientAmalgam:
    """Amalgam over A/R and B/S glued by hR -> (h phi)S. The compatibility
    equation is exactly that this map is well defined and injective;
    ``build_amalgam`` checks that it is onto the image of K and a homomorphism.

    Projecting a letter sequence and normalizing commutes with
    normalizing and then projecting.
    """
    R, S = pair.r_side, pair.s_side
    if {pres.phi[x] for x in R.members & pres.H.members} != S.members & pres.K.members:
        raise AssertionError("pair fails the compatibility equation")
    Qa, proj_a = quotient_with_projection(pres.A, R)
    Qb, proj_b = quotient_with_projection(pres.B, S)
    phi_bar = {proj_a[h]: proj_b[pres.phi[h]] for h in pres.H.members}
    return QuotientAmalgam(_glue(Qa, Qb, phi_bar), proj_a.__getitem__, proj_b.__getitem__)


def _glue(Qa: FiniteGroup, Qb: FiniteGroup, phi_bar: dict) -> AmalgamPresentation:
    """The amalgam of Qa and Qb glued along ``phi_bar``, whose keys and
    values are the images of H and K. The map was built by the program,
    so a failed ``build_amalgam`` check is a broken contract."""
    Hbar = subgroup_generated(Qa, sorted(phi_bar.keys()))
    Kbar = subgroup_generated(Qb, sorted(phi_bar.values()))
    try:
        return build_amalgam(Qa, Qb, Hbar, Kbar, phi_bar)
    except InputError as exc:
        raise AssertionError(str(exc)) from exc


class FreeAmalgamDescription(Record):
    """An amalgam of two free groups along finitely generated subgroups.

    ``h_words[i]`` and ``k_words[i]`` are corresponding free bases of the
    amalgamated subgroups (the identification maps one onto the other).
    Each side needs a generator, and its basis words may name only its own
    generators, ``0..rank-1``. Each side's generator names must be
    distinct, as a repeated name could never be read back. Each side's
    words must be freely reduced, as the word engine takes them as they
    stand, and a free basis (``freegrp.subgroup_rank``), else the
    identification is no isomorphism; a word that reduces to the identity
    is named. The word engine's presentation is built once and kept in the
    ``__dict__``.
    """

    _fields = ("rank_a", "rank_b", "gen_names_a", "gen_names_b", "h_words", "k_words")
    __slots__ = (*_fields, "__dict__")

    def __init__(self, rank_a: int, rank_b: int, gen_names_a: tuple[str, ...],
                 gen_names_b: tuple[str, ...], h_words: tuple[FreeWord, ...],
                 k_words: tuple[FreeWord, ...]):
        if len(h_words) != len(k_words):
            raise InputError("amalgamated bases must have equal length")
        if len(gen_names_a) != rank_a or len(gen_names_b) != rank_b:
            raise InputError("generator name lists must match ranks")
        for side, rank, names, words in (("A", rank_a, gen_names_a, h_words),
                                         ("B", rank_b, gen_names_b, k_words)):
            if rank < 1:
                raise InputError(f"side {side} has no generators")
            if any(not 0 <= gen < rank for word in words for gen, _ in word):
                raise InputError(f"a basis word of side {side} names a generator "
                                 f"outside 0..{rank - 1}")
            if len(set(names)) != len(names):
                raise InputError(f"generator names of side {side} repeat: {list(names)}")
            if () in words:
                raise InputError(f"basis word {words.index(()) + 1} of side {side} "
                                 "reduces to the identity, so the basis is not free")
            for i, word in enumerate(words, 1):
                if any(y == (gen, -e) for (gen, e), y in zip(word, word[1:])):
                    raise InputError(f"basis word {i} of side {side} is not freely reduced")
            rank = subgroup_rank(words)
            if rank != len(words):
                raise InputError(f"the basis words of side {side} generate a subgroup of "
                                 f"rank {rank}, not {len(words)}, so the basis is not free")
        self._fill(rank_a, rank_b, gen_names_a, gen_names_b, h_words, k_words)

    @cached_property
    def presentation(self) -> FreeAmalgamPresentation:
        """The amalgam for the word engine, which takes a cyclic amalgamated
        subgroup only."""
        if len(self.h_words) != 1:
            raise InputError(
                "free-side separation supports cyclic amalgamated subgroups "
                "(exactly one basis word per side)")
        return FreeAmalgamPresentation(self.rank_a, self.rank_b, self.h_words[0],
                                       self.k_words[0])


def _image_group(T: FiniteGroup, members: frozenset[int]) -> tuple[FiniteGroup, dict]:
    """The subgroup of T with the given members, re-indexed as a table
    group, with the embedding of its members."""
    grp, member_list = subgroup_as_group(T, Subgroup(T, members))
    return grp, {x: i for i, x in enumerate(member_list)}


def build_free_quotient_amalgam(desc: FreeAmalgamDescription, u: GenImages,
                                v: GenImages) -> QuotientAmalgam:
    """Quotient amalgam for free factors: image groups glued along the
    images of the amalgamated subgroups.

    Its presentation is fixed by u's target and image, v's target and
    image, and the gluing, so it is built once per such key and kept on
    u's target (``FiniteGroup._quotient_cache``). Each call wraps it with
    the projections of its own u and v. Everything cached on the
    presentation depends on the presentation alone."""
    if u.rank != desc.rank_a or v.rank != desc.rank_b:
        raise AssertionError("generator images do not match the description ranks")
    # The identification is the induced map between the images of the
    # amalgamated bases, which exists iff their kernels are equal.
    iso = induced_map(restriction(u, desc.h_words), restriction(v, desc.k_words))
    if iso is None:
        raise AssertionError("restriction kernels differ")
    image_a, image_b = u.image_members(), v.image_members()
    key = (image_a, v.target, image_b, frozenset(iso.items()))
    built = u.target._quotient_cache.get(key)
    if built is None:
        Qa, embed_a = _image_group(u.target, image_a)
        Qb, embed_b = _image_group(v.target, image_b)
        phi_bar = {embed_a[a]: embed_b[b] for a, b in iso.items()}
        built = u.target._quotient_cache[key] = (_glue(Qa, Qb, phi_bar), embed_a, embed_b)
    qpres, embed_a, embed_b = built
    return QuotientAmalgam(qpres, lambda w: embed_a[u.evaluate(w)],
                           lambda w: embed_b[v.evaluate(w)])


def presentation_residually_p(pres: AmalgamPresentation, p: int) -> bool:
    """Residual p-finiteness certificate for an amalgam of finite groups:
    the trivial pair must be p-compatible."""
    return is_p_compatible(pres, trivial_subgroup(pres.A),
                           trivial_subgroup(pres.B), p) is not None


def enumerate_free_compatible_classes(desc: FreeAmalgamDescription, bound: int,
                                      p: Optional[int] = None) -> list[tuple]:
    """Representatives of compatible generator-image pairs over the catalog
    targets (one per isomorphism class), one per kernel class of the
    amalgamated-subgroup restriction.

    Assignments on each side are bucketed by a canonical fingerprint of
    their restriction kernel; classes present on both sides are exactly
    the compatible ones. In p-mode both kernels must have p-power index
    and the induced quotient amalgam must carry a residual-p certificate;
    the targets are then p-groups, so every index is a p-power. Each side
    keeps the first assignment of each class, so the scan asks for one per
    class and target, and a ``GenImages`` is built only for an assignment
    that fills an empty (class, side) slot. Returns (key, name_a, u,
    name_b, v) tuples for the classes of both sides, in the order of the
    keys' reprs; only those keys are sorted.
    """
    rec: dict[tuple, list] = {}
    for side_idx, rank, words in ((0, desc.rank_a, desc.h_words),
                                  (1, desc.rank_b, desc.k_words)):
        for entry in targets(bound, p):
            T = entry.build()
            for images, key in scan_gen_images(rank, T, words, distinct=True):
                slot = rec.setdefault(key, [None, None])
                if slot[side_idx] is None:
                    slot[side_idx] = (entry.name, GenImages(rank, T, images))
    out = []
    for key in sorted((key for key, slot in rec.items() if None not in slot), key=repr):
        (name_a, u), (name_b, v) = rec[key]
        if p is not None:
            qa = build_free_quotient_amalgam(desc, u, v)
            if not presentation_residually_p(qa.presentation, p):
                continue
        out.append((key, name_a, u, name_b, v))
    return out


class FamilyVerdict(Record):
    """Separability of a cyclic subgroup by one side's compatible family.
    ``family`` is one of 'Omega_A', 'Omega_B', 'Omega_A^p' and 'Omega_B^p';
    ``verdict`` one of 'separable', 'not_separated' and 'inconclusive'."""

    __slots__ = _fields = ("subject", "family", "verdict", "witnesses", "certifying",
                           "bound", "structural_note")

    def __init__(self, subject: str, family: str, verdict: str,
                 witnesses: Optional[dict] = None, certifying: Optional[object] = None,
                 bound: Optional[int] = None, structural_note: Optional[str] = None):
        self._fill(subject, family, verdict, witnesses, certifying, bound, structural_note)


def family_separability(pres: AmalgamPresentation, side: str, g: int,
                        mode: str = "plain", p: Optional[int] = None) -> FamilyVerdict:
    """Exact family-separability verdict for finite factors.

    Intersects <g>R over the side's projections of all compatible pairs;
    on success reports one separating family member per excluded element.
    """
    if side not in ("A", "B"):
        raise AssertionError(f"side must be 'A' or 'B', got {side!r}")
    factor = pres.factor(side)
    if not (0 <= g < factor.order):
        raise AssertionError(f"element {g} does not lie in factor {side}")
    pairs = enumerate_compatible_pairs(pres, mode, p)
    fam_name = f"Omega_{side}" + ("^p" if mode == "p" else "")
    members = []
    seen = set()
    for pair in pairs:
        Rside = pair.r_side if side == "A" else pair.s_side
        if Rside.members not in seen:
            seen.add(Rside.members)
            members.append(Rside)
    cyc = subgroup_generated(factor, [g])
    subject = f"<{factor.names[g]}>"
    witnesses = {}
    for x in factor.elements():
        if x in cyc.members:
            continue
        hit = None
        for R in members:
            if x not in product_set(factor, cyc.members, R.members):
                hit = R
                break
        if hit is None:
            return FamilyVerdict(subject, fam_name, "not_separated",
                                 certifying=x, bound=None)
        witnesses[x] = hit
    return FamilyVerdict(subject, fam_name, "separable", witnesses=witnesses)


def free_family_separability(desc: FreeAmalgamDescription, side: str,
                             g_word: FreeWord, mode: str = "plain",
                             p: Optional[int] = None, bound: int = 24,
                             structural_note: Optional[str] = None) -> FamilyVerdict:
    """Catalog-bounded family verdict for a cyclic subgroup of a free factor.

    Candidate excluded elements are the intermediate powers of the
    primitive root of g together with the free generators, less those
    that are powers of g (``word_power_exponent``). A not_separated
    verdict certifies its element only up to the reported bound unless a
    structural note upgrades it; a separable verdict likewise quantifies
    only over the candidate set and the family members found.
    """
    if side not in ("A", "B"):
        raise AssertionError(f"side must be 'A' or 'B', got {side!r}")
    rank = desc.rank_a if side == "A" else desc.rank_b
    names = desc.gen_names_a if side == "A" else desc.gen_names_b
    for gen, _ in g_word:
        if gen >= rank:
            raise AssertionError(f"generator index {gen} outside factor {side}")
    fam_name = f"Omega_{side}" + ("^p" if mode == "p" else "")
    subject = f"<{format_word(g_word, names)}>"

    root, mult = primitive_root(g_word)
    candidates: list[FreeWord] = []
    for j in range(1, mult):
        candidates.append(word_pow(root, j))
    for i in range(rank):
        candidates.append(((i, 1),))
        candidates.append(((i, -1),))
    candidates = [x for x in candidates
                  if x and word_power_exponent(x, g_word) is None]

    classes = enumerate_free_compatible_classes(desc, bound,
                                                p if mode == "p" else None)
    members = [(na, u) if side == "A" else (nb, v) for _, na, u, nb, v in classes]
    if not members:
        return FamilyVerdict(subject, fam_name, "inconclusive", bound=bound,
                             structural_note=structural_note)

    image_cycs = [subgroup_generated(u.target, [u.evaluate(g_word)]).members
                  for _, u in members]
    witnesses = {}
    for x in candidates:
        hit = None
        for (name, u), image_cyc in zip(members, image_cycs):
            if u.evaluate(x) not in image_cyc:
                hit = (name, u.images)
                break
        if hit is None:
            return FamilyVerdict(subject, fam_name, "not_separated",
                                 certifying=format_word(x, names), bound=bound,
                                 structural_note=structural_note)
        witnesses[format_word(x, names)] = hit
    return FamilyVerdict(subject, fam_name, "separable", witnesses=witnesses,
                         bound=bound, structural_note=structural_note)
