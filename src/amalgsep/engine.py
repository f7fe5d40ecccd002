"""Separability witness engine and case-study drivers.

``separate_from_cyclic`` runs the constructive separation procedure: the
generator is cyclically reduced (conjugating the candidate along), exact
cyclic membership is decided, and the case split on syllable lengths
selects either the length-divisibility argument or (in p-mode) the root
and power-collision argument. Final certificates are always homomorphisms
onto catalog finite groups, re-verified in the target group before being
reported: both factor maps respect every edge of the Cayley graph of their
group's generators, agree on the amalgamated subgroup, and send h outside
<g>.

Homomorphisms from a factor G to a target T are found by extension along
the Cayley graph of a least generating tuple of G: each candidate tuple
of generator images is spread breadth-first by f(x*g_i) = f(x)*t_i and
dropped at the first edge that disagrees, O(|G| r) work per candidate
(Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005).
The certificate scan glues factor homomorphisms over the amalgamated
subgroup (``_glue``). Whether a glued pair (ma, mb) separates, and its
image pair (theta(h), theta(g)), depend only on mb and on the probe of ma:
its restriction to H, which picks the B-maps glued to it, and to the
A-letters of h and g. So each probe is tried once, on every B-map glued
to it. The scan lists only the A-homomorphisms whose image of element 1
is least in its orbit under a group S of automorphisms of T: inner
automorphisms, or power maps when T is abelian, and the checked
automorphisms its catalog construction names (``FiniteGroup._symmetries``).
Sigma in S maps a glued pair to a glued pair and <tg> onto <sigma tg>, so
all pairs of an S-orbit give the same verdict and the same order of tg
and k with th = tg^k; and canonical order compares images of element 1
first. So the first separating pair is among those tried, the
certificate does not depend on S, and when no pair separates, the pairs
tried have the exponent set of all pairs. Neither factor's list is built
in full: only the A-maps with a leader at element 1, and only the B-maps
whose restriction to K is phi of a listed A-map's restriction to H. A
candidate is dropped at the Cayley-graph edge that first reaches element
1, or K, when its image there is no listed map's. A dropped B-map is
glued to no listed A-map, so the scan tries the same pairs as on the
full lists.

A direct product T1 x T2 of two catalog members is decided without a
probe. A homomorphism theta into it is a pair (theta1, theta2) of
homomorphisms into the members, and the members' classes came earlier in
the scan without separating: theta_i(h) = theta_i(g)^k_i, where o_i is the
order of theta_i(g). Then theta(h) is a power g^n of theta(g) iff
n = k1 (mod o1) and n = k2 (mod o2), which by the Chinese remainder
theorem is solvable iff k1 = k2 (mod gcd(o1, o2)). So the product
separates iff some pair of the members' exponent sets {(o_i, k_i)} breaks
that congruence, and only then is it probed for its certificate.

An abelian target is ruled out on the amalgam's abelianization. Every
homomorphism of G = A *_H B into an abelian group kills the commutators
and identifies x with phi(x), so it factors through
G^ab = (A^ab x B^ab) / N, N = {(x, phi(x)^-1) : x in H} (images in the
factors' abelianizations). If the image of h in G^ab is a power of the
image of g, so is theta(h) of theta(g) for every such theta, and no
abelian target of any order separates.

Free factors are supported for presentations whose amalgamated subgroups
are cyclic (one basis word per side). Their queries run through the same
word engine as finite ones (``amalgam.FreeAmalgamPresentation``), so
membership is decided exactly on the normal forms; a non-member is then
separated inside the first length-preserving finite quotient amalgam
that keeps h outside <g> and, in p-mode, keeps h^n' apart from g^k and
g^-k when the syllable lengths allow that power collision. One pass over
the pairs applies both filters, and also names the first
length-preserving pair, or the first that keeps h outside, when none
passes. The pair scan behind those
quotients yields each pair of kernels once: the quotient amalgam and
every filter depend on the two kernels alone, so a repeated pair could
only repeat a rejection. That still removes kernels repeated across
targets; the scanner itself skips images that differ by an automorphism
of the target before any word is evaluated. Each quotient presentation
is built once per targets, images and gluing and kept on the target
(``compat.build_free_quotient_amalgam``), for every later scan, of any
description, that reaches it.
"""

from __future__ import annotations

import itertools
import random
from math import gcd
from operator import itemgetter
from typing import Iterator, Optional, Sequence, Union

from . import amalgam as am
from .amalgam import AmalgamElement, AmalgamPresentation
from .catalog import (
    CatalogEntry,
    catalog,
    cyclic_group,
    entry_is_p_group,
    iso_key,
    member_keys,
    targets,
)
from .compat import (
    FreeAmalgamDescription,
    QuotientAmalgam,
    build_free_quotient_amalgam,
    enumerate_compatible_pairs,
    enumerate_free_compatible_classes,
    free_family_separability,
    is_p_compatible,
    presentation_residually_p,
)
from .errors import InputError
from .fingrp import (
    FiniteGroup,
    Record,
    abelianization,
    is_prime,
    respects_generators,
    subgroup_generated,
)
from .freegrp import FreeWord, GenImages, kernel_key, scan_gen_images

DEFAULT_TARGET_BOUND = 256
DEFAULT_PAIR_BOUND = 48
# The trivial pair's ``CompatiblePair.key``: in-factor reports name it, and readers parse it.
IN_FACTOR_PAIR = " -> factor pair ((1, (0,)), (1, (0,)))"


# ---------------------------------------------------------------------------
# Homomorphism enumeration for quotient amalgams


def _factor_homs(G: FiniteGroup, T: FiniteGroup,
                 only: Optional[tuple[int, frozenset[int]]] = None) -> list[tuple[int, ...]]:
    """All homomorphisms G -> T as full mapping tuples, canonical order;
    with ``only = (z, Z)``, z a non-identity element of G, the subsequence
    of the f with f(z) in Z. Nothing is cached here."""
    # Extension along the Cayley graph: f(0) = 0 and f(x*g_i) = f(x)*t_i,
    # rejected at the first edge whose endpoint already has another value.
    # Every element is a positive word in the generators, so a map that
    # respects every edge is a homomorphism, and each homomorphism is the
    # extension of its generator images. For cyclic G this walks the
    # powers of the one image. A restricted generator's pool is narrowed;
    # any other z gets a test edge (z, c, 0, False) after the edge that
    # first reaches z, whose column c is 1 off Z, so f(0) = 0 fails.
    g_orders, t_orders = G.element_orders, T.element_orders
    columns = list(zip(*T.table))      # columns[t][a] = a*t
    gens, schedule = G.generating_tuple, G.cayley_schedule
    z, Z = only or (None, None)
    pools = [[columns[t] for t in (Z if g == z else T.elements()) if g_orders[g] % t_orders[t] == 0]
             for g in gens]
    if only and z not in gens:
        at = [y for _, _, y, _ in schedule].index(z) + 1
        schedule = (*schedule[:at], (z, len(pools), 0, False), *schedule[at:])
        pools.append([[int(t not in Z) for t in T.elements()]])
    out = []
    for right in itertools.product(*pools):
        f = [0] * G.order
        for x, i, y, new in schedule:
            v = right[i][f[x]]
            if new:
                f[y] = v
            elif f[y] != v:
                break
        else:
            out.append(tuple(f))
    out.sort()
    return out


class GluedHom(Record):
    """A homomorphism of a quotient amalgam into a finite target,
    given by its two factor restrictions (which agree on the amalgam)."""

    __slots__ = _fields = ("target", "target_name", "map_a", "map_b")

    def __init__(self, target: FiniteGroup, target_name: str, map_a: tuple[int, ...],
                 map_b: tuple[int, ...]):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "target_name", target_name)
        object.__setattr__(self, "map_a", map_a)
        object.__setattr__(self, "map_b", map_b)

    def apply(self, x: AmalgamElement) -> int:
        return _glued_image(self.target, self.map_a, self.map_b, x)

    def image_members(self) -> frozenset[int]:
        return subgroup_generated(self.target, set(self.map_a) | set(self.map_b)).members


def _glued_image(T: FiniteGroup, map_a: tuple[int, ...], map_b: tuple[int, ...],
                 x: AmalgamElement) -> int:
    table = T.table
    acc = map_a[x.core]
    for side, t in x.syllables:
        acc = table[acc][map_a[t] if side == "A" else map_b[t]]
    return acc


def _glue(pres: AmalgamPresentation, a_maps: Sequence[tuple[int, ...]],
          b_maps: Sequence[tuple[int, ...]]) -> list[tuple[tuple[int, ...], list]]:
    """The pairs (ma, bucket): each A-map that agrees with some B-map on the
    amalgamated subgroup, in the order given, with those B-maps (mb on K is
    phi of ma on H), in the order given."""
    h_key, k_key = itemgetter(*pres.phi), itemgetter(*pres.phi.values())
    buckets: dict[object, list[tuple[int, ...]]] = {}
    for mb in b_maps:
        buckets.setdefault(k_key(mb), []).append(mb)
    return [(ma, bucket) for ma in a_maps if (bucket := buckets.get(h_key(ma)))]


def enumerate_quotient_homs(qa: QuotientAmalgam, target: FiniteGroup) -> list[GluedHom]:
    """All homomorphisms of the quotient amalgam into the target: pairs of
    factor homomorphisms agreeing on the amalgamated subgroup (``_glue``),
    in canonical (map_a, map_b) order. Nothing is cached."""
    pres = qa.presentation
    return [GluedHom(target, "", ma, mb)
            for ma, bucket in _glue(pres, _factor_homs(pres.A, target),
                                    _factor_homs(pres.B, target))
            for mb in bucket]


def _probe_lists(pres: AmalgamPresentation, entry: CatalogEntry) -> list[tuple[tuple, list]]:
    """The pairs (ma, bucket) ``_probe_entry`` scans on the entry's group T,
    glued by ``_glue``: the A-maps that send element 1 into
    ``T.orbit_leaders``, canonical order, each with the B-maps glued to it,
    if any. A B-map is not built when its image of k1, the first element of
    K that B's Cayley graph reaches, is no A-map's image of phi^-1(k1); the
    bucket lookup is the exact test. Cached in ``pres.compat_cache`` under
    ``("glued", entry.name)``: catalog builds are deterministic, so the
    maps hold for every build of the entry."""
    key = ("glued", entry.name)
    glued = pres.compat_cache.get(key)
    if glued is None:
        T = entry.build()
        lead = (1, frozenset(T.orbit_leaders)) if pres.A.order > 1 else None
        a_maps = _factor_homs(pres.A, T, lead)  # a trivial A lists its one map
        k1 = next((y for _, _, y, new in pres.B.cayley_schedule if new and y in pres.K.members), 0)
        only = (k1, frozenset(ma[pres.phi_inv[k1]] for ma in a_maps)) if k1 else None
        glued = pres.compat_cache[key] = _glue(pres, a_maps, _factor_homs(pres.B, T, only))
    return glued


def _probe_entry(pres: AmalgamPresentation, hq: AmalgamElement, gq: AmalgamElement,
                 entry: CatalogEntry) -> tuple[Optional[GluedHom], set[tuple[int, int]]]:
    """(hom, E) on the entry's group T. hom is the first glued homomorphism,
    in the order of ``enumerate_quotient_homs``, that sends h outside <g>,
    and E is empty; or hom is None, and E is the exponent set
    {(order of theta(g), k) : theta(h) = theta(g)^k} over every glued theta.
    Each probe of the pairs of ``_probe_lists`` is tried once, on its whole
    bucket, which keeps both by the rule of the module docstring."""
    T = entry.build()
    letters = {hq.core, gq.core}
    for x in (hq, gq):
        letters.update(t for side, t in x.syllables if side == "A")
    a_probe = itemgetter(*pres.phi, *sorted(letters))  # H-key and A-signature
    tried: set = set()
    ks: dict[tuple[int, int], Optional[int]] = {}  # (th, tg) -> k, or None outside <tg>
    for ma, bucket in _probe_lists(pres, entry):
        probe = a_probe(ma)
        if probe in tried:
            continue
        tried.add(probe)
        for mb in bucket:
            pair = (_glued_image(T, ma, mb, hq), _glued_image(T, ma, mb, gq))
            k = ks.get(pair, -1)
            if k == -1:
                k = ks[pair] = T.power_exponent(*pair)
            if k is None:
                return GluedHom(T, entry.name, ma, mb), set()
    orders = T.element_orders
    return None, {(orders[tg], k) for (_, tg), k in ks.items()}


# ---------------------------------------------------------------------------
# Length-preserving pairs


def _free_pair_scan(desc: FreeAmalgamDescription,
                    a_chunks: list[FreeWord], b_chunks: list[FreeWord],
                    p: Optional[int], bound: int) -> Iterator[tuple[str, QuotientAmalgam]]:
    """The pairs (u, v) onto catalog targets (one per isomorphism class,
    ``catalog.targets``; p-groups in p-mode) that are compatible and keep
    every listed factor chunk outside the amalgamated image (length
    preservation), in scan order, each as its text and quotient amalgam.

    Each pair of kernels is yielded once: (u, v) is skipped when an earlier
    pair, on this entry or an earlier one, had the same kernel keys. The
    quotient F_A/ker u *_H F_B/ker v with its projections depends on the
    two kernels alone up to isomorphism, and so does every filter a caller
    applies to it (membership of h in <g>, the power collision and residual
    p-finiteness are isomorphism invariants; in p-mode the targets are
    p-groups, so every index is a p-power). So a repeated pair
    could only repeat a rejection, and the first passing pair and its text
    are unchanged. The scanner yields only orbit leaders under
    automorphisms of the target, among them the first assignment of every
    kernel, so each kernel pair is still first yielded at the pair it is
    first reached at over the full product. Every kernel key is read from
    the target's walk cache (``freegrp._labelled_walk``), and every
    quotient presentation from the target's quotient memo
    (``compat.build_free_quotient_amalgam``), which the scans of this
    query and of earlier ones have mostly filled already.
    """
    tried: set[tuple] = set()
    for entry in targets(bound, p):
        T = entry.build()
        good_u = list(scan_gen_images(desc.rank_a, T, desc.h_words, a_chunks))
        if not good_u:
            continue
        buckets: dict[tuple, list[tuple[int, ...]]] = {}
        for b_images, key in scan_gen_images(desc.rank_b, T, desc.k_words, b_chunks):
            buckets.setdefault(key, []).append(b_images)
        for a_images, key in good_u:
            vs = buckets.get(key)
            if not vs:
                continue
            u = GenImages(desc.rank_a, T, a_images)
            ku = kernel_key(u)
            for b_images in vs:
                v = GenImages(desc.rank_b, T, b_images)
                kv = kernel_key(v)
                if (ku, kv) in tried:
                    continue
                tried.add((ku, kv))
                yield f"{entry.name}:{u.images}|{v.images}", build_free_quotient_amalgam(desc, u, v)


# ---------------------------------------------------------------------------
# Witness reports


class WitnessReport(Record):
    """Outcome of a separation query, with a re-verified certificate:
    ``outcome`` is 'separated', 'member' or 'obstructed', ``reason`` the
    obstruction tag. The query fills it in, so it is mutable and unhashable."""

    __slots__ = _fields = (
        "mode", "prime", "h_text", "g_text", "outcome", "exponent", "reason", "target_name",
        "target_order", "image_order", "hom_map_a", "hom_map_b", "root_prime", "root_text",
        "bound", "pair_desc", "reverified", "notes")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, mode: str, prime: Optional[int], h_text: str, g_text: str, outcome: str,
                 exponent: Optional[int] = None, reason: Optional[str] = None,
                 target_name: Optional[str] = None, target_order: Optional[int] = None,
                 image_order: Optional[int] = None,
                 hom_map_a: Optional[tuple[int, ...]] = None,
                 hom_map_b: Optional[tuple[int, ...]] = None, root_prime: Optional[int] = None,
                 root_text: Optional[str] = None, bound: Optional[int] = None,
                 pair_desc: Optional[str] = None,
                 reverified: Optional[bool] = None, notes: Optional[list[str]] = None):
        self.mode, self.prime, self.h_text, self.g_text = mode, prime, h_text, g_text
        self.outcome, self.exponent, self.reason = outcome, exponent, reason
        self.target_name, self.target_order = target_name, target_order
        self.image_order, self.hom_map_a, self.hom_map_b = image_order, hom_map_a, hom_map_b
        self.root_prime, self.root_text = root_prime, root_text
        self.bound, self.pair_desc, self.reverified = bound, pair_desc, reverified
        self.notes = [] if notes is None else notes

    def to_json(self) -> dict:
        doc = {
            "schema": 1,
            "query": {"h": self.h_text, "g": self.g_text, "mode": self.mode,
                      "prime": self.prime},
            "outcome": self.outcome,
        }
        if self.outcome == "member":
            doc["exponent"] = self.exponent
        if self.outcome == "separated":
            doc["certificate"] = {
                "target": self.target_name,
                "target_order": self.target_order,
                "image_order": self.image_order,
                "factor_map_a": list(self.hom_map_a),
                "factor_map_b": list(self.hom_map_b),
                "reverified": self.reverified,
            }
        if self.outcome == "obstructed":
            doc["reason"] = self.reason
            if self.reason == "not_isolated":
                doc["root"] = {"prime": self.root_prime, "element": self.root_text}
            if self.reason == "bound_exhausted":
                doc["bound"] = self.bound
        if self.pair_desc:
            doc["pair"] = self.pair_desc
        if self.notes:
            doc["notes"] = list(self.notes)
        return doc


def _letters_text(letters) -> str:
    return " ".join(f"{side}:{payload}" for side, payload in letters)


def _certify(report: WitnessReport, pres: AmalgamPresentation, hq: AmalgamElement,
             gq: AmalgamElement, hom: GluedHom) -> WitnessReport:
    """Re-verify the certificate from scratch and fill it into the report.

    The checks raise AssertionError explicitly, so they also run under
    ``python -O``. The homomorphism test walks the generators fingrp
    picks, not the tuple the enumeration extended along.
    """
    T = hom.target
    for side, G, mapping in (("A", pres.A, hom.map_a), ("B", pres.B, hom.map_b)):
        if not respects_generators(G, T, mapping):
            raise AssertionError(f"certificate factor map {side} is not a homomorphism")
    if any(hom.map_a[h] != hom.map_b[pres.phi[h]] for h in pres.H.members):
        raise AssertionError("certificate factor maps disagree on the amalgamated subgroup")
    ok = T.power_exponent(hom.apply(hq), hom.apply(gq)) is None
    image = hom.image_members()
    report.outcome = "separated"
    report.target_name = hom.target_name
    report.target_order = T.order
    report.image_order = len(image)
    report.hom_map_a = hom.map_a
    report.hom_map_b = hom.map_b
    report.reverified = ok
    if not ok:
        raise AssertionError("certificate failed re-verification")
    return report


def _exhausted(report: WitnessReport, bound: int, note: Optional[str] = None
               ) -> WitnessReport:
    report.outcome, report.reason, report.bound = "obstructed", "bound_exhausted", bound
    if note:
        report.notes.append(note)
    return report


def _abelian_member(pres: AmalgamPresentation, hq: AmalgamElement,
                    gq: AmalgamElement) -> bool:
    """Whether the image of h in G^ab lies in <image of g>.

    G^ab is (A^ab x B^ab) / N with N = {(x, phi(x)^-1) : x in H}, by the
    rule of the module docstring; N is the image of H under a
    homomorphism, so the set is the subgroup. The pair (Qa, pa, Qb, pb, N)
    is kept in the presentation's cache, and A^ab x B^ab is never tabled:
    h lies in <g> modulo N iff h g^-k is in N for some k below the order
    lcm(ord g_A, ord g_B) of g's image.
    """
    data = pres.compat_cache.get("abelianization")
    if data is None:
        (Qa, pa), (Qb, pb) = abelianization(pres.A), abelianization(pres.B)
        N = frozenset((pa[x], Qb.inverse[pb[pres.phi[x]]]) for x in pres.H.members)
        data = pres.compat_cache["abelianization"] = (Qa, pa, Qb, pb, N)
    Qa, pa, Qb, pb, N = data

    ra, rb = Qa.table, Qb.table

    def image(x: AmalgamElement) -> tuple[int, int]:
        a, b = pa[x.core], 0
        for side, t in x.syllables:
            if side == "A":
                a = ra[a][pa[t]]
            else:
                b = rb[b][pb[t]]
        return a, b

    (ha, hb), (ga, gb) = image(hq), image(gq)
    oa, ob = Qa.element_order(ga), Qb.element_order(gb)
    ia, ib = Qa.inverse[ga], Qb.inverse[gb]
    for _ in range(oa * ob // gcd(oa, ob)):
        if (ha, hb) in N:
            return True
        ha, hb = ra[ha][ia], rb[hb][ib]
    return False


def _finish_scan(report: WitnessReport, pres: AmalgamPresentation, hq, gq,
                 p: Optional[int], max_order: int) -> WitnessReport:
    """Certify the first catalog homomorphism theta with theta(h) outside
    <theta(g)>, scanning one target per isomorphism class by ascending
    order (p-groups only in p-mode); the bound is exhausted when there is
    none. Each target is scanned on orbit leaders (``_probe_entry``).

    When the image of h in G^ab lies in <image of g> (``_abelian_member``),
    no abelian target separates, by the abelian rule of the module
    docstring: every entry whose isomorphism key has no nonabelian core is
    skipped unprobed, and kept in ``skipped`` by key.

    A product T1 x T2 is decided by the product rule of the module
    docstring, from the exponent sets that ``_probe_entry`` returned for
    its members' classes, kept in ``spectra`` by ``catalog.iso_key``: a
    member may be a twin of the entry kept for its class. The members
    have smaller order, so the entries ``targets`` keeps for their
    classes, which are base members, came earlier in this scan (in p-mode
    they are p-groups too), and neither separated. A skipped member is
    probed when a product first needs it; that probe separating would
    contradict G^ab, and raises AssertionError. So the first separating
    target, and its certificate, are those of a scan that probes every
    target.
    """
    spectra: dict[tuple, set[tuple[int, int]]] = {}  # iso_key -> E of a probe that failed
    skipped: dict[tuple, CatalogEntry] = {}
    skip_abelian = _abelian_member(pres, hq, gq)
    for entry in targets(max_order, p):
        key = iso_key(entry)
        if skip_abelian and not key[1]:
            skipped[key] = entry
            continue
        members = member_keys(entry)
        if members is not None:
            for member in members:
                if member not in spectra:
                    hom, spectra[member] = _probe_entry(pres, hq, gq, skipped[member])
                    if hom is not None:
                        raise AssertionError(
                            f"{skipped[member].name} separates, but G^ab rules it out")
            e1, e2 = (spectra[member] for member in members)
            if not any((k1 - k2) % gcd(o1, o2) for o1, k1 in e1 for o2, k2 in e2):
                continue
        hom, spectra[key] = _probe_entry(pres, hq, gq, entry)
        if hom is not None:
            return _certify(report, pres, hq, gq, hom)
        if members is not None:
            raise AssertionError(f"the exponent sets separate, but {entry.name} does not")
    return _exhausted(report, max_order)


def separate_from_cyclic(
    target: Union[AmalgamPresentation, FreeAmalgamDescription],
    h_letters: Sequence,
    g_letters: Sequence,
    mode: str = "plain",
    p: Optional[int] = None,
    max_order: int = DEFAULT_TARGET_BOUND,
    pair_bound: int = DEFAULT_PAIR_BOUND,
) -> WitnessReport:
    """Separate h from the cyclic subgroup generated by g, or explain why not.

    Outcomes: ``separated`` with a homomorphism onto a catalog finite
    (p-)group, re-verified in the target; ``member`` with the exponent;
    ``obstructed`` with a reason (a root certificate when the cyclic
    subgroup is not p'-isolated, or an exhausted search bound).
    """
    if mode not in ("plain", "p"):
        raise AssertionError(f"unknown mode {mode!r}")
    if mode == "p" and not is_prime(p or 0):
        raise AssertionError("p-mode requires a prime p")
    pmode = p if mode == "p" else None
    h_letters, g_letters = list(h_letters), list(g_letters)
    report = WitnessReport(mode=mode, prime=pmode, h_text=_letters_text(h_letters),
                           g_text=_letters_text(g_letters), outcome="")
    finite = isinstance(target, AmalgamPresentation)
    pres = target if finite else target.presentation
    g = am.normalize(pres, g_letters)
    h = am.normalize(pres, h_letters)
    if g.is_identity():
        raise InputError("g must be nontrivial")

    gr, c = am.cyclically_reduce(g)
    ht = am.conjugate(h, c)
    # h = g^k iff ht = gr^k, with the same k.
    verdict = am.cyclic_member(ht, gr)
    if verdict.is_member:
        report.outcome = "member"
        report.exponent = verdict.exponent
        return report
    if finite:
        return _separate_finite(report, pres, h, g, ht, gr, pmode, max_order)
    return _separate_free(report, target, ht, gr, pmode, max_order, pair_bound)


def _separate_finite(report: WitnessReport, pres: AmalgamPresentation, h, g, ht, gr,
                     p, max_order) -> WitnessReport:
    if p is not None and not presentation_residually_p(pres, p):
        return _exhausted(report, max_order, "presentation is not residually "
                          "p-finite; p-mode machinery does not apply")

    # The presentation is its own quotient by the trivial pair, index for
    # index, so the scan runs on it.
    report.pair_desc = "(1,1)"
    n = am.syllable_length(gr)
    m = am.syllable_length(ht)

    if n <= 1:
        # All powers of g stay in one factor; the pair text names the trivial
        # pair when h lies in that factor or in the amalgamated subgroup.
        h_fac = am.factor_element_of(ht)
        if h_fac is not None and (m == 0 or h_fac[0] == am.factor_element_of(gr)[0]):
            report.pair_desc += IN_FACTOR_PAIR
        return _finish_scan(report, pres, h, g, p, max_order)

    if p is None:
        # Non-membership is exact here; the length or exponent argument
        # already holds, so scan for the certifying homomorphism.
        return _finish_scan(report, pres, h, g, None, max_order)

    # n >= 2 in a residually p-finite presentation: <g> is p'-isolated iff
    # g has no q-th root for a prime q != p (``am.is_p_prime_isolated``).
    root = am.find_prime_root(g, p)
    if root is not None:
        report.outcome = "obstructed"
        report.reason = "not_isolated"
        report.root_prime = root[0]
        report.root_text = am.serialize_element(root[1])
        return report

    nk = _collision(n, m, p)
    if nk is not None and _collides(ht, gr, nk):
        # Contradicts p'-isolation plus non-membership in an exact
        # presentation; unreachable when the preconditions hold.
        raise AssertionError("isolation certificate inconsistent with power collision")
    return _finish_scan(report, pres, h, g, p, max_order)


def _collision(n: int, m: int, p: int) -> Optional[tuple[int, int]]:
    """p-mode, for g cyclically reduced of syllable length n >= 2 and h of
    length m: (n', k), where n' is the p'-part of n and k = m n' / n, the
    only exponents with h^n' = g^k or g^-k possible; None when m n' / n is
    not an integer, so that the lengths rule out a collision."""
    n_prime = n // gcd(n, p ** n)
    if (m * n_prime) % n:
        return None
    return n_prime, m * n_prime // n


def _collides(hq: AmalgamElement, gq: AmalgamElement, nk: tuple[int, int]) -> bool:
    """Whether hq^n' is gq^k or gq^-k, for ``nk = (n', k)``."""
    n_prime, k = nk
    hn, gk = am.power(hq, n_prime), am.power(gq, k)
    return hn == gk or hn == am.invert(gk)


def _separate_free(report: WitnessReport, desc: FreeAmalgamDescription, ht, gr,
                   p, max_order, pair_bound) -> WitnessReport:
    """Separate ht from <gr>, the query after cyclic reduction, with h
    outside <g>, in the first finite quotient amalgam that keeps every
    syllable outside the amalgamated image and passes the filters of the
    module docstring."""
    n, m = am.syllable_length(gr), am.syllable_length(ht)
    # p-mode, n >= 2: no p-group image of a quotient with h^n' = g^k or
    # g^-k separates h from <g>. n' and k depend on n, m and p alone, which
    # a length-preserving pair keeps; a pair mapping h into <g> collides.
    nk = _collision(n, m, p) if p is not None and n >= 2 else None
    chunks = gr.syllables + ht.syllables
    h_letters, g_letters = ht.letters(), gr.letters()
    # The first residually-p pair, and the first keeping h outside <g>, name
    # the exhausted reports; the pure residual-p test is skipped on a
    # rejected pair that could only repeat a text already found.
    first = outside = None
    for text, qa in _free_pair_scan(desc, [w for s, w in chunks if s == "A"],
                                    [w for s, w in chunks if s == "B"], p, pair_bound):
        hq, gq = qa.project(h_letters), qa.project(g_letters)
        is_outside = not am.cyclic_member(hq, gq).is_member
        accepted = is_outside and not (nk and _collides(hq, gq, nk))
        if not accepted and (outside if is_outside else first) is not None:
            continue
        if p is not None and not presentation_residually_p(qa.presentation, p):
            continue
        first = first or text
        if is_outside:
            outside = outside or text
        if accepted:
            break
    else:
        if n == 0:
            return _exhausted(report, pair_bound)
        report.pair_desc = outside or first
        if outside is not None:
            return _exhausted(report, pair_bound,
                              "no refining pair distinguishes the power collision")
        if first is None:
            return _exhausted(report, pair_bound, "no length-preserving pair up to the bound")
        return _exhausted(report, pair_bound, "h lies outside <g>, but every pair "
                          "up to the bound maps h into the image of <g>")
    report.pair_desc = text
    if am.syllable_length(gq) != n or am.syllable_length(hq) != m:
        raise AssertionError("length-preserving pair changed a syllable length")
    if not am.is_cyclically_reduced(gq):
        raise AssertionError("projected generator is not cyclically reduced")
    # The certificate scan realizes the length or factor argument in the quotient.
    return _finish_scan(report, qa.presentation, hq, gq, p, max_order)


# ---------------------------------------------------------------------------
# Case studies


class CaseStudyReport(Record):
    """Pass/fail record of one scripted case study, with (name, passed,
    detail) triples in ``assertions``; mutable and unhashable, like a
    ``WitnessReport``."""

    __slots__ = _fields = ("case", "parameters", "assertions", "artifacts")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, case: str, parameters: dict, assertions: list,
                 artifacts: Optional[dict] = None):
        self._fill(case, parameters, assertions, {} if artifacts is None else artifacts)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.assertions)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "case": self.case,
            "parameters": dict(self.parameters),
            "assertions": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in self.assertions
            ],
            "artifacts": self.artifacts,
            "all_passed": self.all_passed,
        }


def power_congruence_description(p: int) -> FreeAmalgamDescription:
    """Rank-one free factors glued along <a^p> = <b^p>."""
    return FreeAmalgamDescription(
        rank_a=1, rank_b=1,
        gen_names_a=("a",), gen_names_b=("b",),
        h_words=(tuple([(0, 1)] * p),),
        k_words=(tuple([(0, 1)] * p),),
    )


def _sec3_case(p: int = 2, q: int = 3, n: int = 2) -> CaseStudyReport:
    """Counterexample family in the quotient of <a,b ; a^p = b^p> by the
    p^n-th power pair: h stays outside <g> while its q-th power falls in,
    so the image subgroup is not p'-isolated."""
    if not (is_prime(p) and is_prime(q)) or p == q:
        raise InputError("p and q must be distinct primes")
    if n < 1:
        raise InputError("n must be positive")
    desc = power_congruence_description(p)
    modulus = p ** n
    x_n = next(x for x in range(1, modulus + 1) if (q * x) % modulus == 1 % modulus)

    Zpn = cyclic_group(modulus)
    u = GenImages(1, Zpn, (1,))
    v = GenImages(1, Zpn, (1,))
    qa = build_free_quotient_amalgam(desc, u, v)

    a = [( "A", ((0, 1),) )]
    b = [( "B", ((0, 1),) )]
    g_letters = (a + b) * q + [("A", tuple([(0, 1)] * p))]
    h_letters = a + b + [("A", tuple([(0, 1)] * (p * x_n)))]

    gq = qa.project(g_letters)
    hq = qa.project(h_letters)

    assertions = []
    not_member = not am.cyclic_member(hq, gq).is_member
    # Independent brute force over powers of g up to length l(h) * q.
    lh, lg = am.syllable_length(hq), am.syllable_length(gq)
    limit = max(1, (lh * q) // max(1, lg) + 1)
    brute_hit = False
    for k in range(-limit, limit + 1):
        if am.power(gq, k) == hq:
            brute_hit = True
            break
    assertions.append((
        "image-outside-cyclic-subgroup", not_member and not brute_hit,
        f"l(h)={lh}, l(g)={lg}, brute force scanned |k| <= {limit}"))

    hq_q = am.power(hq, q)
    in_after_power = am.cyclic_member(hq_q, gq)
    assertions.append((
        "q-th-power-falls-inside", in_after_power.is_member,
        f"exponent {in_after_power.exponent}"))

    root = am.find_prime_root(gq, p)
    assertions.append((
        "image-subgroup-not-isolated", root is not None,
        f"root prime {root[0] if root else None}"))

    return CaseStudyReport(
        case="sec3",
        parameters={"p": p, "q": q, "n": n},
        assertions=assertions,
        artifacts={
            "x_n": x_n,
            "quotient_factor_order": modulus,
            "g_image": am.serialize_element(gq),
            "h_image": am.serialize_element(hq),
            "root": am.serialize_element(root[1]) if root else None,
        },
    )


def conjugation_doubling_description() -> FreeAmalgamDescription:
    """Rank-two free factors glued along <a, b^-1 a b> = <c, d^-1 c^2 d>."""
    a = ((0, 1),)
    a1 = ((1, -1), (0, 1), (1, 1))
    c = ((0, 1),)
    c1 = ((1, -1), (0, 1), (0, 1), (1, 1))
    return FreeAmalgamDescription(
        rank_a=2, rank_b=2,
        gen_names_a=("a", "b"), gen_names_b=("c", "d"),
        h_words=(a, a1), k_words=(c, c1),
    )


def _thm21_case(bound: int = 48) -> CaseStudyReport:
    """Catalog scan of compatible generator-image pairs for the doubling
    amalgam: every a-image has odd order (hence lies in the subgroup its
    square generates), a metacyclic pair realizes a-image order 7, and the
    square generator is not separated by the family found."""
    desc = conjugation_doubling_description()
    word_a: FreeWord = ((0, 1),)
    word_a2: FreeWord = ((0, 1), (0, 1))

    classes = enumerate_free_compatible_classes(desc, bound)
    orders = {}
    all_odd = True
    all_in_square = True
    order7 = None
    for _, name_a, u, name_b, v in classes:
        T = u.target
        a_img = u.evaluate(word_a)
        o = T.element_order(a_img)
        orders.setdefault(o, 0)
        orders[o] += 1
        if o % 2 == 0:
            all_odd = False
        sq = subgroup_generated(T, [u.evaluate(word_a2)])
        if a_img not in sq.members:
            all_in_square = False
        if o == 7 and order7 is None:
            order7 = (name_a, u.images, name_b, v.images)

    assertions = [
        ("every-a-image-order-odd", all_odd and bool(classes),
         f"{len(classes)} kernel classes"),
        ("a-image-inside-square-image", all_in_square and bool(classes),
         "a lands in the subgroup generated by the image of a^2"),
        ("order-7-witness-found", order7 is not None,
         f"witness {order7[0]}:{order7[1]} | {order7[2]}:{order7[3]}" if order7 else "none"),
    ]

    # Family verdict: the square generator cannot be separated, and the
    # primitive root a certifies (odd image order makes squaring onto).
    verdict = free_family_separability(
        desc, "A", word_a2, mode="plain", bound=min(bound, 24),
        structural_note="every compatible image of a has odd order, so a "
                        "lies in the subgroup generated by the image of a^2")
    assertions.append((
        "square-generator-not-separated",
        verdict.verdict == "not_separated" and verdict.certifying == "a",
        f"certifying element {verdict.certifying} at bound {verdict.bound}"))

    return CaseStudyReport(
        case="thm21",
        parameters={"bound": bound},
        assertions=assertions,
        artifacts={
            "kernel_classes": len(classes),
            "a_image_order_histogram": {str(k): v for k, v in sorted(orders.items())},
            "order7_witness": list(order7) if order7 else None,
        },
    )


def _cyclic_remark_case(trials: int = 100, seed: int = 20260810) -> CaseStudyReport:
    """Random finite p-group amalgams with cyclic amalgamated subgroups:
    every plain-compatible pair must carry a p-chain certificate."""
    rng = random.Random(seed)
    pool = {
        2: [e for e in catalog(16) if entry_is_p_group(e, 2)],
        3: [e for e in catalog(27) if entry_is_p_group(e, 3)],
    }
    passed = 0
    failures = []
    checked_pairs = 0
    for trial in range(trials):
        p = rng.choice([2, 3])
        ea = rng.choice(pool[p])
        eb = rng.choice(pool[p])
        A, B = ea.build(), eb.build()
        # Random cyclic H <= A and K <= B of equal order.
        for _ in range(200):
            x = rng.randrange(A.order)
            y = rng.randrange(B.order)
            if A.element_order(x) == B.element_order(y):
                break
        else:
            continue
        H = subgroup_generated(A, [x])
        K = subgroup_generated(B, [y])
        phi = {}
        hx, ky = 0, 0
        for i in range(H.order):
            phi[hx] = ky
            hx = A.table[hx][x]
            ky = B.table[ky][y]
        pres = am.build_amalgam(A, B, H, K, phi)
        ok = True
        for pair in enumerate_compatible_pairs(pres, "plain"):
            checked_pairs += 1
            if is_p_compatible(pres, pair.r_side, pair.s_side, p) is None:
                ok = False
                failures.append({
                    "trial": trial, "p": p, "A": ea.name, "B": eb.name,
                    "R": list(pair.r_side.sorted_members),
                    "S": list(pair.s_side.sorted_members),
                })
        if ok:
            passed += 1
    assertions = [(
        "plain-pairs-carry-p-chain-certificates",
        passed == trials and not failures,
        f"{passed}/{trials} trials, {checked_pairs} pairs checked")]
    return CaseStudyReport(
        case="cyclic_remark",
        parameters={"trials": trials, "seed": seed},
        assertions=assertions,
        artifacts={"failures": failures, "pairs_checked": checked_pairs},
    )


_CASE_STUDIES = {"sec3": _sec3_case, "thm21": _thm21_case, "cyclic_remark": _cyclic_remark_case}


def run_case_study(case: str, **params) -> CaseStudyReport:
    """Run a named case study (``-`` and ``_`` alike); parameters not given
    keep the case's defaults. See the CLI for the parameter surface."""
    study = _CASE_STUDIES.get(case.replace("-", "_"))
    if study is None:
        raise AssertionError(f"unknown case {case!r}")
    return study(**params)
