"""Separability witness engine and case-study drivers.

``separate_from_cyclic`` runs the constructive separation procedure: the
generator is cyclically reduced (conjugating the candidate along), exact
cyclic membership is decided, and the case split on syllable lengths
selects either the length-divisibility argument, a factor-level family
scan, or (in p-mode) the isolated-closure argument. Final certificates
are always homomorphisms onto catalog finite groups, re-verified in the
target group before being reported.

Free factors are supported for presentations whose amalgamated subgroups
are cyclic (one basis word per side); the procedure then works inside a
length-preserving finite quotient amalgam and refines the quotient when
an identification collapses.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import amalgam as am
from .amalgam import AmalgamElement, AmalgamPresentation
from .catalog import CatalogEntry, catalog, entry_is_p_group
from .compat import (
    CompatiblePair,
    FreeAmalgamDescription,
    QuotientAmalgam,
    build_free_quotient_amalgam,
    build_quotient_amalgam,
    enumerate_compatible_pairs,
    presentation_residually_p,
)
from .errors import (
    BoundExhausted,
    InputError,
    UnknownCase,
)
from .fingrp import (
    FiniteGroup,
    Subgroup,
    is_p_power,
    is_prime,
    product_set,
    subgroup_generated,
    trivial_subgroup,
)
from .freegrp import (
    FreeWord,
    GenImages,
    kernel_key,
    reduce_word,
    restriction,
    word_inv,
    word_mul,
    word_pow,
)

DEFAULT_TARGET_BOUND = 256
DEFAULT_PAIR_BOUND = 48

FreeLetter = tuple[str, FreeWord]


def worker_count() -> int:
    raw = os.environ.get("AMALGSEP_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return max(1, n) if n else 1


def parallel_map(fn, items: Sequence):
    """Order-preserving map honoring the AMALGSEP_THREADS cap."""
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Homomorphism enumeration for quotient amalgams


def _generating_tuple(G: FiniteGroup) -> tuple[int, ...]:
    full = frozenset(G.elements())
    candidates = sorted(G.elements())
    for x in candidates:
        if subgroup_generated(G, [x]).members == full:
            return (x,)
    import itertools
    for size in range(2, 5):
        for combo in itertools.combinations(candidates[1:], size):
            if subgroup_generated(G, combo).members == full:
                return combo
    raise InputError("group needs more than 4 generators; out of supported range")


def _element_words(G: FiniteGroup, gens: tuple[int, ...]) -> list[tuple[int, ...]]:
    """BFS expression of every element as a product of the generators
    and their inverses (encoded as signed generator slots)."""
    step: list[tuple[int, int]] = []
    for i, g in enumerate(gens):
        step.append((g, i + 1))
        step.append((G.inverse[g], -(i + 1)))
    words: dict[int, tuple[int, ...]] = {0: ()}
    queue = [0]
    while queue:
        x = queue.pop(0)
        for g, slot in step:
            y = G.table[x][g]
            if y not in words:
                words[y] = words[x] + (slot,)
                queue.append(y)
    return [words[x] for x in sorted(words)]


def _factor_homs(G: FiniteGroup, T: FiniteGroup) -> list[tuple[int, ...]]:
    """All homomorphisms G -> T as full mapping tuples, canonical order.

    Cached in ``G.hom_cache``, so the list lives as long as G does.
    """
    hit = G.hom_cache.get(id(T))
    if hit is not None:
        return hit[1]
    out = _factor_homs_uncached(G, T)
    G.hom_cache[id(T)] = (T, out)
    return out


def _factor_homs_uncached(G: FiniteGroup, T: FiniteGroup) -> list[tuple[int, ...]]:
    gens = _generating_tuple(G)
    if len(gens) == 1:
        g0 = gens[0]
        n = G.element_order(g0)
        # g0^j enumerates G; a hom is any image of order dividing n.
        expo = [0] * G.order
        x, j = 0, 0
        while True:
            expo[x] = j
            x = G.table[x][g0]
            j += 1
            if x == 0:
                break
        out = []
        for img in T.elements():
            if n % T.element_order(img) == 0:
                out.append(tuple(T.power(img, expo[x]) for x in G.elements()))
        return sorted(out)

    import itertools
    words = _element_words(G, gens)
    orders = [G.element_order(g) for g in gens]
    out = []
    t_orders = [T.element_order(t) for t in T.elements()]
    pools = [[t for t in T.elements() if orders[i] % t_orders[t] == 0]
             for i in range(len(gens))]
    for images in itertools.product(*pools):
        inv_images = [T.inverse[v] for v in images]
        mapping = []
        for w in words:
            acc = 0
            for slot in w:
                v = images[slot - 1] if slot > 0 else inv_images[-slot - 1]
                acc = T.table[acc][v]
            mapping.append(acc)
        ok = True
        for a in G.elements():
            row = G.table[a]
            ma = mapping[a]
            for b in G.elements():
                if mapping[row[b]] != T.table[ma][mapping[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(mapping))
    return sorted(out)


@dataclass(frozen=True)
class GluedHom:
    """A homomorphism of a quotient amalgam into a finite target,
    given by its two factor restrictions (which agree on the amalgam)."""

    target: FiniteGroup
    target_name: str
    map_a: tuple[int, ...]
    map_b: tuple[int, ...]

    def apply(self, x: AmalgamElement) -> int:
        T = self.target
        acc = self.map_a[x.core]
        for side, t in x.syllables:
            acc = T.table[acc][self.map_a[t] if side == "A" else self.map_b[t]]
        return acc

    def image_members(self) -> frozenset[int]:
        T = self.target
        members = {0}
        frontier = [0]
        gens = sorted(set(self.map_a) | set(self.map_b))
        gens += [T.inverse[g] for g in gens]
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = T.table[a][g]
                if b not in members:
                    members.add(b)
                    frontier.append(b)
        return frozenset(members)


def _iter_quotient_homs(qa: QuotientAmalgam, target: FiniteGroup,
                        target_name: str = "") -> Iterator[GluedHom]:
    pres = qa.presentation
    homs_a = _factor_homs(pres.A, target)
    homs_b = _factor_homs(pres.B, target)
    h_members = sorted(pres.H.members)
    buckets: dict[tuple, list[tuple[int, ...]]] = {}
    for mb in homs_b:
        key = tuple(mb[pres.phi[h]] for h in h_members)
        buckets.setdefault(key, []).append(mb)
    for ma in homs_a:
        key = tuple(ma[h] for h in h_members)
        for mb in buckets.get(key, ()):
            yield GluedHom(target, target_name, ma, mb)


def enumerate_quotient_homs(qa: QuotientAmalgam, target: FiniteGroup) -> list[GluedHom]:
    """All homomorphisms of the quotient amalgam into the target: pairs of
    factor homomorphisms agreeing on the amalgamated subgroup, in
    canonical (map_a, map_b) order."""
    return list(_iter_quotient_homs(qa, target))


def _cyclic_member_in_table(T: FiniteGroup, th: int, tg: int) -> bool:
    x = 0
    for _ in range(T.element_order(tg)):
        if x == th:
            return True
        x = T.table[x][tg]
    return False


def _probe_entry(qa: QuotientAmalgam, hq: AmalgamElement, gq: AmalgamElement,
                 entry: CatalogEntry) -> Optional[GluedHom]:
    T = entry.build()
    memo: dict[tuple[int, int], bool] = {}
    for hom in _iter_quotient_homs(qa, T, entry.name):
        th = hom.apply(hq)
        tg = hom.apply(gq)
        verdict = memo.get((th, tg))
        if verdict is None:
            verdict = _cyclic_member_in_table(T, th, tg)
            memo[(th, tg)] = verdict
        if not verdict:
            return hom
    return None


def _find_separating_hom(qa: QuotientAmalgam, hq: AmalgamElement,
                         gq: AmalgamElement, p: Optional[int],
                         max_order: int) -> Optional[GluedHom]:
    """First catalog homomorphism theta with theta(h) outside <theta(g)>,
    scanning targets by ascending order (p-groups only in p-mode).

    Targets are probed in chunks sized by the worker cap; results are
    still consumed in canonical order, so the certificate is the same
    whatever AMALGSEP_THREADS says.
    """
    entries = [e for e in catalog(max_order)
               if p is None or entry_is_p_group(e, p)]
    chunk = max(1, worker_count())
    for start in range(0, len(entries), chunk):
        batch = entries[start:start + chunk]
        results = parallel_map(lambda e: _probe_entry(qa, hq, gq, e), batch)
        for hom in results:
            if hom is not None:
                return hom
    return None


# ---------------------------------------------------------------------------
# Symbolic reduced forms for free descriptions with cyclic amalgamation


def _word_power_exponent(x: FreeWord, w: FreeWord) -> Optional[int]:
    """The exponent t with x = w^t, or None."""
    if not x:
        return 0
    if not w:
        return None
    bound = len(x) // max(1, len(w) - 0) + 2
    acc: FreeWord = ()
    for t in range(1, len(x) + 2):
        acc = word_mul(acc, w)
        if acc == x:
            return t
        if len(acc) > len(x) + 2 * len(w):
            break
    acc = ()
    winv = word_inv(w)
    for t in range(1, len(x) + 2):
        acc = word_mul(acc, winv)
        if acc == x:
            return -t
        if len(acc) > len(x) + 2 * len(w):
            break
    return None


@dataclass(frozen=True)
class FreeReducedForm:
    """Reduced form of a free-amalgam element with cyclic amalgamation:
    either a power of the amalgamated generator (length 0) or an
    alternating chunk sequence with no chunk inside the amalgam."""

    chunks: tuple[FreeLetter, ...]
    core_exponent: int = 0         # meaningful only when chunks is empty

    @property
    def length(self) -> int:
        return len(self.chunks)

    def is_identity(self) -> bool:
        return not self.chunks and self.core_exponent == 0

    def letters(self, desc: FreeAmalgamDescription) -> list[FreeLetter]:
        if self.chunks:
            return list(self.chunks)
        if self.core_exponent == 0:
            return []
        return [("A", word_pow(desc.h_words[0], self.core_exponent))]


def _require_cyclic_amalgam(desc: FreeAmalgamDescription) -> None:
    if len(desc.h_words) != 1:
        raise InputError(
            "free-side separation supports cyclic amalgamated subgroups "
            "(exactly one basis word per side)")


def free_reduced_form(desc: FreeAmalgamDescription,
                      letters: Iterable[FreeLetter]) -> FreeReducedForm:
    """Alternating reduced form over the free factors.

    Adjacent same-side chunks are merged, identity chunks dropped, and
    chunks lying in the amalgamated subgroup are rewritten to the other
    side (the identification is exact, so the group element is unchanged)
    until the form stabilizes.
    """
    _require_cyclic_amalgam(desc)
    wh, wk = desc.h_words[0], desc.k_words[0]
    chunks: list[FreeLetter] = []
    for side, word in letters:
        if side not in ("A", "B"):
            raise InputError(f"letter side must be 'A' or 'B', got {side!r}")
        word = reduce_word(word)
        if word:
            chunks.append((side, word))

    def merge(seq: list[FreeLetter]) -> list[FreeLetter]:
        out: list[FreeLetter] = []
        for side, word in seq:
            if out and out[-1][0] == side:
                merged = word_mul(out[-1][1], word)
                out.pop()
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
            t = _word_power_exponent(word, w_own)
            if t is None:
                continue
            if len(chunks) == 1:
                return FreeReducedForm((), t)
            replacement = word_pow(w_other, t)
            seq = chunks[:i]
            if replacement:
                seq = seq + [(other, replacement)]
            seq = seq + chunks[i + 1:]
            chunks = merge(seq)
            changed = True
            break
    if not chunks:
        return FreeReducedForm((), 0)
    return FreeReducedForm(tuple(chunks))


def free_cyclically_reduce(desc: FreeAmalgamDescription, form: FreeReducedForm
                           ) -> tuple[FreeReducedForm, list[FreeLetter]]:
    """(reduced rotation y, conjugator letters c) with the original
    element equal to c * y * c^-1."""
    conj: list[FreeLetter] = []
    cur = form
    while cur.length >= 2 and cur.chunks[0][0] == cur.chunks[-1][0]:
        head = cur.chunks[0]
        conj.append(head)
        rotated = list(cur.chunks[1:]) + [head]
        nxt = free_reduced_form(desc, rotated)
        assert nxt.length < cur.length
        cur = nxt
    return cur, conj


def _free_letters_inverse(desc: FreeAmalgamDescription,
                          letters: Sequence[FreeLetter]) -> list[FreeLetter]:
    return [(side, word_inv(w)) for side, w in reversed(letters)]


# ---------------------------------------------------------------------------
# Length-preserving pairs


@dataclass(frozen=True)
class WorkingQuotient:
    """A quotient amalgam together with bookkeeping for reports."""

    qa: QuotientAmalgam
    pair_desc: str


def _trivial_pair_quotient(pres: AmalgamPresentation) -> WorkingQuotient:
    """The quotient by the trivial pair, cached on the presentation."""
    wq = pres.quotient_cache.get("(1,1)")
    if wq is None:
        pair = CompatiblePair("plain", None, trivial_subgroup(pres.A),
                              trivial_subgroup(pres.B))
        wq = WorkingQuotient(build_quotient_amalgam(pres, pair), "(1,1)")
        pres.quotient_cache["(1,1)"] = wq
    return wq


def _assignments(rank: int, T: FiniteGroup) -> Iterator[tuple[int, ...]]:
    import itertools
    return itertools.product(range(T.order), repeat=rank)


def _free_pair_scan(desc: FreeAmalgamDescription,
                    a_chunks: list[FreeWord], b_chunks: list[FreeWord],
                    p: Optional[int], bound: int,
                    accept=None) -> Optional[tuple[str, QuotientAmalgam]]:
    """First catalog pair (u, v) that is compatible, keeps every listed
    factor chunk outside the amalgamated image (length preservation),
    lands in p-groups with residually-p quotients in p-mode, and whose
    quotient amalgam passes the optional ``accept`` predicate."""
    _require_cyclic_amalgam(desc)
    wh, wk = desc.h_words[0], desc.k_words[0]
    for entry in catalog(bound):
        if p is not None and not entry_is_p_group(entry, p):
            continue
        T = entry.build()
        good_u = []
        for images in _assignments(desc.rank_a, T):
            u = GenImages(desc.rank_a, T, images)
            him = u.evaluate(wh)
            hsub = subgroup_generated(T, [him]).members
            if all(u.evaluate(c) not in hsub for c in a_chunks):
                good_u.append(u)
        if not good_u:
            continue
        good_v = []
        for images in _assignments(desc.rank_b, T):
            v = GenImages(desc.rank_b, T, images)
            kim = v.evaluate(wk)
            ksub = subgroup_generated(T, [kim]).members
            if all(v.evaluate(c) not in ksub for c in b_chunks):
                good_v.append(v)
        if not good_v:
            continue
        buckets: dict[tuple, list[GenImages]] = {}
        for v in good_v:
            buckets.setdefault(kernel_key(restriction(v, desc.k_words)), []).append(v)
        for u in good_u:
            key = kernel_key(restriction(u, desc.h_words))
            for v in buckets.get(key, ()):
                if p is not None:
                    if not (is_p_power(u.index(), p) and is_p_power(v.index(), p)):
                        continue
                qa = build_free_quotient_amalgam(desc, u, v)
                if p is not None and not presentation_residually_p(qa.presentation, p):
                    continue
                if accept is not None and not accept(qa):
                    continue
                return (f"{entry.name}:{u.images}|{v.images}", qa)
    return None


def find_length_preserving_pair(
    target: Union[AmalgamPresentation, FreeAmalgamDescription],
    elements: Sequence[Sequence],
    mode: str = "plain",
    p: Optional[int] = None,
    bound: int = DEFAULT_PAIR_BOUND,
) -> WorkingQuotient:
    """A compatible pair whose projection keeps every listed element at its
    syllable length. Finite factors: the trivial pair. Free factors: a
    catalog scan over generator-image pairs, each syllable required to
    stay outside the amalgamated image."""
    if isinstance(target, AmalgamPresentation):
        wq = _trivial_pair_quotient(target)
        if mode == "p" and not presentation_residually_p(target, p):
            raise BoundExhausted(
                bound, "presentation is not residually p-finite; no p-mode pair")
        return wq
    desc = target
    a_chunks: list[FreeWord] = []
    b_chunks: list[FreeWord] = []
    for letters in elements:
        form = free_reduced_form(desc, letters)
        for side, w in form.chunks:
            (a_chunks if side == "A" else b_chunks).append(w)
    found = _free_pair_scan(desc, a_chunks, b_chunks,
                            p if mode == "p" else None, bound)
    if found is None:
        raise BoundExhausted(bound, "no length-preserving pair in the catalog")
    name, qa = found
    return WorkingQuotient(qa, name)


# ---------------------------------------------------------------------------
# Witness reports


@dataclass
class WitnessReport:
    """Outcome of a separation query, with a re-verified certificate."""

    mode: str
    prime: Optional[int]
    h_text: str
    g_text: str
    outcome: str                      # 'separated' | 'member' | 'obstructed'
    exponent: Optional[int] = None
    reason: Optional[str] = None      # obstruction tag
    target_name: Optional[str] = None
    target_order: Optional[int] = None
    image_order: Optional[int] = None
    hom_map_a: Optional[tuple[int, ...]] = None
    hom_map_b: Optional[tuple[int, ...]] = None
    root_prime: Optional[int] = None
    root_text: Optional[str] = None
    lambda_side: Optional[str] = None
    bound: Optional[int] = None
    pair_desc: Optional[str] = None
    reverified: Optional[bool] = None
    notes: list[str] = field(default_factory=list)

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
            if self.reason == "lambda_family":
                doc["side"] = self.lambda_side
            if self.reason == "bound_exhausted":
                doc["bound"] = self.bound
        if self.pair_desc:
            doc["pair"] = self.pair_desc
        if self.notes:
            doc["notes"] = list(self.notes)
        return doc


def _letters_text(letters) -> str:
    return " ".join(f"{side}:{payload}" for side, payload in letters)


def _report_base(mode, p, h_text, g_text) -> WitnessReport:
    return WitnessReport(mode=mode, prime=p, h_text=h_text, g_text=g_text,
                         outcome="")


def _certify(report: WitnessReport, qa: QuotientAmalgam, hq: AmalgamElement,
             gq: AmalgamElement, hom: GluedHom) -> WitnessReport:
    T = hom.target
    th, tg = hom.apply(hq), hom.apply(gq)
    ok = not _cyclic_member_in_table(T, th, tg)
    image = hom.image_members()
    report.outcome = "separated"
    report.target_name = hom.target_name
    report.target_order = T.order
    report.image_order = len(image)
    report.hom_map_a = hom.map_a
    report.hom_map_b = hom.map_b
    report.reverified = ok
    assert ok, "certificate failed re-verification"
    return report


def _finish_scan(report: WitnessReport, qa: QuotientAmalgam, hq, gq,
                 p: Optional[int], max_order: int) -> WitnessReport:
    hom = _find_separating_hom(qa, hq, gq, p, max_order)
    if hom is None:
        report.outcome = "obstructed"
        report.reason = "bound_exhausted"
        report.bound = max_order
        return report
    return _certify(report, qa, hq, gq, hom)


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
    subgroup is not p'-isolated, a family obstruction at factor level, or
    an exhausted search bound).
    """
    if mode not in ("plain", "p"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "p" and not is_prime(p or 0):
        raise InputError("p-mode requires a prime p")
    pmode = p if mode == "p" else None

    if isinstance(target, AmalgamPresentation):
        return _separate_finite(target, list(h_letters), list(g_letters),
                                mode, pmode, max_order)
    return _separate_free(target, list(h_letters), list(g_letters),
                          mode, pmode, max_order, pair_bound)


def _separate_finite(pres: AmalgamPresentation, h_letters, g_letters,
                     mode, p, max_order) -> WitnessReport:
    report = _report_base(mode, p, _letters_text(h_letters), _letters_text(g_letters))
    g = am.normalize(pres, g_letters)
    h = am.normalize(pres, h_letters)
    if g.is_identity():
        raise InputError("g must be nontrivial")

    verdict = am.cyclic_member(h, g)
    if verdict.is_member:
        report.outcome = "member"
        report.exponent = verdict.exponent
        return report

    if p is not None and not presentation_residually_p(pres, p):
        report.outcome = "obstructed"
        report.reason = "bound_exhausted"
        report.bound = max_order
        report.notes.append("presentation is not residually p-finite; "
                            "p-mode machinery does not apply")
        return report

    wq = _trivial_pair_quotient(pres)
    qa = wq.qa
    report.pair_desc = wq.pair_desc
    hq = qa.project(h.letters())
    gq = qa.project(g.letters())

    gr, c = am.cyclically_reduce(gq)
    ht = am.multiply(am.multiply(am.invert(c), hq), c)
    n = am.syllable_length(gr)
    m = am.syllable_length(ht)

    if n <= 1:
        return _short_generator_case(report, qa, hq, gq, gr, ht, mode, p, max_order)

    if p is None:
        # Non-membership is exact here; the length or exponent argument
        # already holds, so scan for the certifying homomorphism.
        return _finish_scan(report, qa, hq, gq, None, max_order)

    if not am.is_p_prime_isolated(g, p):
        q, root = am.find_prime_root(g, p)
        report.outcome = "obstructed"
        report.reason = "not_isolated"
        report.root_prime = q
        report.root_text = am.serialize_element(root)
        return report

    f, j = am.isolated_closure(gr, p)
    n_prime = n
    while n_prime % p == 0:
        n_prime //= p
    if (m * n_prime) % n != 0:
        # h cannot lie in the isolated closure: its n'-th power would land
        # in <g> with an impossible syllable length.
        chk = am.cyclic_member(ht, f)
        assert not chk.is_member
        return _finish_scan(report, qa, hq, gq, p, max_order)
    k = m * n_prime // n
    hn = am.power(ht, n_prime)
    if hn == am.power(gr, k) or hn == am.power(gr, -k):
        # Contradicts p'-isolation plus non-membership in an exact
        # presentation; unreachable when the preconditions hold.
        raise AssertionError("isolation certificate inconsistent with power collision")
    return _finish_scan(report, qa, hq, gq, p, max_order)


def _short_generator_case(report, qa, hq, gq, gr, ht, mode, p, max_order
                          ) -> WitnessReport:
    """Generator lies in a factor after cyclic reduction (length <= 1)."""
    pres = qa.presentation
    g_fac = am.factor_element_of(gr)
    h_fac = am.factor_element_of(ht)
    if h_fac is None:
        # h keeps length >= 2 while all powers of g stay in one factor.
        return _finish_scan(report, qa, hq, gq, p, max_order)
    g_side, g_elem = g_fac
    h_side, h_elem = h_fac
    if h_side != g_side:
        if am.syllable_length(ht) == 0:
            # Amalgam elements are visible from either side.
            h_side, h_elem = g_side, pres.core_on(g_side, ht.core)
        else:
            # Genuinely different factors, so h cannot meet <g>.
            return _finish_scan(report, qa, hq, gq, p, max_order)
    factor = pres.factor(g_side)
    cyc = subgroup_generated(factor, [g_elem])
    pairs = enumerate_compatible_pairs(pres, "p" if p is not None else "plain", p)
    chosen = None
    for pair in pairs:
        R = pair.r_side if g_side == "A" else pair.s_side
        if h_elem not in product_set(factor, cyc.members, R.members):
            chosen = pair
            break
    if chosen is None:
        report.outcome = "obstructed"
        report.reason = "lambda_family"
        report.lambda_side = g_side
        return report
    qa2 = build_quotient_amalgam(pres, chosen)
    hq2 = qa2.project(hq.letters())
    gq2 = qa2.project(gq.letters())
    report.pair_desc = (report.pair_desc or "") + f" -> factor pair {chosen.key()}"
    return _finish_scan(report, qa2, hq2, gq2, p, max_order)


def _separate_free(desc: FreeAmalgamDescription, h_letters, g_letters,
                   mode, p, max_order, pair_bound) -> WitnessReport:
    _require_cyclic_amalgam(desc)
    report = _report_base(
        mode, p,
        " ".join(f"{s}:{w}" for s, w in h_letters),
        " ".join(f"{s}:{w}" for s, w in g_letters))
    g_form = free_reduced_form(desc, g_letters)
    if g_form.is_identity():
        raise InputError("g must be nontrivial")
    h_form = free_reduced_form(desc, h_letters)

    # Cyclically reduce g symbolically, transporting h by the conjugator.
    g_red, conj = free_cyclically_reduce(desc, g_form)
    conj_inv = _free_letters_inverse(desc, conj)
    h_trans = free_reduced_form(
        desc, conj_inv + list(h_form.letters(desc)) + list(conj))
    n = g_red.length
    m = h_trans.length

    # Degenerate generator: a power of the amalgamated word.
    if n == 0:
        return _free_amalgam_power_case(desc, report, g_red, h_trans,
                                        mode, p, max_order, pair_bound)

    wq = find_length_preserving_pair(
        desc, [list(g_red.letters(desc)), list(h_trans.letters(desc))],
        mode, p, pair_bound)
    qa = wq.qa
    report.pair_desc = wq.pair_desc
    gq = qa.project(g_red.letters(desc))
    hq = qa.project(h_trans.letters(desc))
    assert am.syllable_length(gq) == n and am.syllable_length(hq) == m
    assert am.is_cyclically_reduced(gq)

    verdict = am.cyclic_member(hq, gq)
    if verdict.is_member:
        refined = _refine_free(desc, report, g_red, h_trans, verdict.exponent,
                               p, pair_bound)
        if refined is None:
            report.outcome = "member"
            report.exponent = verdict.exponent
            report.notes.append(
                f"membership verified at catalog bound {pair_bound}; deeper "
                "pairs found no distinction")
            return report
        qa = refined
        gq = qa.project(g_red.letters(desc))
        hq = qa.project(h_trans.letters(desc))
        verdict = am.cyclic_member(hq, gq)
        assert not verdict.is_member

    if n == 1 or p is None:
        # Non-membership now holds in a length-preserving quotient; the
        # certificate scan realizes the length or factor argument.
        return _finish_scan(report, qa, hq, gq, p, max_order)

    # p-mode, n >= 2: work with the isolated closure inside the quotient,
    # refining the pair while the n'-th power of h collides with g^k.
    for _ in range(4):
        gr, c = am.cyclically_reduce(gq)
        ht = am.multiply(am.multiply(am.invert(c), hq), c)
        f, j = am.isolated_closure(gr, p)
        n_prime = n
        while n_prime % p == 0:
            n_prime //= p
        if (m * n_prime) % n != 0:
            # h cannot lie in the isolated closure of <g>.
            chk = am.cyclic_member(ht, f)
            assert not chk.is_member
            return _finish_scan(report, qa, hq, gq, p, max_order)
        k = m * n_prime // n
        hn = am.power(ht, n_prime)
        if hn != am.power(gr, k) and hn != am.power(gr, -k):
            return _finish_scan(report, qa, hq, gq, p, max_order)
        h_letters_full = list(h_trans.letters(desc))
        survivors = [
            _free_power_letters(desc, h_letters_full, -n_prime)
            + _free_power_letters(desc, list(g_red.letters(desc)), k),
            _free_power_letters(desc, h_letters_full, -n_prime)
            + _free_power_letters(desc, list(g_red.letters(desc)), -k),
        ]
        found = _free_pair_scan(
            desc,
            [w for s, w in g_red.chunks + h_trans.chunks if s == "A"],
            [w for s, w in g_red.chunks + h_trans.chunks if s == "B"],
            p, pair_bound,
            accept=lambda q: all(not q.project(sv).is_identity() for sv in survivors))
        if found is None:
            report.outcome = "obstructed"
            report.reason = "bound_exhausted"
            report.bound = pair_bound
            report.notes.append("no refining pair distinguishes the power collision")
            return report
        report.pair_desc, qa = found
        gq = qa.project(g_red.letters(desc))
        hq = qa.project(h_trans.letters(desc))
    report.outcome = "obstructed"
    report.reason = "bound_exhausted"
    report.bound = pair_bound
    report.notes.append("refinement loop did not stabilize")
    return report


def _free_power_letters(desc, letters, k: int) -> list[FreeLetter]:
    if k >= 0:
        return list(letters) * k
    return _free_letters_inverse(desc, letters) * (-k)


def _free_amalgam_power_case(desc, report, g_red, h_trans, mode, p,
                             max_order, pair_bound) -> WitnessReport:
    """Generator is a power of the amalgamated word: membership is decided
    by exponent divisibility; separation scans for a pair keeping the
    quotient images apart."""
    t = g_red.core_exponent
    if h_trans.length == 0:
        s = h_trans.core_exponent
        if s % t == 0:
            report.outcome = "member"
            report.exponent = s // t
            return report

    def keeps_apart(q: QuotientAmalgam) -> bool:
        return not am.cyclic_member(q.project(h_trans.letters(desc)),
                                    q.project(g_red.letters(desc))).is_member

    found = _free_pair_scan(
        desc,
        [w for s, w in h_trans.chunks if s == "A"],
        [w for s, w in h_trans.chunks if s == "B"],
        p, pair_bound, accept=keeps_apart)
    if found is None:
        report.outcome = "obstructed"
        report.reason = "bound_exhausted"
        report.bound = pair_bound
        return report
    report.pair_desc, qa = found
    gq = qa.project(g_red.letters(desc))
    hq = qa.project(h_trans.letters(desc))
    return _finish_scan(report, qa, hq, gq, p, max_order)


def _refine_free(desc, report, g_red, h_trans, k, p, pair_bound):
    """Scan for a pair in which h stays distinct from g^k and g^-k."""
    h_letters_full = list(h_trans.letters(desc))
    g_letters_full = list(g_red.letters(desc))
    survivors = [
        _free_power_letters(desc, h_letters_full, -1)
        + _free_power_letters(desc, g_letters_full, abs(k)),
        _free_power_letters(desc, h_letters_full, -1)
        + _free_power_letters(desc, g_letters_full, -abs(k)),
    ]
    found = _free_pair_scan(
        desc,
        [w for s, w in g_red.chunks + h_trans.chunks if s == "A"],
        [w for s, w in g_red.chunks + h_trans.chunks if s == "B"],
        p, pair_bound,
        accept=lambda q: all(not q.project(sv).is_identity() for sv in survivors))
    if found is None:
        return None
    report.pair_desc, qa = found
    return qa


# ---------------------------------------------------------------------------
# Case studies


@dataclass
class CaseStudyReport:
    """Pass/fail record of one scripted case study."""

    case: str
    parameters: dict
    assertions: list  # (name, passed: bool, detail)
    artifacts: dict = field(default_factory=dict)

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


def _sec3_case(p: int, q: int, n: int) -> CaseStudyReport:
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

    from .catalog import cyclic_group
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

    isolated = am.is_p_prime_isolated(gq, p)
    root = am.find_prime_root(gq, p)
    assertions.append((
        "image-subgroup-not-isolated", (not isolated) and root is not None,
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


def _thm21_case(bound: int) -> CaseStudyReport:
    """Catalog scan of compatible generator-image pairs for the doubling
    amalgam: every a-image has odd order (hence lies in the subgroup its
    square generates), a metacyclic pair realizes a-image order 7, and the
    square generator is not separated by the family found."""
    from .compat import enumerate_free_compatible_classes, free_family_separability

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


def _cyclic_remark_case(trials: int, seed: int = 20260810) -> CaseStudyReport:
    """Random finite p-group amalgams with cyclic amalgamated subgroups:
    every plain-compatible pair must carry a p-chain certificate."""
    import random as _random

    from .amalgam import build_amalgam
    from .compat import is_compatible, is_p_compatible
    from .fingrp import Subgroup, subgroup_generated

    rng = _random.Random(seed)
    pool = {
        2: [e for e in catalog(16, include_products=True) if entry_is_p_group(e, 2)],
        3: [e for e in catalog(27, include_products=True) if entry_is_p_group(e, 3)],
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
        pres = build_amalgam(A, B, H, K, phi)
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


def run_case_study(case: str, **params) -> CaseStudyReport:
    """Dispatch a named case study; see the CLI for the parameter surface."""
    if case == "sec3":
        return _sec3_case(params.get("p", 2), params.get("q", 3), params.get("n", 2))
    if case == "thm21":
        return _thm21_case(params.get("bound", 48))
    if case in ("cyclic_remark", "cyclic-remark"):
        return _cyclic_remark_case(params.get("trials", 100),
                                   params.get("seed", 20260810))
    raise UnknownCase(f"unknown case {case!r}")
