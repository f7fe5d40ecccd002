"""Exact arithmetic in an amalgamated free product A *_H B.

Elements are kept in the unique normal form

    core . t1 t2 ... tn

where core lies in the amalgamated subgroup H and the t_i are
non-identity right-coset transversal representatives, strictly
alternating between the two factors (Lyndon and Schupp, Combinatorial
Group Theory, ch. IV.2). Multiplication works letter by letter from the
right (prepending), which touches at most two syllables per letter; a
product, conjugate or cyclic-reduction step is reduced in one such pass.

The engine reaches the factors through the presentation alone: ``mul``
and ``inv`` in a factor; ``split(side, x)``, which writes x = h t with h
in H, as a core, and t the representative of Hx; ``core_on(side, core)``,
the core in that factor; ``power_exponent(side, x, g)``, the k with
x = g^k, or None; and ``element``, which checks a letter for
``normalize``. The identity is falsy in both kinds of factor (index 0,
the empty word), and so is the core 0 of the identity.

``AmalgamPresentation`` has finite factors given by tables, an index of A
as its core, and the least index of each coset as its representative.
``FreeAmalgamPresentation`` has free factors amalgamated along
<w_A> = <w_B>, the exponent s of w^s as its core, and the shortest word
w^s x, the least tuple among those as short, as the representative of
<w>x; so x lies in <w> iff that is the empty word. |w^s x| is the
distance from w^-s to x in the Cayley tree, and the points w^-s lie at
one distance from the axis of w, above evenly spaced points of it. So
the length falls strictly to its minimum, stays there for at most two
values of s, and then rises strictly: a walk from s = 0 each way, while
the length does not grow, finds the representative.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Iterable, Optional

from .errors import InputError
from .fingrp import (FiniteGroup, Record, Subgroup, coset_representatives, is_prime,
                     prime_factors)
from .freegrp import (FreeWord, reduce_word, word_inv, word_mul, word_pow,
                      word_power_exponent)

Side = str  # 'A' or 'B'
Letter = tuple[Side, int]


class AmalgamPresentation(Record):
    """Two finite factors with amalgamated subgroups H <= A and K <= B.

    ``phi``/``phi_inv`` give the identifying isomorphism on element
    indices; ``transversal_a[x]`` is the canonical representative of the
    right coset Hx (likewise for B), so every factor element splits
    uniquely as (amalgamated part) * (representative). The core is an
    element of H, as an index of A. A presentation equals only itself and
    hashes by identity; ``compat_cache`` and the split tables live in its
    ``__dict__``.
    """

    _fields = ("A", "B", "H", "K", "phi", "phi_inv", "transversal_a", "transversal_b")
    __slots__ = (*_fields, "__dict__", "__weakref__")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, A: FiniteGroup, B: FiniteGroup, H: Subgroup, K: Subgroup, phi: dict,
                 phi_inv: dict, transversal_a: tuple[int, ...], transversal_b: tuple[int, ...]):
        self._fill(A, B, H, K, phi, phi_inv, transversal_a, transversal_b)

    def factor(self, side: Side) -> FiniteGroup:
        return self.A if side == "A" else self.B

    def element(self, side: Side, x: int) -> int:
        if not 0 <= x < self.factor(side).order:
            raise AssertionError(f"element index {x} out of range for factor {side}")
        return x

    def mul(self, side: Side, x: int, y: int) -> int:
        return (self.A if side == "A" else self.B).table[x][y]

    def inv(self, side: Side, x: int) -> int:
        return (self.A if side == "A" else self.B).inverse[x]

    def core_on(self, side: Side, core: int) -> int:
        """The H-core as an element of the given factor."""
        return core if side == "A" else self.phi[core]

    def split(self, side: Side, x: int) -> tuple[int, int]:
        """(core, t) with x = core_on(side, core) * t, t the coset representative."""
        return self._splits[side][x]

    def power_exponent(self, side: Side, x: int, g: int) -> Optional[int]:
        return self.factor(side).power_exponent(x, g)

    @cached_property
    def _splits(self) -> dict[Side, tuple[tuple[int, int], ...]]:
        """``split`` of every element of each factor, by side."""
        out = {}
        for side, rep in (("A", self.transversal_a), ("B", self.transversal_b)):
            G = self.factor(side)
            hs = [G.table[x][G.inverse[t]] for x, t in enumerate(rep)]
            out[side] = tuple(zip(hs if side == "A" else map(self.phi_inv.__getitem__, hs), rep))
        return out

    @cached_property
    def compat_cache(self) -> dict:
        """Compat's p-chain families, p-pair verdicts and compatible-pair
        lists, keyed by tuples; the engine's glued factor maps onto a
        catalog entry's group under ``("glued", entry.name)`` (no group is
        held) and its abelianization data under ``"abelianization"``. It
        lives and dies with the presentation."""
        return {}


def build_amalgam(A: FiniteGroup, B: FiniteGroup, H: Subgroup, K: Subgroup,
                  phi: dict) -> AmalgamPresentation:
    """Validate the amalgamation data and precompute transversals.

    ``phi`` must be a bijection from H's members onto K's members and a
    homomorphism (checked on all pairs).
    """
    if H.parent is not A or not H.members <= frozenset(A.elements()):
        raise InputError("H is not a subgroup of A")
    if K.parent is not B:
        raise InputError("K is not a subgroup of B")
    if set(phi.keys()) != set(H.members):
        raise InputError("map is not an isomorphism: domain differs from H")
    if set(phi.values()) != set(K.members):
        raise InputError("map is not an isomorphism: image differs from K "
                         "(not a bijection onto K)")
    if len(set(phi.values())) != len(phi):
        raise InputError("map is not an isomorphism: map is not injective")
    for h1 in H.members:
        for h2 in H.members:
            if phi[A.table[h1][h2]] != B.table[phi[h1]][phi[h2]]:
                raise InputError(f"map is not an isomorphism: fails on pair ({h1}, {h2})")
    phi_inv = {v: k for k, v in phi.items()}
    return AmalgamPresentation(
        A=A, B=B, H=H, K=K, phi=dict(phi), phi_inv=phi_inv,
        transversal_a=coset_representatives(A, H),
        transversal_b=coset_representatives(B, K),
    )


# Bound of a free presentation's table. A benchmark free-scan round puts
# 24 to 54 entries in each table and finds 81-87% of its calls there.
FREE_TABLE_LIMIT = 1 << 14


class FreeAmalgamPresentation(Record):
    """Two free factors, of ranks ``rank_a`` and ``rank_b``, amalgamated
    along the cyclic subgroups that the nontrivial reduced words ``word_a``
    and ``word_b`` generate, with word_a = word_b. Factor elements are
    reduced words; the core is the exponent s of word_a^s = word_b^s. A
    presentation equals only itself and hashes by identity; the table of
    ``split`` and ``core_on``, which fills as they are met, lives in its
    ``__dict__``."""

    _fields = ("rank_a", "rank_b", "word_a", "word_b")
    __slots__ = (*_fields, "__dict__")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, rank_a: int, rank_b: int, word_a: FreeWord, word_b: FreeWord):
        self._fill(rank_a, rank_b, word_a, word_b)

    def element(self, side: Side, x: FreeWord) -> FreeWord:
        """The reduced word of x; its letters must name the side's generators."""
        rank = self.rank_a if side == "A" else self.rank_b
        if x and not (min(x)[0] >= 0 and max(x)[0] < rank):   # letters order by generator
            raise AssertionError(f"{x!r} names a generator outside factor {side}")
        return reduce_word(x)

    def mul(self, side: Side, x: FreeWord, y: FreeWord) -> FreeWord:
        return word_mul(x, y)

    def inv(self, side: Side, x: FreeWord) -> FreeWord:
        return word_inv(x)

    def core_on(self, side: Side, core: int) -> FreeWord:
        found = self._table.get((side, core))
        if found is None:
            w = self.word_a if side == "A" else self.word_b
            found = self._remember((side, core), word_pow(w, core))
        return found

    def split(self, side: Side, x: FreeWord) -> tuple[int, FreeWord]:
        """(s, t) with x = w^s t for the reduced word x, t the shortest
        w^-s x and the least tuple among those as short (module docstring)."""
        found = self._table.get((side, x))
        if found is None:
            w = self.word_a if side == "A" else self.word_b
            w_inv = word_inv(w)
            best = (len(x), x, 0)
            # t becomes step t and s grows by ds; step t drops a leading
            # copy of step^-1, and is no longer than t only if it cancels
            # into t, so only if t starts as the copy does.
            for step, copy, ds in ((w_inv, w, 1), (w, w_inv, -1)):
                t, s, n = x, 0, len(copy)
                while t[:n] == copy:
                    t, s = t[n:], s + ds
                best = min(best, (len(t), t, s))
                while t[:1] == copy[:1] and len(nxt := word_mul(step, t)) <= len(t):
                    t, s = nxt, s + ds
                    best = min(best, (len(t), t, s))
            found = self._remember((side, x), (best[2], best[1]))
        return found

    def power_exponent(self, side: Side, x: FreeWord, g: FreeWord) -> Optional[int]:
        return word_power_exponent(x, g)

    @cached_property
    def _table(self) -> dict[tuple, object]:
        """``split`` of each (side, word) and ``core_on`` of each (side,
        core) met since ``_remember`` last emptied the table, which it does
        at ``FREE_TABLE_LIMIT`` entries."""
        return {}

    def _remember(self, key: tuple, value):
        if len(self._table) >= FREE_TABLE_LIMIT:
            self._table.clear()
        self._table[key] = value
        return value


class AmalgamElement(Record):
    """Normal form: H-core plus alternating syllables; elements of
    different presentations never compare equal."""

    __slots__ = _fields = ("pres", "core", "syllables")

    def __init__(self, pres: AmalgamPresentation, core: int, syllables: tuple[Letter, ...]):
        _set_pres(self, pres)
        _set_core(self, core)
        _set_syllables(self, syllables)

    def is_identity(self) -> bool:
        return self.core == 0 and not self.syllables

    def letters(self) -> list[Letter]:
        out: list[Letter] = []
        if self.core != 0:
            out.append(("A", self.pres.core_on("A", self.core)))
        out.extend(self.syllables)
        return out

    def __repr__(self) -> str:
        return f"AmalgamElement(core={self.core}, syllables={self.syllables})"


# The slots' own setters: Record's __setattr__ refuses, and these are the
# fastest way past it.
_set_pres, _set_core, _set_syllables = (
    AmalgamElement.pres.__set__, AmalgamElement.core.__set__, AmalgamElement.syllables.__set__)


def identity_element(pres: AmalgamPresentation) -> AmalgamElement:
    return AmalgamElement(pres, 0, ())


def _prepend(pres: AmalgamPresentation, side: Side, elem, x: AmalgamElement) -> AmalgamElement:
    """Normal form of (side:elem) * x; touches at most the first syllable."""
    # A core of 0 is the identity, which leaves the letter as it is.
    u = pres.mul(side, elem, pres.core_on(side, x.core)) if x.core else elem
    syls = x.syllables
    if syls and syls[0][0] == side:
        # Merge with the first syllable s: u s splits as the core times the
        # merged representative, which is s itself when u lies in H.
        core, t = pres.split(side, pres.mul(side, u, syls[0][1]))
        syls = syls[1:]
    else:
        core, t = pres.split(side, u)
    # With t the identity, the letter (or the merged pair) folded into the
    # amalgamated part.
    return AmalgamElement(pres, core, ((side, t),) + syls if t else syls)


def normalize(pres: AmalgamPresentation, letters: Iterable[Letter]) -> AmalgamElement:
    """Unique normal form of a product of tagged factor elements."""
    checked = []
    for side, elem in letters:
        if side not in ("A", "B"):
            raise AssertionError(f"letter side must be 'A' or 'B', got {side!r}")
        checked.append((side, pres.element(side, elem)))
    return _product(pres, checked, identity_element(pres))


def _product(pres: AmalgamPresentation, letters: list[Letter], x: AmalgamElement
             ) -> AmalgamElement:
    """Normal form of the product of checked letters, times x."""
    for side, elem in reversed(letters):
        x = _prepend(pres, side, elem, x)
    return x


def multiply(x: AmalgamElement, y: AmalgamElement) -> AmalgamElement:
    if x.pres is not y.pres:
        raise AssertionError("elements live in different presentations")
    return _product(x.pres, x.letters(), y)


def _inverse_letters(x: AmalgamElement) -> list[Letter]:
    pres = x.pres
    return [(side, pres.inv(side, elem)) for side, elem in reversed(x.letters())]


def invert(x: AmalgamElement) -> AmalgamElement:
    return _product(x.pres, _inverse_letters(x), identity_element(x.pres))


def conjugate(x: AmalgamElement, c: AmalgamElement) -> AmalgamElement:
    """c^-1 x c, as the letters of c^-1 and of x prepended onto c; x itself
    when c is the identity."""
    if c.is_identity():
        return x
    if x.pres is not c.pres:
        raise AssertionError("elements live in different presentations")
    return _product(c.pres, _inverse_letters(c) + x.letters(), c)


def power(x: AmalgamElement, k: int) -> AmalgamElement:
    """x^k by binary powering: popcount(|k|) + floor(log2 |k|) products."""
    if k < 0:
        x, k = invert(x), -k
    acc = identity_element(x.pres)
    while k:
        if k & 1:
            acc = multiply(acc, x)
        k >>= 1
        if k:
            x = multiply(x, x)
    return acc


def syllable_length(x: AmalgamElement) -> int:
    return len(x.syllables)


def is_cyclically_reduced(x: AmalgamElement) -> bool:
    n = len(x.syllables)
    return n <= 1 or x.syllables[0][0] != x.syllables[-1][0]


def cyclically_reduce(x: AmalgamElement) -> tuple[AmalgamElement, AmalgamElement]:
    """Return (y, c) with x = c * y * c^-1 and y cyclically reduced.

    Each step rotates the leading syllable (with the core) to the end and
    renormalizes, so the syllable length strictly drops until the first
    and last syllables lie in different factors or at most one remains.
    """
    pres = x.pres
    y = x
    c = identity_element(pres)
    while len(y.syllables) >= 2 and y.syllables[0][0] == y.syllables[-1][0]:
        step = AmalgamElement(pres, y.core, (y.syllables[0],))
        y_next = _product(pres, [*y.syllables[1:], *step.letters()], identity_element(pres))
        if syllable_length(y_next) >= syllable_length(y):
            raise AssertionError("cyclic reduction made no progress")
        y = y_next
        c = multiply(c, step)
    return y, c


def element_order(x: AmalgamElement):
    """Order of x, for finite factors: math.inf when the cyclic reduction
    has length >= 2, otherwise the order inside the factor containing it."""
    fac = factor_element_of(cyclically_reduce(x)[0])
    if fac is None:
        return math.inf
    side, t = fac
    return x.pres.factor(side).element_order(t)


def factor_element_of(x: AmalgamElement) -> Optional[tuple[Side, int]]:
    """For l(x) <= 1, the factor element x represents; None when l(x) >= 2.

    Elements of length 0 are reported on side A (where the core lives).
    """
    if len(x.syllables) >= 2:
        return None
    pres = x.pres
    if not x.syllables:
        return ("A", pres.core_on("A", x.core))
    side, t = x.syllables[0]
    return (side, pres.mul(side, pres.core_on(side, x.core), t))


class CyclicMembership(Record):
    __slots__ = _fields = ("verdict", "exponent", "reason")

    def __init__(self, verdict: str, exponent: Optional[int] = None,
                 reason: Optional[str] = None):
        self._fill(verdict, exponent, reason)    # verdict: 'member' | 'nonmember'

    @property
    def is_member(self) -> bool:
        return self.verdict == "member"


def _member(k: int) -> CyclicMembership:
    return CyclicMembership("member", exponent=k)


def _nonmember(reason: str) -> CyclicMembership:
    return CyclicMembership("nonmember", reason=reason)


def cyclic_member(h: AmalgamElement, g: AmalgamElement) -> CyclicMembership:
    """Decide h in <g>, returning a power certificate on success.

    The generator is cyclically reduced first (transporting h by the same
    conjugator). For l >= 2 the power-length law pins down the only two
    candidate exponents; for l <= 1, <g> lies in one factor, which embeds
    in the amalgam, and the factor decides (``power_exponent``).
    """
    pres = g.pres
    if h.pres is not pres:
        raise AssertionError("elements live in different presentations")
    gr, c = cyclically_reduce(g)
    ht = conjugate(h, c)
    n, m = syllable_length(gr), syllable_length(ht)
    if n >= 2:
        if m == 0:
            if ht.is_identity():
                return _member(0)
            return _nonmember("amalgam-part element is no positive power")
        if m % n != 0:
            return _nonmember("syllable length is not a multiple")
        k = m // n
        if power(gr, k) == ht:
            return _member(k)
        if power(gr, -k) == ht:
            return _member(-k)
        return _nonmember("length-compatible exponents fail")
    # <g> lies in the factor of gr (A when n = 0); so must h.
    side, t = factor_element_of(gr)
    k = None
    if m == 0 or (m == 1 and ht.syllables[0][0] == side):
        x = factor_element_of(ht)[1] if m else pres.core_on(side, ht.core)
        k = pres.power_exponent(side, x, t)
    if k is not None:
        return _member(k)
    if isinstance(pres, FreeAmalgamPresentation):     # <g> is infinite unless g = 1
        return _nonmember("not in the cyclic subgroup of the free factor")
    return _nonmember("not in the finite cyclic subgroup")


def extract_root(g: AmalgamElement, q: int) -> Optional[AmalgamElement]:
    """Some h with h^q = g, or None, for g whose cyclic reduction has
    length n >= 2 (``find_prime_root`` asks only for prime q dividing n).

    The root, if any, is cyclically reduced of length n/q, and its syllable
    skeleton is a cyclic segment of g's; candidates are those segments
    decorated by all possible amalgamated-part cores (finite factors).
    """
    if not is_prime(q):
        raise AssertionError(f"{q} is not prime")
    pres = g.pres
    y, c = cyclically_reduce(g)
    n = syllable_length(y)
    if n < 2:
        raise AssertionError(f"no root search at cyclic reduction length {n}")
    if n % q != 0:
        return None
    r = n // q
    if r < 2:
        # A root of length <= 1 would have q-th power of length <= 1.
        return None
    syl = y.syllables
    for rot in range(n):
        skeleton = (syl + syl)[rot:rot + r]
        if skeleton[0][0] == skeleton[-1][0]:
            continue  # not cyclically reduced, cannot power up to y
        for d in sorted(pres.H.members):
            cand = AmalgamElement(pres, d, skeleton)
            if power(cand, q) == y:
                return conjugate(cand, invert(c))
    return None


def find_prime_root(g: AmalgamElement, p: int) -> Optional[tuple[int, AmalgamElement]]:
    """A pair (q, h) with h^q = g for some prime q != p, or None.

    Requires g of infinite order, read off the cyclic reduction (length
    >= 2), in a presentation certified residually p-finite. Only primes
    dividing the cyclic-reduction length can occur.
    """
    if not is_prime(p):
        raise AssertionError(f"{p} is not prime")
    n = syllable_length(cyclically_reduce(g)[0])
    if n < 2:
        raise InputError("precondition violated: infinite-order (element has finite order)")
    from .compat import presentation_residually_p  # local import: compat builds on this module
    if not presentation_residually_p(g.pres, p):
        raise InputError("precondition violated: residually-p-ambient "
                         f"(presentation admits no index-{p} chain certificate)")
    for q in prime_factors(n):
        if q == p:
            continue
        root = extract_root(g, q)
        if root is not None:
            return (q, root)
    return None


def is_p_prime_isolated(g: AmalgamElement, p: int) -> bool:
    """Root criterion: <g> is p'-isolated iff g has no q-th root, q != p.

    Requires g of infinite order in a presentation certified residually
    p-finite, where the criterion is exact.
    """
    return find_prime_root(g, p) is None


def serialize_element(x: AmalgamElement) -> str:
    pres = x.pres
    parts = []
    if x.core != 0 or not x.syllables:
        parts.append(f"A:{pres.A.names[x.core]}")
    for side, t in x.syllables:
        parts.append(f"{side}:{pres.factor(side).names[t]}")
    return " ".join(parts)


def parse_tagged(text: str, parse: Callable[[Side, str], object],
                 payload: str = "name") -> list[tuple[Side, object]]:
    """Parse "SIDE:payload" tokens into ``(side, parse(side, payload))``
    pairs, token by token, so the first bad token is the one reported."""
    letters = []
    for token in text.split():
        if ":" not in token:
            raise InputError(f"letter {token!r} must look like SIDE:{payload}")
        side, chunk = token.split(":", 1)
        if side not in ("A", "B"):
            raise InputError(f"unknown side {side!r} in {token!r}")
        letters.append((side, parse(side, chunk)))
    return letters


def parse_letters(pres: AmalgamPresentation, text: str) -> list[Letter]:
    """Parse tagged letter strings like "A:a B:b A:a3"."""
    return parse_tagged(text, lambda side, name: pres.factor(side).index_of(name))
