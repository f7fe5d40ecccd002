"""Exact arithmetic in an amalgamated free product of two finite groups.

Elements are kept in the unique normal form

    core . t1 t2 ... tn

where core lies in the amalgamated subgroup H (stored as an element of the
A factor) and the t_i are non-identity right-coset transversal
representatives, strictly alternating between the two factors. The
transversal picks the least element index in each coset, hence the
identity on H and K. Multiplication works letter by letter from the
right (prepending), which touches at most two syllables per letter; a
product, conjugate or cyclic-reduction step is reduced in one such pass.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Iterable, Optional

from .errors import InputError
from .fingrp import (FiniteGroup, Record, Subgroup, coset_representatives, is_prime,
                     prime_factors)

Side = str  # 'A' or 'B'
Letter = tuple[Side, int]


class AmalgamPresentation(Record):
    """Two finite factors with amalgamated subgroups H <= A and K <= B.

    ``phi``/``phi_inv`` give the identifying isomorphism on element
    indices; ``transversal_a[x]`` is the canonical representative of the
    right coset Hx (likewise for B), so every factor element splits
    uniquely as (amalgamated part) * (representative). A presentation
    equals only itself and hashes by identity; ``compat_cache`` lives in
    its ``__dict__``.
    """

    _fields = ("A", "B", "H", "K", "phi", "phi_inv", "transversal_a", "transversal_b")
    __slots__ = (*_fields, "__dict__", "__weakref__")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, A: FiniteGroup, B: FiniteGroup, H: Subgroup, K: Subgroup, phi: dict,
                 phi_inv: dict, transversal_a: tuple[int, ...], transversal_b: tuple[int, ...]):
        self._fill(A, B, H, K, phi, phi_inv, transversal_a, transversal_b)

    def factor(self, side: Side) -> FiniteGroup:
        return self.A if side == "A" else self.B

    def transversal(self, side: Side) -> tuple[int, ...]:
        return self.transversal_a if side == "A" else self.transversal_b

    def core_on(self, side: Side, core_a: int) -> int:
        """The H-core as an element of the given factor."""
        return core_a if side == "A" else self.phi[core_a]

    def core_to_a(self, side: Side, x: int) -> int:
        return x if side == "A" else self.phi_inv[x]

    def split(self, side: Side, x: int) -> tuple[int, int]:
        """x = h * t with h in the amalgamated subgroup, t the coset representative."""
        t = self.transversal(side)[x]
        G = self.factor(side)
        return G.table[x][G.inverse[t]], t

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


class AmalgamElement(Record):
    """Normal form: H-core (as an A-element) plus alternating syllables;
    elements of different presentations never compare equal."""

    __slots__ = _fields = ("pres", "core", "syllables")

    def __init__(self, pres: AmalgamPresentation, core: int, syllables: tuple[Letter, ...]):
        object.__setattr__(self, "pres", pres)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "syllables", syllables)

    # Record's comparison, without building key tuples.
    def __eq__(self, other):
        if other.__class__ is not AmalgamElement:
            return NotImplemented
        return (self.pres is other.pres and self.core == other.core
                and self.syllables == other.syllables)

    def __hash__(self) -> int:
        return hash((self.pres, self.core, self.syllables))

    def is_identity(self) -> bool:
        return self.core == 0 and not self.syllables

    def letters(self) -> list[Letter]:
        out: list[Letter] = []
        if self.core != 0:
            out.append(("A", self.core))
        out.extend(self.syllables)
        return out

    def __repr__(self) -> str:
        return f"AmalgamElement(core={self.core}, syllables={self.syllables})"


def identity_element(pres: AmalgamPresentation) -> AmalgamElement:
    return AmalgamElement(pres, 0, ())


def _prepend(pres: AmalgamPresentation, side: Side, elem: int,
             x: AmalgamElement) -> AmalgamElement:
    """Normal form of (side:elem) * x; touches at most the first syllable."""
    G = pres.factor(side)
    u = G.table[elem][pres.core_on(side, x.core)]
    h, t = pres.split(side, u)
    if t == 0:
        # The whole letter folds into the amalgamated part.
        return AmalgamElement(pres, pres.core_to_a(side, u), x.syllables)
    syls = x.syllables
    if syls and syls[0][0] == side:
        # Merge the fresh representative with the first syllable.
        v = G.table[t][syls[0][1]]
        h2, t2 = pres.split(side, v)
        core = pres.core_to_a(side, G.table[h][h2])
        if t2 == 0:
            # The merged pair collapsed into the amalgamated subgroup.
            return AmalgamElement(pres, core, syls[1:])
        return AmalgamElement(pres, core, ((side, t2),) + syls[1:])
    return AmalgamElement(pres, pres.core_to_a(side, h), ((side, t),) + syls)


def normalize(pres: AmalgamPresentation, letters: Iterable[Letter]) -> AmalgamElement:
    """Unique normal form of a product of tagged factor elements."""
    letters = list(letters)
    for side, elem in letters:
        if side not in ("A", "B"):
            raise AssertionError(f"letter side must be 'A' or 'B', got {side!r}")
        if not (0 <= elem < pres.factor(side).order):
            raise AssertionError(f"element index {elem} out of range for factor {side}")
    x = identity_element(pres)
    for side, elem in reversed(letters):
        x = _prepend(pres, side, elem, x)
    return x


def multiply(x: AmalgamElement, y: AmalgamElement) -> AmalgamElement:
    if x.pres is not y.pres:
        raise AssertionError("elements live in different presentations")
    out = y
    for side, elem in reversed(x.letters()):
        out = _prepend(x.pres, side, elem, out)
    return out


def invert(x: AmalgamElement) -> AmalgamElement:
    pres = x.pres
    letters = []
    for side, elem in reversed(x.letters()):
        letters.append((side, pres.factor(side).inverse[elem]))
    return normalize(pres, letters)


def conjugate(x: AmalgamElement, c: AmalgamElement) -> AmalgamElement:
    """c^-1 x c; x itself when c is the identity."""
    if c.is_identity():
        return x
    return multiply(multiply(invert(c), x), c)


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
        y_next = normalize(pres, y.syllables[1:] + tuple(step.letters()))
        if syllable_length(y_next) >= syllable_length(y):
            raise AssertionError("cyclic reduction made no progress")
        y = y_next
        c = multiply(c, step)
    return y, c


def element_order(x: AmalgamElement):
    """Order of x: math.inf when the cyclic reduction has length >= 2,
    otherwise the order inside the finite factor containing it."""
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
        return ("A", x.core)
    side, t = x.syllables[0]
    G = pres.factor(side)
    return (side, G.table[pres.core_on(side, x.core)][t])


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
    candidate exponents; for l <= 1 the finite cyclic subgroup of the
    ambient factor is enumerated.
    """
    if h.pres is not g.pres:
        raise AssertionError("elements live in different presentations")
    gr, c = cyclically_reduce(g)
    ht = conjugate(h, c)
    n = syllable_length(gr)
    if n >= 2:
        m = syllable_length(ht)
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
    # Finite cyclic subgroup <g>.
    order = element_order(gr)
    cur = identity_element(g.pres)
    for k in range(order):
        if cur == ht:
            return _member(k)
        cur = multiply(cur, gr)
    return _nonmember("not in the finite cyclic subgroup")


def extract_root(g: AmalgamElement, q: int) -> Optional[AmalgamElement]:
    """Some h with h^q = g, or None, for g whose cyclic reduction has
    length n >= 2 (``find_prime_root`` asks only for prime q dividing n).

    The root, if any, is cyclically reduced of length n/q, and its syllable
    skeleton is a cyclic segment of g's; candidates are those segments
    decorated by all possible amalgamated-part cores.
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
