"""Exact arithmetic in an amalgamated free product of two finite groups.

Elements are kept in the unique normal form

    core . t1 t2 ... tn

where core lies in the amalgamated subgroup H (stored as an element of the
A factor) and the t_i are non-identity right-coset transversal
representatives, strictly alternating between the two factors. The
transversal picks the least element index in each coset, hence the
identity on H and K. Multiplication works letter by letter from the
right (prepending), which touches at most two syllables per letter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .errors import (
    InputError,
    NotIsomorphism,
    NotSubgroup,
    PreconditionViolated,
    PresentationMismatch,
)
from .fingrp import FiniteGroup, Subgroup, is_prime, prime_factors

Side = str  # 'A' or 'B'
Letter = tuple[Side, int]


@dataclass(frozen=True, eq=False)
class AmalgamPresentation:
    """Two finite factors with amalgamated subgroups H <= A and K <= B.

    ``phi``/``phi_inv`` give the identifying isomorphism on element
    indices; ``transversal_a[x]`` is the canonical representative of the
    right coset Hx (likewise for B), so every factor element splits
    uniquely as (amalgamated part) * (representative).
    """

    A: FiniteGroup
    B: FiniteGroup
    H: Subgroup
    K: Subgroup
    phi: dict
    phi_inv: dict
    transversal_a: tuple[int, ...]
    transversal_b: tuple[int, ...]

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
    def quotient_cache(self) -> dict:
        """Quotient amalgams the engine built from this presentation, keyed
        by pair description. It lives and dies with the presentation."""
        return {}


def _coset_transversal(G: FiniteGroup, S: Subgroup) -> tuple[int, ...]:
    rep = [-1] * G.order
    for x in G.elements():
        if rep[x] >= 0:
            continue
        coset = sorted(G.table[s][x] for s in S.members)
        r = coset[0]
        for y in coset:
            rep[y] = r
    return tuple(rep)


def build_amalgam(A: FiniteGroup, B: FiniteGroup, H: Subgroup, K: Subgroup,
                  phi: dict) -> AmalgamPresentation:
    """Validate the amalgamation data and precompute transversals.

    ``phi`` must be a bijection from H's members onto K's members and a
    homomorphism (checked on all pairs).
    """
    if H.parent is not A or not H.members <= frozenset(A.elements()):
        raise NotSubgroup("H is not a subgroup of A")
    if K.parent is not B:
        raise NotSubgroup("K is not a subgroup of B")
    if set(phi.keys()) != set(H.members):
        raise NotIsomorphism("domain differs from H")
    if set(phi.values()) != set(K.members):
        raise NotIsomorphism("image differs from K (not a bijection onto K)")
    if len(set(phi.values())) != len(phi):
        raise NotIsomorphism("map is not injective")
    for h1 in H.members:
        for h2 in H.members:
            if phi[A.table[h1][h2]] != B.table[phi[h1]][phi[h2]]:
                raise NotIsomorphism(f"fails on pair ({h1}, {h2})")
    phi_inv = {v: k for k, v in phi.items()}
    return AmalgamPresentation(
        A=A, B=B, H=H, K=K, phi=dict(phi), phi_inv=phi_inv,
        transversal_a=_coset_transversal(A, H),
        transversal_b=_coset_transversal(B, K),
    )


@dataclass(frozen=True, eq=False)
class AmalgamElement:
    """Normal form: H-core (as an A-element) plus alternating syllables."""

    pres: AmalgamPresentation
    core: int
    syllables: tuple[Letter, ...]

    def __eq__(self, other) -> bool:
        return (isinstance(other, AmalgamElement)
                and self.pres is other.pres
                and self.core == other.core
                and self.syllables == other.syllables)

    def __hash__(self) -> int:
        return hash((id(self.pres), self.core, self.syllables))

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
            raise InputError(f"letter side must be 'A' or 'B', got {side!r}")
        if not (0 <= elem < pres.factor(side).order):
            raise InputError(f"element index {elem} out of range for factor {side}")
    x = identity_element(pres)
    for side, elem in reversed(letters):
        x = _prepend(pres, side, elem, x)
    return x


def multiply(x: AmalgamElement, y: AmalgamElement) -> AmalgamElement:
    if x.pres is not y.pres:
        raise PresentationMismatch("elements live in different presentations")
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


def power(x: AmalgamElement, k: int) -> AmalgamElement:
    if k < 0:
        x, k = invert(x), -k
    acc = identity_element(x.pres)
    base = x
    while k:
        if k & 1:
            acc = multiply(acc, base)
        base = multiply(base, base)
        k >>= 1
    return acc


def syllable_length(x: AmalgamElement) -> int:
    return len(x.syllables)


def is_cyclically_reduced(x: AmalgamElement) -> bool:
    n = len(x.syllables)
    return n <= 1 or x.syllables[0][0] != x.syllables[-1][0]


def cyclically_reduce(x: AmalgamElement) -> tuple[AmalgamElement, AmalgamElement]:
    """Return (y, c) with x = c * y * c^-1 and y cyclically reduced.

    Each step conjugates away the leading syllable (together with the
    core), so the syllable length strictly drops until the first and last
    syllables lie in different factors or at most one syllable remains.
    """
    pres = x.pres
    y = x
    c = identity_element(pres)
    while len(y.syllables) >= 2 and y.syllables[0][0] == y.syllables[-1][0]:
        step = AmalgamElement(pres, y.core, (y.syllables[0],))
        y_next = multiply(multiply(invert(step), y), step)
        assert syllable_length(y_next) < syllable_length(y)
        y = y_next
        c = multiply(c, step)
    return y, c


def element_order(x: AmalgamElement):
    """Order of x: math.inf when the cyclic reduction has length >= 2,
    otherwise the order inside the finite factor containing it."""
    y, _ = cyclically_reduce(x)
    n = len(y.syllables)
    if n >= 2:
        return math.inf
    pres = x.pres
    if n == 0:
        return pres.A.element_order(y.core)
    side, t = y.syllables[0]
    G = pres.factor(side)
    return G.element_order(G.table[pres.core_on(side, y.core)][t])


def embed_factor_element(pres: AmalgamPresentation, side: Side, x: int) -> AmalgamElement:
    return normalize(pres, [(side, x)])


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


@dataclass(frozen=True)
class CyclicMembership:
    verdict: str                      # 'member' | 'nonmember'
    exponent: Optional[int] = None
    reason: Optional[str] = None

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
        raise PresentationMismatch("elements live in different presentations")
    gr, c = cyclically_reduce(g)
    ht = multiply(multiply(invert(c), h), c)
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
    """Some h with h^q = g, or None.

    For cyclically reduced g of length n >= 2 the root, if any, is
    cyclically reduced of length n/q, and its syllable skeleton is a
    cyclic segment of g's; candidates are those segments decorated by all
    possible amalgamated-part cores. For n <= 1 the ambient finite factor
    is searched directly (roots realized inside the factor only).
    """
    if not is_prime(q):
        raise InputError(f"{q} is not prime")
    pres = g.pres
    y, c = cyclically_reduce(g)
    n = syllable_length(y)
    if n >= 2:
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
                    return multiply(multiply(c, cand), invert(c))
        return None
    # Short case: search inside the ambient factor(s).
    sides: list[tuple[Side, int]] = []
    if n == 0:
        sides.append(("A", y.core))
        sides.append(("B", pres.phi[y.core]))
    else:
        sides.append(factor_element_of(y))
    for side, target in sides:
        G = pres.factor(side)
        for z in G.elements():
            if G.power(z, q) == target:
                root = embed_factor_element(pres, side, z)
                return multiply(multiply(c, root), invert(c))
    return None


def _require_infinite_and_certified(g: AmalgamElement, p: int) -> None:
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if element_order(g) != math.inf:
        raise PreconditionViolated("infinite-order", "element has finite order")
    from .compat import presentation_residually_p  # local import: compat builds on this module
    if not presentation_residually_p(g.pres, p):
        raise PreconditionViolated(
            "residually-p-ambient",
            f"presentation admits no index-{p} chain certificate")


def find_prime_root(g: AmalgamElement, p: int) -> Optional[tuple[int, AmalgamElement]]:
    """A pair (q, h) with h^q = g for some prime q != p, or None.

    Only primes dividing the cyclic-reduction length can occur for
    infinite-order elements.
    """
    y, _ = cyclically_reduce(g)
    n = syllable_length(y)
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
    _require_infinite_and_certified(g, p)
    return find_prime_root(g, p) is None


def isolated_closure(g: AmalgamElement, p: int) -> tuple[AmalgamElement, int]:
    """Minimal p'-isolated cyclic overgroup: (f, j) with g = f^j, gcd(j, p) = 1.

    Extracts q-th roots for primes q != p until none remains; each
    extraction divides the syllable length, so this terminates.
    """
    _require_infinite_and_certified(g, p)
    f, j = g, 1
    while True:
        found = find_prime_root(f, p)
        if found is None:
            return f, j
        q, f = found
        j *= q


def serialize_element(x: AmalgamElement) -> str:
    pres = x.pres
    parts = []
    if x.core != 0 or not x.syllables:
        parts.append(f"A:{pres.A.names[x.core]}")
    for side, t in x.syllables:
        parts.append(f"{side}:{pres.factor(side).names[t]}")
    return " ".join(parts)


def parse_letters(pres: AmalgamPresentation, text: str) -> list[Letter]:
    """Parse tagged letter strings like "A:a B:b A:a3"."""
    letters: list[Letter] = []
    for token in text.split():
        if ":" not in token:
            raise InputError(f"letter {token!r} must look like SIDE:name")
        side, name = token.split(":", 1)
        if side not in ("A", "B"):
            raise InputError(f"unknown side {side!r} in {token!r}")
        letters.append((side, pres.factor(side).index_of(name)))
    return letters
