"""Finite groups as multiplication tables, with subgroup and quotient machinery.

Element 0 is always the identity. Groups are immutable; all enumeration
results come back in a canonical deterministic order (sorted by order, then
by sorted member list). The practical working range is order <= 48 for
amalgam factors; tables up to a few hundred elements are still fine as
homomorphism targets. Associativity is checked exhaustively up to order 64
and by 10,000 seeded random triples above that (such groups carry
``associativity_verified=False`` and are flagged in reports).

A group computes some derived data lazily and caches it on itself: a
greedy generating set (``generators``, used by ``is_normal``), a
short generating tuple (``generating_tuple``: one element, else the first
generating pair, else ``generators``) and the breadth-first edges of its
Cayley graph (``cayley_schedule``), both for the engine's homomorphism
search; the element orders (``element_orders``); the elements least in
their orbit under inner automorphisms or power maps (``orbit_leaders``,
the images of element 1 the engine's certificate scan tries) and the
least pairs of elements under the same maps (``pair_leaders``, for the
generator-image scanner); the normal-subgroup lattice (behind
``enumerate_normal_subgroups``), built as joins of the normal closures of
conjugacy classes; its index-p cover edges, one table per prime p
(``normal_covers``, for ``find_p_chain`` and compat's chain families);
and the homomorphisms from it to each target, one list per target
(``hom_cache``).
The caches sit in the instance ``__dict__``, outside the dataclass
fields, so equality and hashing ignore them; they live and die with the
group, and no module-level table keeps a group alive.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import (
    InputError,
    NoIdentity,
    NoSuchM,
    NotAssociative,
    NotCyclic,
    NotInvertible,
    NotNormal,
    NotSubgroup,
    PreconditionViolated,
)

EXHAUSTIVE_ASSOC_LIMIT = 64
ASSOC_SAMPLES = 10_000


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j;
    element 0 is the identity and ``inverse[i]`` the two-sided inverse.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    names: tuple[str, ...]
    associativity_verified: bool = True

    def elements(self) -> range:
        return range(self.order)

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inverse[a], -k
        acc = 0
        while k:
            if k & 1:
                acc = self.table[acc][a]
            a = self.table[a][a]
            k >>= 1
        return acc

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != 0:
            x = self.table[x][a]
            n += 1
        return n

    def exponent(self) -> int:
        e = 1
        for o in self.element_orders:
            e = e * o // gcd(e, o)
        return e

    def conjugate(self, a: int, by: int) -> int:
        return self.table[self.table[self.inverse[by]][a]][by]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown element name {name!r}") from None

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set, chosen greedily in index order: each generator
        lies outside the subgroup the earlier ones generate, so every one
        at least doubles it and there are at most log2(order) of them."""
        gens: list[int] = []
        span: frozenset[int] = frozenset({0})
        for x in self.elements():
            if x not in span:
                gens.append(x)
                span = _grow(self, span, gens)
        return tuple(gens)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """The order of every element, by index."""
        return tuple(self.element_order(a) for a in self.elements())

    @cached_property
    def generating_tuple(self) -> tuple[int, ...]:
        """A short generating tuple: one element when the group is cyclic,
        else the lexicographically first pair of non-identity elements that
        generates, else the greedy ``generators``. Larger combinations are
        not searched: their number grows as a power of the order. The
        engine enumerates homomorphisms by images of this tuple."""
        full = frozenset(self.elements())
        for x in self.elements():
            if self.element_order(x) == self.order:
                return (x,)
        for pair in itertools.combinations(range(1, self.order), 2):
            if _grow(self, frozenset({0}), pair) == full:
                return pair
        return self.generators

    @cached_property
    def cayley_schedule(self) -> tuple[tuple[int, int, int, bool], ...]:
        """The edges (x, i, x*t_i, new) of the Cayley graph of
        ``generating_tuple`` = (t_0, t_1, ...) in breadth-first order from
        the identity, where ``new`` marks the edge that first reaches its
        endpoint; every other edge ends at an element an earlier edge
        already reached."""
        gens = self.generating_tuple
        reached = [0]
        seen = {0}
        schedule = []
        for x in reached:               # grows while it is walked
            row = self.table[x]
            for i, g in enumerate(gens):
                y = row[g]
                new = y not in seen
                if new:
                    seen.add(y)
                    reached.append(y)
                schedule.append((x, i, y, new))
        return tuple(schedule)

    def _symmetries(self, generators_only: bool = False) -> list[Sequence[int]]:
        """The group S of automorphisms that the leaders below prune by,
        each map listed by element: Inn(G) for a nonabelian group, and the
        power maps x -> x^k, k prime to the exponent, for an abelian one.
        Both are found without an Aut(G) search. With ``generators_only``,
        a generating set of S: conjugation by ``generators``, or the power
        maps of the units mod the exponent picked greedily, each outside
        the span of the earlier ones. Commutativity is tested on
        ``generators``, which suffices."""
        n, tab, inv = self.order, self.table, self.inverse
        gens = self.generators
        if all(tab[a][b] == tab[b][a] for a in gens for b in gens):
            e = self.exponent()
            ks, span = [], {1}
            for k in range(2, e):
                if gcd(k, e) == 1 and k not in span:
                    ks.append(k)
                    if generators_only:
                        span = _unit_span(span, k, e)
            return [[self.power(x, k) for x in range(n)] for k in ks]
        by = gens if generators_only else range(1, n)
        # Elements in one coset of the centre conjugate alike: list each map once.
        return list(dict.fromkeys(tuple(tab[tab[inv[g]][x]][g] for x in range(n)) for g in by))

    @cached_property
    def orbit_leaders(self) -> tuple[int, ...]:
        """The elements least in their orbit under the group S of
        ``_symmetries``, ascending. Each orbit is closed under generators
        of S from its least element, in O(order * #generators)."""
        return tuple(orbit[0] for orbit in
                     _orbits(self.order, self._symmetries(generators_only=True)))

    @cached_property
    def pair_leaders(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The pairs (x, y) that are least in their orbit under the group S
        of ``_symmetries`` acting diagonally, as ``(x, ys)`` in ascending
        order: x from ``orbit_leaders``, ys the elements least in their
        orbit under the stabilizer of x. S is listed in O(order^2)."""
        maps = self._symmetries()
        out = []
        for x in self.orbit_leaders:
            stab = [s for s in maps if s[x] == x]
            out.append((x, tuple(y for y in range(self.order)
                                 if all(s[y] >= y for s in stab))))
        return tuple(out)

    @cached_property
    def _normal_lattice(self) -> tuple[Subgroup, ...]:
        return _compute_normal_lattice(self)

    @cached_property
    def _cover_cache(self) -> dict[int, dict[frozenset[int], tuple[frozenset[int], ...]]]:
        return {}

    def normal_covers(self, p: int) -> dict[frozenset[int], tuple[frozenset[int], ...]]:
        """The index-p cover edges of the normal-subgroup lattice: for each
        normal N, by members, the normal U with N < U and |U| = p|N|, in
        canonical order. Computed once per p and cached on the group."""
        covers = self._cover_cache.get(p)
        if covers is None:
            by_order: dict[int, list[frozenset[int]]] = {}
            for U in self._normal_lattice:
                by_order.setdefault(U.order, []).append(U.members)
            covers = self._cover_cache[p] = {
                N: tuple(U for U in by_order.get(p * len(N), ()) if N < U)
                for Ns in by_order.values() for N in Ns}
        return covers

    @cached_property
    def hom_cache(self) -> dict[int, tuple[FiniteGroup, list[tuple[int, ...]]]]:
        """The homomorphisms from this group to a target, in canonical
        order, as the engine found them: ``id(target) -> (target,
        mappings)``. Each entry holds its target, so that id cannot be
        reused while the entry lives; the lists die with this group."""
        return {}


def default_names(order: int) -> tuple[str, ...]:
    return ("e",) + tuple(f"g{i}" for i in range(1, order))


def construct_group(
    table: Sequence[Sequence[int]],
    names: Optional[Sequence[str]] = None,
) -> FiniteGroup:
    """Validate a multiplication table and build the group.

    Element 0 must act as a two-sided identity. Raises NotAssociative,
    NoIdentity or NotInvertible naming the violating triple or element.
    """
    n = len(table)
    if n == 0:
        raise InputError("empty table")
    rows = []
    for i, row in enumerate(table):
        if len(row) != n:
            raise InputError(f"row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not (0 <= v < n):
                raise InputError(f"entry {v} in row {i} out of range")
        rows.append(tuple(int(v) for v in row))
    tbl = tuple(rows)

    for x in range(n):
        if tbl[0][x] != x or tbl[x][0] != x:
            raise NoIdentity(f"fails on element {x}")

    # Latin square property: every row and column is a permutation.
    full = frozenset(range(n))
    for i in range(n):
        if frozenset(tbl[i]) != full:
            raise NotInvertible(i)
        if frozenset(tbl[j][i] for j in range(n)) != full:
            raise NotInvertible(i)

    inverse = [-1] * n
    for x in range(n):
        for y in range(n):
            if tbl[x][y] == 0 and tbl[y][x] == 0:
                inverse[x] = y
                break
        if inverse[x] < 0:
            raise NotInvertible(x)

    verified = True
    if n <= EXHAUSTIVE_ASSOC_LIMIT:
        for a in range(n):
            ta = tbl[a]
            for b in range(n):
                tab = tbl[ta[b]]
                tb = tbl[b]
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        raise NotAssociative((a, b, c))
    else:
        rng = random.Random(0xA55)
        for _ in range(ASSOC_SAMPLES):
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if tbl[tbl[a][b]][c] != tbl[a][tbl[b][c]]:
                raise NotAssociative((a, b, c))
        verified = False

    if names is None:
        names = default_names(n)
    else:
        if len(names) != n:
            raise InputError("names length does not match order")
        names = tuple(str(s) for s in names)

    return FiniteGroup(order=n, table=tbl, inverse=tuple(inverse), names=names,
                       associativity_verified=verified)


def trusted_group(table, names=None, verified=True) -> FiniteGroup:
    """Construct from a structurally correct table: cheap checks only.

    Used by the target catalog, whose tables come from closed-form group
    constructions; the Latin-square and identity checks still run.
    """
    n = len(table)
    tbl = tuple(tuple(row) for row in table)
    for x in range(n):
        if tbl[0][x] != x or tbl[x][0] != x:
            raise NoIdentity(f"fails on element {x}")
    inverse = []
    for x, row in enumerate(tbl):
        y = row.index(0) if 0 in row else None
        if y is None or tbl[y][x] != 0:
            raise NotInvertible(x)
        inverse.append(y)
    if names is None:
        names = default_names(n)
    return FiniteGroup(order=n, table=tbl, inverse=tuple(inverse),
                       names=tuple(names), associativity_verified=verified)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a table group, stored as its set of element indices."""

    parent: FiniteGroup
    members: frozenset[int]

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical sort key: (order, sorted member list)."""
        return (len(self.members), self.sorted_members)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, members={self.sorted_members})"


def subgroup_from_members(G: FiniteGroup, members: Iterable[int]) -> Subgroup:
    ms = frozenset(members)
    if 0 not in ms:
        raise NotSubgroup("identity missing")
    for x in ms:
        if G.inverse[x] not in ms:
            raise NotSubgroup(f"inverse of {x} missing")
        for y in ms:
            if G.table[x][y] not in ms:
                raise NotSubgroup(f"product {x}*{y} escapes the set")
    return Subgroup(G, ms)


def subgroup_generated(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Least subgroup containing ``gens``, computed by closure."""
    gens = list(gens)
    for g in gens:
        if not (0 <= g < G.order):
            raise InputError(f"generator index {g} out of range")
    return Subgroup(G, _grow(G, frozenset({0}), gens))


def _unit_span(span: set[int], k: int, e: int) -> set[int]:
    """The units mod e generated by ``span`` (a subgroup) and k."""
    out, x = set(span), k
    while x not in span:
        out |= {s * x % e for s in span}
        x = x * k % e
    return out


def _grow(G: FiniteGroup, seed: frozenset[int], gens: Sequence[int]) -> frozenset[int]:
    """Close ``seed`` under right multiplication by ``gens``.

    In a finite group every inverse is a positive power, so this is the
    product set seed * <gens>. For a subgroup ``seed`` that lies in <gens>
    or is normal, that product is the subgroup <seed, gens>.
    """
    members = set(seed)
    frontier = list(members)
    table = G.table
    while frontier:
        row = table[frontier.pop()]
        for g in gens:
            y = row[g]
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, frozenset({0}))


def is_normal(G: FiniteGroup, S: Subgroup) -> bool:
    """Whether g^-1 S g lies in S for every generator g of G.

    That suffices: every element of G is a product of generators, and
    conjugation by each factor maps S into S. The trivial subgroup returns
    at once, so a group used only once need not pick generators.
    """
    if S.parent is not G:
        raise InputError("subgroup belongs to a different group")
    members = S.members
    if len(members) == 1:
        return True
    table, inverse = G.table, G.inverse
    for g in G.generators:
        g_inv = table[inverse[g]]
        for x in members:
            if table[g_inv[x]][g] not in members:
                return False
    return True


def _orbits(n: int, maps: Sequence[Sequence[int]]) -> list[list[int]]:
    """The orbits on range(n) of the group the ``maps`` generate (each a
    permutation listed by element), each led by its least element, in
    ascending order of it. An orbit is closed under the maps alone: every
    element of a finite group is a positive word in its generators."""
    seen = [False] * n
    out = []
    for x in range(n):
        if not seen[x]:
            seen[x] = True
            orbit = [x]
            for y in orbit:             # grows while it is walked
                for s in maps:
                    if not seen[s[y]]:
                        seen[s[y]] = True
                        orbit.append(s[y])
            out.append(orbit)
    return out


def conjugacy_classes(G: FiniteGroup) -> list[frozenset[int]]:
    """Conjugacy classes, sorted by (size, least member): the orbits under
    conjugation by ``generators``, in O(order * #generators) lookups."""
    tab, inv = G.table, G.inverse
    conj = [[tab[tab[inv[g]][x]][g] for x in G.elements()] for g in G.generators]
    return [frozenset(c) for c in sorted(_orbits(G.order, conj), key=lambda c: (len(c), c[0]))]


def enumerate_normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups, each exactly once, in canonical order.

    The lattice is computed once per group and cached on it; each call
    returns a fresh list, so callers may mutate the result.
    """
    return list(G._normal_lattice)


def _compute_normal_lattice(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every normal subgroup, in canonical order, as a join of class closures.

    The closure <C> of a class C is normal, as C is closed under
    conjugation. A normal N is a union of classes, and C in N gives
    C <= <C> <= N, so N is the join of the closures it contains: the search
    reaches every N by joining each subgroup found with each closure M not
    in it. M lies in a normal N exactly when one member of its class does.
    For normal N and M the join is N M, the union of the right cosets N m,
    m in M. Cosets partition G, so an m outside the cosets taken so far
    starts a new one, and N M costs |N M| lookups and |M| membership tests.
    """
    table = G.table
    closures = {}
    for cls in conjugacy_classes(G)[1:]:
        closures.setdefault(_grow(G, frozenset({0}), tuple(cls)), next(iter(cls)))
    start = frozenset({0})
    found = {start: Subgroup(G, start)}
    queue = [start]
    while queue:
        cur = queue.pop()
        for M, rep in closures.items():
            if rep in cur:
                continue
            new = set(cur)
            for m in M:
                if m not in new:
                    new.update([table[n][m] for n in cur])
            new = frozenset(new)
            if new not in found:
                found[new] = Subgroup(G, new)
                queue.append(new)
    return tuple(sorted(found.values(), key=lambda s: s.key()))


@dataclass(frozen=True)
class Homomorphism:
    """A homomorphism between two table groups, given by its mapping. Not
    checked here: ``quotient_with_projection`` builds its projection onto
    the coset representatives, a homomorphism by construction."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.mapping[x]


def coset_representatives(G: FiniteGroup, S: Subgroup) -> tuple[int, ...]:
    """The least element index of each right coset S x, listed by x.

    Elements are visited in index order, so the first element of a coset
    not yet covered is its least one.
    """
    rep = [-1] * G.order
    for x in G.elements():
        if rep[x] < 0:
            for s in S.members:
                rep[G.table[s][x]] = x
    return tuple(rep)


def quotient_with_projection(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, Homomorphism]:
    """Quotient group on canonical coset representatives, with projection.

    Coset representatives are the least element index in each coset; the
    identity coset therefore becomes element 0 of the quotient.
    """
    if not is_normal(G, N):
        raise NotNormal("subgroup is not normal in its parent")
    rep_of = coset_representatives(G, N)
    reps = [x for x in G.elements() if rep_of[x] == x]
    index = {r: i for i, r in enumerate(reps)}
    m = len(reps)
    table = [[index[rep_of[G.table[reps[i]][reps[j]]]] for j in range(m)]
             for i in range(m)]
    names = tuple(G.names[r] + "N" if r != 0 else "e" for r in reps)
    Q = _derived_group(G, table, names)
    proj = Homomorphism(G, Q, tuple(index[rep_of[x]] for x in G.elements()))
    return Q, proj


@dataclass(frozen=True)
class NormalChain:
    """An ascending chain of normal subgroups with index-p steps."""

    group: FiniteGroup
    links: tuple[Subgroup, ...]
    prime: int

    def validate(self) -> None:
        """Raise AssertionError unless the chain is what it claims; the
        checks are explicit raises, so they also run under ``python -O``."""
        if not self.links:
            raise AssertionError("chain must contain at least one link")
        if self.links[-1].members != frozenset(self.group.elements()):
            raise AssertionError("chain does not end at the whole group")
        for link in self.links:
            if not is_normal(self.group, link):
                raise AssertionError("chain link is not normal")
        for a, b in zip(self.links, self.links[1:]):
            if not (a.members < b.members and b.order == a.order * self.prime):
                raise AssertionError(f"chain step is not an index-{self.prime} inclusion")


def find_p_chain(G: FiniteGroup, R: Subgroup, p: int) -> Optional[NormalChain]:
    """A chain R = R0 < ... < Rm = G, all links normal in G, steps of index p.

    Returns None when no such chain exists (in particular whenever [G:R]
    is not a power of p). Below each link the chain takes the canonically
    smallest link that R reaches, as a depth-first descent from G trying
    the smallest first would; one ascending pass over ``normal_covers``
    finds that link for every link R reaches.
    """
    if not is_normal(G, R):
        raise NotNormal("R is not normal in G")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if not is_p_power(G.order // R.order, p):
        return None
    covers = G.normal_covers(p)
    below: dict[frozenset[int], Optional[frozenset[int]]] = {R.members: None}
    for N in G._normal_lattice:     # ascending order: each N before its covers
        if N.members in below:
            for U in covers[N.members]:
                below.setdefault(U, N.members)
    link: Optional[frozenset[int]] = frozenset(G.elements())
    if link not in below:
        return None
    path = []
    while link is not None:
        path.append(Subgroup(G, link))
        link = below[link]
    return NormalChain(G, tuple(reversed(path)), p)


def is_cyclic_subgroup(G: FiniteGroup, F: Subgroup) -> bool:
    return any(subgroup_generated(G, [x]).members == F.members for x in F.members)


def is_p_prime_isolated_cyclic_finite(G: FiniteGroup, F: Subgroup, p: int) -> bool:
    """Exhaustive isolation test: no q-th root of F escapes F for primes q != p.

    Only primes dividing the exponent of G can witness a violation, since
    y^q with q coprime to the order of y generates the same cyclic subgroup.
    """
    if not is_cyclic_subgroup(G, F):
        raise NotCyclic("F is not cyclic")
    qs = [q for q in prime_factors(G.exponent()) if q != p]
    for y in G.elements():
        if y in F.members:
            continue
        for q in qs:
            if G.power(y, q) in F.members:
                return False
    return True


def product_set(G: FiniteGroup, A: Iterable[int], B: Iterable[int]) -> frozenset[int]:
    B = list(B)
    return frozenset(G.table[a][b] for a in A for b in B)


def subgroup_as_group(G: FiniteGroup, S: Subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Re-index a subgroup as a standalone table group.

    Returns the group together with the member list mapping new indices
    back to parent indices (identity stays at position 0).
    """
    members = S.sorted_members
    back = {x: i for i, x in enumerate(members)}
    table = [[back[G.table[a][b]] for b in members] for a in members]
    names = tuple(G.names[x] for x in members)
    return _derived_group(G, table, names), members


def _derived_group(G: FiniteGroup, table, names) -> FiniteGroup:
    """A table derived from G by restriction to a subgroup or by passing
    to a quotient. Both keep associativity, so a verified parent needs
    only the cheap checks; an unverified one gets the full validation."""
    if G.associativity_verified:
        return trusted_group(table, names)
    return construct_group(table, names)


def separating_core(X: FiniteGroup, Y: Subgroup, F: Subgroup, g: int, p: int) -> Subgroup:
    """Normal subgroup N of p-power index in X with g outside FN.

    Follows the extension argument: when g lies outside FY the subgroup Y
    itself works; otherwise g = f*y is split, a normal M of p-power index
    in Y excluding y from (F n Y)M is located, and N is the intersection
    of the conjugates of M over coset representatives of Y in X.
    """
    if not is_normal(X, Y):
        raise PreconditionViolated("Y-normal", "Y is not normal in X")
    if not is_p_power(X.order // Y.order, p):
        raise PreconditionViolated("p-power-index", f"[X:Y] = {X.order // Y.order}")
    if not is_cyclic_subgroup(X, F):
        raise PreconditionViolated("F-cyclic", "F is not cyclic")
    if not is_p_prime_isolated_cyclic_finite(X, F, p):
        raise PreconditionViolated("F-isolated", "F is not p'-isolated in X")
    if g in F.members:
        raise PreconditionViolated("g-outside-F", "g lies in F")

    FY = product_set(X, F.members, Y.members)
    if g not in FY:
        return Y

    f = next(f for f in sorted(F.members) if X.table[X.inverse[f]][g] in Y.members)
    y = X.table[X.inverse[f]][g]

    FcapY = F.members & Y.members
    Ygrp, back_members = subgroup_as_group(X, Y)
    to_sub = {x: i for i, x in enumerate(back_members)}
    y_sub = to_sub[y]
    FcapY_sub = frozenset(to_sub[x] for x in FcapY)

    M_sub = None
    for M in enumerate_normal_subgroups(Ygrp):
        if not is_p_power(Ygrp.order // M.order, p):
            continue
        blocked = product_set(Ygrp, FcapY_sub, M.members)
        if y_sub not in blocked:
            M_sub = M
            break
    if M_sub is None:
        raise NoSuchM(
            "no normal subgroup of p-power index in Y separates the split part; "
            "a p'-isolated cyclic subgroup of Y is not p-separable")

    M_members = frozenset(back_members[i] for i in M_sub.members)
    # Conjugates over coset representatives of Y in X (conjugation by Y
    # itself fixes M, which is normal in Y).
    seen_cosets = set()
    N_members = frozenset(X.elements())
    for t in X.elements():
        coset = frozenset(X.table[u][t] for u in Y.members)
        if coset in seen_cosets:
            continue
        seen_cosets.add(coset)
        conj = frozenset(X.conjugate(x, t) for x in M_members)
        N_members &= conj

    N = subgroup_from_members(X, N_members)
    # Contract check: these hold by construction; fail loudly if not, also
    # under ``python -O``.
    if not (is_normal(X, N) and is_p_power(X.order // N.order, p)
            and g not in product_set(X, F.members, N.members)):
        raise AssertionError("separating core violates its contract")
    return N


def group_from_json(doc: dict) -> FiniteGroup:
    if not isinstance(doc, dict) or "order" not in doc or "table" not in doc:
        raise InputError("group document must carry order and table")
    order = doc["order"]
    table = doc["table"]
    if len(table) != order:
        raise InputError("declared order does not match table size")
    return construct_group(table, doc.get("names"))
