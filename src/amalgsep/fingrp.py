"""Finite groups as multiplication tables, with subgroup and quotient machinery.

Element 0 is always the identity. Groups are immutable; all enumeration
results come back in a canonical deterministic order (sorted by order, then
by sorted member list). The practical working range is order <= 48 for
amalgam factors; tables up to a few hundred elements are still fine as
homomorphism targets. Associativity is checked exactly at every order,
by Light's test on the greedy generators (``construct_group``, which then
builds through ``trusted_group``). Factorization (``prime_powers``) and
the greedy span (``greedy_generators``) live here for every module.

A group computes some derived data lazily and caches it on itself: a
greedy generating set (``generators``, used by ``construct_group`` and
``is_normal``), a short generating tuple (``generating_tuple``: one
element, else the first generating pair, else ``generators``) and the
breadth-first edges of its Cayley graph (``cayley_schedule``), both for
the engine's homomorphism search; the element orders (``element_orders``);
the elements least in their orbit under a group S of automorphisms
(``orbit_leaders``, the images of element 1 the engine's certificate scan
tries) and the least pairs of elements under S acting diagonally
(``pair_leaders``, for the generator-image scanner), both found from
generators of S alone. S is generated by the inner automorphisms, or the
power maps of an abelian group, and by the automorphisms a catalog
construction names (``automorphism_candidates``), each checked on the
Cayley graph before use (``_symmetries``); for the same scanner, the
least element of each coset of the centre (``centre_cosets``) and the
pair leaders cut to one y per such coset for each x
(``central_pair_leaders``); the normal-subgroup lattice
(behind ``enumerate_normal_subgroups``), built as joins of the normal
closures of conjugacy classes; its index-p cover edges, one table
per prime p (``normal_covers``, for compat's chain families); and the
labelled walks of the subgroups that tuples of its elements generate
(``_walk_cache``, filled by ``freegrp``'s kernel fingerprints), at most
one entry per distinct image tuple scanned on the group. One cache
involves a second group: the presentations of the free quotient
amalgams whose A factor is a subgroup of this group (``_quotient_cache``,
filled by ``compat.build_free_quotient_amalgam``), one per (subgroup,
partner group and subgroup, gluing). It is bounded: the group has
finitely many subgroups, each glues onto a subgroup of a partner in
finitely many ways, and the library's scans take their partners from the
finite catalog. The certificate scan keeps its factor homomorphisms on
the presentation, keyed by target name. The caches sit in the instance
``__dict__``, outside ``FiniteGroup._fields``, so equality and hashing
ignore them; they live and die with the group, and no module-level table
keeps a group alive. ``Record``, the base of every record class in the
package, lives here too.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import InputError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_powers(n: int) -> dict[int, int]:
    """{q: q^a} for the prime powers q^a exactly dividing n, ascending in q,
    by trial division while d^2 is at most what is left of n."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 1) * d
        d += 1
    if n > 1:
        out[n] = n
    return out


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    return list(prime_powers(n))


def is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


class _DataclassFields:
    """``Record.__dataclass_fields__``, by which ``dataclasses`` knows a
    dataclass: the record's ``__init__`` parameters as ``Field`` objects, so
    ``dataclasses.replace``, ``fields`` and ``asdict`` take a record. Only
    such a call imports ``dataclasses``."""

    def __get__(self, obj, cls):
        import dataclasses
        defaults = dict(zip(reversed(cls._params()), reversed(cls.__init__.__defaults__ or ())))
        return dataclasses.make_dataclass(cls.__name__, [
            (name, object, dataclasses.field(default=defaults.get(name, dataclasses.MISSING)))
            for name in cls._params()]).__dataclass_fields__


class Record:
    """Base of the package's record classes. A subclass sets its fields in
    ``__init__``, by ``object.__setattr__`` if it is built in a loop, else
    by the shorter but slower ``_fill``; assigning to a field afterwards
    raises AssertionError, unless the subclass restores ``__setattr__``.
    Two records are equal when they have the same class and equal
    ``_fields`` (which may leave fields out); a record hashes as the tuple
    of those fields and shows them in its repr. ``copy`` and ``pickle``
    rebuild a record by calling its class."""

    __slots__ = ()
    _fields: tuple[str, ...]
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    @classmethod
    def _params(cls) -> tuple[str, ...]:
        """The parameters of ``__init__``: every field, in order."""
        code = cls.__init__.__code__
        return code.co_varnames[1:code.co_argcount]

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._params())

    def _fill(self, *values) -> None:
        """Set the fields from ``values``, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AssertionError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AssertionError(f"cannot delete field {name!r}")


class FiniteGroup(Record):
    """A finite group given by its full multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j;
    element 0 is the identity and ``inverse[i]`` the two-sided inverse.
    A group built from a closed-form construction may carry candidate
    automorphisms, each given as the images of ``family_generators``;
    ``_symmetries`` checks them before use. Equality and hashing ignore
    both, and the derived data cached in the instance ``__dict__`` (see
    the module docstring).
    """

    _fields = ("order", "table", "inverse", "names")
    __slots__ = (*_fields, "family_generators", "automorphism_candidates",
                 "__dict__", "__weakref__")

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...], inverse: tuple[int, ...],
                 names: tuple[str, ...], family_generators: tuple[int, ...] = (),
                 automorphism_candidates: tuple[tuple[int, ...], ...] = ()):
        self._fill(order, table, inverse, names, family_generators, automorphism_candidates)

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

    def power_exponent(self, x: int, g: int) -> Optional[int]:
        """The k in [0, o) with x = g^k, where o is the order of g; None
        when x lies outside <g>."""
        y = 0
        for k in range(self.element_orders[g]):
            if y == x:
                return k
            y = self.table[y][g]
        return None

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

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields, computed once: the table is large."""
        return hash(self._key(self))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set, chosen greedily (``greedy_generators``)."""
        return tuple(greedy_generators(self))

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

    def _symmetries(self) -> list[list[int]]:
        """Generators of the group S of automorphisms that the leaders below
        prune by, each map listed by element: conjugation by ``generators``
        for a nonabelian group, or the power maps x -> x^k for an abelian
        one, with the units k mod the exponent picked by
        ``unit_generators``; then every ``automorphism_candidates`` entry
        that passes the check. A candidate is extended from the images of
        ``family_generators`` along the Cayley graph and kept only when the
        result is an automorphism (``_is_automorphism``), so a wrong
        candidate costs pruning, never exactness.
        Commutativity is tested on ``generators``, which suffices."""
        n, tab, inv = self.order, self.table, self.inverse
        gens = self.generators
        if all(tab[a][b] == tab[b][a] for a in gens for b in gens):
            maps = [[self.power(x, k) for x in range(n)]
                    for k in unit_generators(self.exponent())]
        else:
            maps = [[tab[tab[inv[g]][x]][g] for x in range(n)] for g in gens]
        for images in self.automorphism_candidates:
            f = _extend(self, self.family_generators, images)
            if _is_automorphism(self, f):
                maps.append(f)
        return maps

    @cached_property
    def orbit_leaders(self) -> tuple[int, ...]:
        """The elements least in their orbit under the group S of
        ``_symmetries``, ascending. Each orbit is closed under generators
        of S from its least element, in O(order * #generators)."""
        return tuple(orbit[0] for orbit in _orbits(self.order, self._symmetries()))

    @cached_property
    def pair_leaders(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The pairs (x, y) that are least in their orbit under the group S
        of ``_symmetries`` acting diagonally, as ``(x, ys)`` in ascending
        order: the least members of the orbits on pairs, closed under
        generators of S in O(order^2 * #generators). A least pair has x
        least in its orbit, so the x column is ``orbit_leaders``, and y
        least under the stabilizer of x."""
        n = self.order
        maps = [[sa + sb for sa in [v * n for v in s] for sb in s] for s in self._symmetries()]
        out: dict[int, list[int]] = {}
        for orbit in _orbits(n * n, maps):
            x, y = divmod(orbit[0], n)
            out.setdefault(x, []).append(y)
        return tuple((x, tuple(ys)) for x, ys in out.items())

    @cached_property
    def centre_cosets(self) -> tuple[int, ...]:
        """For each element y, the least element of its coset y Z of the
        centre Z (the elements that commute with ``generators``)."""
        tab, gens = self.table, self.generators
        centre = [z for z in self.elements() if all(tab[z][g] == tab[g][z] for g in gens)]
        return tuple(min(tab[y][z] for z in centre) for y in self.elements())

    @cached_property
    def central_pair_leaders(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``pair_leaders`` with each x's ys cut to the first y of each
        coset y Z of the centre among them; one y per x on an abelian
        group. ``freegrp.scan_gen_images`` reads it for a second generator
        whose exponent sums vanish."""
        cosets = self.centre_cosets
        out = []
        for x, ys in self.pair_leaders:
            first: dict[int, int] = {}
            for y in ys:
                first.setdefault(cosets[y], y)
            out.append((x, tuple(first.values())))
        return tuple(out)

    @cached_property
    def _normal_lattice(self) -> tuple[Subgroup, ...]:
        return _compute_normal_lattice(self)

    @cached_property
    def _cover_cache(self) -> dict[int, dict[frozenset[int], tuple[frozenset[int], ...]]]:
        return {}

    @cached_property
    def _walk_cache(self) -> tuple[dict[tuple[int, ...], tuple], dict[tuple, tuple]]:
        """(walks by image tuple, labelled tables by value), kept and read by
        ``freegrp._labelled_walk``."""
        return {}, {}

    @cached_property
    def _quotient_cache(self) -> dict[tuple, tuple]:
        """Free quotient presentations with their embeddings, kept and read
        by ``compat.build_free_quotient_amalgam``."""
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


def default_names(order: int) -> tuple[str, ...]:
    return ("e",) + tuple(f"g{i}" for i in range(1, order))


def construct_group(
    table: Sequence[Sequence[int]],
    names: Optional[Sequence[str]] = None,
) -> FiniteGroup:
    """Validate a multiplication table and build the group.

    Element 0 must act as a two-sided identity, every element needs a
    two-sided inverse, and the product must be associative; each is
    checked exactly, at every order. Raises InputError naming the first
    violating element, or a violating triple (x, y, z) with z a generator.
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
        rows.append(tuple(map(int, row)))
    tbl = tuple(rows)

    for x in range(n):
        if tbl[0][x] != x or tbl[x][0] != x:
            raise InputError(f"element 0 is not a two-sided identity: fails on element {x}")

    # Latin square property: every row and column is a permutation.
    full = frozenset(range(n))
    for i, col in enumerate(zip(*tbl)):
        if frozenset(tbl[i]) != full or frozenset(col) != full:
            raise InputError(f"element {i} has no two-sided inverse")

    # In a Latin square x y = 0 has the one solution y = row x's 0.
    for x, row in enumerate(tbl):
        if tbl[row.index(0)][x] != 0:
            raise InputError(f"element {x} has no two-sided inverse")

    names = default_names(n) if names is None else tuple(str(s) for s in names)
    G = trusted_group(tbl, names)
    # Light's test. Let Z = {z : (x y) z = x (y z) for all x, y}. Z holds
    # the identity and is closed under products in any magma:
    # (x y)(z1 z2) = ((x y) z1) z2 = (x (y z1)) z2 = x ((y z1) z2)
    # = x (y (z1 z2)). ``generators`` closes {0} under right
    # multiplication by the generators, so every element is a left-nested
    # product of them, in this table whether or not it is a group; z over
    # the generators thus gives Z = G, in O(n^2 log n) for a group.
    for z in G.generators:
        right = [row[z] for row in tbl]
        for x, row in enumerate(tbl):
            if [right[v] for v in row] != [row[v] for v in right]:
                y = next(y for y in range(n) if right[row[y]] != row[right[y]])
                raise InputError(f"table is not associative on triple ({x}, {y}, {z})")
    if len(names) != n:
        raise InputError("names length does not match order")
    return G


def trusted_group(table, names=None, generators=(), candidates=()) -> FiniteGroup:
    """Construct from a table known to be a group: cheap checks only.

    Used by the target catalog, whose tables come from closed-form group
    constructions, and for subgroup and quotient tables of a group, which
    inherit associativity from it; the identity and inverse checks still
    run. ``generators`` and ``candidates`` become ``family_generators``
    and ``automorphism_candidates``.
    """
    n = len(table)
    tbl = tuple(tuple(row) for row in table)
    for x in range(n):
        if tbl[0][x] != x or tbl[x][0] != x:
            raise AssertionError(f"element 0 is not a two-sided identity: fails on element {x}")
    inverse = []
    for x, row in enumerate(tbl):
        y = row.index(0) if 0 in row else None
        if y is None or tbl[y][x] != 0:
            raise AssertionError(f"element {x} has no two-sided inverse")
        inverse.append(y)
    if names is None:
        names = default_names(n)
    return FiniteGroup(order=n, table=tbl, inverse=tuple(inverse),
                       names=tuple(names), family_generators=tuple(generators),
                       automorphism_candidates=tuple(map(tuple, candidates)))


class Subgroup(Record):
    """A subgroup of a table group, stored as its set of element indices."""

    __slots__ = _fields = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members: frozenset[int]):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "members", members)

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
        raise AssertionError("identity missing")
    for x in ms:
        if G.inverse[x] not in ms:
            raise AssertionError(f"inverse of {x} missing")
        for y in ms:
            if G.table[x][y] not in ms:
                raise AssertionError(f"product {x}*{y} escapes the set")
    return Subgroup(G, ms)


def subgroup_generated(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Least subgroup containing ``gens``, computed by closure."""
    gens = list(gens)
    for g in gens:
        if not (0 <= g < G.order):
            raise AssertionError(f"generator index {g} out of range")
    return Subgroup(G, _grow(G, frozenset({0}), gens))


def _unit_span(span: set[int], k: int, e: int) -> set[int]:
    """The units mod e generated by ``span`` (a subgroup) and k."""
    out, x = set(span), k
    while x not in span:
        out |= {s * x % e for s in span}
        x = x * k % e
    return out


def unit_generators(e: int, keep: Callable[[int], bool] = lambda k: True) -> list[int]:
    """Units k mod e, 1 < k < e, that ``keep`` accepts, picked greedily in
    ascending order, each outside the span of the earlier ones: they
    generate every accepted unit, and there are at most log2(e) of them."""
    ks, span = [], {1}
    for k in range(2, e):
        if gcd(k, e) == 1 and keep(k) and k not in span:
            ks.append(k)
            span = _unit_span(span, k, e)
    return ks


def greedy_generators(G: FiniteGroup, keep: Callable[[int], bool] = lambda x: True) -> list[int]:
    """Elements of G that ``keep`` accepts, picked greedily in index order,
    each outside the subgroup the earlier ones generate (only those are put
    to ``keep``). They generate what the accepted elements generate, and
    each at least doubles the span: there are at most log2(order)."""
    gens: list[int] = []
    span: frozenset[int] = frozenset({0})
    for x in G.elements():
        if x not in span and keep(x):
            gens.append(x)
            span = _grow(G, span, gens)
    return gens


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
        raise AssertionError("subgroup belongs to a different group")
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


def respects_generators(G: FiniteGroup, T: FiniteGroup, mapping: Sequence[int]) -> bool:
    """Whether f(0) = 0 and f(x*g) = f(x)*f(g) for every x in G and
    generator g: then f is a homomorphism, because every element is a
    positive word in the generators."""
    if (len(mapping) != G.order or mapping[0] != 0
            or min(mapping) < 0 or max(mapping) >= T.order):
        return False
    for g in G.generators:
        tg = mapping[g]
        if any(mapping[row[g]] != T.table[fx][tg] for row, fx in zip(G.table, mapping)):
            return False
    return True


def _is_automorphism(G: FiniteGroup, f: Sequence[int]) -> bool:
    """Whether the map f, listed by element, respects every Cayley-graph
    edge of G and is bijective."""
    return respects_generators(G, G, f) and len(set(f)) == G.order


def _extend(G: FiniteGroup, gens: Sequence[int], images: Sequence[int]) -> list[int]:
    """The map f(x*g_i) = f(x)*images[i] from f(0) = 0, spread breadth-first
    along the Cayley graph of ``gens`` without checking the other edges;
    -1 at the elements that ``gens`` does not reach."""
    f = [-1] * G.order
    f[0] = 0
    reached = [0]
    for x in reached:                   # grows while it is walked
        row, fx = G.table[x], G.table[f[x]]
        for g, t in zip(gens, images):
            y = row[g]
            if f[y] < 0:
                f[y] = fx[t]
                reached.append(y)
    return f


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


def quotient_with_projection(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient group on canonical coset representatives, with the
    projection listed by element of G.

    Coset representatives are the least element index in each coset; the
    identity coset therefore becomes element 0 of the quotient.
    """
    if not is_normal(G, N):
        raise AssertionError("subgroup is not normal in its parent")
    rep_of = coset_representatives(G, N)
    reps = [x for x in G.elements() if rep_of[x] == x]
    index = {r: i for i, r in enumerate(reps)}
    m = len(reps)
    table = [[index[rep_of[G.table[reps[i]][reps[j]]]] for j in range(m)]
             for i in range(m)]
    names = tuple(G.names[r] + "N" if r != 0 else "e" for r in reps)
    return trusted_group(table, names), tuple(index[rep_of[x]] for x in G.elements())


def abelianization(G: FiniteGroup) -> tuple[FiniteGroup, Sequence[int]]:
    """G / G' with the projection listed by element of G; (G, range) when
    G is abelian.

    G' is the normal closure of the commutators of ``generators``: modulo
    it the generators commute, so the quotient is abelian, and every
    commutator lies in G'. The closure is the subgroup generated by the
    orbit of those commutators under conjugation by the generators, which
    generate every inner automorphism.
    """
    tab, inv, gens = G.table, G.inverse, G.generators
    comms = {tab[tab[inv[a]][inv[b]]][tab[a][b]] for a in gens for b in gens} - {0}
    if not comms:
        return G, G.elements()
    orbit = list(comms)
    for x in orbit:                     # grows while it is walked
        for g in gens:
            y = tab[tab[inv[g]][x]][g]
            if y not in comms:
                comms.add(y)
                orbit.append(y)
    return quotient_with_projection(G, subgroup_generated(G, orbit))


class NormalChain(Record):
    """An ascending chain of normal subgroups with index-p steps."""

    __slots__ = _fields = ("group", "links", "prime")

    def __init__(self, group: FiniteGroup, links: tuple[Subgroup, ...], prime: int):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "prime", prime)

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


def is_cyclic_subgroup(G: FiniteGroup, F: Subgroup) -> bool:
    return any(subgroup_generated(G, [x]).members == F.members for x in F.members)


def is_p_prime_isolated_cyclic_finite(G: FiniteGroup, F: Subgroup, p: int) -> bool:
    """Exhaustive isolation test: no q-th root of F escapes F for primes q != p.

    Only primes dividing the exponent of G can witness a violation, since
    y^q with q coprime to the order of y generates the same cyclic subgroup.
    """
    if not is_cyclic_subgroup(G, F):
        raise AssertionError("F is not cyclic")
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
    return trusted_group(table, names), members


def separating_core(X: FiniteGroup, Y: Subgroup, F: Subgroup, g: int, p: int) -> Subgroup:
    """Normal subgroup N of p-power index in X with g outside FN.

    Follows the extension argument: when g lies outside FY the subgroup Y
    itself works; otherwise g = f*y is split, a normal M of p-power index
    in Y excluding y from (F n Y)M is located, and N is the intersection
    of the conjugates of M over coset representatives of Y in X.
    """
    if not is_normal(X, Y):
        raise AssertionError("precondition violated: Y-normal (Y is not normal in X)")
    if not is_p_power(X.order // Y.order, p):
        raise AssertionError("precondition violated: p-power-index "
                             f"([X:Y] = {X.order // Y.order})")
    if not is_cyclic_subgroup(X, F):
        raise AssertionError("precondition violated: F-cyclic (F is not cyclic)")
    if not is_p_prime_isolated_cyclic_finite(X, F, p):
        raise AssertionError("precondition violated: F-isolated (F is not p'-isolated in X)")
    if g in F.members:
        raise AssertionError("precondition violated: g-outside-F (g lies in F)")

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
        raise AssertionError(
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
