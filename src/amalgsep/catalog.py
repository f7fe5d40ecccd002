"""Built-in catalog of finite homomorphism targets.

Families: cyclic Z_n (n <= 64), dihedral D_n (n <= 12, order 2n),
split metacyclic Z_m x| Z_j with twist k (m <= 31, 2 <= k <= m-2, j a
multiple of the order of k mod m), symmetric S_n (n <= 5), and direct
products of two base members under an order cap. Enumeration order is
(group order, family rank, parameters), which fixes the deterministic
scan order used everywhere downstream. Entries are generated in that
order one group order at a time, only as far as some scan or bound has
read, and kept for the process.

The catalog repeats groups (Z2xZ3 is Z6, S3 is D3, ...). Scans walk
``targets``, which keeps the first entry of each class of an isomorphism
key computed from the parameters alone. Write MC(m,k,j) for
<x, y | x^m, y^j, y^-1 x y = x^k>. Each step below is an explicit
isomorphism, so entries with equal keys are isomorphic:

1. D_n is MC(n, n-1, 2) and S3 is D3: the same presentation.
2. In MC(m,k,j), let m1 be the product of the prime powers q || m with
   k = 1 (mod q), and m2 = m/m1. The q-parts of <x> are y-invariant,
   and y fixes the m1-part, so MC(m,k,j) = Z_m1 x MC(m2, k, j).
3. Let o be the order of k mod m2, j1 the part of j prime to o and
   j2 = j/j1, so o | j2. Then <y> = <y^j2> x <y^j1>, and y^j2 acts as
   k^j2 = 1, so MC(m2,k,j) = Z_j1 x MC(m2, k^j1, j2).
4. Cyclic pieces split into their prime powers (Z_ab = Z_a x Z_b for
   coprime a, b; ``fingrp.prime_powers``); the abelian part is their
   sorted multiset, which is the primary decomposition.
5. MC(m2,k',j2) = MC(m2,k'^r,j2) for gcd(r, o) = 1: y^r generates <y>,
   since j2 has the primes of o, and acts as x -> x^(k'^r). The core's
   twist is min{k^r mod m2 : gcd(r, o) = 1}, and k^j1 gives the same
   minimum as k because j1 is prime to o.
6. A product's key is the union of its members' pieces.

The key is not complete: equal groups with different keys stay in the
scan, which costs time but never a result. Up to order 128 the only
repeat it misses is MC(21,2,6), which is D3 x MC(7,2,3).

Each group carries candidate automorphisms read off its construction,
as images of its family's generators; the leader scans prune by them
(``FiniteGroup._symmetries``). fingrp checks each candidate on the
Cayley graph before use, so a wrong one costs pruning, never a result.
Units u are picked by ``fingrp.unit_generators``, at most log2 of them.

  family     candidate                      why it is an automorphism
  Z_n        none                           power maps give all of Aut(Z_n)
  D_n        r -> r^u, u a unit mod n       r^u has order n; s inverts it
  D_n        s -> r s                       r s is a reflection, inverts r
  D2         r <-> s                        D2 = Z2 x Z2, symmetric in r, s
  MC(m,k,j)  x -> x^u, u a unit mod m       y^-1 x^u y = (x^u)^k
  MC(m,k,j)  y -> x^v y, v least with       (x^v y)^j = x^(v s) = 1, where
             v s = 0 (mod m)                s = 1 + k + ... + k^(j-1), and
                                            x^v y acts on <x> as y does
  MC(m,k,j)  y -> y^w, w = 1 (mod ord k),   y^w has order j and acts as
             w a unit mod j                 k^w = k
  S_n        none                           Aut(S_n) = Inn(S_n) for n != 6
  a x b      each member's S generators,    an automorphism of one factor
             on its own coordinate          times the identity
  a x a      (x, y) -> (y, x)               the factors are equal
  a x b      g -> g z, g a generator of     (x, y) -> (x, y f(x)) for the
             one member, z a power of a     homomorphism f into the centre
             central generator of the       with f(g) = z, f = 1 on the
             other, ord z | ord g           other generators, if it exists

f factors through the member's abelianization Q, where the images of
the other generators generate a subgroup P with Q/P cyclic, generated by
g's image; so f exists iff ord z divides the order of g's image in Q/P,
and the last is listed only then (``_orders_mod_others``; not for r in
D_n with z of order 4, nor for a generator of S4 or S5 whose image in Z2
the others' images already give). The check still runs on every
candidate.
"""

from __future__ import annotations

import functools
import itertools
from math import factorial, gcd, isqrt, prod
from typing import Callable, Iterator, Optional

from .fingrp import (
    FiniteGroup,
    Record,
    abelianization,
    greedy_generators,
    is_p_power,
    prime_powers,
    subgroup_generated,
    trusted_group,
    unit_generators,
)

CYCLIC_MAX = 64
DIHEDRAL_MAX = 12
METACYCLIC_M_MAX = 31
SYMMETRIC_MAX = 5


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + [f"x{i}" if i > 1 else "x" for i in range(1, n)]
    return trusted_group(table, names, generators=(1,) if n > 1 else ())


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, order 2n; index = i + n*e for r^i s^e."""
    order = 2 * n

    def mul(a: int, b: int) -> int:
        i1, e1 = a % n, a // n
        i2, e2 = b % n, b // n
        i = (i1 + (i2 if e1 == 0 else -i2)) % n
        return i + n * ((e1 + e2) % 2)

    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    names = ["e"] + [f"r{i}" if i > 1 else "r" for i in range(1, n)]
    names += [f"sr{i}" if i else "s" for i in range(n)]
    # Images of (r, s) = (1, n): r -> r^u; s -> r s; for D2, r <-> s.
    candidates = [(u, n) for u in unit_generators(n)] + [(1, 1 + n)]
    if n == 2:
        candidates.append((n, 1))
    return trusted_group(table, names, generators=(1, n), candidates=candidates)


def metacyclic_group(m: int, k: int, j: int) -> FiniteGroup:
    """Split metacyclic <x, y | x^m, y^j, y^-1 x y = x^k>; index = l*m + i for y^l x^i."""
    if gcd(k, m) != 1:
        raise AssertionError(f"twist {k} not invertible mod {m}")
    if pow(k, j, m) != 1:
        raise AssertionError(f"twist order does not divide {j}")
    # Row y^l1 x^i1 is, block by block over l2, y^(l1+l2) times the
    # rotation of x^0..x^(m-1) that starts at x^(i1 k^l2).
    twist = [pow(k, l, m) for l in range(j)]
    blocks = [[[l * m + (c + i) % m for i in range(m)] for c in range(m)] for l in range(j)]
    table = [[x for l2 in range(j) for x in blocks[(l1 + l2) % j][i1 * twist[l2] % m]]
             for l1 in range(j) for i1 in range(m)]
    # Images of (x, y) = (1, m). (x^v y)^j = x^(v s) y^j with
    # s = 1 + k + ... + k^(j-1), so y -> x^v y for the least v with
    # v s = 0 (mod m); x^v y = y x^(v k) has index m + v k.
    o = _mult_order(k, m)
    v = m // gcd(m, sum(twist))
    candidates = [(u, m) for u in unit_generators(m)]
    if v < m:
        candidates.append((1, m + v * k % m))
    candidates += [(1, w * m) for w in unit_generators(j, lambda w: w % o == 1)]
    return trusted_group(table, generators=(1, m), candidates=candidates)


def symmetric_group(n: int) -> FiniteGroup:
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return trusted_group(table)


def direct_product(G1: FiniteGroup, G2: FiniteGroup) -> FiniteGroup:
    """G1 x G2, with (a, b) at index a*|G2| + b. Its candidate automorphisms
    are given on the members' generators (see the module docstring)."""
    n2 = G2.order
    table = [[x * n2 + y for x in ra for y in rb] for ra in G1.table for rb in G2.table]
    a_gens = G1.family_generators or G1.generators
    b_gens = G2.family_generators or G2.generators
    g1, g2 = [a * n2 for a in a_gens], list(b_gens)
    gens = g1 + g2
    candidates = [[s[a] * n2 for a in a_gens] + g2 for s in G1._symmetries()]
    candidates += [g1 + [s[b] for b in b_gens] for s in G2._symmetries()]
    if G1 == G2:
        candidates.append(g2 + g1)
    # g -> g z for a generator g of one member, z central in the other;
    # ord z must divide the order of g in that member's abelianization
    # modulo the images of the member's other generators.
    c1, c2 = _central_generators(G1), _central_generators(G2)
    moves = ([(G2, c2, 1, G1.element_orders[a], k)
              for a, k in zip(a_gens, _orders_mod_others(G1, a_gens))]
             + [(G1, c1, n2, G2.element_orders[b], k)
                for b, k in zip(b_gens, _orders_mod_others(G2, b_gens))])
    for i, (other, centre, scale, order, ab_order) in enumerate(moves):
        for c in centre:
            oc = other.element_orders[c]
            z = other.power(c, oc // gcd(oc, order))
            if z and ab_order % other.element_orders[z] == 0:
                candidates.append(gens[:i] + [gens[i] + z * scale] + gens[i + 1:])
    return trusted_group(table, generators=gens, candidates=candidates)


def _orders_mod_others(G: FiniteGroup, gens: tuple[int, ...]) -> list[int]:
    """For each g of ``gens``, the order of its image in G^ab modulo the
    subgroup that the images of the other generators generate: the
    quotient is cyclic, generated by g's image, so a homomorphism f from G
    to an abelian group with f(g) = z and f = 1 on the other generators
    exists iff ord z divides this order."""
    q, proj = abelianization(G)
    images = [proj[g] for g in gens]
    out = []
    for i, x in enumerate(images):
        others = subgroup_generated(q, images[:i] + images[i + 1:]).members
        out.append(next(k for k in itertools.count(1) if q.power(x, k) in others))
    return out


def _central_generators(G: FiniteGroup) -> list[int]:
    """Generators of the centre of G, picked greedily in index order."""
    tab = G.table
    return greedy_generators(G, lambda z: all(tab[z][g] == tab[g][z] for g in G.generators))


class CatalogEntry(Record):
    _fields = ("name", "order", "family_rank", "params")
    __slots__ = (*_fields, "_builder")

    def __init__(self, name: str, order: int, family_rank: int, params: tuple,
                 _builder: Callable[[], FiniteGroup]):
        self._fill(name, order, family_rank, params, _builder)

    def key(self):
        return (self.order, self.family_rank, self.params)

    def build(self) -> FiniteGroup:
        G = _BUILD_CACHE.get(self.name)
        if G is None:
            G = self._builder()
            _BUILD_CACHE[self.name] = G
        return G


_BUILD_CACHE: dict[str, FiniteGroup] = {}


def _mult_order(k: int, m: int) -> int:
    o, acc = 1, k % m
    while acc != 1:
        acc = acc * k % m
        o += 1
    return o


def _entries_of_order(n: int, base: dict[int, list[CatalogEntry]]) -> list[CatalogEntry]:
    """The catalog entries of order n in scan order, given ``base``, the
    base-family members of every smaller order; records those of order n
    in it. Base families come first, by family rank and then parameters.
    Products a x b with a.key() <= b.key() follow in (a.key(), b.key())
    order: by the order of a, then a, then b, since a key starts with its
    order."""
    own = []
    if n <= CYCLIC_MAX:
        own.append(CatalogEntry(f"Z{n}", n, 0, (n,), (lambda n=n: cyclic_group(n))))
    if n % 2 == 0 and 2 <= n // 2 <= DIHEDRAL_MAX:
        d = n // 2
        own.append(CatalogEntry(f"D{d}", n, 1, (d,), (lambda d=d: dihedral_group(d))))
    for m in range(3, METACYCLIC_M_MAX + 1):
        if n % m:
            continue
        j = n // m
        # k = m-1 is skipped for every j, but only MC(m, m-1, 2) is the
        # dihedral D_m: MC(3,2,4) and MC(4,3,4) are in no family, and
        # neither are Q8 and A4. Each k in 2..m-2 prime to m has
        # multiplicative order at least 2, so j >= 2.
        for k in range(2, m - 1):
            if gcd(k, m) == 1 and j % _mult_order(k, m) == 0:
                own.append(CatalogEntry(
                    f"MC({m},{k},{j})", n, 2, (m, k, j),
                    (lambda m=m, k=k, j=j: metacyclic_group(m, k, j))))
    for s in range(3, SYMMETRIC_MAX + 1):
        if factorial(s) == n:
            own.append(CatalogEntry(f"S{s}", n, 3, (s,), (lambda s=s: symmetric_group(s))))
    base[n] = own
    products = []
    for d in range(2, isqrt(n) + 1):
        if n % d:
            continue
        for a in base[d]:
            for b in base[n // d]:
                if a.key() <= b.key():
                    products.append(CatalogEntry(
                        f"{a.name}x{b.name}", n, 4, (a.key(), b.key()),
                        (lambda a=a, b=b: direct_product(a.build(), b.build()))))
    return own + products


def _generate() -> Iterator[tuple[CatalogEntry, bool]]:
    """Every catalog entry in scan order, with whether it is the first of
    its isomorphism-key class."""
    base: dict[int, list[CatalogEntry]] = {}
    seen: set[tuple] = set()
    for n in itertools.count(2):
        for entry in _entries_of_order(n, base):
            key = iso_key(entry)
            yield entry, key not in seen
            seen.add(key)


# What _generate has yielded so far. An entry's flag depends on the
# entries before it only, so one prefix serves every bound.
_SCANNED: list[tuple[CatalogEntry, bool]] = []
_SOURCE = _generate()


def _scan() -> Iterator[tuple[CatalogEntry, bool]]:
    """The pairs of ``_generate``, read from ``_SCANNED`` and extending it
    as far as the caller reads."""
    for i in itertools.count():
        if i == len(_SCANNED):
            _SCANNED.append(next(_SOURCE))
        yield _SCANNED[i]


def catalog(max_order: int) -> tuple[CatalogEntry, ...]:
    """Catalog entries of order <= max_order in canonical scan order."""
    return tuple(itertools.takewhile(lambda e: e.order <= max_order,
                                     (entry for entry, _ in _scan())))


def entry_is_p_group(entry: CatalogEntry, p: int) -> bool:
    return is_p_power(entry.order, p)


def _metacyclic_pieces(m: int, k: int, j: int) -> tuple[list[int], list[tuple]]:
    """Abelian prime powers and the core of MC(m,k,j), by steps 2-5 of the
    module docstring."""
    abelian = [qa for qa in prime_powers(m).values() if (k - 1) % qa == 0]
    m2 = m // prod(abelian)
    if m2 == 1:
        return abelian + list(prime_powers(j).values()), []
    o = _mult_order(k, m2)
    j1 = [qa for q, qa in prime_powers(j).items() if o % q]
    twist = min(pow(k, r, m2) for r in range(1, o) if gcd(r, o) == 1)
    return abelian + j1, [("MC", m2, twist, j // prod(j1))]


def _pieces(rank: int, params: tuple) -> tuple[list[int], list[tuple]]:
    """Abelian prime powers and cores of a base member, by steps 1-5."""
    if rank == 0:
        return list(prime_powers(params[0]).values()), []
    if rank == 1:
        return _metacyclic_pieces(params[0], params[0] - 1, 2)
    if rank == 2:
        return _metacyclic_pieces(*params)
    return _metacyclic_pieces(3, 2, 2) if params[0] == 3 else ([], [("S", params[0])])


@functools.cache
def _key(rank: int, params: tuple) -> tuple:
    if rank == 4:  # step 6, from the members' keys
        (_, r1, p1), (_, r2, p2) = params
        (a1, c1), (a2, c2) = _key(r1, p1), _key(r2, p2)
        return tuple(sorted(a1 + a2)), tuple(sorted(c1 + c2))
    abelian, cores = _pieces(rank, params)
    return tuple(sorted(abelian)), tuple(sorted(cores))


def iso_key(entry: CatalogEntry) -> tuple:
    """Isomorphism key of an entry; equal keys prove the groups isomorphic.
    Kept for the process, one per entry generated."""
    return _key(entry.family_rank, entry.params)


def member_keys(entry: CatalogEntry) -> Optional[tuple[tuple, tuple]]:
    """The isomorphism keys of the two members of a product entry, None
    for a base member. A member may be a twin that ``targets`` drops (S3
    for D3); its key names the class that ``targets`` keeps."""
    if entry.family_rank != 4:
        return None
    (_, r1, p1), (_, r2, p2) = entry.params
    return _key(r1, p1), _key(r2, p2)


def targets(max_order: int, p: Optional[int] = None) -> Iterator[CatalogEntry]:
    """The first entry of each isomorphism-key class of ``catalog(max_order)``,
    in scan order; only p-groups when ``p`` is given.

    A scan that stops at its first hit sees the same hit: the kept entry
    precedes its twins, and whether a target serves is an isomorphism
    invariant. Keys are computed on first use and kept for the process.
    """
    for entry, kept in _scan():
        if entry.order > max_order:
            return
        if kept and (p is None or entry_is_p_group(entry, p)):
            yield entry
