"""Built-in catalog of finite homomorphism targets.

Families: cyclic Z_n (n <= 64), dihedral D_n (n <= 12, order 2n),
split metacyclic Z_m x| Z_j with twist k (m <= 31, j a multiple of the
order of k mod m), symmetric S_n (n <= 5), and direct products of two
base members under an order cap. Enumeration order is (group order,
family rank, parameters), which fixes the deterministic scan order used
everywhere downstream. The list is built once, for the largest bound
asked for so far, and shared as an immutable tuple.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

from .errors import InputError
from .fingrp import FiniteGroup, is_p_power, trusted_group

CYCLIC_MAX = 64
DIHEDRAL_MAX = 12
METACYCLIC_M_MAX = 31
SYMMETRIC_MAX = 5


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + [f"x{i}" if i > 1 else "x" for i in range(1, n)]
    return trusted_group(table, names)


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
    return trusted_group(table, names)


def metacyclic_group(m: int, k: int, j: int) -> FiniteGroup:
    """Split metacyclic <x, y | x^m, y^j, y^-1 x y = x^k>; index = l*m + i for y^l x^i."""
    if gcd(k, m) != 1:
        raise InputError(f"twist {k} not invertible mod {m}")
    if pow(k, j, m) != 1:
        raise InputError(f"twist order does not divide {j}")
    # Row y^l1 x^i1 is, block by block over l2, y^(l1+l2) times the
    # rotation of x^0..x^(m-1) that starts at x^(i1 k^l2).
    twist = [pow(k, l, m) for l in range(j)]
    blocks = [[[l * m + (c + i) % m for i in range(m)] for c in range(m)] for l in range(j)]
    table = [[x for l2 in range(j) for x in blocks[(l1 + l2) % j][i1 * twist[l2] % m]]
             for l1 in range(j) for i1 in range(m)]
    return trusted_group(table)


def symmetric_group(n: int) -> FiniteGroup:
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return trusted_group(table)


def direct_product(G1: FiniteGroup, G2: FiniteGroup) -> FiniteGroup:
    n2 = G2.order
    table = [[x * n2 + y for x in ra for y in rb] for ra in G1.table for rb in G2.table]
    verified = G1.associativity_verified and G2.associativity_verified
    return trusted_group(table, verified=verified)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    order: int
    family_rank: int
    params: tuple
    _builder: Callable[[], FiniteGroup] = field(compare=False, repr=False)

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


def _build_catalog(max_order: int) -> tuple[CatalogEntry, ...]:
    entries: list[CatalogEntry] = []
    for n in range(2, CYCLIC_MAX + 1):
        if n <= max_order:
            entries.append(CatalogEntry(f"Z{n}", n, 0, (n,),
                                        (lambda n=n: cyclic_group(n))))
    for n in range(2, DIHEDRAL_MAX + 1):
        if 2 * n <= max_order:
            entries.append(CatalogEntry(f"D{n}", 2 * n, 1, (n,),
                                        (lambda n=n: dihedral_group(n))))
    for m in range(3, METACYCLIC_M_MAX + 1):
        # k = m-1 would duplicate the dihedral family. Each k in 2..m-2
        # prime to m has multiplicative order at least 2, so j >= 2 below.
        for k in range(2, m - 1):
            if gcd(k, m) != 1:
                continue
            base = _mult_order(k, m)
            for j in range(base, max_order // m + 1, base):
                entries.append(CatalogEntry(
                    f"MC({m},{k},{j})", m * j, 2, (m, k, j),
                    (lambda m=m, k=k, j=j: metacyclic_group(m, k, j))))
    for n in range(3, SYMMETRIC_MAX + 1):
        order = 1
        for i in range(2, n + 1):
            order *= i
        if order <= max_order:
            entries.append(CatalogEntry(f"S{n}", order, 3, (n,),
                                        (lambda n=n: symmetric_group(n))))
    entries.sort(key=lambda e: e.key())
    base = tuple(entries)
    for i, e1 in enumerate(base):
        for e2 in base[i:]:
            order = e1.order * e2.order
            if order <= max_order:
                entries.append(CatalogEntry(
                    f"{e1.name}x{e2.name}", order, 4, (e1.key(), e2.key()),
                    (lambda a=e1, b=e2: direct_product(a.build(), b.build()))))
    entries.sort(key=lambda e: e.key())
    return tuple(entries)


# The catalog for the largest bound requested so far. Entries sort by order
# first and the factors of a product never exceed its order, so the catalog
# for a smaller bound is a prefix of it.
_CATALOG: tuple[CatalogEntry, ...] = ()
_CATALOG_BOUND = 0


def catalog(max_order: int) -> tuple[CatalogEntry, ...]:
    """Catalog entries of order <= max_order in canonical scan order."""
    global _CATALOG, _CATALOG_BOUND
    if max_order > _CATALOG_BOUND:
        _CATALOG, _CATALOG_BOUND = _build_catalog(max_order), max_order
    return _CATALOG[:bisect_right(_CATALOG, max_order, key=lambda e: e.order)]


def entry_is_p_group(entry: CatalogEntry, p: int) -> bool:
    return is_p_power(entry.order, p)
