"""Multiplication tables built by the benchmark itself, without amalgsep.

The tables follow the index conventions of the amalgsep target catalog
(cyclic ``Z<n>``, dihedral ``D<n>``, split metacyclic ``MC(m,k,j)``,
symmetric ``S<n>`` and two-factor products ``<X>x<Y>``), so a certificate
that names a catalog target can be re-verified against a table the
benchmark computed on its own. Tables are tuples of tuples; element 0 is
the identity.
"""

from __future__ import annotations

import itertools
import random
import re

Table = tuple[tuple[int, ...], ...]


def cyclic(n: int) -> Table:
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def dihedral(n: int) -> Table:
    """Order 2n; index i + n*e stands for r^i s^e."""
    def mul(a, b):
        i1, e1 = a % n, a // n
        i2, e2 = b % n, b // n
        return (i1 + (i2 if e1 == 0 else -i2)) % n + n * ((e1 + e2) % 2)
    return tuple(tuple(mul(a, b) for b in range(2 * n)) for a in range(2 * n))


def metacyclic(m: int, k: int, j: int) -> Table:
    """<x, y | x^m, y^j, y^-1 x y = x^k>; index l*m + i stands for y^l x^i."""
    def mul(a, b):
        l1, i1 = divmod(a, m)
        l2, i2 = divmod(b, m)
        return ((l1 + l2) % j) * m + (i1 * pow(k, l2, m) + i2) % m
    return tuple(tuple(mul(a, b) for b in range(m * j)) for a in range(m * j))


def symmetric(n: int) -> Table:
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms)
                 for p in perms)


def product(t1: Table, t2: Table) -> Table:
    n1, n2 = len(t1), len(t2)
    return tuple(tuple(t1[a1][a2] * n2 + t2[b1][b2]
                       for a2 in range(n1) for b2 in range(n2))
                 for a1 in range(n1) for b1 in range(n2))


_BASE = re.compile(r"^(Z|D|S)(\d+)$|^MC\((\d+),(\d+),(\d+)\)$")


def _base_table(name: str) -> Table:
    m = _BASE.match(name)
    if m is None:
        raise ValueError(f"unknown group name {name!r}")
    if m.group(1) == "Z":
        return cyclic(int(m.group(2)))
    if m.group(1) == "D":
        return dihedral(int(m.group(2)))
    if m.group(1) == "S":
        return symmetric(int(m.group(2)))
    return metacyclic(int(m.group(3)), int(m.group(4)), int(m.group(5)))


_BY_NAME: dict[str, Table] = {}


def table_by_name(name: str) -> Table:
    """Table of a catalog-style name such as ``Z2xMC(8,3,2)``."""
    t = _BY_NAME.get(name)
    if t is None:
        depth, cut = 0, None
        for i, ch in enumerate(name):
            depth += (ch == "(") - (ch == ")")
            if ch == "x" and depth == 0:
                cut = i
        if cut is None:
            t = _base_table(name)
        else:
            t = product(table_by_name(name[:cut]), table_by_name(name[cut + 1:]))
        _BY_NAME[name] = t
    return t


def inverses(t: Table) -> tuple[int, ...]:
    return tuple(row.index(0) for row in t)


def element_order(t: Table, x: int) -> int:
    n, y = 1, x
    while y != 0:
        y = t[y][x]
        n += 1
    return n


def generated(t: Table, gens) -> frozenset[int]:
    """The subgroup generated by ``gens`` (finite, so products suffice)."""
    members = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = t[x][g]
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


def relabel(t: Table, rng: random.Random) -> tuple[Table, tuple[int, ...]]:
    """An isomorphic copy under a random permutation fixing 0.

    Returns the new table and ``perm`` with ``perm[old] = new``.
    """
    n = len(t)
    perm = [0] + rng.sample(range(1, n), n - 1)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    table = tuple(tuple(perm[t[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
    return table, tuple(perm)


def names_for(prefix: str, n: int) -> list[str]:
    return ["e"] + [f"{prefix}{i}" for i in range(1, n)]
