"""Shared fixtures and independent oracle helpers.

The oracles here deliberately avoid the library's own search paths:
subgroups are enumerated by closure growth, chains by exhaustive
recursion, and amalgam elements of a given length by direct construction
of all normal forms.
"""

from __future__ import annotations

import itertools

import pytest

from amalgsep.amalgam import AmalgamElement, AmalgamPresentation, build_amalgam
from amalgsep.fingrp import (
    FiniteGroup,
    Subgroup,
    construct_group,
    subgroup_generated,
)


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


@pytest.fixture(scope="session")
def z4a():
    return construct_group(cyclic_table(4), ["e", "a", "a2", "a3"])


@pytest.fixture(scope="session")
def z4b():
    return construct_group(cyclic_table(4), ["e", "b", "b2", "b3"])


@pytest.fixture(scope="session")
def s3():
    """S3 built from permutation composition (independent of the catalog)."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    return construct_group(table)


@pytest.fixture(scope="session")
def g2(z4a, z4b):
    """The order-4 cyclic amalgam: Z4 * Z4 glued along the squares."""
    H = subgroup_generated(z4a, [2])
    K = subgroup_generated(z4b, [2])
    return build_amalgam(z4a, z4b, H, K, {0: 0, 2: 2})


@pytest.fixture(scope="session")
def z9_amalgam():
    z9a = construct_group(cyclic_table(9), ["e"] + [f"a{i}" for i in range(1, 9)])
    z9b = construct_group(cyclic_table(9), ["e"] + [f"b{i}" for i in range(1, 9)])
    H = subgroup_generated(z9a, [3])
    K = subgroup_generated(z9b, [3])
    return build_amalgam(z9a, z9b, H, K, {0: 0, 3: 3, 6: 6})


# ---------------------------------------------------------------------------
# Oracles


def closure_oracle(G: FiniteGroup, gens) -> frozenset[int]:
    """Least subgroup containing ``gens``: breadth-first products of the
    generators and their inverses."""
    steps = set(gens) | {G.inverse[g] for g in gens}
    members, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in steps:
            y = G.table[x][g]
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


def all_subgroups_oracle(G: FiniteGroup) -> list[frozenset[int]]:
    """Every subgroup in canonical order: the closures of single elements
    and of pairs, then closure growth by one element at a time until no
    new subgroup appears."""
    found = {}
    for x in G.elements():
        for y in G.elements():
            found.setdefault(closure_oracle(G, (x, y)), (x, y))
    frontier = list(found.items())
    while frontier:
        S, gens = frontier.pop()
        for x in G.elements():
            if x in S:
                continue
            T = closure_oracle(G, gens + (x,))
            if T not in found:
                found[T] = gens + (x,)
                frontier.append((T, gens + (x,)))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def is_normal_oracle(G: FiniteGroup, members: frozenset[int]) -> bool:
    """Normality by conjugation with every element of G."""
    return all(G.conjugate(x, g) in members for x in members for g in G.elements())


def normal_subgroups_oracle(G: FiniteGroup) -> list[frozenset[int]]:
    return [ms for ms in all_subgroups_oracle(G) if is_normal_oracle(G, ms)]


def chains_exist_oracle(G: FiniteGroup, R_members: frozenset[int], p: int) -> bool:
    """Exhaustive search for an all-normal chain with index-p steps."""
    normals = normal_subgroups_oracle(G)

    def grow(cur):
        if len(cur) == G.order:
            return True
        want = len(cur) * p
        return any(len(N) == want and cur < N and grow(N) for N in normals)

    return grow(R_members)


def nonidentity_reps(pres: AmalgamPresentation, side: str) -> list[int]:
    trans = pres.transversal_a if side == "A" else pres.transversal_b
    return sorted(set(trans) - {0})


def elements_of_length(pres: AmalgamPresentation, n: int) -> list[AmalgamElement]:
    """All normal forms with exactly n syllables, built directly."""
    cores = sorted(pres.H.members)
    if n == 0:
        return [AmalgamElement(pres, c, ()) for c in cores]
    out = []
    for start in ("A", "B"):
        sides = [start if i % 2 == 0 else ("B" if start == "A" else "A")
                 for i in range(n)]
        pools = [nonidentity_reps(pres, s) for s in sides]
        for combo in itertools.product(*pools):
            syls = tuple(zip(sides, combo))
            for c in cores:
                out.append(AmalgamElement(pres, c, syls))
    return out


def elements_up_to_length(pres, n):
    out = []
    for k in range(n + 1):
        out.extend(elements_of_length(pres, k))
    return out
