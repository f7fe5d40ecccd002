"""Compatible and p-compatible pairs against the all-pairs oracle.

``enumerate_compatible_pairs`` joins N(A) and N(B) on S n K, and
``is_p_compatible`` memoizes chain families and verdicts on the
presentation. The sweep compares both with ``conftest.p_pairs_oracle``,
which tests every (R, S) from scratch, on every ordered pair of small
catalog p-groups glued along a cyclic subgroup of each common order,
plus mixed-order amalgams and non-cyclic amalgamated subgroups. Each
side's chain families, witness chains included, are compared with the
depth-first ascent on relabeled copies of the same amalgams. The memo
tests check that validation still runs on memo hits, that results do not
depend on call order, and that the memo and the factors' cover edges die
with their presentation and group.
"""

from __future__ import annotations

import gc
import itertools
import weakref

import pytest

from amalgsep.amalgam import build_amalgam
from amalgsep.catalog import catalog, entry_is_p_group
from amalgsep.compat import (
    _chain_families,
    enumerate_compatible_pairs,
    family_separability,
    is_compatible,
    is_p_compatible,
    presentation_residually_p,
)
from amalgsep.errors import InputError
from amalgsep.fingrp import (
    Subgroup,
    enumerate_normal_subgroups,
    subgroup_generated,
    trivial_subgroup,
)

from conftest import (
    chain_families_oracle,
    family_verdict_oracle,
    p_pairs_oracle,
    relabeled,
    relabeled_amalgam,
)

ENTRIES = {e.name: e for e in catalog(27)}
P_GROUPS = {2: [e.name for e in catalog(16) if entry_is_p_group(e, 2)],
            3: [e.name for e in catalog(27) if entry_is_p_group(e, 3)]}
MIXED = [("Z4", "D3"), ("D3", "Z4"), ("Z2xZ4", "D6"), ("Z9", "Z3xD3"), ("Z3xD3", "Z9")]


def cyclic_amalgams(name_a: str, name_b: str):
    """One amalgam per common element order d: the first elements of
    order d in A and in B generate H and K, and phi matches their powers."""
    A, B = ENTRIES[name_a].build(), ENTRIES[name_b].build()
    for d in sorted(set(A.element_orders) & set(B.element_orders)):
        x = A.element_orders.index(d)
        y = B.element_orders.index(d)
        phi, hx, ky = {}, 0, 0
        for _ in range(d):
            phi[hx] = ky
            hx, ky = A.table[hx][x], B.table[ky][y]
        yield build_amalgam(A, B, subgroup_generated(A, [x]),
                            subgroup_generated(B, [y]), phi)


def as_tuple(pair) -> tuple:
    """A library pair in the oracle's form."""
    cert = pair.certificate
    if cert is None:
        return (pair.r_side.members, pair.s_side.members, None)
    return (pair.r_side.members, pair.s_side.members,
            (tuple(l.members for l in cert.chain_a.links),
             tuple(l.members for l in cert.chain_b.links), cert.matching))


def check_against_oracle(pres, p: int) -> None:
    plain = enumerate_compatible_pairs(pres, "plain")
    assert [as_tuple(x) for x in plain] == p_pairs_oracle(pres, "plain")
    want_p = p_pairs_oracle(pres, "p", p)
    pmode = enumerate_compatible_pairs(pres, "p", p)
    assert [as_tuple(x) for x in pmode] == want_p
    # p_pairs_oracle keeps exactly the pairs p_compatible_oracle certifies.
    certified = {(R, S): cert for R, S, cert in want_p}
    for R in enumerate_normal_subgroups(pres.A):
        for S in enumerate_normal_subgroups(pres.B):
            got = is_p_compatible(pres, R, S, p)
            want = certified.get((R.members, S.members))
            assert (None if got is None else as_tuple(got)[2]) == want
    for g in pres.A.elements():
        v = family_separability(pres, "A", g, "p", p)
        witnesses = v.witnesses and {x: R.members for x, R in v.witnesses.items()}
        assert (v.verdict, v.certifying, witnesses) == family_verdict_oracle(pres.A, g, want_p)


@pytest.mark.parametrize("p", [2, 3])
def test_p_group_sweep_matches_oracle(p):
    amalgams = 0
    for name_a, name_b in itertools.product(P_GROUPS[p], repeat=2):
        for pres in cyclic_amalgams(name_a, name_b):
            check_against_oracle(pres, p)
            amalgams += 1
    assert amalgams > len(P_GROUPS[p]) ** 2


@pytest.mark.parametrize("names", MIXED, ids=["*".join(n) for n in MIXED])
@pytest.mark.parametrize("p", [2, 3])
def test_mixed_order_amalgams_match_oracle(names, p):
    for pres in cyclic_amalgams(*names):
        check_against_oracle(pres, p)


# Non-cyclic H glued to itself: here several chain families of one R can
# match, so the certificate depends on the canonical family order. Along
# <2, 4> in Z2xD2 the chain search meets a family of R = {0, 5} before the
# canonical first one.
NON_CYCLIC = [("Z2xZ4", (2, 4)), ("Z2xD2", (1, 2)), ("Z2xD2", (2, 4)), ("Z4xZ4", (1, 8)),
              ("Z2xD4", (1, 4))]


def non_cyclic_amalgam(name, gens):
    G = ENTRIES[name].build()
    H = subgroup_generated(G, list(gens))
    return build_amalgam(G, G, H, H, {h: h for h in H.members})


@pytest.mark.parametrize("name,gens", NON_CYCLIC, ids=[f"{n}{list(g)}" for n, g in NON_CYCLIC])
def test_non_cyclic_amalgams_match_oracle(name, gens):
    pres = non_cyclic_amalgam(name, gens)
    assert pres.H.order < pres.A.order
    assert all(pres.A.element_orders[h] < pres.H.order for h in pres.H.members)
    check_against_oracle(pres, 2)


def canonical_items(families: dict) -> list:
    return sorted(families.items(), key=lambda kv: sorted(tuple(sorted(s)) for s in kv[0]))


@pytest.mark.parametrize("p", [2, 3])
def test_chain_families_match_the_ascent(p):
    # The memoized top-down pass keeps the witness chain the depth-first
    # ascent found first, on labels unlike the catalog's.
    amalgams = [pres for names in [*itertools.product(P_GROUPS[p], repeat=2), *MIXED]
                for pres in cyclic_amalgams(*names)]
    amalgams += [non_cyclic_amalgam(*shape) for shape in NON_CYCLIC]
    cases = 0
    for seed, pres in enumerate(amalgams):
        pres = relabeled_amalgam(pres, seed)
        for side, G, H in (("A", pres.A, pres.H), ("B", pres.B, pres.K)):
            for N in enumerate_normal_subgroups(G):
                got = list(_chain_families(pres, side, N, p).items())
                assert got == canonical_items(chain_families_oracle(G, N, H, p))
                cases += bool(got)
    assert cases > 10 * len(amalgams)


def test_mixed_order_p_mode_skips_the_trivial_pair():
    # Neither factor of Z4*D3 is a 3-group, and D3 is no 2-group: in both
    # primes the trivial pair has no chain certificate, though the plain
    # family is never empty.
    for pres in cyclic_amalgams("Z4", "D3"):
        assert enumerate_compatible_pairs(pres, "plain")
        for p in (2, 3):
            assert not presentation_residually_p(pres, p)
            assert all(x.r_side.order > 1 or x.s_side.order > 1
                       for x in enumerate_compatible_pairs(pres, "p", p))


# ---------------------------------------------------------------------------
# p checks


def test_p_mode_without_a_prime_is_a_contract_violation(g2):
    with pytest.raises(AssertionError, match="needs a prime"):
        enumerate_compatible_pairs(g2, "p", None)
    with pytest.raises(AssertionError, match="needs a prime"):
        enumerate_compatible_pairs(g2, "p")
    with pytest.raises(AssertionError, match="needs a prime"):
        family_separability(g2, "A", 1, "p", None)
    with pytest.raises(AssertionError, match="needs a prime"):
        presentation_residually_p(g2, None)


@pytest.mark.parametrize("p", [4, 1, 0, -2, 2.5, 2.0, True])
def test_p_mode_with_a_non_prime_is_a_contract_violation(g2, p):
    with pytest.raises(AssertionError, match=f"{p} is not prime"):
        enumerate_compatible_pairs(g2, "p", p)
    with pytest.raises(AssertionError, match=f"{p} is not prime"):
        family_separability(g2, "A", 1, "p", p)


def test_non_prime_is_rejected_where_no_pair_reaches_the_p_test(z4a, s3):
    # Z4 * S3 glued trivially: pairs exist, but none would need a chain
    # search before the check on p.
    pres = build_amalgam(z4a, s3, trivial_subgroup(z4a), trivial_subgroup(s3), {0: 0})
    with pytest.raises(AssertionError, match="9 is not prime"):
        enumerate_compatible_pairs(pres, "p", 9)


# ---------------------------------------------------------------------------
# memo safety


def fresh_g2():
    return next(p for p in cyclic_amalgams("Z4", "Z4") if p.H.order == 2)


def test_checks_still_fire_on_memo_hits(z4a, s3):
    pres = fresh_g2()
    enumerate_compatible_pairs(pres, "p", 2)
    family_separability(pres, "A", 1, "p", 2)
    R = trivial_subgroup(pres.A)
    S = trivial_subgroup(pres.B)
    assert is_p_compatible(pres, R, S, 2) is not None
    # D3 is not normal in S3; rebuild the presentation over S3 to reach it.
    rotations = subgroup_generated(s3, [x for x in s3.elements() if s3.element_order(x) == 3])
    reflection = next(x for x in s3.elements() if s3.element_order(x) == 2)
    flip = subgroup_generated(s3, [reflection])
    pres_s3 = build_amalgam(s3, s3, trivial_subgroup(s3), trivial_subgroup(s3), {0: 0})
    enumerate_compatible_pairs(pres_s3, "p", 2)
    assert is_p_compatible(pres_s3, rotations, rotations, 2) is not None
    with pytest.raises(InputError, match="R is not normal in A"):
        is_p_compatible(pres_s3, flip, rotations, 2)
    with pytest.raises(InputError, match="S is not normal in B"):
        is_compatible(pres_s3, rotations, flip)
    # z4a is a Z4 table built apart from the catalog's, so not pres.A.
    with pytest.raises(AssertionError, match="presentation factors"):
        is_p_compatible(pres, trivial_subgroup(z4a), S, 2)
    with pytest.raises(AssertionError, match="presentation factors"):
        is_compatible(pres, trivial_subgroup(z4a), S)
    with pytest.raises(AssertionError, match="4 is not prime"):
        is_p_compatible(pres, R, S, 4)
    with pytest.raises(AssertionError, match="4 is not prime"):
        enumerate_compatible_pairs(pres, "p", 4)


def test_results_do_not_depend_on_call_order():
    def run_all(pres):
        out = []
        for p in (2, 3):
            out.append([as_tuple(x) for x in enumerate_compatible_pairs(pres, "p", p)])
            for R in enumerate_normal_subgroups(pres.A):
                for S in enumerate_normal_subgroups(pres.B):
                    pair = is_p_compatible(pres, R, S, p)
                    out.append(None if pair is None else as_tuple(pair))
            for g in pres.A.elements():
                v = family_separability(pres, "A", g, "p", p)
                out.append((v.verdict, v.certifying,
                            v.witnesses and {x: R.members for x, R in v.witnesses.items()}))
            out.append(presentation_residually_p(pres, p))
        out.append([as_tuple(x) for x in enumerate_compatible_pairs(pres, "plain")])
        return out

    for pres in cyclic_amalgams("D4", "Z2xZ4"):
        warm = build_amalgam(pres.A, pres.B, pres.H, pres.K, pres.phi)
        # Warm the memo through other entry points, in another order.
        for g in reversed(warm.A.elements()):
            family_separability(warm, "A", g, "p", 2)
        for R in reversed(enumerate_normal_subgroups(warm.A)):
            for S in reversed(enumerate_normal_subgroups(warm.B)):
                is_p_compatible(warm, R, S, 3)
        assert run_all(warm) == run_all(pres)


def test_equal_subgroup_objects_share_a_verdict():
    pres = fresh_g2()
    R = Subgroup(pres.A, frozenset({0, 2}))
    S = Subgroup(pres.B, frozenset({0, 2}))
    first = is_p_compatible(pres, R, S, 2)
    again = is_p_compatible(pres, Subgroup(pres.A, frozenset({0, 2})),
                            Subgroup(pres.B, frozenset({0, 2})), 2)
    assert first is again and first.r_side == R


@pytest.mark.parametrize("call", ["family", "enumerate"])
def test_memo_is_collected_with_its_presentation(call):
    pres = fresh_g2()
    if call == "family":
        family_separability(pres, "A", 1, "p", 2)
    else:
        enumerate_compatible_pairs(pres, "p", 2)
    assert any(isinstance(k, tuple) for k in pres.compat_cache)
    alive = weakref.ref(pres)
    del pres
    gc.collect()
    assert alive() is None


def test_factor_group_is_collected_with_its_cover_cache():
    G = relabeled(ENTRIES["D4"].build(), "cover-cache")[0]
    pres = build_amalgam(G, G, trivial_subgroup(G), trivial_subgroup(G), {0: 0})
    assert enumerate_compatible_pairs(pres, "p", 2)
    assert G.normal_covers(2) is G.normal_covers(2)
    alive = weakref.ref(G)
    del G, pres
    gc.collect()
    assert alive() is None


def test_compat_keeps_no_module_level_or_id_keyed_memo():
    import inspect
    import re

    import amalgsep.compat as cp
    assert not [name for name, value in vars(cp).items()
                if isinstance(value, (dict, set, list)) and not name.startswith("__")]
    assert not re.search(r"\bid\(", inspect.getsource(cp))


def test_pair_lists_are_memoized_and_callers_cannot_corrupt_them(monkeypatch):
    import amalgsep.compat as cp
    pres = fresh_g2()
    want = {mode: [as_tuple(x) for x in enumerate_compatible_pairs(fresh_g2(), mode, 2)]
            for mode in ("plain", "p")}
    for mode in ("plain", "p"):
        enumerate_compatible_pairs(pres, mode, 2).clear()
    calls = []
    real = cp.enumerate_normal_subgroups
    monkeypatch.setattr(cp, "enumerate_normal_subgroups", lambda G: calls.append(G) or real(G))
    for mode in ("plain", "p"):
        got = enumerate_compatible_pairs(pres, mode, 2)
        assert [as_tuple(x) for x in got] == want[mode]
        got.reverse()
    for g in pres.A.elements():
        family_separability(pres, "A", g, "p", 2)
    # Plain pairs do not depend on p.
    assert [as_tuple(x) for x in enumerate_compatible_pairs(pres, "plain", 3)] == want["plain"]
    assert [as_tuple(x) for x in enumerate_compatible_pairs(pres, "plain")] == want["plain"]
    assert not calls
