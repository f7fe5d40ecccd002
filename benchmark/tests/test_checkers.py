"""Tests of the benchmark's own checks; they run in a few seconds.

    python3 -m pytest -q benchmark/tests
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import checkers as ck  # noqa: E402
import groups as gr  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

A, B = ((0, 1),), ((0, 1),)


def pc(p):
    return ck.FreeCyclicAmalgam(A * p, B * p)


def g2():
    """Z4 *_{<a^2> = <b^2>} Z4, elements a^i as i."""
    return ck.FiniteAmalgam(gr.cyclic(4), gr.cyclic(4), {0: 0, 2: 2})


# -- membership ---------------------------------------------------------------


def test_false_member_query_is_a_nonmember():
    am = pc(2)
    h = [("A", A), ("B", B), ("A", A), ("B", B * 17)]
    g = [("A", A), ("B", B)]
    assert am.member_exponent(h, g) is None
    with pytest.raises(ck.CheckFailed):
        ck.check_membership_outcome(am, h, g, "member", 2)
    assert ck.check_membership_outcome(am, h, g, "separated", None) is False


def test_free_member_and_wrong_exponent():
    am = pc(2)
    g = [("A", A), ("B", B)]
    h = g * 4
    assert ck.check_membership_outcome(am, h, g, "member", 4) is True
    with pytest.raises(ck.CheckFailed):
        ck.check_membership_outcome(am, h, g, "member", 3)
    with pytest.raises(ck.CheckFailed):
        ck.check_membership_outcome(am, h, g, "separated", None)


def test_free_short_generator_crosses_the_amalgam():
    # g = a has a^2 = b^2 among its powers, so b^4 lies in <g>.
    am = pc(2)
    assert am.member_exponent([("B", B * 4)], [("A", A)]) == 4
    assert am.member_exponent([("B", B)], [("A", A)]) is None


def test_finite_membership():
    am = g2()
    ab = [("A", 1), ("B", 1)]
    assert am.member_exponent(ab * 2, ab) == 2
    assert am.member_exponent([("A", 1), ("B", 3)], ab) is None
    assert am.member_exponent([("A", 2)], [("B", 2)]) == 1
    assert am.equal([("A", 2), ("B", 1)], [("B", 3)])


# -- certificates ---------------------------------------------------------------


def test_finite_certificate_and_one_entry_changed():
    am = g2()
    h, g = [("A", 1), ("B", 3)], [("A", 1), ("B", 1)]
    T = gr.cyclic(4)
    map_a, map_b = [0, 1, 2, 3], [0, 3, 2, 1]
    ck.check_finite_certificate(am, T, map_a, map_b, h, g)
    for bad_a, bad_b in (([0, 1, 2, 3], [0, 1, 2, 3]), ([0, 1, 2, 1], [0, 3, 2, 1])):
        with pytest.raises(ck.CheckFailed):
            ck.check_finite_certificate(am, T, bad_a, bad_b, h, g)


def test_free_certificate():
    am = pc(2)
    h, g = [("A", A)], [("A", A), ("B", B)]
    T = gr.cyclic(4)
    ck.check_free_certificate(am, T, [1], [3], h, g)
    with pytest.raises(ck.CheckFailed):
        ck.check_free_certificate(am, T, [1], [2], h, g)


# -- lattices -------------------------------------------------------------------


def test_pair_lattice_of_g2():
    lat = ck.PairLattice(g2())
    pairs = lat.plain_pairs()
    assert len(pairs) == 5
    assert all(lat.p_compatible(R, S, 2) for R, S in pairs)
    chain = [{0}, {0, 2}, {0, 1, 2, 3}]
    matching = [((0,), (0,)), ((0, 2), (0, 2))]
    lat.check_certificate(frozenset({0}), frozenset({0}), chain, chain, matching, 2)
    with pytest.raises(ck.CheckFailed):
        lat.check_certificate(frozenset({0}), frozenset({0}), [{0}, {0, 1, 2, 3}],
                              chain, matching, 2)
    with pytest.raises(ck.CheckFailed):
        lat.check_certificate(frozenset({0}), frozenset({0}), chain, chain,
                              [((0,), (0,))], 2)


def _op(ops, kind):
    return next(op for op in ops if op.kind == kind)


def test_lattice_check_rejects_a_wrong_pair_list():
    op = wl.lattice_op(random.Random(1), random.Random(2), ("D4", "Z2xZ4", 2))
    plain, certified, pmode, verdict = op.call()
    op.check((plain, certified, pmode, verdict))
    with pytest.raises(ck.CheckFailed):
        op.check((plain[:-1], certified[:-1], pmode, verdict))
    with pytest.raises(ck.CheckFailed):
        op.check((plain, certified, pmode[1:], verdict))


# -- whole operations -----------------------------------------------------------


@pytest.fixture(scope="module")
def witness_ops():
    return wl.finite_witness_round(random.Random("skeleton:finite-witness:0"),
                                   random.Random("label:finite-witness:7:0"))


def test_witness_outputs_pass_and_tampered_ones_fail(witness_ops):
    for op in witness_ops[:24]:
        op.check(op.call())
    member = _op(witness_ops, "power/plain")
    rep = member.call()
    with pytest.raises(ck.CheckFailed):
        member.check(dataclasses.replace(rep, exponent=rep.exponent + 1))
    sep = next(op for op in witness_ops if op.call().outcome == "separated")
    rep = sep.call()
    bad = list(rep.hom_map_a)
    bad[next(x for x in range(1, len(bad)) if bad[x] != 0)] = 0
    with pytest.raises(ck.CheckFailed):
        sep.check(dataclasses.replace(rep, hom_map_a=tuple(bad)))


def test_free_round_counts_the_false_member_as_failed():
    ops = wl.free_scan_round(random.Random("skeleton:free-scan:0"),
                             random.Random("label:free-scan:7:0"))
    op = _op(ops, "false-member/p")
    rep = op.call()
    assert op.failed(rep) == (rep.outcome == "member")
    with pytest.raises(ck.CheckFailed):
        op.check(dataclasses.replace(rep, outcome="member", exponent=2))


def test_thm21_properties_at_bound_21():
    desc, hw, kw = wl.doubling(random.Random(3))
    op = wl.class_op("classes/doubling", desc, hw, kw, 21, thm21=True)
    out = op.call()
    op.check(out)
    with pytest.raises(ck.CheckFailed):
        ck.check_thm21([c for c in wl._classes(out)
                        if gr.element_order(gr.table_by_name(c[0]), c[1][0]) != 7],
                       21, gr.table_by_name)


def test_group_tables_match_catalog_names():
    from amalgsep.catalog import catalog
    for entry in catalog(64):
        assert gr.table_by_name(entry.name) == entry.build().table, entry.name


# -- reference speed ------------------------------------------------------------


def test_probe_scales_by_the_samples_around_the_interval():
    probe = speed.Probe(nominal_s=0.5)
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.times = [0.5, 1.0, 2.0, 9.0]
    # Work from 1.1 to 1.5 lies between the samples at 1.0 and 2.0: the host
    # ran at a third of reference speed there.
    assert probe.scale(1.1, 0.4) == pytest.approx(0.4 / 3)
    assert probe.scale(0.5, 1.4) == pytest.approx(1.4 / 2.5)
    with pytest.raises(ValueError):
        probe.scale(3.5, 0.1)
    with pytest.raises(ValueError):
        probe.scale(-1.0, 0.5)
