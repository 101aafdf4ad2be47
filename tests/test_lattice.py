"""Rigid-stabilizer lattices over wreath towers."""

import itertools
import random

import pytest

from scan_oracles import centralizer_scan, intersection_scan
from treeperm import cli, wreath
from treeperm.config import DEFAULT_CAPS
from treeperm.groups import PermGroup, cyclic, symmetric, klein4
from treeperm.lattice import (cone_bits, cone_union_pool, count_supported, lattice_check_pair,
                              lattice_sweep, rist)
from treeperm.perms import parse_cycles
from treeperm.wreath import tower_order, wreath_tower


# -- exhaustive oracle: the library's rist is checked against these ------------

def support(g):
    bits = 0
    for i, j in enumerate(g.images):
        if i != j:
            bits |= 1 << i
    return bits


def rist_exhaustive(G, bits):
    """Pointwise stabilizer of the complement of `bits`, by element scan."""
    return PermGroup.from_elements(
        G.degree, (g.images for g in G.elements() if support(g) & ~bits == 0))


def test_rist_trivials():
    T = wreath_tower(symmetric(2), 2)
    assert rist(T, 0).order() == 1
    assert rist(T, 0b1111).order() == T.group.order()
    # a transitive base gives a transitive tower, an intransitive one does not
    assert T.group.is_transitive()
    F = PermGroup(3, [parse_cycles("(1 2)", 3)])
    assert not wreath_tower(F, 2).group.is_transitive()


def test_rist_on_plain_group():
    S4 = symmetric(4)
    R = rist_exhaustive(S4, 0b0011)  # {1, 2} in 1-based terms
    assert R.order() == 2
    assert R.generators[0] == parse_cycles("(1 2)", 4)


def test_structural_rist_matches_exhaustive_on_all_subsets():
    for F, n in [(symmetric(2), 2), (klein4(), 1)]:
        T = wreath_tower(F, n)
        ground = T.leaf_count
        for bits in range(1 << ground):
            structural = rist(T, bits)
            brute = rist_exhaustive(T.group, bits)
            assert structural.equals(brute), (F.name, n, bin(bits))


def test_structural_rist_matches_exhaustive_sampled_w2_klein4():
    T = wreath_tower(klein4(), 2)
    rng = random.Random(9)
    subsets = [0, (1 << 16) - 1] + [rng.randrange(1 << 16) for _ in range(40)]
    for bits in subsets:
        assert rist(T, bits).equals(rist_exhaustive(T.group, bits))


def test_count_supported_matches_exhaustive():
    T = wreath_tower(klein4(), 2)
    elems = T.group.elements()
    rng = random.Random(4)
    for _ in range(25):
        a = rng.randrange(1 << 16)
        b = rng.randrange(1 << 16)
        brute_a = sum(1 for g in elems if support(g) & ~a == 0)
        brute_ab = sum(1 for g in elems if support(g) & ~a == 0 and support(g) & ~b == 0)
        assert count_supported(T, a) == brute_a == rist(T, a).order()
        assert count_supported(T, a, b) == brute_ab


def test_rist_is_monotone():
    T = wreath_tower(symmetric(2), 3)
    rng = random.Random(2)
    for _ in range(30):
        a = rng.randrange(1 << 8)
        b = a | rng.randrange(1 << 8)
        assert rist(T, a).is_subgroup_of(rist(T, b))


def test_micro_supported_shadow():
    # nontrivial base, depth >= 1: every proper subtree cone has nontrivial
    # rist; single-leaf cones are trivially rigid
    for F in (symmetric(2), klein4()):
        for n in (1, 2, 3):
            T = wreath_tower(F, n)
            for k in range(0, n):
                for vertex in itertools.product(range(F.degree), repeat=k):
                    assert rist(T, cone_bits(T, vertex)).order() > 1
            leaf = tuple(0 for _ in range(n))
            assert rist(T, cone_bits(T, leaf)).order() == 1


def test_pair_checks_on_disjoint_cones():
    T = wreath_tower(klein4(), 2)
    c0, c1 = cone_bits(T, (0,)), cone_bits(T, (1,))
    check = lattice_check_pair(T, c0, c1)
    assert check.meet_identity_holds
    assert check.disjoint and check.disjoint_commutes
    assert check.complement_centralizer_contains
    assert check.rist_a_order == check.rist_b_order == 4


def test_pair_check_degenerate_equal_subsets():
    T = wreath_tower(symmetric(2), 2)
    c0 = cone_bits(T, (0,))
    check = lattice_check_pair(T, c0, c0)
    assert check.meet_identity_holds
    assert not check.disjoint
    assert check.intersection_order == check.rist_a_order


def test_complement_centralizer_observed_not_asserted():
    # at finite depth rist(complement) <= C_G(rist(alpha)) can be strict
    T = wreath_tower(symmetric(2), 2)
    check = lattice_check_pair(T, cone_bits(T, (0,)), cone_bits(T, (1,)))
    assert check.complement_centralizer_contains
    assert check.complement_centralizer_equals is False


def test_sweep_zero_failures_small_towers():
    for F, n in [(symmetric(2), 2), (klein4(), 1)]:
        T = wreath_tower(F, n)
        for check in lattice_sweep(T):
            assert check.meet_identity_holds
            assert not check.disjoint or check.disjoint_commutes


def test_cone_union_pool_is_deterministic():
    T = wreath_tower(klein4(), 2)
    assert cone_union_pool(T) == cone_union_pool(T)
    assert 0 in cone_union_pool(T)


# -- exhaustive intersection oracle: the sweep's portrait count is checked ------

SWEEP_TOWERS = [(symmetric(2), 1), (symmetric(2), 2), (symmetric(2), 3),
                (klein4(), 1), (klein4(), 2), (klein4(), 3), (symmetric(3), 2),
                (PermGroup(3, [parse_cycles("(1 2)", 3)]), 2)]


@pytest.mark.parametrize("F, n", SWEEP_TOWERS,
                         ids=[f"{F.name or 'gen:(1 2)'}:{n}" for F, n in SWEEP_TOWERS])
def test_sweep_intersection_count_matches_exhaustive(F, n):
    T = wreath_tower(F, n)
    rists = {}

    def rist_of(bits):
        if bits not in rists:
            rists[bits] = rist(T, bits)
        return rists[bits]

    scanned = 0
    for c in lattice_sweep(T):
        if min(c.rist_a_order, c.rist_b_order) <= 5000:
            exhaustive = intersection_scan(rist_of(c.subset_a), rist_of(c.subset_b))
            assert exhaustive.order() == c.intersection_order, (hex(c.subset_a), hex(c.subset_b))
            scanned += 1
    assert scanned > 0


MEMO_TOWERS = [(symmetric(2), 3), (symmetric(3), 2), (cyclic(3), 3), (klein4(), 2)]


@pytest.mark.parametrize("F, n", MEMO_TOWERS, ids=[f"{F.name}:{n}" for F, n in MEMO_TOWERS])
def test_shared_count_memo_changes_no_count(F, n):
    # the sweep shares one count_supported memo across its pairs
    T = wreath_tower(F, n)
    checks = lattice_sweep(T)
    assert checks
    for c in checks:
        assert c.intersection_order == count_supported(T, c.subset_a, c.subset_b), (
            hex(c.subset_a), hex(c.subset_b))


TOWERS_UNDER_CAP = [(F, n) for F, n in SWEEP_TOWERS
                    if tower_order(F.order(), F.degree, n) <= DEFAULT_CAPS.element_cap]


@pytest.mark.parametrize("F, n", TOWERS_UNDER_CAP,
                         ids=[f"{F.name or 'gen:(1 2)'}:{n}" for F, n in TOWERS_UNDER_CAP])
def test_centralizer_backtrack_matches_scan_on_sweep_rists(F, n):
    T = wreath_tower(F, n)
    for bits in cone_union_pool(T):
        H = rist(T, bits)
        C = T.group.centralizer(H)
        oracle = centralizer_scan(T.group, H)
        assert C.order() == oracle.order(), hex(bits)
        if H.generators:
            assert C.generators == oracle.generators, hex(bits)
        else:
            # a trivial H centralizes the whole group, returned as it is
            assert C is T.group


def test_lattice_rist_leaves_the_tower_chain_unbuilt(monkeypatch, capsys):
    # rist reads only the tower's generators: neither its chain nor the
    # local-action check behind the chain's known order may run
    towers, bound_checks = [], []
    parse_tower, bound = cli._parse_tower, wreath._tower_order_bound
    monkeypatch.setattr(cli, "_parse_tower",
                        lambda spec, caps: towers.append(parse_tower(spec, caps)) or towers[-1])
    monkeypatch.setattr(wreath, "_tower_order_bound",
                        lambda *args: bound_checks.append(args) or bound(*args))
    assert cli.main("lattice rist --tower Klein4:3 --subset 1.4,3.4,4.1".split()) == 0
    [T] = towers
    assert T.group._chain is None and bound_checks == []
    assert T.group.order() == 4 ** 21 and len(bound_checks) == 1
