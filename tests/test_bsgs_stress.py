"""Seeded stress: stabilizer chains against brute-force closure."""

import math
import random

import pytest

from treeperm import groups
from treeperm.bsgs import StabilizerChain, reduce_generators
from treeperm.groups import PermGroup, closure_elements, symmetric
from treeperm.lattice import cone_bits, rist
from treeperm.localact import Graft, ball_stabilizer_group
from treeperm.perms import Permutation, _compose, _invert, parse_cycles
from treeperm.subgroups import enumerate_subgroups_up_to_conjugacy
from treeperm.treeball import build_ball, legal_coloring
from treeperm.wreath import wreath_tower


def random_group(rng, degree, n_gens):
    gens = []
    for _ in range(n_gens):
        imgs = list(range(degree))
        rng.shuffle(imgs)
        gens.append(Permutation(imgs))
    return PermGroup(degree, gens)


def test_chain_order_and_membership_match_closure():
    rng = random.Random(20260810)
    for _ in range(60):
        degree = rng.randrange(2, 9)
        G = random_group(rng, degree, rng.randrange(1, 4))
        elems = closure_elements(degree, G.generators, 10 ** 5)
        assert G.order() == len(elems)
        elem_set = {e.images for e in elems}
        for e in elems[:10]:
            assert G.membership(e)
        for _ in range(10):
            imgs = list(range(degree))
            rng.shuffle(imgs)
            p = Permutation(imgs)
            assert G.membership(p) == (p.images in elem_set)


def test_orbit_stabilizer_on_random_groups():
    rng = random.Random(7)
    for _ in range(40):
        degree = rng.randrange(2, 8)
        G = random_group(rng, degree, rng.randrange(1, 3))
        a = rng.randrange(degree)
        assert G.order() == len(G.orbit(a)) * G.point_stabilizer(a).order()


def test_random_elements_are_uniformish():
    # all 6 elements of Sym(3) should appear in a modest sample
    rng = random.Random(99)
    G = symmetric(3)
    seen = {G.random_element(rng).images for _ in range(200)}
    assert len(seen) == 6


# Per-point reference definitions for the raw-tuple kernel.
def ref_mul(a, b):
    return tuple(a[x] for x in b)


def ref_is_ident(a):
    return all(i == j for i, j in enumerate(a))


def ref_inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def ref_order(a):
    order, seen = 1, set()
    for i in range(len(a)):
        length, j = 0, i
        while j not in seen:
            seen.add(j)
            j = a[j]
            length += 1
        order = math.lcm(order, max(length, 1))
    return order


def test_kernel_agrees_with_per_point_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = st.integers(1, 130).flatmap(lambda n: st.tuples(
        st.permutations(range(n)).map(tuple), st.permutations(range(n)).map(tuple),
        st.integers(0, 40)))

    @hypothesis.settings(max_examples=120, deadline=None, database=None)
    @hypothesis.given(cases)
    def check(case):
        a, b, k = case
        ab = ref_mul(a, b)
        assert _compose(a, b) == ab and type(_compose(a, b)) is tuple
        assert (Permutation(a) * Permutation(b)).images == ab
        a_inv = ref_inv(a)
        assert _invert(a) == a_inv and type(_invert(a)) is tuple
        assert Permutation(a).inverse().images == a_inv
        assert ref_is_ident(ref_mul(a, _invert(a)))
        for x in (a, b, ab, ref_mul(a, ref_inv(a))):
            assert Permutation(x).is_identity() == ref_is_ident(x)
        # <a> is abelian: its members commute with a, and a^k is a member
        chain = StabilizerChain.from_generators(len(a), [a])
        assert chain.order() == ref_order(a)
        power = tuple(range(len(a)))
        for _ in range(k):
            power = ref_mul(a, power)
        assert chain.contains(power)
        assert chain.contains(ref_inv(a))
        if chain.contains(b):
            assert ref_mul(a, b) == ref_mul(b, a)
        if ref_mul(a, b) != ref_mul(b, a):
            assert not chain.contains(b)

    check()


def test_up_to_order_agrees_with_schreier_sims():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    perms = lambda n: st.permutations(range(n)).map(tuple)
    cases = st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(perms(n), max_size=4), st.lists(perms(n), max_size=6),
        st.integers(0, 2 ** 16)))

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(cases)
    def check(case):
        n, gens, probes, seed = case
        full = StabilizerChain.from_generators(n, gens)
        known = StabilizerChain.up_to_order(n, gens, full.order())
        assert known.order() == full.order()
        rng = random.Random(seed)
        members = [full.random_element(rng) for _ in range(4)]
        for p in gens + probes + members:
            assert known.contains(p) == full.contains(p)
        assert all(known.contains(x) for x in members)
        assert full.contains(known.random_element(rng))

    check()


def test_up_to_order_falls_back_when_sifting_falls_short(monkeypatch):
    # sifting (1 2) and (1 2 3 4 5 6) gives orbits of 6 and 5, product 30
    gens = [parse_cycles(c, 6).images for c in ("(1 2)", "(1 2 3 4 5 6)")]
    rebuilt = []
    real = StabilizerChain.from_generators.__func__
    monkeypatch.setattr(StabilizerChain, "from_generators", classmethod(
        lambda cls, degree, gs: rebuilt.append(degree) or real(cls, degree, gs)))
    chain = StabilizerChain.up_to_order(6, gens, 720)
    assert chain.order() == 720 and rebuilt == [6]
    assert chain.contains(parse_cycles("(1 3)(2 5 6)", 6).images)


def _check_bounded_against_full_pass(monkeypatch) -> list:
    """Make every `from_elements` also run the unbounded sift-reduce and
    compare; returns the list of orders the callers passed."""
    orders = []

    def both_ways(degree, elements, order=None, with_inverses=False):
        elements = list(elements)
        kept, chain = reduce_generators(degree, elements, order, with_inverses)
        if with_inverses:
            elements = [g for g, _ in elements]
        full_kept, full_chain = reduce_generators(degree, elements)
        assert kept == full_kept
        assert chain.base() == full_chain.base()
        assert chain.order() == full_chain.order()
        orders.append(order)
        return kept, chain

    monkeypatch.setattr(groups, "reduce_generators", both_ways)
    return orders


def test_bounded_sift_keeps_what_a_full_pass_keeps(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    orders = _check_bounded_against_full_pass(monkeypatch)
    perms = lambda n: st.permutations(range(n)).map(Permutation)
    cases = st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.lists(perms(n), min_size=1, max_size=3), st.lists(perms(n), max_size=2),
        st.integers(0, 2 ** 16)))

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(cases)
    def check(case):
        gens, others, seed = case
        n = gens[0].degree
        G = PermGroup(n, gens)
        rng = random.Random(seed)
        G.centralizer(PermGroup(n, [G.random_element(rng)]))
        G.intersection(PermGroup(n, others))
        G.normal_core(PermGroup(n, [G.random_element(rng) for _ in range(2)]))
        for a in range(n):
            G.point_stabilizer(a)

    check()
    assert orders and None not in orders


def test_subgroup_classes_and_panel_stabilizers_sift_to_their_order(monkeypatch):
    orders = _check_bounded_against_full_pass(monkeypatch)
    assert len(enumerate_subgroups_up_to_conjugacy(symmetric(4))) == 11
    # the root panel fixes leaf cone 3 and may swap cones 1 and 2
    T = wreath_tower(symmetric(3), 2)
    assert rist(T, cone_bits(T, (0,)) | cone_bits(T, (1,))).order() == 6 * 6 * 2
    # the class reps and the panel stabilizers pass their counts; rist does not
    assert 24 in orders and 2 in orders and None in orders


def test_bounded_sift_raises_unless_the_chain_ends_at_its_order():
    elems = [parse_cycles(c, 3).images for c in ("()", "(1 2)", "(2 3)")]
    with pytest.raises(AssertionError, match="order 6, not the expected 3"):
        reduce_generators(3, elems, 3)
    with pytest.raises(AssertionError, match="order 2, not the expected 6"):
        reduce_generators(3, elems[:2], 6)
    kept, chain = reduce_generators(3, elems, 6)
    assert kept == elems[1:] and chain.order() == 6


def _chain_facts(chain):
    return chain.base(), [lev.orbit for lev in chain.levels], [lev.gens for lev in chain.levels]


def test_step_sift_keeps_what_the_plain_sift_keeps():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    perms = lambda n: st.permutations(range(n)).map(tuple)
    # generators, then a walk that multiplies by one of them per step
    cases = st.integers(2, 7).flatmap(lambda n: st.tuples(
        st.lists(perms(n), min_size=1, max_size=3),
        st.lists(st.integers(0, 2), min_size=1, max_size=60)))

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(cases)
    def check(case):
        gens, moves = case
        walk = [tuple(range(len(gens[0])))]
        for m in moves:
            walk.append(_compose(walk[-1], gens[m % len(gens)]))
        kept, chain = reduce_generators(len(walk[0]), [(g, _invert(g)) for g in walk],
                                        with_inverses=True)
        full_kept, full_chain = reduce_generators(len(walk[0]), walk)
        assert kept == full_kept
        assert _chain_facts(chain) == _chain_facts(full_chain)

    check()


def test_step_sift_grows_the_chain_at_a_late_non_member():
    # a walk over Alt(4), then one transposition: only its own sift keeps it
    walk = [g.images for g in groups.alternating(4).elements()]
    odd = parse_cycles("(3 4)", 4).images
    pairs = [(g, _invert(g)) for g in walk + [odd]]
    kept, chain = reduce_generators(4, pairs, with_inverses=True)
    assert chain.order() == 24 and kept[-1] == odd
    assert kept == reduce_generators(4, walk + [odd])[0]


def test_step_sift_refuses_a_wrong_inverse():
    g, h = parse_cycles("(1 2 3)", 3).images, parse_cycles("(1 2)", 3).images
    with pytest.raises(AssertionError, match="element 1 and its given inverse"):
        reduce_generators(3, [(h, h), (g, g)], with_inverses=True)
    # a non-bijection has no inverse to pass the check
    with pytest.raises(AssertionError, match="element 0 and its given inverse"):
        reduce_generators(3, [((0, 0, 2), (0, 1, 2))], with_inverses=True)


def test_graft_count_still_checks_the_chain(monkeypatch):
    # graft enumeration passes no order: the leaf count stays the
    # independent check, so one leaf too many is caught
    leaves = Graft._leaves

    def with_spurious_leaf(self, *args, **kwargs):
        first = None
        for leaf_and_inverse in leaves(self, *args, **kwargs):
            first = first or leaf_and_inverse
            yield leaf_and_inverse
        yield first

    monkeypatch.setattr(Graft, "_leaves", with_spurious_leaf)
    with pytest.raises(AssertionError, match="graft count 49 disagrees with BSGS order 48"):
        ball_stabilizer_group(legal_coloring(build_ball(3, 2, "vertex")), symmetric(3))
