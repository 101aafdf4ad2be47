"""Seeded stress: stabilizer chains against brute-force closure."""

import math
import random

import pytest

from treeperm.bsgs import StabilizerChain
from treeperm.groups import PermGroup, closure_elements
from treeperm.perms import Permutation, _compose, _invert, parse_cycles


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
    from treeperm.groups import symmetric
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
