"""Seeded stress: stabilizer chains against brute-force closure."""

import itertools
import math
import random

import pytest

from scan_oracles import intersection_scan, normal_core_scan
from treeperm import bsgs, groups
from treeperm.bsgs import StabilizerChain, _Level, _schreier_generators, reduce_generators
from treeperm.groups import PermGroup, closure_elements, dihedral, symmetric
from treeperm.lattice import cone_bits, rist
from treeperm.localact import Graft, ball_stabilizer_group
from treeperm.perms import Permutation, _compose, _invert, parse_cycles
from treeperm.subgroups import _classes, enumerate_subgroups_up_to_conjugacy
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
def test_prefixed_chain_keeps_its_base_and_group():
    rng = random.Random(23)
    for _ in range(60):
        degree = rng.randrange(1, 9)
        G = random_group(rng, degree, rng.randrange(1, 4))
        gens = [g.images for g in G.generators]
        prefix = rng.sample(range(degree), rng.randint(0, degree))
        plain = StabilizerChain.from_generators(degree, gens)
        chain = StabilizerChain.from_generators(degree, gens, base=prefix)
        assert chain.base()[:len(prefix)] == prefix
        assert chain.order() == plain.order() == G.order()
        if not prefix:
            assert chain.base() == plain.base()
        for _ in range(50):
            imgs = list(range(degree))
            rng.shuffle(imgs)
            p = tuple(imgs)
            assert chain.contains(p) == plain.contains(p)
        assert all(chain.contains(G.random_element(rng).images) for _ in range(10))


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


def test_up_to_order_completes_in_place_when_sifting_falls_short(monkeypatch):
    # sifting (1 2) and (1 2 3 4 5 6) gives orbits of 6 and 5, product 30
    gens = [parse_cycles(c, 6).images for c in ("(1 2)", "(1 2 3 4 5 6)")]
    built, rebuilt = [], []
    init = StabilizerChain.__init__
    monkeypatch.setattr(StabilizerChain, "__init__",
                        lambda self, degree: built.append(degree) or init(self, degree))
    real = StabilizerChain.from_generators.__func__
    monkeypatch.setattr(StabilizerChain, "from_generators", classmethod(
        lambda cls, degree, gs: rebuilt.append(degree) or real(cls, degree, gs)))
    chain = StabilizerChain.up_to_order(6, gens, 720)
    assert chain.order() == 720 and built == [6] and rebuilt == []
    assert chain.contains(parse_cycles("(1 3)(2 5 6)", 6).images)


def _grow_orbit_two_loops(lev, old_points, old_gens):
    """Orbit growth as two walks, new generators over the scanned points
    and then every generator over the rest: the oracle for the single
    walk of `StabilizerChain._grow_orbit`."""
    gens = lev.gens
    orbit = lev.orbit
    tr = lev.transversal
    itr = lev.inv_transversal
    # new generators applied to already-scanned points
    for idx in range(old_points):
        u = orbit[idx]
        tu = tr[u]
        for g in gens[old_gens:]:
            v = g[u]
            if v not in tr:
                tv = _compose(g, tu)
                tr[v] = tv
                itr[v] = _invert(tv)
                orbit.append(v)
    # all generators applied to unscanned points
    idx = old_points
    while idx < len(orbit):
        u = orbit[idx]
        tu = tr[u]
        for g in gens:
            v = g[u]
            if v not in tr:
                tv = _compose(g, tu)
                tr[v] = tv
                itr[v] = _invert(tv)
                orbit.append(v)
        idx += 1


def test_grow_orbit_walks_as_the_two_loop_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    perms = lambda n: st.permutations(range(n)).map(tuple)
    # each batch: new generators, and how far below the scanned points
    # and generators the watermarks passed to the walk fall
    batches = lambda n: st.lists(st.tuples(
        st.lists(perms(n), min_size=1, max_size=3), st.integers(0, 3), st.integers(0, 2)),
        min_size=1, max_size=4)
    cases = st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n - 1), batches(n)))

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(cases)
    def check(case):
        n, point, steps = case
        ident = tuple(range(n))
        walked, oracle = _Level(point, ident), _Level(point, ident)
        for batch, points_back, gens_back in steps:
            old_points = max(0, len(walked.orbit) - points_back)
            old_gens = max(0, len(walked.gens) - gens_back)
            for lev, grow in ((walked, StabilizerChain._grow_orbit),
                              (oracle, _grow_orbit_two_loops)):
                lev.gens.extend(batch)
                grow(lev, old_points, old_gens)
            assert walked.orbit == oracle.orbit
            assert list(walked.transversal.items()) == list(oracle.transversal.items())
            # the walk caches no inverse; any it holds is the oracle's
            assert walked.inv_transversal.items() <= oracle.inv_transversal.items()
            assert all(g[u] in walked.transversal for u in walked.orbit for g in walked.gens)
            assert all(walked.transversal[u][point] == u for u in walked.orbit)

    check()


def test_cached_inverses_invert_their_representatives(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    made = []  # every level built while a case runs, chain or Schreier stream

    class Recorded(_Level):
        def __init__(self, point, ident):
            super().__init__(point, ident)
            made.append(self)

    monkeypatch.setattr(bsgs, "_Level", Recorded)
    perms = lambda n: st.permutations(range(n)).map(tuple)
    cases = st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(perms(n), min_size=1, max_size=3),
        st.lists(perms(n), max_size=4), perms(n), st.integers(0, n),
        st.integers(0, n - 1), st.integers(0, 6)))

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(cases)
    def check(case):
        n, gens, probes, points, k, point, draws = case
        made.clear()
        ident = tuple(range(n))
        elements = sorted(e.images for e in closure_elements(
            n, [Permutation(g) for g in gens], 10 ** 5))
        members = set(elements)
        prefixed = StabilizerChain.from_generators(n, gens, points[:k])
        fixing = {e for e in elements if all(e[b] == b for b in prefixed.base()[:k])}
        checks = [(StabilizerChain.up_to_order(n, gens, len(elements)), members),
                  (StabilizerChain.from_generators(n, gens), members),
                  (prefixed, members), (prefixed.tail(k), fixing),
                  (reduce_generators(n, elements, len(elements))[1], members)]
        queries = probes + elements[::max(1, len(elements) // 6)]
        for chain, group in checks:
            assert chain.order() == len(group)
            assert all(chain.contains(q) == (q in group) for q in queries)
        _, stream = _schreier_generators(n, gens, point)
        for s in itertools.islice(stream, draws):
            assert s[point] == point and s in members
        assert made
        for lev in made:
            assert lev.inv_transversal.keys() <= set(lev.orbit)
            assert all(_compose(t_inv, lev.transversal[u]) == ident
                       for u, t_inv in lev.inv_transversal.items())

    check()


def test_a_tower_chain_caches_no_inverse_off_its_base_points():
    # W_3(Dih(5)) on 125 leaves: 375 orbit points off the base, every
    # one of which had its inverse computed while its orbit grew
    chain = wreath_tower(dihedral(5), 3).group.chain
    assert sum(len(lev.orbit) - 1 for lev in chain.levels) == 375
    assert [list(lev.inv_transversal) for lev in chain.levels] \
        == [[lev.point] for lev in chain.levels]


def _check_bounded_against_full_pass(monkeypatch) -> list:
    """Make every `from_elements` also run the unbounded sift-reduce and
    compare; returns the list of orders the callers passed."""
    orders = []

    def both_ways(degree, elements, order=None):
        elements = list(elements)
        kept, chain = reduce_generators(degree, elements, order)
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
        intersection_scan(G, PermGroup(n, others))
        normal_core_scan(G, PermGroup(n, [G.random_element(rng) for _ in range(2)]))
        for a in range(n):
            G.point_stabilizer(a)

    check()
    assert orders and None not in orders


def test_subgroup_classes_and_panel_stabilizers_sift_to_their_order(monkeypatch):
    _classes.cache_clear()     # a memo hit would build no class rep to check
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


def test_graft_count_still_checks_the_chain(monkeypatch):
    # the count-only walk stays the independent check of the chain built
    # up to the graft formula: one spurious last-step panel, or one
    # spurious node above the last step holding a panel, is caught
    walk = Graft._walk

    def with_spurious_panel(self, *args, **kwargs):
        items = walk(self, *args, **kwargs)
        first = next(items)
        yield tuple(first) + tuple(first[:1])
        yield from items

    def with_spurious_node(self, *args, **kwargs):
        for panels in walk(self, *args, **kwargs):
            yield panels
        yield panels[:1]

    for spurious in (with_spurious_panel, with_spurious_node):
        monkeypatch.setattr(Graft, "_walk", spurious)
        with pytest.raises(AssertionError, match="graft count 49 disagrees with BSGS order 48"):
            ball_stabilizer_group(legal_coloring(build_ball(3, 2, "vertex")), symmetric(3))
