"""Differential checks against sympy.combinatorics on random groups of
degree <= 7: the subgroup scans, the chain facts, the stabilizer cache;
and on the known-order chains of wreath towers with at most 64 leaves."""

import random

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from treeperm.groups import PermGroup, parse_group_spec, symmetric  # noqa: E402
from treeperm.perms import Permutation, _compose  # noqa: E402
from treeperm.series import prime_factors, sylow_subgroup  # noqa: E402
from treeperm.wreath import tower_order, wreath_tower  # noqa: E402

SymPerm = combinatorics.Permutation
SymGroup = combinatorics.PermutationGroup


def sym(G: PermGroup):
    """The same group in sympy: both read an image tuple as i -> images[i]."""
    return SymGroup([SymPerm(list(g.images)) for g in G.generators] or
                    [SymPerm(list(range(G.degree)))])


def sympy_normal_core(G, U) -> int:
    """|core_G(U)|: shrink U to {x : x^s in U} for every generator s
    until stable; the fixed point is normal, and it holds the core."""
    core = set(U.elements)
    while True:
        smaller = {x for x in core if all(x ^ s in core for s in G.generators)}
        if smaller == core:
            return len(core)
        core = smaller


perms = lambda n: st.permutations(range(n)).map(Permutation)
groups = st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.lists(perms(n), min_size=1, max_size=3), st.lists(perms(n), max_size=2),
    st.integers(0, 2 ** 16)))


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(groups)
def test_scanned_subgroup_orders_match_sympy(case):
    gens, others, seed = case
    n = gens[0].degree
    G, K = PermGroup(n, gens), PermGroup(n, others)
    SG, SK = sym(G), sym(K)
    assert G.order() == SG.order()
    rng = random.Random(seed)

    g = G.random_element(rng)
    assert (G.centralizer(PermGroup(n, [g])).order()
            == SG.centralizer(SymGroup([SymPerm(list(g.images))])).order())

    # sympy's subgroup_search fails on the trivial group
    meet = SG.subgroup_search(SK.contains).order() if SG.order() > 1 else 1
    assert G.intersection(K).order() == meet

    U = PermGroup(n, [G.random_element(rng) for _ in range(2)])
    assert G.normal_core(U).order() == sympy_normal_core(SG, sym(U))

    for a in range(n):
        assert G.point_stabilizer(a).order() == SG.stabilizer(a).order()


@hypothesis.settings(max_examples=30, deadline=None, database=None)
@hypothesis.given(groups)
def test_chain_facts_match_sympy(case):
    gens, probes, seed = case
    n = gens[0].degree
    G = PermGroup(n, gens)
    SG = sym(G)
    for p in probes + list(gens):
        assert G.membership(p) == SG.contains(SymPerm(list(p.images)))
    assert sorted(map(sorted, G.orbits())) == sorted(sorted(o) for o in SG.orbits())
    N = PermGroup(n, [G.random_element(random.Random(seed))])
    assert G.normal_closure(N).order() == SG.normal_closure(sym(N)).order()
    assert G.derived_subgroup().order() == SG.derived_subgroup().order()
    for q in prime_factors(G.order()):
        assert sylow_subgroup(G, q).order() == SG.sylow_subgroup(q).order()


@hypothesis.settings(max_examples=30, deadline=None, database=None)
@hypothesis.given(groups)
def test_point_stabilizer_is_cached(case):
    gens, _, seed = case
    n = gens[0].degree
    G = PermGroup(n, gens)
    a = random.Random(seed).randrange(n)
    first = G.point_stabilizer(a)
    generators = first.generators
    again = G.point_stabilizer(a)
    assert again is first and again.generators == generators
    # a fresh group rebuilds the same stabilizer
    assert PermGroup(n, gens).point_stabilizer(a).generators == generators


# every tower W_n(F) with d <= 4 and at most 64 leaves, for these bases
TOWERS = [(spec, n) for spec, leaves in
          [("Sym(2)", [2, 4, 8, 16, 32, 64]), ("Sym(3)", [3, 9, 27]), ("Cyc(3)", [3, 9, 27]),
           ("Klein4", [4, 16, 64]), ("Cyc(4)", [4, 16, 64]), ("Dih(4)", [4, 16, 64]),
           ("Alt(4)", [4, 16, 64]), ("Sym(4)", [4, 16, 64])]
          for n, _ in enumerate(leaves, start=1)]


def random_word(rng, gens, length=12):
    g = gens[0].images
    for _ in range(length):
        g = _compose(g, rng.choice(gens).images)
    return g


@pytest.mark.parametrize("spec, depth", TOWERS, ids=[f"{s}:{n}" for s, n in TOWERS])
def test_known_order_tower_chains_match_sympy(spec, depth):
    F = parse_group_spec(spec)
    T = wreath_tower(F, depth, verify_order=False).group
    ambient = wreath_tower(symmetric(F.degree), depth, verify_order=False).group
    ST = sym(T)
    # the chain comes from the generators with the order law as its bound
    assert T._order_bound is not None
    assert T.order() == ST.order() == tower_order(F.order(), F.degree, depth)
    rng = random.Random(depth * 100 + F.order())
    probes = [random_word(rng, T.generators) for _ in range(6)]
    probes += [random_word(rng, ambient.generators) for _ in range(6)]
    probes += [tuple(rng.sample(range(T.degree), T.degree)) for _ in range(3)]
    for p in probes:
        assert T.chain.contains(p) == ST.contains(SymPerm(list(p)))
