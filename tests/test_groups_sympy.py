"""Differential checks against sympy.combinatorics on random groups of
degree <= 7: the subgroup scans, the chain facts, the stabilizer cache."""

import random

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from treeperm.groups import PermGroup  # noqa: E402
from treeperm.perms import Permutation  # noqa: E402
from treeperm.series import prime_factors, sylow_subgroup  # noqa: E402

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
