"""Differential checks against sympy.combinatorics on random groups of
degree <= 7: centralizers of H with 1-3 generators, intersections,
normal cores, pointwise stabilizers, the chain facts, the stabilizer cache;
on the Sylow orders of Sym(n) and Alt(n) for n <= 12, past the element
cap of the scan oracle; on the known-order chains of wreath towers with
at most 64 leaves and of a few of their direct squares; and on the
structural chains of the ball groups of the benchmark's pool; and on
the orders of O_p(G) and O^p(G), for random groups and named families."""

import random

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from scan_oracles import intersection_scan, normal_core_scan  # noqa: E402
from test_localact import BALL_POOL  # noqa: E402
from treeperm.groups import PermGroup, alternating, parse_group_spec, symmetric  # noqa: E402
from treeperm.localact import (Graft, ball_stabilizer_group, edge_ball_group,  # noqa: E402
                               half_ball_rigid_stabilizers)
from treeperm.perms import Permutation, _compose  # noqa: E402
from treeperm.series import (is_prime, p_residual, pi_core, prime_factors,  # noqa: E402
                             sylow_subgroup)
from treeperm.treeball import build_ball, legal_coloring  # noqa: E402
from treeperm.wreath import direct_square, tower_order, wreath_tower  # noqa: E402

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
    # H from 2-3 generators, drawn from G or from all of Sym(n)
    for k in (2, 3):
        hs = [G.random_element(rng) if rng.randrange(2) else Permutation(rng.sample(range(n), n))
              for _ in range(k)]
        assert (G.centralizer(PermGroup(n, hs)).order()
                == SG.centralizer(SymGroup([SymPerm(list(h.images)) for h in hs])).order())

    # sympy's subgroup_search fails on the trivial group
    meet = SG.subgroup_search(SK.contains).order() if SG.order() > 1 else 1
    assert intersection_scan(G, K).order() == meet

    U = PermGroup(n, [G.random_element(rng) for _ in range(2)])
    assert normal_core_scan(G, U).order() == sympy_normal_core(SG, sym(U))

    for a in range(n):
        assert G.point_stabilizer(a).order() == SG.stabilizer(a).order()

    for points in ([rng.randrange(n)], rng.sample(range(n), rng.randint(2, n)), G.orbit(0)):
        assert (G.pointwise_stabilizer(points).order()
                == SG.pointwise_stabilizer(points).order())


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


def assert_core_and_residual_orders_match_sympy(G):
    """|O_p(G)| is the order of the core of a Sylow p-subgroup.  O^p(G)
    is generated by the p'-elements, so it is the normal closure of a
    Sylow r-subgroup for each prime r other than p."""
    SG = sym(G)
    primes = prime_factors(G.order())
    for q in primes:
        assert pi_core(G, {q}).order() == sympy_normal_core(SG, SG.sylow_subgroup(q)), q
        others = [x for r in primes if r != q for x in SG.sylow_subgroup(r).generators]
        residual = SG.normal_closure(SymGroup(others)).order() if others else 1
        assert p_residual(G, q).order() == residual, q


@hypothesis.settings(max_examples=30, deadline=None, database=None)
@hypothesis.given(groups)
def test_core_and_residual_orders_match_sympy(case):
    gens, _, _ = case
    assert_core_and_residual_orders_match_sympy(PermGroup(gens[0].degree, gens))


@pytest.mark.parametrize("spec", ["Sym(4)", "Sym(7)", "Alt(4)", "Alt(7)", "Dih(6)",
                                  "Dih(12)", "Cyc(8)", "Klein4", "F20"])
def test_core_and_residual_orders_of_named_groups_match_sympy(spec):
    assert_core_and_residual_orders_match_sympy(parse_group_spec(spec))


@pytest.mark.parametrize("n", range(1, 13))
def test_sym_and_alt_sylow_orders_match_sympy(n):
    named = combinatorics.named_groups
    for G, SG in ((symmetric(n), named.SymmetricGroup(n)),
                  (alternating(n), named.AlternatingGroup(n))):
        for q in (q for q in range(2, n + 1) if is_prime(q)):
            assert sylow_subgroup(G, q).order() == SG.sylow_subgroup(q).order(), (G.name, q)


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
    T = wreath_tower(F, depth).group
    ambient = wreath_tower(symmetric(F.degree), depth).group
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


SQUARES = [("Sym(2)", 3), ("Sym(3)", 2), ("Klein4", 2), ("Alt(4)", 1), ("Dih(4)", 2)]


@pytest.mark.parametrize("spec, depth", SQUARES, ids=[f"{s}:{n}" for s, n in SQUARES])
def test_known_order_square_chains_match_sympy(spec, depth):
    F = parse_group_spec(spec)
    T = wreath_tower(F, depth)
    S = direct_square(T)
    ambient = direct_square(wreath_tower(symmetric(F.degree), depth))
    SS = combinatorics.group_constructs.DirectProduct(sym(T.group), sym(T.group))
    assert S._order_bound is not None
    assert S.order() == SS.order() == T.group.order() ** 2
    # probes: words in the square and in the ambient square, a square word
    # with its right half from the ambient one, halves swapped, shuffles
    rng = random.Random(depth * 100 + F.order())
    m = T.leaf_count
    probes = [random_word(rng, S.generators) for _ in range(6)]
    probes += [random_word(rng, ambient.generators) for _ in range(6)]
    probes += [a[:m] + b[m:] for a, b in zip(probes[:3], probes[6:9])]
    probes += [p[m:] + p[:m] for p in probes[:3]]
    probes += [tuple(rng.sample(range(S.degree), S.degree)) for _ in range(3)]
    for p in probes:
        assert S.chain.contains(p) == SS.contains(SymPerm(list(p)))


@pytest.mark.parametrize("d, r, spec, center", BALL_POOL,
                         ids=[f"d{d}r{r}-{spec}-{c}" for d, r, spec, c in BALL_POOL])
def test_structural_ball_chains_match_sympy(d, r, spec, center):
    b = legal_coloring(build_ball(d, r, center))
    if center == "vertex":
        B = ball_stabilizer_group(b, parse_group_spec(spec))
        chains = [B.group]
    else:
        B = edge_ball_group(b, parse_group_spec(spec))
        chains = [B.group, B.type_preserving, *half_ball_rigid_stabilizers(B)]
    # probes: words in the group, in the structural generators of the
    # endpoint-fixing Sym(d) ball group around it, and shuffles of the vertices
    around = [Permutation(g) for _, g in Graft(b, symmetric(d))._generators()]
    rng = random.Random(d * 100 + r * 10 + len(spec))
    for G in chains:
        SG = sym(G)
        assert G.order() == SG.order()
        probes = [random_word(rng, G.generators) for _ in range(4)] if G.generators else []
        probes += [random_word(rng, around) for _ in range(6)]
        probes += [tuple(rng.sample(range(G.degree), G.degree)) for _ in range(2)]
        for p in probes:
            assert G.chain.contains(p) == SG.contains(SymPerm(list(p)))
