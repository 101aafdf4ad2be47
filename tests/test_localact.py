"""Local actions, panel-constrained ball groups, defects."""

import hashlib
import random
from itertools import chain, zip_longest

import pytest

from scan_oracles import intersection_scan
from treeperm.bsgs import StabilizerChain
from treeperm.config import DEFAULT_CAPS
from treeperm.errors import InputError, ResourceLimitError
from treeperm.groups import (PermGroup, alternating, cyclic, dihedral, parse_group_spec,
                             symmetric, trivial)
from treeperm import acceptance, wreath
from treeperm.localact import (Graft, _local_action, ball_stabilizer_group, cocycle_defect,
                               defect_set, edge_ball_group, half_ball_rigid_stabilizers, in_Uc,
                               is_ball_automorphism, local_action, panel_map,
                               random_ball_automorphism)
from treeperm.perms import Permutation, _compose, _invert, parse_cycles
from treeperm.treeball import build_ball, legal_coloring
from treeperm.wreath import direct_square, wreath_tower


def ball(d, r, kind="vertex"):
    return legal_coloring(build_ball(d, r, kind))


def neighbors_by_color(b):
    """Per vertex, its neighbors keyed by color: `color_of` inverted, so an
    oracle reading it does not read the ball's own neighbor table."""
    return [{c: u for u, c in colors.items()} for colors in b.color_of]


def test_local_action_of_identity():
    b = ball(3, 2)
    ident = Permutation.identity(b.n_vertices)
    for v in b.interior:
        assert local_action(b, ident, v).is_identity()


def test_local_action_needs_interior():
    b = ball(3, 1)
    ident = Permutation.identity(b.n_vertices)
    with pytest.raises(InputError, match=r"^local action undefined: vertex 1 or image 1 "
                                         r"is not interior$"):
        local_action(b, ident, 1)  # boundary vertex
    # the center is interior, but this permutation sends it to the boundary
    with pytest.raises(InputError, match=r"^local action undefined: vertex 0 or image 1 "
                                         r"is not interior$"):
        local_action(b, parse_cycles("(1 2)", b.n_vertices), 0)


def test_mirror_swap_has_identity_panels():
    # with trivial local group the edge ball group is exactly {id, mirror}
    b = ball(3, 2, "edge")
    B = edge_ball_group(b, trivial(3))
    assert B.order() == 2
    mirror = next(g for g in B.group.elements() if not g.is_identity())
    assert mirror(0) == 1 and mirror(1) == 0
    assert all(sigma.is_identity() for sigma in panel_map(b, mirror).values())
    assert in_Uc(b, mirror, trivial(3))


def test_cocycle_identity_exhaustive_on_small_ball_group():
    b = ball(3, 2)
    B = ball_stabilizer_group(b, symmetric(3))
    elems = B.group.elements()
    assert len(elems) == 48
    interior = b.interior
    for g in elems:
        for h in elems:
            gh = g * h
            for v in interior:
                assert local_action(b, gh, v) == \
                    local_action(b, g, h(v)) * local_action(b, h, v)


def test_ball_group_elements_are_automorphisms_with_panels_in_F():
    b = ball(3, 2)
    F = symmetric(3)
    B = ball_stabilizer_group(b, F)
    for g in B.group.elements():
        assert is_ball_automorphism(b, g)
        assert g(0) == 0
        assert in_Uc(b, g, F)


def test_ball_group_monotone_in_local_group():
    b = ball(3, 2)
    big = ball_stabilizer_group(b, symmetric(3))
    for E in (cyclic(3), alternating(3), trivial(3)):
        small = ball_stabilizer_group(b, E)
        assert small.group.is_subgroup_of(big.group)


def test_order_formula_transitive_cases():
    assert ball_stabilizer_group(ball(3, 1), symmetric(3)).order() == 6
    assert ball_stabilizer_group(ball(3, 2), symmetric(3)).order() == 48
    assert ball_stabilizer_group(ball(4, 1), alternating(4)).order() == 12


def test_intransitive_local_group_grafts_by_realizable_transitions():
    # F = <(1 2)> on 3 colors: stabilizer sizes 1, 1, 2 along the inward colors
    F = PermGroup(3, [parse_cycles("(1 2)", 3)])
    b = ball(3, 2)
    B = ball_stabilizer_group(b, F)
    assert B.order() == B.formula_count == 4
    for g in B.group.elements():
        assert in_Uc(b, g, F)


def test_defect_of_one_odd_panel():
    # graft one odd local action at a level-1 vertex: Alt(3) panels
    # everywhere else, so the defect set against (Alt(3), Sym(3)) is {v}
    b = ball(3, 2)
    F, Fp = alternating(3), symmetric(3)
    v = 1
    i = b.color_of[v][b.parent[v]]
    others = [c for c in range(3) if c != i]
    sigma = parse_cycles(f"({others[0] + 1} {others[1] + 1})", 3)  # odd, fixes i
    images = list(range(b.n_vertices))
    nbr = neighbors_by_color(b)[v]
    for u in b.children[v]:
        images[u] = nbr[sigma(b.color_of[v][u])]
    g = Permutation(images)
    assert is_ball_automorphism(b, g)
    report = defect_set(b, g, F, Fp)
    assert report.defects == [v]
    assert report.violations == []
    assert report.is_valid_element
    assert not in_Uc(b, g, F)
    assert in_Uc(b, g, Fp)


def test_panel_outside_fprime_is_a_violation():
    b = ball(3, 2)
    B = ball_stabilizer_group(b, symmetric(3))
    g = next(x for x in B.group.elements()
             if not panel_map(b, x)[0].is_identity())
    report = defect_set(b, g, trivial(3), cyclic(3))
    assert not report.is_valid_element or report.defects


def test_identity_has_empty_defect_set():
    b = ball(3, 2)
    ident = Permutation.identity(b.n_vertices)
    report = defect_set(b, ident, alternating(3), symmetric(3))
    assert report.defects == [] and report.violations == []


def random_defect_automorphism(graft, defect_grafts, rng, swap=False):
    """Product-measure sample of `graft`, except that the panel at each
    vertex of `defect_grafts` comes from that vertex's own graft (over a
    larger F', to force a defect there)."""
    images = graft._roots(swap)
    for k, step in enumerate(graft.plan):
        source = defect_grafts.get(step[0], graft)
        panels = source._panels(source.plan[k], images)
        assert panels, f"no compatible panel at vertex {step[0]}"
        graft._place(step, panels[rng.randrange(len(panels))], images)
    return Permutation(images)


def test_random_defect_grafting():
    b = ball(3, 2)
    rng = random.Random(5)
    graft = Graft(b, alternating(3))
    defects = {2: Graft(b, symmetric(3))}
    hits = 0
    for _ in range(50):
        g = random_defect_automorphism(graft, defects, rng)
        report = defect_set(b, g, alternating(3), symmetric(3))
        assert report.violations == []
        assert set(report.defects) <= {2}
        hits += bool(report.defects)
    assert hits > 0


def test_seeded_samples_are_pinned():
    # sha256 of 50 seeded samples over vertex, edge, swap and defect grafts;
    # pins the draw order that criterion 6 relies on
    configs = [(ball(3, 2), symmetric(3), False, None),
               (ball(4, 2), alternating(4), False, None),
               (ball(3, 2, "edge"), symmetric(3), False, None),
               (ball(3, 2, "edge"), symmetric(3), True, None),
               (ball(3, 2), alternating(3), False, {2: symmetric(3)})]
    rng = random.Random(7)
    digest = hashlib.sha256()
    for b, F, swap, defects in configs:
        graft = Graft(b, F)
        defect_grafts = {v: Graft(b, H) for v, H in (defects or {}).items()}
        for _ in range(10):
            if defects:
                g = random_defect_automorphism(graft, defect_grafts, rng, swap)
            else:
                g = random_ball_automorphism(graft, rng, swap=swap)
            digest.update(repr(g.images).encode())
    assert digest.hexdigest() == \
        "a5d5088ec23881877a01c7ecb27b77329e4aa966fa67178acac108078d6ca5fc"


# criterion 6's eight configurations, then an edge-centered ball both ways
SAMPLER_CASES = [(d, r, "vertex", f"{family}({d})", False)
                 for d in (3, 4) for r in (1, 2) for family in ("Sym", "Alt")] + \
    [(3, 2, "edge", "Sym(3)", False), (3, 2, "edge", "Sym(3)", True)]


@pytest.mark.parametrize("d, r, center, spec, swap", SAMPLER_CASES,
                         ids=[f"d{d}r{r}-{c}-{s}" + ("-swap" if w else "")
                              for d, r, c, s, w in SAMPLER_CASES])
def test_samples_are_ball_automorphisms_with_panels_in_F(d, r, center, spec, swap):
    # the sampler wraps its placements without the bijection check
    b = ball(d, r, center)
    F = parse_group_spec(spec)
    graft = Graft(b, F)
    rng = random.Random(d * 10 + r)
    for _ in range(200):
        g = random_ball_automorphism(graft, rng, swap=swap)
        # check the images, not g: the cycles of a non-bijection never close
        images = g.images
        assert sorted(images) == list(range(b.n_vertices))
        assert is_ball_automorphism(b, g)
        assert in_Uc(b, g, F)


def oracle_is_interior(b, v):
    return len(b.children[v]) + (b.parent[v] is not None) == b.d


def oracle_local_action(b, g, v):
    nbr = {c: u for u, c in b.color_of[v].items()}
    color = b.color_of[g[v]]
    return tuple([color[g[nbr[c]]] for c in range(b.d)])


def test_ball_tables_agree_with_their_oracles():
    rng = random.Random(11)
    for d in (3, 4, 5):
        for r in range(4):
            for center in ("vertex", "edge"):
                plain = build_ball(d, r, center)
                flags = [oracle_is_interior(plain, v) for v in range(plain.n_vertices)]
                for b in (plain, legal_coloring(plain), random_legal_coloring(plain, rng)):
                    assert b.interior_flags == flags
                    assert b.interior == tuple(v for v, f in enumerate(flags) if f)
                    if not b.is_colored():
                        assert b.nbrs_in_color_order is None
                        continue
                    for v, (colors, nbrs) in enumerate(zip(b.color_of, b.nbrs_in_color_order)):
                        if flags[v]:
                            assert {u: c for c, u in enumerate(nbrs)} == colors
                        else:
                            assert nbrs is None
                    graft = Graft(b, symmetric(d))
                    for swap in {False, center == "edge"}:
                        for _ in range(2):
                            g = random_ball_automorphism(graft, rng, swap).images
                            for v in b.interior:
                                assert _local_action(b, g, v) == oracle_local_action(b, g, v)


def test_a_colored_copy_keeps_its_own_tables():
    plain = build_ball(3, 2)
    flags = plain.interior_flags
    colored = legal_coloring(plain)
    assert colored.parent is plain.parent and colored.children is plain.children
    assert colored.interior_flags == flags and colored.interior_flags is not flags
    assert colored.nbrs_in_color_order[0] == (1, 2, 3)
    assert plain.nbrs_in_color_order is None


def test_criterion_6_builds_one_graft_per_configuration(monkeypatch):
    built = []
    init = Graft.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graft, "__init__", counting_init)
    assert acceptance.criterion_06_cocycle().ok
    assert len(built) == 8


@pytest.mark.parametrize("seed, expected", [
    (1, "f70e50f44fa1d7fed20764745082185a0abd9fce572e6678de5483dfe0a75987"),
    (29, "5c7c72adfb2a1515e1033d6c959e025743fad8f01d29cc2d187a036e42d5e2a7")])
def test_criterion_6_samples_are_pinned(monkeypatch, seed, expected):
    # sha256 of the 16 000 image tuples that criterion 6 samples at the
    # benchmark's seeds, in draw order
    digest, samples = hashlib.sha256(), []
    sample = acceptance.random_ball_automorphism

    def recording(*args, **kwargs):
        g = sample(*args, **kwargs)
        digest.update(repr(g.images).encode())
        samples.append(1)
        return g

    monkeypatch.setattr(acceptance, "random_ball_automorphism", recording)
    assert acceptance.criterion_06_cocycle(seed=seed).ok
    assert len(samples) == 16000
    assert digest.hexdigest() == expected


def oracle_cocycle_defect(b, g, h, gh):
    """The first interior v where sigma(gh, v) != sigma(g, h(v)) o sigma(h, v),
    each side composed from single-vertex local actions."""
    for v in b.interior:
        if _local_action(b, gh, v) != _compose(_local_action(b, g, h[v]),
                                               _local_action(b, h, v)):
            return v
    return None


# criterion 6's eight configurations, then an edge-centered ball with swaps
COCYCLE_CASES = [case[:4] for case in SAMPLER_CASES if not case[4]]


@pytest.mark.parametrize("d, r, center, spec", COCYCLE_CASES,
                         ids=[f"d{d}r{r}-{c}-{s}" for d, r, c, s in COCYCLE_CASES])
def test_cocycle_defect_agrees_with_the_local_action_oracle(d, r, center, spec):
    b = ball(d, r, center)
    graft = Graft(b, parse_group_spec(spec))
    rng = random.Random(d * 10 + r)
    sample = lambda: random_ball_automorphism(
        graft, rng, swap=center == "edge" and rng.random() < 0.5).images
    found = set()
    for _ in range(200):
        g, h, k = sample(), sample(), sample()
        # the true product satisfies the identity at every interior vertex
        assert cocycle_defect(b, g, h, _compose(g, h)) is None
        assert oracle_cocycle_defect(b, g, h, _compose(g, h)) is None
        # a wrong one fails it first where the oracle says
        for wrong in (_compose(h, g), k):
            v = cocycle_defect(b, g, h, wrong)
            assert v == oracle_cocycle_defect(b, g, h, wrong)
            found.add(v)
    assert found - {None}


def test_cocycle_defect_guards_the_interior_as_local_action_does():
    b = ball(3, 1)
    ident = tuple(range(b.n_vertices))
    swap = (1, 0, 2, 3)  # sends the center to the boundary
    # the product, h, then g(h(v)) leaves the interior first
    for g, h, gh in [(swap, ident, swap), (ident, swap, swap), (swap, swap, ident),
                     (swap, ident, ident)]:
        with pytest.raises(InputError) as expected:
            oracle_cocycle_defect(b, g, h, gh)
        with pytest.raises(InputError, match=r"^local action undefined: ") as info:
            cocycle_defect(b, g, h, gh)
        assert str(info.value) == str(expected.value)


def test_edge_ball_group_structure():
    B = edge_ball_group(ball(3, 1, "edge"), symmetric(3))
    tp = B.type_preserving
    assert (B.order(), tp.order()) == (8, 4)
    h0, h1 = half_ball_rigid_stabilizers(B)
    assert h0.order() == h1.order() == 2
    assert intersection_scan(h0, h1).order() == 1
    assert h0.order() * h1.order() == tp.order()


def test_d5_edge_ball_halves_match_wreath_pattern():
    # endpoint-fixing subgroup factors as two point-stabilizer wreath
    # copies: Sym(4)^2 under Sym(5), Alt(4)^2 under Alt(5), at radius 1
    for F, half_order in [(symmetric(5), 24), (alternating(5), 12)]:
        B = edge_ball_group(ball(5, 1, "edge"), F)
        tp = B.type_preserving
        h0, h1 = half_ball_rigid_stabilizers(B)
        assert h0.order() == h1.order() == half_order
        assert tp.order() == half_order ** 2
        assert B.order() == 2 * tp.order()


def test_swap_count_equals_fixing_count_for_legal_colorings():
    for r in (1, 2):
        b = ball(3, r, "edge")
        B = edge_ball_group(b, symmetric(3))
        assert B.graft.count() == B.graft.count(swap=True) == B.order() // 2
        assert B.type_preserving.order() == B.graft.count()


def test_edge_ball_group_enumerates_each_leaf_once():
    # the count-only walk sums the panels allowed at the last step: the
    # leaves they stand for are distinct group elements, as many as the
    # count and the order
    for b, F in [(ball(4, 2, "edge"), cyclic(4)), (ball(3, 2, "edge"), symmetric(3))]:
        B = edge_ball_group(b, F)
        leaves = [*placed_leaves(B.graft, False), *placed_leaves(B.graft, True)]
        assert B.type_preserving.order() * 2 == B.order()
        assert len(leaves) == B.enumerated_count == B.order()
        assert len(set(leaves)) == len(leaves)
        assert all(B.group.membership(Permutation(leaf)) for leaf in leaves)


def recursive_leaves(b, F, swap, forced_identity=frozenset()):
    """The recursive graft enumerator, kept as the oracle of the walk:
    depth first over the interior vertices in BFS order, panels in the
    order of F.elements(), children placed as each panel dictates."""
    elems = F.elements()
    interior = sorted(b.interior, key=lambda v: (b.depth[v], v))
    nbr = neighbors_by_color(b)
    images = [None] * b.n_vertices
    if b.center_kind == "vertex":
        images[0] = 0
    else:
        images[0], images[1] = (1, 0) if swap else (0, 1)
    ident = Permutation.identity(b.d)

    def choices(v):
        if b.parent[v] is None:
            out = elems
        else:
            i = b.color_of[v][b.parent[v]]
            j = b.color_of[images[v]][images[b.parent[v]]]
            out = [sigma for sigma in elems if sigma(i) == j]
        if v in forced_identity:
            return [ident] if ident in out else []
        return out

    def rec(idx):
        if idx == len(interior):
            yield tuple(images)
            return
        v = interior[idx]
        for sigma in choices(v):
            for u in b.children[v]:
                images[u] = nbr[images[v]][sigma(b.color_of[v][u])]
            yield from rec(idx + 1)

    yield from rec(0)


def placed_leaves(graft, swap, forced_identity=frozenset()):
    """The image tuples of all panel-compatible automorphisms, in walk order:
    each panel allowed at the last step placed on top of `Graft._walk`, the
    walk that `Graft._count` sums, by the test's own color lookup."""
    images = graft._roots(swap)
    if not graft.plan:
        yield tuple(images)
        return
    v, _, kids, _ = graft.plan[-1]
    nbr = neighbors_by_color(graft.ball)
    for panels in graft._walk(images, forced_identity):
        for sigma in panels:
            leaf = list(images)
            for u, c in kids:
                leaf[u] = nbr[images[v]][sigma[c]]
            yield tuple(leaf)


def half(b, endpoint):
    """Interior vertices whose root path leads to `endpoint` of the center edge."""
    def side(v):
        while v not in (0, 1):
            v = b.parent[v]
        return v
    return frozenset(v for v in b.interior if side(v) == endpoint)


# every ball group of the benchmark's balls workload: (d, radius, F, center)
BALL_POOL = [(3, 2, "Sym(3)", "vertex"), (3, 2, "Sym(3)", "edge"), (3, 3, "Cyc(3)", "vertex"),
             (3, 3, "Cyc(3)", "edge"), (4, 2, "Alt(4)", "vertex"), (4, 2, "Dih(4)", "vertex"),
             (4, 2, "Cyc(4)", "vertex"), (4, 3, "Klein4", "vertex"),
             (4, 2, "Klein4", "edge"), (5, 2, "Dih(5)", "vertex"), (5, 2, "Cyc(5)", "vertex"),
             (5, 1, "Sym(5)", "vertex"), (4, 2, "Dih(4)", "edge"), (5, 1, "Sym(5)", "edge"),
             (3, 3, "Sym(3)", "vertex"), (5, 2, "Dih(5)", "edge"), (4, 2, "Sym(4)", "vertex"),
             (4, 2, "Alt(4)", "edge"), (5, 2, "F20", "vertex"), (3, 3, "Sym(3)", "edge")]


# plans of 0, 1 and 2 steps: the walk stops before the last step, or has none
SHORT_PLANS = [(3, 0, "Sym(3)", "vertex"), (3, 0, "Sym(3)", "edge"), (3, 1, "Sym(3)", "vertex"),
               (3, 1, "Sym(3)", "edge"), (4, 1, "Alt(4)", "edge")]


def last_coset_size(b, F, forced):
    """How many panels the last interior vertex allows under a legal coloring."""
    interior = sorted(b.interior, key=lambda v: (b.depth[v], v))
    if not interior or interior[-1] in forced:
        return 1
    if b.parent[interior[-1]] is None:
        return F.order()
    v = interior[-1]
    return F.point_stabilizer(b.color_of[v][b.parent[v]]).order()


@pytest.mark.parametrize("d, r, spec, center", BALL_POOL + SHORT_PLANS,
                         ids=[f"d{d}r{r}-{spec}-{c}" for d, r, spec, c in BALL_POOL + SHORT_PLANS])
def test_walk_yields_the_recursive_leaves_with_their_inverses(d, r, spec, center):
    b = ball(d, r, center)
    F = parse_group_spec(spec)
    graft = Graft(b, F)
    ident = tuple(range(b.n_vertices))
    branches = [(False, frozenset())]
    if center == "edge":
        branches += [(True, frozenset()), (False, half(b, 0)), (False, half(b, 1))]
    for swap, forced in branches:
        n = 0
        for leaf, expected in zip_longest(placed_leaves(graft, swap, forced),
                                          recursive_leaves(b, F, swap, forced)):
            assert leaf is not None and expected is not None
            assert leaf == expected
            # every leaf is a bijection: it has a two-sided inverse
            inverse = _invert(leaf)
            assert _compose(leaf, inverse) == ident == _compose(inverse, leaf)
            n += 1
        assert n > 0
        assert graft._count(swap, forced) == n
        if not forced:
            assert n == graft.count(swap)
        # one item per node above the last step, none per leaf
        size = last_coset_size(b, F, forced)
        assert [len(panels) for panels in graft._walk(graft._roots(swap), forced)] \
            == [size] * (n // size)


def test_radius_zero_and_boundary_freedom():
    # radius 1: only the center carries a panel, so the group is F itself
    for F in (symmetric(3), cyclic(3)):
        assert ball_stabilizer_group(ball(3, 1), F).order() == F.order()


def test_ball_order_cap_suggests_radius():
    caps = DEFAULT_CAPS.with_overrides(ball_order_cap=10)
    with pytest.raises(ResourceLimitError) as info:
        ball_stabilizer_group(ball(3, 2), symmetric(3), caps)
    assert "radius" in str(info.value)


def test_formula_order_matches_enumeration_on_grid():
    for d, r, F in [(3, 1, symmetric(3)), (3, 2, cyclic(3)), (4, 1, alternating(4))]:
        b = ball(d, r)
        B = ball_stabilizer_group(b, F)
        assert B.enumerated_count == Graft(b, F).count() == B.order()


def random_legal_coloring(b, rng):
    """A legal coloring that hands each vertex's free colors to its children
    by a random bijection, after a random color on the central edge."""
    from treeperm.treeball import coloring_from_edges
    colors = {}
    if b.center_kind == "edge":
        colors[(0, 1)] = colors[(1, 0)] = rng.randrange(b.d)
    for v in sorted(range(b.n_vertices), key=lambda v: (b.depth[v], v)):
        taken = () if b.center_kind == "vertex" and v == 0 else (colors[(v, b.parent[v])],)
        free = [c for c in range(b.d) if c not in taken]
        rng.shuffle(free)
        for u, c in zip(b.children[v], free):
            colors[(v, u)] = colors[(u, v)] = c
    return coloring_from_edges(b, colors)


# (d, F, largest radius): F by generator cycles if intransitive, else by name
RANDOM_COLORING_CASES = [(3, "(2 3)", 3), (4, "(1 2), (3 4)", 2), (4, "(1 2 3)", 3),
                         (4, "(1 2)", 2), (5, "(1 2 3)", 2), (5, "(1 2)(3 4)", 2),
                         (3, "Sym(3)", 2), (4, "Alt(4)", 1), (4, "Sym(4)", 1)]


@pytest.mark.parametrize("d, spec, max_radius", RANDOM_COLORING_CASES,
                         ids=[f"d{d}-<{spec}>" for d, spec, _ in RANDOM_COLORING_CASES])
def test_formula_is_exact_under_random_legal_colorings(d, spec, max_radius):
    F = PermGroup(d, [parse_cycles(c, d) for c in spec.split(", ")]) \
        if spec.startswith("(") else parse_group_spec(spec)
    rng = random.Random(d * 100 + len(spec))
    for r in range(1, max_radius + 1):
        for center in ("vertex", "edge"):
            for _ in range(9):
                b = random_legal_coloring(build_ball(d, r, center), rng)
                if center == "vertex":
                    B = ball_stabilizer_group(b, F)
                else:
                    B = edge_ball_group(b, F)
                    h0, h1 = half_ball_rigid_stabilizers(B)
                    assert h0.order() * h1.order() == B.type_preserving.order() \
                        == B.graft.count()
                assert B.order() == B.enumerated_count == B.formula_count
                # no coset is empty, so sampling never dead-ends
                for swap in {False, center == "edge"}:
                    assert random_ball_automorphism(B.graft, rng, swap) in B.group


def test_degree_mismatch_rejected():
    with pytest.raises(InputError):
        ball_stabilizer_group(ball(3, 1), symmetric(4))


def illegal_edge_ball():
    """The d=3 radius-1 edge ball with two colors swapped at one endpoint
    of the central edge: a valid coloring, but not a legal one."""
    from treeperm.treeball import coloring_from_edges, is_legal
    legal = ball(3, 1, "edge")
    colors = {}
    for v in range(legal.n_vertices):
        for u in legal.neighbors(v):
            colors[(v, u)] = legal.color_of[v][u]
    others = [u for u in legal.neighbors(0) if u != 1]
    colors[(0, 1)], colors[(0, others[0])] = colors[(0, others[0])], colors[(0, 1)]
    illegal = coloring_from_edges(legal, colors)
    assert not is_legal(illegal)[0]
    return illegal


def test_illegal_coloring_is_refused_with_its_witness_edge():
    illegal = illegal_edge_ball()
    for build in (Graft, edge_ball_group, Graft):  # the last two read the cached legality
        with pytest.raises(InputError) as info:
            build(illegal, symmetric(3))
        assert str(info.value) == "ball groups need a legal coloring: edge 0<->2: colors 1 vs 2"
    assert illegal.legality == (False, "edge 0<->2: colors 1 vs 2")


def test_shared_coset_tables_equal_a_per_vertex_rebuild():
    # one table per inward color, shared by every step with that color
    for d in (3, 4, 5):
        for F in (symmetric(d), alternating(d), cyclic(d), trivial(d)):
            for kind in ("vertex", "edge"):
                for r in (1, 2, 3):
                    b = ball(d, r, kind)
                    graft = Graft(b, F)
                    tables = {}
                    for v, parent, _, cosets in graft.plan:
                        if parent is None:
                            assert cosets is None and kind == "vertex" and v == 0
                            continue
                        inward = b.color_of[v][parent]
                        rebuilt = {}
                        for sigma in F.elements():
                            rebuilt.setdefault(sigma.images[inward], []).append(sigma.images)
                        assert cosets == rebuilt, (d, F.name, kind, r, v)
                        assert tables.setdefault(inward, cosets) is cosets
                    assert len(tables) <= d


def test_illegal_coloring_with_an_overcounting_formula_is_refused():
    # a shuffled coloring under F = <(2 3)>: inherited colors leave the
    # orbits of F, so the formula along one graft path (8) would overcount
    # the graft set (4); the graft is refused before any count
    from treeperm.treeball import coloring_from_edges
    b = build_ball(3, 2)
    rng = random.Random(4)
    colors = {}
    for v in range(b.n_vertices):
        shuffled = [0, 1, 2]
        rng.shuffle(shuffled)
        colors.update(zip([(v, u) for u in b.neighbors(v)], shuffled))
    with pytest.raises(InputError, match="ball groups need a legal coloring: edge "):
        ball_stabilizer_group(coloring_from_edges(b, colors),
                              PermGroup(3, [parse_cycles("(2 3)", 3)]))


def walk_built(B):
    """(structural group, oracle) pairs for B and its subgroups: each oracle
    sifts every leaf of the group's graft set, in walk order."""
    graft = B.graft
    walk = lambda *leaves: PermGroup.from_elements(graft.ball.n_vertices, chain(*leaves))
    if B.type_preserving is None:
        return [(B.group, walk(placed_leaves(graft, False)))]
    h0, h1 = half_ball_rigid_stabilizers(B)
    return [(B.group, walk(placed_leaves(graft, False), placed_leaves(graft, True))),
            (B.type_preserving, walk(placed_leaves(graft, False))),
            (h0, walk(placed_leaves(graft, False, half(graft.ball, 0)))),
            (h1, walk(placed_leaves(graft, False, half(graft.ball, 1))))]


# the balls pool and the vertex balls of criterion 7
CRITERION_7_GRID = [(3, 1, "Sym(3)"), (3, 2, "Sym(3)"), (3, 1, "Cyc(3)"), (3, 2, "Cyc(3)"),
                    (4, 1, "Sym(4)"), (4, 1, "Alt(4)"), (4, 1, "Dih(4)")]
ORACLE_BALLS = {f"d{d}r{r}-{spec}-{c}": (d, r, spec, c)
                for d, r, spec, c in BALL_POOL + [g + ("vertex",) for g in CRITERION_7_GRID]}


@pytest.mark.parametrize("case", ORACLE_BALLS, ids=ORACLE_BALLS.keys())
def test_structural_group_is_the_walk_built_group(case):
    d, r, spec, c = ORACLE_BALLS[case]
    b = ball(d, r, c)
    build = ball_stabilizer_group if b.center_kind == "vertex" else edge_ball_group
    for structural, oracle in walk_built(build(b, parse_group_spec(spec))):
        assert structural.order() == oracle.order()
        assert all(oracle.membership(g) for g in structural.generators)
        assert all(structural.membership(g) for g in oracle.generators)


def test_pool_ball_chains_need_no_full_schreier_sims(monkeypatch):
    cases = [(ball(d, r, c), parse_group_spec(spec)) for d, r, spec, c in BALL_POOL]
    for _, F in cases:
        F.chain  # F's own chain is built from its generators, with no bound
    rebuilt = []
    real = StabilizerChain.from_generators.__func__
    monkeypatch.setattr(StabilizerChain, "from_generators", classmethod(
        lambda cls, degree, gens: rebuilt.append(degree) or real(cls, degree, gens)))
    for b, F in cases:
        if b.center_kind == "vertex":
            ball_stabilizer_group(b, F)
        else:
            half_ball_rigid_stabilizers(edge_ball_group(b, F))
    assert rebuilt == []


def test_the_bound_proof_checks_every_generator(monkeypatch):
    b = ball(3, 2)
    E = edge_ball_group(ball(3, 2, "edge"), symmetric(3))
    generators = Graft._generators
    # an odd panel at the center: a ball automorphism outside the Alt(3) graft set
    odd = next(g for v, g in Graft(b, symmetric(3))._generators()
               if v == 0 and not in_Uc(b, Permutation(g), alternating(3)))
    monkeypatch.setattr(Graft, "_generators", lambda self: generators(self) + [(0, odd)])
    with pytest.raises(AssertionError, match=r"not in the graft set of Alt\(3\)"):
        ball_stabilizer_group(b, alternating(3))
    # generators are wrapped unchecked: one leaf sent onto its sibling keeps
    # every leaf's neighbourhood but not its parent's, and the refusal shows
    # the generator as 1-indexed images
    leaf, sibling = b.children[1]
    bad = tuple(sibling if v == leaf else v for v in range(b.n_vertices))
    monkeypatch.setattr(Graft, "_generators", lambda self: generators(self) + [(1, bad)])
    with pytest.raises(AssertionError, match=r"ball generator \[1 2 3 .*\] is not in the "
                                             r"graft set of Sym\(3\)"):
        ball_stabilizer_group(b, symmetric(3))
    # without the center's generators the group falls short of the bound
    monkeypatch.setattr(Graft, "_generators",
                        lambda self: [(v, g) for v, g in generators(self) if v != 0])
    with pytest.raises(AssertionError, match="group has order 8, not its proved bound 48"):
        ball_stabilizer_group(b, symmetric(3))
    # every generator sited on endpoint 1's half: those of endpoint 0 move the
    # half that the first rigid stabilizer fixes
    monkeypatch.setattr(Graft, "_generators",
                        lambda self: [(1, g) for _, g in generators(self)])
    with pytest.raises(AssertionError, match="is not in the graft set"):
        half_ball_rigid_stabilizers(E)


def test_structural_groups_make_no_validated_permutation(monkeypatch):
    # tower, square and ball generators are proved bijections by their
    # order bounds, so neither building them nor their chains checks one
    b, F, S3 = ball(3, 2), dihedral(5), symmetric(3)
    F.chain
    for a in range(3):
        S3.point_stabilizer(a)  # from_elements validates the elements it keeps
    built = []
    init = Permutation.__init__
    monkeypatch.setattr(Permutation, "__init__",
                        lambda self, images: built.append(images) or init(self, images))
    T = wreath_tower(F, 3)
    groups = [T.group, direct_square(T), ball_stabilizer_group(b, S3).group]
    assert [G.order() for G in groups] == [10 ** 31, 10 ** 62, 48]
    assert built == []


# -- the one proved-order check: each structural group below lacks generators,
# so its chain falls short of its proved bound when first built

def tower_without_root_generator(monkeypatch):
    real = wreath.vertex_generator
    monkeypatch.setattr(wreath, "vertex_generator", lambda d, n, vertex, f:
                        tuple(range(d ** n)) if vertex == () else real(d, n, vertex, f))
    T = wreath_tower(symmetric(2), 2)
    assert T.group._chain is None  # towers are built lazily
    return T.group.order


def square_of_left_halves(monkeypatch):
    square = direct_square(wreath_tower(alternating(3), 1))
    square.generators = square.generators[::2]
    return square.order


def ball_without_center_generators(monkeypatch):
    generators = Graft._generators
    monkeypatch.setattr(Graft, "_generators",
                        lambda self: [(v, g) for v, g in generators(self) if v != 0])
    return lambda: ball_stabilizer_group(ball(3, 2), symmetric(3))


def half_ball_without_endpoint_generators(monkeypatch):
    E = edge_ball_group(ball(3, 2, "edge"), symmetric(3))
    generators = Graft._generators
    monkeypatch.setattr(Graft, "_generators",
                        lambda self: [(v, g) for v, g in generators(self) if v != 1])
    return lambda: half_ball_rigid_stabilizers(E)


@pytest.mark.parametrize("build, message", [
    (tower_without_root_generator, r"W_2\(Sym\(2\)\) has order 4, not its proved bound 8"),
    (square_of_left_halves, r"W_1\(Alt\(3\)\)\^2 has order 3, not its proved bound 9"),
    (ball_without_center_generators, "group has order 8, not its proved bound 48"),
    (half_ball_without_endpoint_generators, "group has order 4, not its proved bound 8"),
], ids=["tower", "square", "ball", "half-ball"])
def test_a_structural_group_short_of_its_bound_raises_on_first_chain_use(
        monkeypatch, build, message):
    first_chain_use = build(monkeypatch)
    with pytest.raises(AssertionError, match=message):
        first_chain_use()
