"""Color-aware tree-ball automorphisms and their local-action panels.

A ball automorphism is a permutation of the ball's vertices preserving
adjacency and the center.  At an interior vertex v with interior image
the local action is the color permutation sigma(g, v) = c_{g(v)} o g o
c_v^{-1}.  Automorphisms with panels in F are grafted one vertex at a
time (Burger-Mozes): any panel of F at a vertex center, elsewhere one
from the coset of F sending the inward color to the inherited one.

A ball group is generated by the strong generators of each interior
vertex's panel group (F at a vertex center, else the stabilizer in F of
the inward color), each completed below the vertex by first panels.
The generators are wrapped without the bijection check of
`Permutation()` and proved to lie in the graft set, so the graft count
bounds the group order and the chain is built up to it.  The graft
leaves are counted, to check the chain order, by a depth-first walk that
stops before the last step and adds the number of panels allowed there:
each is one leaf, and none is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

from .config import DEFAULT_CAPS, Caps
from .errors import InputError, ResourceLimitError
from .groups import PermGroup
from .perms import Permutation, _shown, _trusted
from .treeball import TreeBall


# -- single-automorphism operations -----------------------------------------

def is_ball_automorphism(ball: TreeBall, g: Permutation) -> bool:
    """Adjacency- and center-preserving vertex permutation."""
    if g.degree != ball.n_vertices:
        return False
    for v in range(ball.n_vertices):
        nbrs = {g(u) for u in ball.neighbors(v)}
        if nbrs != set(ball.neighbors(g(v))):
            return False
    if ball.center_kind == "vertex":
        return g(0) == 0
    return {g(0), g(1)} == {0, 1}


def local_action(ball: TreeBall, g: Permutation, v: int) -> Permutation:
    """sigma(g, v) as a permutation of the colors {0..d-1}."""
    if not ball.is_colored():
        raise InputError("local actions need a colored ball")
    return Permutation(_local_action(ball, g.images, v))


def _local_action(ball: TreeBall, g: tuple, v: int) -> tuple:
    """sigma(g, v) as a color image tuple, for a colored ball and raw g."""
    w = g[v]
    inside = ball.interior_flags
    if not (inside[v] and inside[w]):
        raise InputError(f"local action undefined: vertex {v} or image {w} is not interior")
    color = ball.color_of[w]
    return tuple([color[g[u]] for u in ball.nbrs_in_color_order[v]])


def cocycle_defect(ball: TreeBall, g: tuple, h: tuple, gh: tuple) -> int | None:
    """The first interior v where sigma(gh, v) != sigma(g, h(v)) o sigma(h, v),
    or None: each sigma read off its raw permutation as `_local_action` does,
    with its guard, in one pass over the interior."""
    inside, color_of, nbrs = ball.interior_flags, ball.color_of, ball.nbrs_in_color_order
    for v in ball.interior:
        hv, w = h[v], gh[v]
        ghv = g[hv]
        if not (inside[w] and inside[hv] and inside[ghv]):
            u, x = (v, w) if not inside[w] else (hv, ghv)
            raise InputError(f"local action undefined: vertex {u} or image {x} is not interior")
        col_gh, col_g, col_h, nh = color_of[w], color_of[ghv], color_of[hv], nbrs[hv]
        for u in nbrs[v]:
            if col_gh[gh[u]] != col_g[g[nh[col_h[h[u]]]]]:
                return v
    return None


def panel_map(ball: TreeBall, g: Permutation) -> dict[int, Permutation]:
    """Local action at every interior vertex (images are interior too)."""
    return {v: local_action(ball, g, v) for v in ball.interior}


def in_Uc(ball: TreeBall, g: Permutation, F: PermGroup) -> bool:
    """Every interior local action lies in F."""
    return all(F.membership(sigma) for sigma in panel_map(ball, g).values())


@dataclass
class DefectReport:
    defects: list[int]
    violations: list[int]
    is_valid_element: bool = field(init=False)

    def __post_init__(self) -> None:
        self.is_valid_element = not self.violations


def defect_set(ball: TreeBall, g: Permutation, F: PermGroup, Fp: PermGroup) -> DefectReport:
    """Interior vertices with panel in F' \\ F; panels outside F' are violations."""
    for H in (F, Fp):
        if H.degree != ball.d:
            raise InputError(f"local group degree {H.degree} != arity {ball.d}")
    defects, violations = [], []
    for v, sigma in sorted(panel_map(ball, g).items()):
        if F.membership(sigma):
            continue
        if Fp.membership(sigma):
            defects.append(v)
        else:
            violations.append(v)
    return DefectReport(defects=defects, violations=violations)


# -- grafting ---------------------------------------------------------------------

class Graft:
    """Per-(ball, F) tables for panel-constrained counting, enumeration and sampling.

    Build one per (ball, F) and reuse it: every ball group, graft count
    and random sample over that pair reads the same plan.  The plan has
    one step per interior vertex v, parents before children: v, its
    parent, its (child, color) pairs, and the panels allowed at v
    keyed by the color j of the edge from v's image to its parent's image
    (the coset of F sending v's inward color to j), or None at a free
    center, which takes every panel.  That table depends on the inward
    color alone, so the plan builds one per color and the steps that
    share a color share it, read-only.  Panels are raw color image tuples
    in the order of `F.elements()`, all of them in `elems`.

    The coloring must be legal (`ball.legality`, checked once per ball).
    Then no coset is empty: the color that v inherits is sigma_p(inward),
    for the panel sigma_p placed at its parent, so sigma_p is allowed at
    v; at an edge endpoint the central edge has one color from both
    sides, so the identity is.
    """

    def __init__(self, ball: TreeBall, F: PermGroup, caps: Caps = DEFAULT_CAPS):
        if not ball.is_colored():
            raise InputError("ball groups need a colored ball")
        if F.degree != ball.d:
            raise InputError(f"local group degree {F.degree} != arity {ball.d}")
        legal, witness = ball.legality
        if not legal:
            raise InputError(f"ball groups need a legal coloring: {witness}")
        self.ball = ball
        self.F = F
        self.caps = caps
        self.elems = [sigma.images for sigma in F.elements(caps)]
        self.plan: list[tuple] = []
        tables: dict[int, dict[int, list[tuple]]] = {}  # one per inward color
        for v in sorted(ball.interior, key=lambda v: (ball.depth[v], v)):
            parent = ball.parent[v]
            cosets = None
            if parent is not None:
                inward = ball.color_of[v][parent]
                cosets = tables.get(inward)
                if cosets is None:
                    cosets = tables[inward] = {}
                    for sigma in self.elems:
                        cosets.setdefault(sigma[inward], []).append(sigma)
            kids = tuple((u, ball.color_of[v][u]) for u in ball.children[v])
            self.plan.append((v, parent, kids, cosets))

    def count(self, swap: bool = False) -> int:
        """Graft count: product of per-vertex compatible-coset sizes.

        For a vertex center: |F| times the product of |F_{inward color}|
        over interior non-center vertices.  It is exact for a legal
        coloring, where inherited colors stay in the F-orbit.  For an edge
        center, both endpoints contribute constrained factors; with `swap`
        the count is for endpoint-swapping assignments.
        """
        return self._first_panels(self._roots(swap), self.plan)

    def _first_panels(self, images: list[int | None], steps: Sequence[tuple]) -> int:
        """Place the first allowed panel at each step; return the product of
        the panel counts (they do not depend on the panels)."""
        total = 1
        for step in steps:
            panels = self._panels(step, images)
            total *= len(panels)
            self._place(step, panels[0], images)
        return total

    def _roots(self, swap: bool) -> list[int | None]:
        images: list[int | None] = [None] * self.ball.n_vertices
        if self.ball.center_kind == "vertex":
            images[0] = 0
        elif not swap:
            images[0], images[1] = 0, 1
        else:
            images[0], images[1] = 1, 0
        return images

    def _panels(self, step: tuple, images: list[int]) -> Sequence[tuple]:
        """Panels allowed at the step's vertex, given its and its parent's images."""
        v, parent, _, cosets = step
        if cosets is None:
            return self.elems
        return cosets.get(self.ball.color_of[images[v]][images[parent]], ())

    def _place(self, step: tuple, sigma: tuple, images: list[int]) -> None:
        """Place the images of the step vertex's children as its panel dictates."""
        v, _, kids, _ = step
        nbr = self.ball.nbrs_in_color_order[images[v]]
        for u, c in kids:
            images[u] = nbr[sigma[c]]

    def _walk(self, images: list[int | None], forced_identity: frozenset[int] = frozenset()):
        """Depth first over every step but the last, panels in F order, on
        one explicit stack: `options[k]` holds the panels allowed at step k
        and `tried[k]` how many of them were placed.  At each node of the
        next-to-last step, with `images` placed up to the last step's
        children, yield the panels allowed at the last step: each is
        exactly one leaf.  A plan with no step yields one empty placement,
        its single leaf, the roots.  Vertices in `forced_identity` take the
        identity panel, which their coset holds: it holds the parent's panel.
        """
        plan = self.plan
        if not plan:
            yield (None,)
            return
        identity_only = (tuple(range(self.ball.d)),)
        first = identity_only if plan[0][0] in forced_identity else self._panels(plan[0], images)
        if forced_identity:
            forced = dict.fromkeys(range(self.ball.d), identity_only)
            plan = [(v, parent, kids, forced if v in forced_identity else cosets)
                    for v, parent, kids, cosets in plan]
        last = len(plan) - 1
        if last == 0:
            yield first
            return
        color_of = self.ball.color_of
        nbrs = self.ball.nbrs_in_color_order
        options: list[Sequence[tuple]] = [()] * last
        tried = [0] * last
        options[0] = first
        k = 0
        while k >= 0:
            c = tried[k]
            panels = options[k]
            if c == len(panels):
                k -= 1
                continue
            tried[k] = c + 1
            sigma = panels[c]
            nbr = nbrs[images[plan[k][0]]]
            for u, col in plan[k][2]:
                images[u] = nbr[sigma[col]]
            k += 1
            v, parent, _, cosets = plan[k]
            panels = cosets[color_of[images[v]][images[parent]]]
            if k == last:
                yield panels
                k -= 1
            else:
                options[k] = panels
                tried[k] = 0

    def _count(self, swap: bool, forced_identity: frozenset[int] = frozenset()) -> int:
        """The number of panel-compatible automorphisms, by the walk: the
        allowed panels of the last step summed over its parent nodes, with
        no leaf built.  No step's panel count is multiplied in, so the sum
        stays an enumeration independent of `count()`."""
        return sum(map(len, self._walk(self._roots(swap), forced_identity)))

    def _generators(self) -> list[tuple[int, tuple]]:
        """(site, generator) pairs of the endpoint-fixing group, in plan order:
        sigma at v, then the first allowed panel at every later step, which is
        the identity (least in F) outside v's cone.
        """
        out = []
        for k, step in enumerate(self.plan):
            v, parent = step[0], step[1]
            H = self.F if parent is None else self.F.point_stabilizer(self.ball.color_of[v][parent])
            for sigma in H.chain.strong_generators():
                images = list(range(self.ball.n_vertices))
                self._place(step, sigma, images)
                self._first_panels(images, self.plan[k + 1:])
                out.append((v, tuple(images)))
        return out

    def _group(self, gens: list[tuple], bound: int, fixed: Sequence[int] = ()) -> PermGroup:
        """The group of `gens`, with its chain built now up to the proved
        order `bound`, a graft count; `PermGroup.chain` raises on a shortfall."""
        group = PermGroup(self.ball.n_vertices, [_trusted(g) for g in gens],
                          order_bound=partial(self._prove_bound, bound, fixed))
        group.chain
        return group

    def _prove_bound(self, bound: int, fixed: Sequence[int], gens: list[tuple]) -> int:
        """`bound`, once each generator is shown to be a ball automorphism
        with its local actions in F, fixing `fixed`: then the group lies in
        the graft set that `bound` counts.  This also proves each generator
        a bijection: a map that preserves the center and sends every
        neighbourhood onto a neighbourhood maps each sphere of the ball
        onto itself bijectively, by induction on depth."""
        ball, in_F = self.ball, self.F.chain.contains
        for images in gens:
            if not (is_ball_automorphism(ball, _trusted(images))
                    and all(in_F(_local_action(ball, images, v))
                            for v in ball.interior)
                    and all(images[v] == v for v in fixed)):
                raise AssertionError(f"ball generator {_shown(images)} is not "
                                     f"in the graft set of {self.F.name or 'F'}")
        return bound

    def _check_caps(self, predicted: int) -> None:
        if predicted > self.caps.ball_order_cap:
            raise ResourceLimitError("ball group order", self.caps.ball_order_cap, predicted,
                                     "--ball-order-cap (or reduce the radius)")
        if self.ball.n_vertices > self.caps.ball_vertex_cap:
            raise ResourceLimitError("ball vertices", self.caps.ball_vertex_cap,
                                     self.ball.n_vertices,
                                     "--ball-vertex-cap (or reduce the radius)")


def _check_walk(group: PermGroup, count: int) -> int:
    """`count`, a leaf count of the graft walk (`Graft._count`), once it
    equals the chain order."""
    if group.order() != count:
        raise AssertionError(f"graft count {count} disagrees with BSGS order {group.order()}")
    return count


@dataclass
class BallGroup:
    """A generated group of color-constrained ball automorphisms."""

    graft: Graft
    group: PermGroup
    enumerated_count: int
    formula_count: int
    # endpoint-fixing subgroup of an edge ball group
    type_preserving: PermGroup | None = None

    def order(self) -> int:
        return self.group.order()


def ball_stabilizer_group(ball: TreeBall, F: PermGroup,
                          caps: Caps = DEFAULT_CAPS) -> BallGroup:
    """Center-fixing automorphisms of a vertex-centered ball, panels in F."""
    if ball.center_kind != "vertex":
        raise InputError("ball_stabilizer_group expects a vertex-centered ball")
    graft = Graft(ball, F, caps)
    formula = graft.count()
    graft._check_caps(formula)
    group = graft._group([g for _, g in graft._generators()], formula)
    count = _check_walk(group, graft._count(False))
    return BallGroup(graft=graft, group=group, enumerated_count=count,
                     formula_count=formula)


def edge_ball_group(ball: TreeBall, F: PermGroup,
                    caps: Caps = DEFAULT_CAPS) -> BallGroup:
    """Center-edge-preserving automorphisms, endpoint swaps included.

    The endpoint-fixing subgroup, kept as `type_preserving`, drops the
    swap from the generators.
    """
    if ball.center_kind != "edge":
        raise InputError("edge_ball_group expects an edge-centered ball")
    graft = Graft(ball, F, caps)
    fixing, swapping = graft.count(swap=False), graft.count(swap=True)
    graft._check_caps(fixing + swapping)
    gens = [g for _, g in graft._generators()]
    tp = graft._group(gens, fixing, fixed=(0,))
    swap = graft._roots(True)
    graft._first_panels(swap, graft.plan)
    group = graft._group(gens + [tuple(swap)], fixing + swapping)
    count = _check_walk(group, _check_walk(tp, graft._count(False)) + graft._count(True))
    return BallGroup(graft=graft, group=group, enumerated_count=count,
                     formula_count=fixing + swapping, type_preserving=tp)


def half_ball_rigid_stabilizers(B: BallGroup) -> tuple[PermGroup, PermGroup]:
    """Pointwise stabilizers of each half of an edge-centered ball.

    The half containing endpoint 0 is everything whose root path leads
    to 0; the returned pair is (fixes half of 0, fixes half of 1).  Each is
    generated on the other half, bounded by its identity-on-its-half leaves.
    """
    ball = B.graft.ball
    if ball.center_kind != "edge":
        raise InputError("half-ball stabilizers expect an edge-centered ball")
    side = [0, 1] + [0] * (ball.n_vertices - 2)
    for v in range(2, ball.n_vertices):  # parents come first
        side[v] = side[ball.parent[v]]
    sited = B.graft._generators()
    out = []
    for fixed_endpoint in (0, 1):
        half = frozenset(v for v in range(ball.n_vertices) if side[v] == fixed_endpoint)
        bound = B.graft._count(False, half)
        gens = [g for v, g in sited if side[v] != fixed_endpoint]
        out.append(B.graft._group(gens, bound, fixed=half))
    return out[0], out[1]


# -- random sampling -----------------------------------------------------------

def random_ball_automorphism(graft: Graft, rng: random.Random, swap: bool = False
                             ) -> Permutation:
    """Uniform element of the graft's panel-constrained group (product measure).
    A placement is a ball automorphism by construction: it skips the bijection
    check.  `rng.choice` draws as `rng.randrange` of the panel count does."""
    images = graft._roots(swap)
    choice, elems = rng.choice, graft.elems
    color_of, nbrs = graft.ball.color_of, graft.ball.nbrs_in_color_order
    for v, parent, kids, cosets in graft.plan:
        sigma = choice(elems if cosets is None else
                       cosets.get(color_of[images[v]][images[parent]], ()))
        nbr = nbrs[images[v]]
        for u, c in kids:
            images[u] = nbr[sigma[c]]
    return _trusted(tuple(images))
