"""Iterated permutational wreath towers on the rooted d-ary tree.

W_n(F) is the n-fold wreath iteration of a base group F <= Sym(d),
acting on the d^n leaves of the depth-n rooted tree.  Orders obey
|W_n(F)| = |F|^((d^n - 1)/(d - 1)) and the Sylow tower of the base
group lifts to the Sylow subgroup of the whole tower.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import DEFAULT_CAPS, Caps
from .errors import InputError, ResourceLimitError
from .groups import PermGroup
from .perms import Permutation
from .portraits import flatten, vertex_portrait
from .series import p_part, sylow_subgroup


def tower_vertex_count(d: int, n: int) -> int:
    """Vertices of the rooted d-ary tree strictly above the leaves: (d^n - 1)/(d - 1)."""
    return (d ** n - 1) // (d - 1) if d > 1 else n


def tower_order(base_order: int, d: int, n: int) -> int:
    return base_order ** tower_vertex_count(d, n)


def _interior_vertices(d: int, n: int) -> list[tuple[int, ...]]:
    """Vertices at depth < n, root first, in BFS/lex order."""
    out: list[tuple[int, ...]] = [()]
    level: list[tuple[int, ...]] = [()]
    for _ in range(n - 1):
        level = [v + (i,) for v in level for i in range(d)]
        out.extend(level)
    return out if n > 0 else []


@dataclass
class WreathTower:
    """Finite wreath tower: base group, depth, and the flattened leaf group."""

    base: PermGroup
    depth: int
    group: PermGroup
    # generator bookkeeping: (vertex, base generator index) per flattened generator
    generator_sites: list[tuple[tuple[int, ...], int]] = field(default_factory=list)

    @property
    def arity(self) -> int:
        return self.base.degree

    @property
    def leaf_count(self) -> int:
        return self.arity ** self.depth

    def expected_order(self) -> int:
        return tower_order(self.base.order(), self.arity, self.depth)

    def cone_leaves(self, vertex: tuple[int, ...]) -> range:
        """Leaf index range below a vertex (leaves are lex-ordered words)."""
        k = len(vertex)
        if k > self.depth or not all(0 <= i < self.arity for i in vertex):
            raise InputError(f"vertex {vertex} not in the depth-{self.depth} tree")
        block = self.arity ** (self.depth - k)
        start = 0
        for i in vertex:
            start = start * self.arity + i
        start *= block
        return range(start, start + block)


def wreath_tower(F: PermGroup, depth: int, caps: Caps = DEFAULT_CAPS,
                 verify_order: bool = True) -> WreathTower:
    """Build W_depth(F) on d^depth leaves.

    Generators: one copy of each base generator at every vertex above
    the leaves.  With `verify_order` the BSGS order is checked against
    the tower order law.
    """
    if depth < 0:
        raise InputError(f"depth must be >= 0, got {depth}")
    d = F.degree
    leaves = d ** depth
    if leaves > caps.leaf_cap:
        raise ResourceLimitError("flatten leaves", caps.leaf_cap, leaves, "--leaf-cap")
    gens = []
    sites = []
    for v in _interior_vertices(d, depth):
        for gi, f in enumerate(F.generators):
            gens.append(flatten(vertex_portrait(d, depth, v, f)))
            sites.append((v, gi))
    group = PermGroup(max(leaves, 1), gens,
                      name=f"W_{depth}({F.name or f'deg{d}'})")
    tower = WreathTower(base=F, depth=depth, group=group, generator_sites=sites)
    if verify_order and group.order() != tower.expected_order():
        raise AssertionError(
            f"wreath order law failed: BSGS {group.order()} vs formula {tower.expected_order()}")
    return tower


def sylow_tower(F: PermGroup, p: int, depth: int, caps: Caps = DEFAULT_CAPS
                ) -> tuple[WreathTower, WreathTower]:
    """W_depth(P) for P a p-Sylow subgroup of F, with the ambient W_depth(F).

    Certified against the ambient tower: the flattened Sylow tower
    embeds in W_depth(F) and its order is the p-part of |W_depth(F)|.
    Returns (Sylow tower, ambient tower).
    """
    P = sylow_subgroup(F, p, caps)
    tower = wreath_tower(P, depth, caps)
    ambient = wreath_tower(F, depth, caps)
    for g in tower.group.generators:
        if not ambient.group.membership(g):
            raise AssertionError("Sylow tower generator escapes the ambient tower")
    if tower.group.order() != p_part(ambient.group.order(), p):
        raise AssertionError("Sylow tower order is not the p-part of the ambient order")
    return tower, ambient


def direct_square(T: WreathTower, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Direct product of two disjoint copies of the tower's leaf group."""
    m = T.leaf_count
    if 2 * m > caps.leaf_cap:
        raise ResourceLimitError("flatten leaves", caps.leaf_cap, 2 * m, "--leaf-cap")
    gens = []
    for g in T.group.generators:
        gens.append(Permutation(tuple(g.images) + tuple(range(m, 2 * m))))
        gens.append(Permutation(tuple(range(m)) + tuple(x + m for x in g.images)))
    return PermGroup(2 * m, gens, name=f"{T.group.name}^2")


def rigid_stabilizer(T: WreathTower, vertex: tuple[int, ...]) -> PermGroup:
    """Subgroup supported on the leaf cone below `vertex`: a copy of W_{n-k}(F)."""
    k = len(vertex)
    if k > T.depth or not all(0 <= i < T.arity for i in vertex):
        raise InputError(f"vertex {vertex} not in the depth-{T.depth} tree")
    gens = [g for g, (site, _) in zip(T.group.generators, T.generator_sites)
            if site[:k] == vertex]
    return PermGroup(T.group.degree, gens,
                     name=f"rist({T.group.name}, {'.'.join(str(i + 1) for i in vertex) or 'root'})")
