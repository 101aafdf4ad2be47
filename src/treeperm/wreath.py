"""Iterated permutational wreath towers on the rooted d-ary tree.

W_n(F) is the n-fold wreath iteration of a base group F <= Sym(d),
acting on the d^n leaves of the depth-n rooted tree.  Orders obey
|W_n(F)| = |F|^((d^n - 1)/(d - 1)) and the Sylow tower of the base
group lifts to the Sylow subgroup of the whole tower.

A tower is generated by one copy of each base generator at every vertex
above the leaves, an unchecked leaf image tuple.  Its order is proved,
not assumed, when its chain is first used.  Upper bound: every
generator's local actions are read off its leaf map, which must be a
tree automorphism with all local actions in F, so the group lies in
W_n(F).  Lower bound: the orbits of the chain that sifting the
generators builds multiply to at most the group order.  When they reach
the formula the chain is complete; otherwise Schreier-Sims completes the
same chain, and a chain short of the formula raises AssertionError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .config import DEFAULT_CAPS, Caps
from .errors import InputError, ResourceLimitError
from .groups import PermGroup
from .perms import _shown, _trusted
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


def vertex_generator(d: int, n: int, vertex: tuple[int, ...], f: tuple) -> tuple:
    """Leaf image tuple of the image tuple `f` acting at `vertex` of the
    depth-n tree: block i of the vertex's cone moves to block f(i)."""
    block = d ** (n - len(vertex) - 1)
    start = 0
    for i in vertex:
        start = start * d + i
    start *= d * block
    images = list(range(d ** n))
    for i in range(d):
        target = start + f[i] * block
        images[start + i * block:start + (i + 1) * block] = range(target, target + block)
    return tuple(images)


def _tower_order_bound(F: PermGroup, n: int, gens: list[tuple]) -> int:
    """|W_n(F)|, once every generator is shown to lie in W_n(F).

    Reads the local actions off each leaf permutation from the leaves
    up: at each level every sibling block must map into one sibling
    block, and the induced map on the parents is the next level's map.
    Each distinct local action must lie in F.  This also proves each
    generator a bijection: a local action that is not one cannot sift to
    the identity in F's chain, and bijective local actions at every
    vertex make a bijection of each level, from the root down.

    A generator stops climbing at the first level where its map is the
    identity: the map it induces on every level above is the identity
    too, so every local action there is trivial and lies in F.
    """
    d = F.degree
    identities = [list(range(d ** k)) for k in range(n)]
    actions: set[tuple] = set()
    for g in gens:
        perm = g
        for k in reversed(range(n)):  # perm acts at depth k + 1, heads at depth k
            parent = [x // d for x in perm]
            child = [x % d for x in perm]
            heads = parent[::d]
            if any(parent[i::d] != heads for i in range(1, d)):
                raise AssertionError("wreath generator is not a tree automorphism")
            actions.update(zip(*(child[i::d] for i in range(d))))
            if heads == identities[k]:
                break
            perm = heads
    for sigma in actions:
        if not F.chain.contains(sigma):
            raise AssertionError(f"wreath generator has local action "
                                 f"{_shown(sigma)} outside {F.name}")
    return tower_order(F.order(), d, n)


def wreath_tower(F: PermGroup, depth: int, caps: Caps = DEFAULT_CAPS) -> WreathTower:
    """Build W_depth(F) on d^depth leaves.

    Generators: one copy of each base generator at every vertex above
    the leaves.  The group's chain is built on first use, from the
    generators with the order law as a proved bound that it must reach.
    """
    if depth < 0:
        raise InputError(f"depth must be >= 0, got {depth}")
    d = F.degree
    # d^depth one level at a time, refused at the first level past the cap,
    # so a huge depth costs a few steps and never builds a huge integer
    leaves, k = 1, 0
    while leaves <= caps.leaf_cap and k < depth and d > 1:
        leaves, k = leaves * d, k + 1
    if leaves > caps.leaf_cap:
        what = "flatten leaves" if k == depth or d == 1 else \
            f"flatten leaves (depth {k} of {depth})"
        raise ResourceLimitError(what, caps.leaf_cap, leaves, "--leaf-cap")
    interior = tower_vertex_count(d, depth)  # below `leaves` unless d == 1
    if interior > caps.leaf_cap:
        raise ResourceLimitError("tower interior vertices", caps.leaf_cap, interior,
                                 "--leaf-cap")
    gens = []
    sites = []
    for v in _interior_vertices(d, depth):
        for gi, f in enumerate(F.generators):
            gens.append(_trusted(vertex_generator(d, depth, v, f.images)))
            sites.append((v, gi))
    group = PermGroup(max(leaves, 1), gens, name=f"W_{depth}({F.name or f'deg{d}'})",
                      order_bound=partial(_tower_order_bound, F, depth))
    return WreathTower(base=F, depth=depth, group=group, generator_sites=sites)


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


def _square_order_bound(G: PermGroup, gens: list[tuple]) -> int:
    """|G|^2, once every generator is shown to lie in G x G: it keeps
    the two halves and each half's restriction is a member of G.  This
    also proves each generator a bijection: a half that is not one
    cannot sift to the identity in G's chain."""
    m = G.degree
    for g in gens:
        if any(x >= m for x in g[:m]) or any(x < m for x in g[m:]):
            raise AssertionError("square generator mixes the two halves")
        if not (G.chain.contains(g[:m]) and G.chain.contains(tuple(x - m for x in g[m:]))):
            raise AssertionError(f"square generator has a half outside {G.name}")
    return G.order() ** 2


def direct_square(T: WreathTower, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Direct product of two disjoint copies of the tower's leaf group.

    Its chain is built on first use with |T|^2 as a proved bound that it
    must reach."""
    m = T.leaf_count
    if 2 * m > caps.leaf_cap:
        raise ResourceLimitError("flatten leaves", caps.leaf_cap, 2 * m, "--leaf-cap")
    gens = []
    for g in T.group.generators:
        gens.append(_trusted(g.images + tuple(range(m, 2 * m))))
        gens.append(_trusted(tuple(range(m)) + tuple(x + m for x in g.images)))
    return PermGroup(2 * m, gens, name=f"{T.group.name}^2",
                     order_bound=partial(_square_order_bound, T.group))


def rigid_stabilizer(T: WreathTower, vertex: tuple[int, ...]) -> PermGroup:
    """Subgroup supported on the leaf cone below `vertex`: a copy of W_{n-k}(F)."""
    T.cone_leaves(vertex)  # refuses a vertex off the tree
    k = len(vertex)
    gens = [g for g, (site, _) in zip(T.group.generators, T.generator_sites)
            if site[:k] == vertex]
    return PermGroup(T.group.degree, gens,
                     name=f"rist({T.group.name}, {'.'.join(str(i + 1) for i in vertex) or 'root'})")
