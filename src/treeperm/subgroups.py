"""Subgroup enumeration up to conjugacy for small ambient groups.

Bottom-up over a Cayley table: every subgroup arises by repeatedly
adjoining one element of prime-power order to a known class
representative (prime-power torsion parts generate any element), so
closing the trivial subgroup under single-element extensions and
conjugacy dedup visits every class.  Representatives come out in a
canonical deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_CAPS, Caps
from .errors import ResourceLimitError
from .groups import PermGroup
from .perms import Permutation
from .series import prime_factors


@dataclass
class SubgroupClass:
    """One conjugacy class of subgroups: canonical representative + stats."""

    rep: PermGroup
    order: int
    class_size: int
    element_indices: tuple[int, ...]   # canonical rep as sorted ambient indices

    @property
    def is_transitive(self) -> bool:
        return self.rep.is_transitive()


class _Table:
    """Cayley table of the ambient group over sorted element tuples."""

    def __init__(self, G: PermGroup, caps: Caps):
        self.elements = G.elements(caps)     # sorted Permutations
        n = len(self.elements)
        index = {e.images: i for i, e in enumerate(self.elements)}
        self.index = index
        self.mul = [[0] * n for _ in range(n)]
        for i, a in enumerate(self.elements):
            row = self.mul[i]
            for j, b in enumerate(self.elements):
                row[j] = index[(a * b).images]
        self.inv = [index[e.inverse().images] for e in self.elements]
        self.ident = index[Permutation.identity(G.degree).images]
        self.gen_idx = [index[g.images] for g in G.generators]

    def conj(self, x: int, g: int) -> int:
        """g x g^-1."""
        return self.mul[self.mul[g][x]][self.inv[g]]


def _closure(table: _Table, subgroup: frozenset[int], gens: list[int],
             new_gen: int) -> frozenset[int]:
    """<subgroup, new_gen> by right-coset BFS over the Cayley table."""
    elems = set(subgroup)
    step_gens = gens + [new_gen]
    reps = [table.ident]
    seen_reps = 0
    while seen_reps < len(reps):
        r = reps[seen_reps]
        seen_reps += 1
        for s in step_gens:
            t = table.mul[r][s]
            if t not in elems:
                reps.append(t)
                base = list(subgroup)
                for h in base:
                    elems.add(table.mul[h][t])
    return frozenset(elems)


def _conjugacy_orbit(table: _Table, fs: frozenset[int]) -> set[frozenset[int]]:
    orbit = {fs}
    frontier = [fs]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in table.gen_idx:
                img = frozenset(table.conj(x, g) for x in cur)
                if img not in orbit:
                    orbit.add(img)
                    nxt.append(img)
        frontier = nxt
    return orbit


def _prime_power_atoms(table: _Table) -> list[int]:
    """One generator per cyclic subgroup of prime-power order."""
    seen_cyclic: set[frozenset[int]] = set()
    atoms = []
    for i in range(len(table.elements)):
        if i == table.ident:
            continue
        # order and cyclic subgroup of element i
        powers = [table.ident]
        x = i
        while x != table.ident:
            powers.append(x)
            x = table.mul[x][i]
        if len(prime_factors(len(powers))) > 1:
            continue  # not of prime-power order
        cyc = frozenset(powers)
        if cyc not in seen_cyclic:
            seen_cyclic.add(cyc)
            atoms.append(i)
    return atoms


def enumerate_subgroups_up_to_conjugacy(G: PermGroup,
                                        caps: Caps = DEFAULT_CAPS) -> list[SubgroupClass]:
    """All subgroup conjugacy classes of G, |G| <= the subgroup cap.

    Deterministic: classes sorted by (order, canonical element tuple),
    each represented by the lexicographically least conjugate.
    """
    order = G.order()
    if order > caps.subgroup_cap:
        raise ResourceLimitError("subgroup enumeration", caps.subgroup_cap, order,
                                 "--subgroup-cap")
    table = _Table(G, caps)
    atoms = _prime_power_atoms(table)

    out: list[SubgroupClass] = []
    seen: set[frozenset[int]] = set()
    queue: list[tuple[frozenset[int], list[int]]] = []

    def add_class(canonical: frozenset[int], size: int) -> None:
        # one chain per class: the sift-reduced rep keeps it, and its
        # generators seed the next extensions
        idxs = tuple(sorted(canonical))
        rep = PermGroup.from_elements(G.degree, (table.elements[i].images for i in idxs),
                                      len(idxs))
        out.append(SubgroupClass(rep=rep, order=len(canonical), class_size=size,
                                 element_indices=idxs))
        queue.append((canonical, [table.index[g.images] for g in rep.generators]))

    trivial = frozenset([table.ident])
    seen.add(trivial)
    add_class(trivial, 1)
    while queue:
        current, gens = queue.pop(0)
        for a in atoms:
            if a in current:
                continue
            K = _closure(table, current, gens, a)
            if K in seen:
                continue
            orbit = _conjugacy_orbit(table, K)
            seen.update(orbit)
            add_class(min(orbit, key=lambda fs: tuple(sorted(fs))), len(orbit))

    out.sort(key=lambda c: (c.order, c.element_indices))
    return out
