"""Subgroup enumeration up to conjugacy for small ambient groups.

Bottom-up over a Cayley table.  Every subgroup K > 1 is <H, a> for a
proper subgroup H < K and an element a of prime-power order (the
prime-power parts of its elements generate K), so extending class
representatives by cyclic subgroups of prime-power order ("atoms")
reaches every class.  If n in N_G(H) conjugates <a> to <a'>, then
<H, a> and <H, a'> are conjugate, so each representative is extended by
one atom per N_G(H)-orbit of the atoms outside it: the orbit idea of
the cyclic extension method (Holt-Eick-O'Brien, Handbook of
Computational Group Theory, 2005).  Classes are deduplicated by their
conjugacy orbits and represented by their least conjugates, so the list
comes out in a canonical deterministic order.

Each ambient group is enumerated once per process: the class records
are memoized per (degree, generator images, caps) in a bounded LRU memo,
and every call gets a fresh list of the shared records.  The subgroup
cap is checked on every call, and a refusal is never memoized, so it is
raised again on each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .config import DEFAULT_CAPS, Caps
from .errors import ResourceLimitError
from .groups import PermGroup, _bfs
from .perms import _compose, _trusted
from .series import prime_factors


@dataclass
class SubgroupClass:
    """One conjugacy class of subgroups: canonical representative + stats.

    Records and their reps are shared by every enumeration of the same
    ambient group in a process, so both are read-only: a rep may only
    fill its own lazy caches (chain, elements, point stabilizers).
    """

    rep: PermGroup
    order: int
    class_size: int
    element_indices: tuple[int, ...]   # canonical rep as sorted ambient indices
    cyclic: bool                       # some element's order is the class order

    @property
    def is_transitive(self) -> bool:
        return self.rep.is_transitive()


class _Table:
    """Cayley table of the ambient group over its sorted elements, chain-free.

    `right[b][a]` is the index of e_a ∘ e_b: column b is right
    multiplication by e_b.  Only the generators' columns are composed
    from image tuples.  Every other column is walked along a BFS
    spanning tree of the right Cayley graph from the identity: for
    e_j = e_w ∘ g, column j is column g after column w, so no cell
    needs a permutation product.
    """

    def __init__(self, G: PermGroup, caps: Caps):
        self.elements = G.elements(caps)     # sorted Permutations
        raw = [e.images for e in self.elements]
        index = {im: i for i, im in enumerate(raw)}
        self.index = index
        self.ident = index[tuple(range(G.degree))]
        right: list = [None] * len(raw)
        right[self.ident] = tuple(range(len(raw)))
        gen_cols = [tuple([index[_compose(im, g.images)] for im in raw])
                    for g in G.generators]
        walk = [self.ident]
        for w in walk:
            for col in gen_cols:
                j = col[w]
                if right[j] is None:
                    right[j] = _compose(col, right[w])
                    walk.append(j)
        self.right = right
        self.inv = inv = [col.index(self.ident) for col in right]
        # x -> g x g^-1 for each generator g of G
        self.gen_conj = [tuple([right[inv[g]][col[g]] for col in right])
                         for g in [index[p.images] for p in G.generators]]


def _closure(table: _Table, subgroup: frozenset[int], gens: list[int],
             new_gen: int) -> frozenset[int]:
    """<subgroup, new_gen> by right-coset BFS over the Cayley table."""
    right = table.right
    elems = set(subgroup)
    base = list(subgroup)
    step_gens = gens + [new_gen]
    reps = [table.ident]
    for r in reps:
        for s in step_gens:
            t = right[s][r]
            if t not in elems:
                reps.append(t)
                elems.update(map(right[t].__getitem__, base))
    return frozenset(elems)


def _cyclic_structure(table: _Table) -> tuple[list[int], list[int], list[int | None]]:
    """Element orders, the atoms, and the atom of each prime-power element.

    An atom is the least generator of a cyclic subgroup of prime-power
    order; `atom_of[x]` is the atom of <x>, None for the identity and
    for elements whose order is not a prime power.
    """
    n = len(table.right)
    orders = [1] * n
    atom_of: list[int | None] = [None] * n
    atoms: list[int] = []
    first: dict[frozenset[int], int] = {}
    for i in range(n):
        if i == table.ident:
            continue
        col = table.right[i]
        powers = [i]
        x = col[i]
        while x != table.ident:
            powers.append(x)
            x = col[x]
        orders[i] = len(powers) + 1
        if len(prime_factors(orders[i])) > 1:
            continue
        atom = first.setdefault(frozenset(powers), i)
        if atom == i:
            atoms.append(i)
        atom_of[i] = atom
    return orders, atoms, atom_of


def _orbit_atoms(table: _Table, subgroup: frozenset[int], gens: list[int],
                 atoms: list[int], atom_of: list[int | None]) -> list[int]:
    """The least atom of each N_G(subgroup)-orbit of atoms outside it."""
    right, inv = table.right, table.inv
    normalizer = range(len(right))
    for h in gens:
        col = right[h]
        normalizer = [g for g in normalizer if right[inv[g]][col[g]] in subgroup]
    chosen = []
    covered: set[int] = set()
    for a in atoms:
        if a in subgroup or a in covered:
            continue
        chosen.append(a)
        col = right[a]
        covered.update(atom_of[right[inv[g]][col[g]]] for g in normalizer)
    return chosen


def enumerate_subgroups_up_to_conjugacy(G: PermGroup,
                                        caps: Caps = DEFAULT_CAPS) -> list[SubgroupClass]:
    """All subgroup conjugacy classes of G, |G| <= the subgroup cap.

    Deterministic: classes sorted by (order, canonical element tuple),
    each represented by the lexicographically least conjugate.  A new
    list of the memoized, read-only records on each call.
    """
    order = G.order()
    if order > caps.subgroup_cap:
        raise ResourceLimitError("subgroup enumeration", caps.subgroup_cap, order,
                                 "--subgroup-cap")
    return list(_classes(G.degree, tuple(g.images for g in G.generators), caps))


@lru_cache(maxsize=8)
def _classes(degree: int, images: tuple[tuple, ...], caps: Caps) -> tuple[SubgroupClass, ...]:
    """The enumeration behind `enumerate_subgroups_up_to_conjugacy`, for the
    group that the generator `images` make, rebuilt here on a miss.
    A cap refusal is raised again on each call: exceptions are not cached."""
    G = PermGroup(degree, [_trusted(g) for g in images])
    table = _Table(G, caps)
    orders, atoms, atom_of = _cyclic_structure(table)

    out: list[SubgroupClass] = []
    seen: set[frozenset[int]] = set()
    queue: list[tuple[frozenset[int], list[int]]] = []

    def add_class(canonical: frozenset[int], size: int) -> None:
        # one chain per class: the sift-reduced rep keeps it, and its
        # generators seed the next extensions
        idxs = tuple(sorted(canonical))
        rep = PermGroup.from_elements(G.degree, (table.elements[i].images for i in idxs),
                                      len(idxs))
        out.append(SubgroupClass(rep=rep, order=len(idxs), class_size=size,
                                 element_indices=idxs,
                                 cyclic=any(orders[i] == len(idxs) for i in idxs)))
        queue.append((canonical, [table.index[g.images] for g in rep.generators]))

    trivial = frozenset([table.ident])
    seen.add(trivial)
    add_class(trivial, 1)
    for current, gens in queue:
        for a in _orbit_atoms(table, current, gens, atoms, atom_of):
            K = _closure(table, current, gens, a)
            if K in seen:
                continue
            # K's class: the gen_conj columns conjugate element indices
            orbit = _bfs(K, table.gen_conj, lambda fs, conj: frozenset(map(conj.__getitem__, fs)))
            seen.update(orbit)
            add_class(min(orbit, key=lambda fs: tuple(sorted(fs))), len(orbit))

    out.sort(key=lambda c: (c.order, c.element_indices))
    return tuple(out)
