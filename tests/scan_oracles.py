"""Exhaustive element scans: the test oracles for the library's BSGS answers.

Each scan runs under the element cap and passes its exact count to
`from_elements` as the proved order.  Intersections and normal cores have
no library counterpart: Tate reads |S ∩ O^p(G)| off three orders,
criterion 8 compares the order of the joined halves, and criterion 10
reads its core off a pointwise stabilizer; these scans check those answers.
`pi_core_scan` scans all of G, where the library's `pi_core` scans a
Sylow subgroup when pi is one prime.
"""

from treeperm.config import DEFAULT_CAPS
from treeperm.groups import PermGroup
from treeperm.perms import _compose, _invert
from treeperm.series import prime_factors


def centralizer_scan(G, H, caps=DEFAULT_CAPS):
    """Centralizer of H in G by a scan of G's elements."""
    hs = [h.images for h in H.generators]
    found = [g for g in (p.images for p in G.elements(caps))
             if all(_compose(g, h) == _compose(h, g) for h in hs)]
    return PermGroup.from_elements(G.degree, found, len(found))


def intersection_scan(G, K, caps=DEFAULT_CAPS):
    """G meet K by a scan of the smaller group's elements."""
    small, big = (G, K) if G.order() <= K.order() else (K, G)
    found = [g.images for g in small.elements(caps) if big.chain.contains(g.images)]
    return PermGroup.from_elements(G.degree, found, len(found))


def normal_core_scan(G, U, caps=DEFAULT_CAPS):
    """Largest normal subgroup of G inside U ≤ G, by a scan of U.

    u survives iff its whole conjugacy class under G stays inside U; a
    class walk is abandoned at its first conjugate outside U.  The union
    of the surviving classes is the core, so its size is the proved order.
    """
    assert U.is_subgroup_of(G), "normal_core_scan needs U <= G"
    conjugators = [(g.images, _invert(g.images)) for g in G.generators]
    u_list = [p.images for p in U.elements(caps)]
    u_elems = set(u_list)
    core: list[tuple] = []
    in_core: set[tuple] = set()
    for u in u_list:
        if u in in_core:
            continue
        cls = _class_within(u, conjugators, u_elems)
        if cls is not None:
            core.extend(sorted(cls))
            in_core.update(cls)
    return PermGroup.from_elements(G.degree, core, len(core))


def _class_within(u, conjugators, within):
    """The class of u under x -> g x g^-1, or None at its first element
    outside `within`."""
    cls, seen = [u], {u}
    for x in cls:
        for g, g_inv in conjugators:
            y = _compose(_compose(g, x), g_inv)
            if y not in seen:
                if y not in within:
                    return None
                seen.add(y)
                cls.append(y)
    return cls


def pi_core_scan(G, primes, caps=DEFAULT_CAPS):
    """O_pi(G) as the join of the normal closures <<x>>, x in G, that are
    pi-groups, scanned over G's sorted elements."""
    primes = frozenset(primes)
    gens = []
    core = PermGroup(G.degree, [])
    for x in G.elements(caps):
        if x.is_identity() or core.membership(x):
            continue
        if not set(prime_factors(x.order())) <= primes:
            continue
        ncl = G.normal_closure(PermGroup(G.degree, [x]))
        if set(prime_factors(ncl.order())) <= primes:
            gens.extend(ncl.generators)
            core = PermGroup(G.degree, gens)
    return core
