"""Subgroup enumeration up to conjugacy.

The oracle below is the enumerator the library used before the walked
table and the normalizer-orbit extension: a Cayley table filled with one
Permutation product per cell, and a BFS that extends every class
representative by every atom.
"""

import pytest

from treeperm import subgroups
from treeperm.config import DEFAULT_CAPS
from treeperm.errors import ResourceLimitError
from treeperm.groups import (PermGroup, alternating, cyclic, dihedral, klein4, named_group,
                             symmetric)
from treeperm.perms import Permutation
from treeperm.series import prime_factors
from treeperm.subgroups import _classes, _Table, enumerate_subgroups_up_to_conjugacy
from treeperm.wreath import wreath_tower


class _ProductTable:
    """Cayley table over the sorted elements, one Permutation product per cell."""

    def __init__(self, G, caps=DEFAULT_CAPS):
        self.elements = G.elements(caps)
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

    def conj(self, x, g):
        return self.mul[self.mul[g][x]][self.inv[g]]


def _oracle_closure(table, subgroup, gens, new_gen):
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
                for h in list(subgroup):
                    elems.add(table.mul[h][t])
    return frozenset(elems)


def _oracle_conjugacy_orbit(table, fs):
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


def _oracle_atoms(table):
    seen_cyclic = set()
    atoms = []
    for i in range(len(table.elements)):
        if i == table.ident:
            continue
        powers = [table.ident]
        x = i
        while x != table.ident:
            powers.append(x)
            x = table.mul[x][i]
        if len(prime_factors(len(powers))) > 1:
            continue
        cyc = frozenset(powers)
        if cyc not in seen_cyclic:
            seen_cyclic.add(cyc)
            atoms.append(i)
    return atoms


def oracle_classes(G):
    """(order, class size, element indices, rep generators) of every class:
    every representative closed with every atom."""
    table = _ProductTable(G)
    atoms = _oracle_atoms(table)
    out = []
    seen = set()
    queue = []

    def add_class(canonical, size):
        idxs = tuple(sorted(canonical))
        rep = PermGroup.from_elements(G.degree, (table.elements[i].images for i in idxs),
                                      len(idxs))
        out.append((len(canonical), size, idxs, [g.images for g in rep.generators]))
        queue.append((canonical, [table.index[g.images] for g in rep.generators]))

    trivial = frozenset([table.ident])
    seen.add(trivial)
    add_class(trivial, 1)
    while queue:
        current, gens = queue.pop(0)
        for a in atoms:
            if a in current:
                continue
            K = _oracle_closure(table, current, gens, a)
            if K in seen:
                continue
            orbit = _oracle_conjugacy_orbit(table, K)
            seen.update(orbit)
            add_class(min(orbit, key=lambda fs: tuple(sorted(fs))), len(orbit))
    out.sort(key=lambda c: (c[0], c[2]))
    return out


def _s3_x_s2():
    # the S3 x S2 group on 3+2 points of the no-cocompact corpus
    return PermGroup(5, [Permutation((1, 0, 2, 3, 4)), Permutation((1, 2, 0, 3, 4)),
                         Permutation((0, 1, 2, 4, 3))])


AMBIENTS = {
    **{f"Sym({n})": (lambda n=n: symmetric(n)) for n in range(1, 6)},
    "Alt(5)": lambda: alternating(5),
    "Dih(6)": lambda: dihedral(6),
    "Klein4": klein4,
    "Cyc(6)": lambda: cyclic(6),
    "F20": lambda: named_group("F20"),
    "W_2(Sym(2))": lambda: wreath_tower(symmetric(2), 2).group,
    "S3xS2": _s3_x_s2,
}


@pytest.mark.parametrize("name", AMBIENTS)
def test_classes_match_the_every_atom_oracle(name):
    got = [(c.order, c.class_size, c.element_indices, [g.images for g in c.rep.generators])
           for c in enumerate_subgroups_up_to_conjugacy(AMBIENTS[name]())]
    assert got == oracle_classes(AMBIENTS[name]())


@pytest.mark.parametrize("name", AMBIENTS)
def test_walked_table_equals_the_product_table(name):
    G = AMBIENTS[name]()
    walked, product = _Table(G, DEFAULT_CAPS), _ProductTable(G)
    n = len(product.elements)
    assert [[walked.right[b][a] for b in range(n)] for a in range(n)] == product.mul
    assert (walked.inv, walked.ident) == (product.inv, product.ident)


@pytest.mark.parametrize("G, count", [(symmetric(6), 56), (alternating(5), 9),
                                      (alternating(6), 22)],
                         ids=["Sym(6)", "Alt(5)", "Alt(6)"])
def test_class_counts_with_perfect_subgroups(G, count):
    # Alt(5) and Alt(6) are perfect, so neither has a normal subgroup of
    # prime index: extending H only by x in N_G(H) with x^p in H never
    # reaches them, extending by one atom per normalizer orbit does
    assert len(enumerate_subgroups_up_to_conjugacy(G)) == count


@pytest.mark.parametrize("n", [4, 5])
def test_cyclic_flag_matches_element_orders(n):
    for cls in enumerate_subgroups_up_to_conjugacy(symmetric(n)):
        assert cls.cyclic == any(g.order() == cls.order for g in cls.rep.elements())


def test_sym3_classes():
    classes = enumerate_subgroups_up_to_conjugacy(symmetric(3))
    assert [c.order for c in classes] == [1, 2, 3, 6]
    assert sum(c.class_size for c in classes) == 6


def test_sym4_classes_and_transitive_filter():
    classes = enumerate_subgroups_up_to_conjugacy(symmetric(4))
    assert len(classes) == 11
    assert sum(c.class_size for c in classes) == 30
    transitive = sorted(c.order for c in classes if c.is_transitive)
    assert transitive == [4, 4, 8, 12, 24]  # C4, V, D4, A4, S4


def test_sym5_classes():
    classes = enumerate_subgroups_up_to_conjugacy(symmetric(5))
    assert len(classes) == 19
    assert sum(c.class_size for c in classes) == 156
    transitive = sorted(c.order for c in classes if c.is_transitive)
    assert transitive == [5, 10, 20, 60, 120]  # C5, D5, F20, A5, S5


def test_representatives_are_actual_subgroups():
    ambient = symmetric(4)
    for cls in enumerate_subgroups_up_to_conjugacy(ambient):
        assert cls.rep.order() == cls.order
        assert cls.rep.is_subgroup_of(ambient)


def test_deterministic_ordering():
    _classes.cache_clear()
    a = enumerate_subgroups_up_to_conjugacy(symmetric(4))
    b = enumerate_subgroups_up_to_conjugacy(symmetric(4))
    assert _classes.cache_info().hits == 1
    assert [c.element_indices for c in a] == [c.element_indices for c in b]
    # and a second enumeration from scratch, not the memoized records
    _classes.cache_clear()
    c = enumerate_subgroups_up_to_conjugacy(symmetric(4))
    assert [x.element_indices for x in a] == [x.element_indices for x in c]
    assert all(x is not y for x, y in zip(a, c))


def test_cap_is_loud():
    caps = DEFAULT_CAPS.with_overrides(subgroup_cap=100)
    with pytest.raises(ResourceLimitError) as info:
        enumerate_subgroups_up_to_conjugacy(symmetric(5), caps)
    assert "--subgroup-cap" in str(info.value)


def test_one_chain_build_per_class(monkeypatch):
    from treeperm import bsgs
    builds = []
    init = bsgs.StabilizerChain.__init__

    def counting_init(self, degree):
        builds.append(degree)
        init(self, degree)

    _classes.cache_clear()     # a memo hit would build no chain at all
    monkeypatch.setattr(bsgs.StabilizerChain, "__init__", counting_init)
    classes = enumerate_subgroups_up_to_conjugacy(symmetric(5))
    assert [c.rep.order() for c in classes] == [c.order for c in classes]
    # one chain for the ambient group's order, one per class rep
    assert len(builds) <= len(classes) + 1


def _fields(classes):
    return [(c.order, c.class_size, c.element_indices, c.cyclic,
             [g.images for g in c.rep.generators]) for c in classes]


def test_a_memo_hit_returns_the_records_of_a_cleared_enumeration():
    _classes.cache_clear()
    G1, G2 = symmetric(5), symmetric(5)
    assert G1 is not G2
    enumerate_subgroups_up_to_conjugacy(G1)
    hit = enumerate_subgroups_up_to_conjugacy(G2)
    assert _classes.cache_info().hits == 1
    _classes.cache_clear()
    fresh = enumerate_subgroups_up_to_conjugacy(symmetric(5))
    assert all(h is not f for h, f in zip(hit, fresh))
    assert _fields(hit) == _fields(fresh)


def test_a_memo_hit_closes_nothing(monkeypatch):
    enumerate_subgroups_up_to_conjugacy(symmetric(5))
    calls = []
    closure = subgroups._closure

    def spy(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(subgroups, "_closure", spy)
    assert len(enumerate_subgroups_up_to_conjugacy(symmetric(5))) == 19
    assert calls == []
    # the spy does see a miss
    _classes.cache_clear()
    enumerate_subgroups_up_to_conjugacy(symmetric(5))
    assert len(calls) == 166


def test_each_call_returns_a_new_list():
    a = enumerate_subgroups_up_to_conjugacy(symmetric(4))
    b = enumerate_subgroups_up_to_conjugacy(symmetric(4))
    assert a is not b and all(x is y for x, y in zip(a, b))
    a.clear()
    assert len(enumerate_subgroups_up_to_conjugacy(symmetric(4))) == 11


def test_other_caps_miss_the_memo():
    _classes.cache_clear()
    enumerate_subgroups_up_to_conjugacy(symmetric(4))
    caps = DEFAULT_CAPS.with_overrides(element_cap=DEFAULT_CAPS.element_cap + 1)
    other = enumerate_subgroups_up_to_conjugacy(symmetric(4), caps)
    info = _classes.cache_info()
    assert (info.hits, info.misses) == (0, 2)
    assert _fields(other) == _fields(enumerate_subgroups_up_to_conjugacy(symmetric(4)))


def test_callers_leave_the_shared_reps_unchanged(capsys):
    from treeperm import acceptance
    from treeperm.cli import main
    _classes.cache_clear()
    assert main(["criteria", "survey", "--d", "5"]) == 0
    capsys.readouterr()
    for criterion in (acceptance.criterion_01_tate_sweep, acceptance.criterion_02_residual_oracle,
                      acceptance.criterion_09_survey, acceptance.criterion_12_eta):
        assert criterion().ok
    shared = {d: enumerate_subgroups_up_to_conjugacy(symmetric(d)) for d in (3, 4, 5)}
    assert _classes.cache_info().misses == 3
    _classes.cache_clear()
    for d, classes in shared.items():
        fresh = enumerate_subgroups_up_to_conjugacy(symmetric(d))
        assert _fields(classes) == _fields(fresh)
        assert [c.rep.order() for c in classes] == [c.rep.order() for c in fresh]
