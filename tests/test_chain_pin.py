"""Pinned chain internals: one digest per corpus entry of every level's
base point, strong generators, orbit list and transversal, in order,
plus seeded `random_element` draws from each chain.

The CLI digests pin what a chain prints, not how it was built.  Orbit
discovery order decides the transversals, hence every `random_element`
draw, every Schreier pair and the strong generators that criterion 10
and the printed generators read.  A change to the chain's construction
that is meant to keep behaviour the same must leave every digest here
unchanged.
"""

import hashlib
import random

import pytest

from treeperm.bsgs import StabilizerChain, reduce_generators
from treeperm.groups import PermGroup, named_group
from treeperm.localact import ball_stabilizer_group, edge_ball_group, half_ball_rigid_stabilizers
from treeperm.perms import _compose
from treeperm.series import sylow_subgroup
from treeperm.treeball import build_ball, legal_coloring
from treeperm.wreath import direct_square, wreath_tower


def chain_digest(chains, draws=3, seed=0):
    h = hashlib.sha256()
    for chain in chains:
        for lev in chain.levels:
            h.update(repr((lev.point, lev.gens, lev.orbit,
                           list(lev.transversal.items()))).encode())
        rng = random.Random(seed)
        h.update(repr([chain.random_element(rng) for _ in range(draws)]).encode())
    return h.hexdigest()


def towers():
    for spec, n in [("Sym(2)", 5), ("Sym(3)", 3), ("Cyc(3)", 3), ("Klein4", 3),
                    ("Dih(4)", 2), ("Alt(4)", 2), ("Sym(4)", 2), ("Dih(5)", 3),
                    ("Cyc(5)", 3), ("Sym(3)", 4), ("Klein4", 4)]:
        yield wreath_tower(named_group(spec), n).group.chain


def squares():
    for spec, n in [("Sym(2)", 5), ("Sym(3)", 3), ("Klein4", 2), ("Alt(4)", 1)]:
        yield direct_square(wreath_tower(named_group(spec), n)).chain


def sylow_towers():
    for spec, p, n in [("Sym(3)", 3, 3), ("Sym(4)", 2, 2), ("Dih(6)", 2, 2)]:
        yield wreath_tower(sylow_subgroup(named_group(spec), p), n).group.chain


def balls():
    yield ball_stabilizer_group(legal_coloring(build_ball(3, 3, "vertex")),
                                named_group("Sym(3)")).group.chain
    B = edge_ball_group(legal_coloring(build_ball(4, 2, "edge")), named_group("Klein4"))
    yield from (G.chain for G in (B.group, B.type_preserving, *half_ball_rigid_stabilizers(B)))


def named():
    specs = ([f"Sym({n})" for n in range(1, 9)] + [f"Alt({n})" for n in range(3, 9)]
             + ["Cyc(6)", "Cyc(9)", "Dih(5)", "Dih(8)", "Klein4", "F20", "Triv(3)"])
    for spec in specs:
        yield named_group(spec).chain


def random_perms(rng, n, k):
    return [tuple(rng.sample(range(n), n)) for _ in range(k)]


def seeded_from_generators():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 10)
        yield StabilizerChain.from_generators(n, random_perms(rng, n, rng.randint(1, 3)))


def seeded_base_prefix():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randint(2, 10)
        gens = random_perms(rng, n, rng.randint(1, 3))
        prefix = rng.sample(range(n), rng.randint(1, n))
        chain = StabilizerChain.from_generators(n, gens, prefix)
        yield chain
        yield chain.tail(rng.randint(0, len(prefix)))


def seeded_reduce_generators():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(2, 9)
        gens = random_perms(rng, n, 2)
        words = []
        for _ in range(25):
            w = gens[0]
            for _ in range(rng.randint(1, 6)):
                w = _compose(w, rng.choice(gens))
            words.append(w)
        yield reduce_generators(n, words)[1]


def stabilizers():
    rng = random.Random(34)
    for _ in range(20):
        n = rng.randint(3, 9)
        G = PermGroup.from_elements(n, random_perms(rng, n, 2))
        G = PermGroup(n, G.generators)  # a fresh chain from the kept generators
        yield G.point_stabilizer(rng.randrange(n)).chain
        yield G.pointwise_stabilizer(rng.sample(range(n), rng.randint(1, n - 1))).chain
        yield G.normal_closure(PermGroup(n, [G.random_element(rng)])).chain


CORPUS = {
    "towers": (towers,
        "b2c92aa325ef6e1de8edd3bdb6c66c37868afc3ad8852161f0b7e728e78f5f1a"),
    "squares": (squares,
        "d5f271be2505fc2d2c6a22a8392b58b51965cc0ab0cc0d24ced3c1245a88c2cb"),
    "sylow_towers": (sylow_towers,
        "bbb75fb7b9d5207d67f0cc23d08081147a69b340d756c19432075eb808915604"),
    "balls": (balls,
        "5bdd87112e7e3245c508de7aa1e190de57937e9dbc51d7e23a0337428bfca0bc"),
    "named": (named,
        "2880815b10b318620f52d60fcc5f1a3b70ea7a9ee3ecbe415284a365185d022b"),
    "from_generators": (seeded_from_generators,
        "6ee4fde058f4302ac0e5e0f340cd30f208f78e2f1c6bda30f0c94563643af899"),
    "base_prefix": (seeded_base_prefix,
        "092cb311bbd5e909688e3808108b8d3407a279f73707271a6c0c55912a31dd07"),
    "reduce_generators": (seeded_reduce_generators,
        "72e5f231276089a2346e1c666eca5a2007b7cf1ae2303efb6bd6318436d7110f"),
    "stabilizers": (stabilizers,
        "ef953cd702dac72f52153fb7802c09319f8cd0b2b5a8296930c28e16276b8f82"),
}


@pytest.mark.parametrize("name", CORPUS)
def test_chain_internals_are_pinned(name):
    build, digest = CORPUS[name]
    assert chain_digest(build()) == digest
