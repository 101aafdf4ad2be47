"""Writes that only one module may make, checked on the source.

Only `groups` writes a `PermGroup`'s chain or its proved order bound:
every other module passes the bound to the constructor and lets
`PermGroup.chain` build the chain.

Only `bsgs` grows a chain level's `orbit`, `transversal` or `gens`:
`_grow_orbit` returns at once on a level whose orbit holds every point,
which is sound only while `bsgs` alone adds points and generators.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "treeperm").glob("*.py"))
PRIVATE = {"_chain", "_order_bound"}
LEVEL = {"orbit", "transversal", "gens"}
# list and dict methods that change the object they are called on
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
            "update", "setdefault", "popitem"}


def _writes(source, attrs):
    """(line, attribute) of every write to an attribute named in `attrs`:
    assignment and deletion targets (tuple and subscript targets
    included), a mutating method called on the attribute, and `setattr`
    with a literal name."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "setattr" and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant) and node.args[1].value in attrs):
                yield node.lineno, node.args[1].value
            elif (isinstance(func, ast.Attribute) and func.attr in MUTATORS
                  and isinstance(func.value, ast.Attribute) and func.value.attr in attrs):
                yield node.lineno, func.value.attr
            continue
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr in attrs:
                    yield sub.lineno, sub.attr


def _source(name):
    [path] = [p for p in SOURCES if p.name == name]
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "groups.py"],
                         ids=lambda p: p.name)
def test_no_module_but_groups_writes_a_groups_chain_or_bound(path):
    assert list(_writes(path.read_text(encoding="utf-8"), PRIVATE)) == [], path.name


def test_the_guard_sees_the_writes_in_groups():
    assert {attr for _, attr in _writes(_source("groups.py"), PRIVATE)} == PRIVATE


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "bsgs.py"],
                         ids=lambda p: p.name)
def test_no_module_but_bsgs_grows_a_chain_level(path):
    assert list(_writes(path.read_text(encoding="utf-8"), LEVEL)) == [], path.name


def test_the_guard_sees_the_level_writes_in_bsgs():
    assert {attr for _, attr in _writes(_source("bsgs.py"), LEVEL)} == LEVEL


def test_the_guard_sees_every_form_of_write():
    source = ("lev.orbit.append(v)\n"
              "lev.transversal[v] = t\n"
              "setattr(lev, 'gens', [])\n"
              "chain.levels[0].gens += [g]\n"
              "a, lev.orbit = 1, [0]\n"
              "del lev.transversal[v]\n"
              "lev.transversal.setdefault(v, t)\n"
              "n = len(lev.orbit) + lev.transversal.get(v, 0)\n")
    assert sorted(_writes(source, LEVEL)) == [(1, "orbit"), (2, "transversal"), (3, "gens"),
                                               (4, "gens"), (5, "orbit"), (6, "transversal"),
                                               (7, "transversal")]
