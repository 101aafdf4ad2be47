"""Only `groups` writes a `PermGroup`'s chain or its proved order bound:
every other module passes the bound to the constructor and lets
`PermGroup.chain` build the chain."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "treeperm").glob("*.py"))
PRIVATE = {"_chain", "_order_bound"}


def _private_writes(path):
    """(line, attribute) of every assignment to a PRIVATE attribute, tuple
    targets and `setattr` with a literal name included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and node.args[1].value in PRIVATE):
            yield node.lineno, node.args[1].value
            continue
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr in PRIVATE:
                    yield sub.lineno, sub.attr


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "groups.py"],
                         ids=lambda p: p.name)
def test_no_module_but_groups_writes_a_groups_chain_or_bound(path):
    assert list(_private_writes(path)) == [], path.name


def test_the_guard_sees_the_writes_in_groups():
    [groups] = [p for p in SOURCES if p.name == "groups.py"]
    assert {attr for _, attr in _private_writes(groups)} == PRIVATE
