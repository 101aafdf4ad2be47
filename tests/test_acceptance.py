"""Acceptance gate: every exit criterion at its stated tolerance.

Each criterion prints its PASS/FAIL line; all must pass within budget.
"""

import pytest

from treeperm.acceptance import (ALL_CRITERIA, criterion_04_wreath_sylow_tower,
                                 criterion_05_wreath_order_law, criterion_10_no_cocompact,
                                 criterion_11_lattice)


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_acceptance_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.ok, result.detail
    assert result.within_budget, (
        f"{result.name} took {result.elapsed:.1f}s, budget {result.budget}s")


# The tower criteria's detail strings.  Criterion 10 draws random_element
# from tower chains, so its count of nontrivial K depends on their
# transversals as well as on the seed.
TOWER_DETAILS = [
    (criterion_04_wreath_sylow_tower,
     "depth 1: 4 in 12, odd index 3; depth 2: 1024 in 248832, odd index 243"),
    (criterion_05_wreath_order_law, "16 towers: BSGS order == |F|^((d^n-1)/(d-1))"),
    (criterion_10_no_cocompact,
     "1000 instances (112 with nontrivial K), closure <= U always"),
    (criterion_11_lattice, "1482 cone-union pairs: rist meet identity + disjoint commuting"),
]


@pytest.mark.parametrize("criterion, detail", TOWER_DETAILS,
                         ids=[fn.__name__ for fn, _ in TOWER_DETAILS])
def test_tower_criterion_detail(criterion, detail):
    assert criterion().detail == detail
