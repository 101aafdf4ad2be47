"""Acceptance gate: every exit criterion at its stated tolerance.

Each criterion prints its PASS/FAIL line; all must pass within budget.
"""

import random
from collections import Counter

import pytest

from scan_oracles import intersection_scan, normal_core_scan
from treeperm import acceptance
from treeperm.acceptance import (ALL_CRITERIA, _no_cocompact_corpus, criterion_01_tate_sweep,
                                 criterion_02_residual_oracle, criterion_03_sylow,
                                 criterion_04_wreath_sylow_tower,
                                 criterion_05_wreath_order_law, criterion_06_cocycle,
                                 criterion_07_ball_order_formula,
                                 criterion_08_edge_ball_decomposition, criterion_09_survey,
                                 criterion_10_no_cocompact, criterion_11_lattice,
                                 criterion_12_eta)
from treeperm.config import DEFAULT_CAPS
from treeperm.groups import PermGroup, closure_elements


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_acceptance_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.ok, result.detail
    assert result.within_budget, (
        f"{result.name} took {result.elapsed:.1f}s, budget {result.budget}s")


# The tower criteria's detail strings.  Criterion 10 draws random_element
# from the chains of its tower and ball groups, so its count of
# nontrivial K depends on their transversals as well as on the seed.
TOWER_DETAILS = [
    (criterion_04_wreath_sylow_tower,
     "depth 1: 4 in 12, odd index 3; depth 2: 1024 in 248832, odd index 243"),
    (criterion_05_wreath_order_law, "16 towers: BSGS order == |F|^((d^n-1)/(d-1))"),
    (criterion_10_no_cocompact,
     "1000 instances (111 with nontrivial K), closure <= U always"),
    (criterion_11_lattice, "1482 cone-union pairs: rist meet identity + disjoint commuting"),
]


@pytest.mark.parametrize("criterion, detail", TOWER_DETAILS,
                         ids=[fn.__name__ for fn, _ in TOWER_DETAILS])
def test_tower_criterion_detail(criterion, detail):
    assert criterion().detail == detail


# The other criteria's detail strings, so that all twelve selftest lines
# are pinned.  Criterion 6 counts its seeded samples, not their values:
# its draw order is pinned by test_localact's sample digest.
CRITERION_DETAILS = [
    (criterion_01_tate_sweep, "30 (class, prime) pairs over 19 classes, 0 violations"),
    (criterion_02_residual_oracle,
     "30 (class, prime) pairs, descending series == <p'-elements>"),
    (criterion_03_sylow, "142 (group, prime) pairs over Sym(2..6) subgroup classes"),
    (criterion_06_cocycle, "8000 random pairs across 8 configurations, 0 violations"),
    (criterion_07_ball_order_formula,
     "exhaustive == |F|*|F_a|^m for d3r1:Sym(3)=6, d3r2:Sym(3)=48, d3r1:Cyc(3)=3, "
     "d3r2:Cyc(3)=3, d4r1:Sym(4)=24, d4r1:Alt(4)=12, d4r1:Dih(4)=8"),
    (criterion_08_edge_ball_decomposition,
     "r=1: 4 = 2^2, swap index 2; r=2: 64 = 8^2, swap index 2"),
    (criterion_09_survey,
     "5 transitive classes; gen-by-stabs = {D5, F20, A5, S5}; (Alt(5), Sym(5)) "
     "nondiscrete + virtually simple + robust, oracle-verified"),
    (criterion_12_eta, "12 transitive classes over d in 3..5; depth-2/3 estimates stable"),
]


@pytest.mark.parametrize("criterion, detail", CRITERION_DETAILS,
                         ids=[fn.__name__ for fn, _ in CRITERION_DETAILS])
def test_criterion_detail(criterion, detail):
    assert criterion().detail == detail


def test_every_criterion_detail_is_pinned():
    pinned = [fn for fn, _ in TOWER_DETAILS + CRITERION_DETAILS]
    assert sorted(pinned, key=ALL_CRITERIA.index) == list(ALL_CRITERIA)


def _index_test_criterion_10(seed):
    """Criterion 10 with its former scans: the candidate test |cand|·|U| /
    |cand ∩ U| = |G| through `intersection_scan`, checked against the
    orbit test on every candidate, and K = core_R(R ∩ U) through
    `normal_core_scan`, checked against the pointwise stabilizer of the
    orbit as element sets.  Returns the detail string and how often each case
    occurred."""
    rng = random.Random(seed)
    corpus = _no_cocompact_corpus(DEFAULT_CAPS)
    seen = Counter()
    for _ in range(1000):
        G = corpus[rng.randrange(len(corpus))]
        a = rng.randrange(G.degree)
        U = G.point_stabilizer(a)
        R = None
        for _ in range(6):
            k = 1 + rng.randrange(2)
            cand = PermGroup(G.degree, [G.random_element(rng) for _ in range(k)])
            inter = intersection_scan(cand, U)
            by_index = cand.order() * U.order() // inter.order() == G.order()
            assert by_index == (len(cand.orbit(a)) == len(G.orbit(a))), (G, a, cand)
            if by_index:
                R = cand
                seen["kept"] += 1
                break
            seen["dropped"] += 1
        if R is None:
            R = G
            seen["fallback"] += 1
        K = normal_core_scan(R, intersection_scan(R, U))
        kernel = R.pointwise_stabilizer(G.orbit(a))
        assert _element_set(kernel) == _element_set(K), (G, a, R)
        seen["nontrivial" if K.order() > 1 else "trivial"] += 1
        assert G.normal_closure(K).is_subgroup_of(U)
    detail = f"1000 instances ({seen['nontrivial']} with nontrivial K), closure <= U always"
    return detail, seen


def _element_set(H):
    return {g.images for g in closure_elements(H.degree, H.generators, DEFAULT_CAPS.element_cap)}


@pytest.mark.parametrize("seed", [1, 29, 7])
def test_criterion_10_orbit_test_matches_index_formula(seed):
    detail, seen = _index_test_criterion_10(seed)
    assert all(seen[case] for case in ("kept", "dropped", "fallback", "trivial", "nontrivial"))
    assert criterion_10_no_cocompact(seed=seed).detail == detail


def test_criterion_8_catches_halves_that_meet(monkeypatch):
    # equal halves commute at r = 1 (each is a single involution) and
    # multiply to the right order, so only the joined order sees the meet
    real = acceptance.half_ball_rigid_stabilizers

    def same_halves(B):
        h0, h1 = real(B)
        return (h0, h0) if B.graft.ball.radius == 1 else (h0, h1)

    monkeypatch.setattr(acceptance, "half_ball_rigid_stabilizers", same_halves)
    result = criterion_08_edge_ball_decomposition()
    assert not result.ok
    assert result.detail == "AssertionError: r=1: halves intersect nontrivially"
