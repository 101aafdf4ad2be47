"""Acceptance suite: the exit criteria of the toolkit, one runner each.

Every criterion is exact (zero tolerated violations) and most carry a
wall-clock budget.  The same runners back `treeperm selftest` and the
pytest acceptance module, printing one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from .config import DEFAULT_CAPS, DEFAULT_SEED, Caps
from .criteria import eta_estimate, evaluate, oracle_facts, survey
from .groups import PermGroup, alternating, cyclic, dihedral, klein4, symmetric
from .lattice import _commute_groupwise, lattice_sweep
from .localact import (Graft, ball_stabilizer_group, cocycle_defect, edge_ball_group,
                       half_ball_rigid_stabilizers, random_ball_automorphism)
from .perms import Permutation, _compose
from .series import p_part, p_residual, p_residual_oracle, prime_factors, sylow_subgroup, tate_check
from .subgroups import enumerate_subgroups_up_to_conjugacy
from .treeball import build_ball, legal_coloring
from .wreath import sylow_tower, tower_order, wreath_tower


@dataclass
class AcceptanceResult:
    name: str
    ok: bool
    detail: str
    elapsed: float
    budget: float | None

    @property
    def within_budget(self) -> bool:
        return self.budget is None or self.elapsed < self.budget

    def line(self) -> str:
        status = "PASS" if self.ok and self.within_budget else "FAIL"
        budget = f" [budget {self.budget:.0f}s]" if self.budget else ""
        return f"{status} {self.name} ({self.elapsed:.1f}s{budget}): {self.detail}"


def _result(name: str, budget: float | None, fn: Callable[[], str]) -> AcceptanceResult:
    t0 = time.perf_counter()
    try:
        detail = fn()
        ok = True
    except Exception as exc:  # report, never hide
        detail = f"{type(exc).__name__}: {exc}"
        ok = False
    return AcceptanceResult(name=name, ok=ok, detail=detail,
                            elapsed=time.perf_counter() - t0, budget=budget)


# -- 1 & 2: Tate sweep and p-residual oracle over Sym(5) ---------------------

def criterion_01_tate_sweep(caps: Caps = DEFAULT_CAPS, seed: int = DEFAULT_SEED) -> AcceptanceResult:
    def run() -> str:
        classes = enumerate_subgroups_up_to_conjugacy(symmetric(5), caps)
        checked = violations = 0
        for cls in classes:
            for p in prime_factors(cls.order):
                rep = tate_check(cls.rep, p, caps)
                checked += 1
                if rep.hypothesis_holds and not rep.conclusion_holds:
                    violations += 1
        if violations:
            raise AssertionError(f"{violations} Tate violations")
        return f"{checked} (class, prime) pairs over {len(classes)} classes, 0 violations"
    return _result("tate-sweep-sym5", 60.0, run)


def criterion_02_residual_oracle(caps: Caps = DEFAULT_CAPS, seed: int = DEFAULT_SEED) -> AcceptanceResult:
    def run() -> str:
        classes = enumerate_subgroups_up_to_conjugacy(symmetric(5), caps)
        checked = 0
        for cls in classes:
            for p in prime_factors(cls.order):
                series = p_residual(cls.rep, p)
                oracle = p_residual_oracle(cls.rep, p, caps)
                if not series.equals(oracle):
                    raise AssertionError(
                        f"O^{p} mismatch on class of order {cls.order}")
                checked += 1
        return f"{checked} (class, prime) pairs, descending series == <p'-elements>"
    return _result("p-residual-oracle-sym5", 60.0, run)


# -- 3: Sylow correctness over the Sym(<=6) corpus ----------------------------

def criterion_03_sylow(caps: Caps = DEFAULT_CAPS, seed: int = DEFAULT_SEED) -> AcceptanceResult:
    def run() -> str:
        checked = 0
        for n in range(2, 7):
            for cls in enumerate_subgroups_up_to_conjugacy(symmetric(n), caps):
                for p in prime_factors(cls.order):
                    S = sylow_subgroup(cls.rep, p, caps)
                    part = p_part(cls.order, p)
                    index = cls.order // S.order()
                    if S.order() != part or index % p == 0:
                        raise AssertionError(
                            f"Sylow failed: |S|={S.order()}, p-part={part}, index={index}")
                    checked += 1
        return f"{checked} (group, prime) pairs over Sym(2..6) subgroup classes"
    return _result("sylow-sym-le6", 120.0, run)


# -- 4 & 5: wreath towers ------------------------------------------------------

def criterion_04_wreath_sylow_tower(caps: Caps = DEFAULT_CAPS, seed: int = DEFAULT_SEED) -> AcceptanceResult:
    def run() -> str:
        expect = {1: (4, 12, 3), 2: (1024, 248832, 243)}
        details = []
        for depth, (s_order, w_order, index) in expect.items():
            # sylow_tower raises unless the tower embeds in the ambient one
            tower, ambient = sylow_tower(alternating(4), 2, depth, caps)
            got = (tower.group.order(), ambient.group.order(),
                   ambient.group.order() // tower.group.order())
            if got != (s_order, w_order, index) or got[2] % 2 == 0:
                raise AssertionError(f"depth {depth}: got {got}, want {(s_order, w_order, index)}")
            details.append(f"depth {depth}: {s_order} in {w_order}, odd index {index}")
        return "; ".join(details)
    return _result("wreath-sylow-tower-alt4", 30.0, run)


def criterion_05_wreath_order_law(caps: Caps = DEFAULT_CAPS, seed: int = DEFAULT_SEED) -> AcceptanceResult:
    def run() -> str:
        bases = [symmetric(2), symmetric(3), klein4(), alternating(4)]
        checked = 0
        for F in bases:
            for n in range(0, 4):
                if F.degree ** n > caps.leaf_cap:
                    continue
                tower = wreath_tower(F, n, caps)
                formula = tower_order(F.order(), F.degree, n)
                if tower.group.order() != formula:
                    raise AssertionError(
                        f"W_{n}({F.name}): BSGS {tower.group.order()} != formula {formula}")
                checked += 1
        return f"{checked} towers: BSGS order == |F|^((d^n-1)/(d-1))"
    return _result("wreath-order-law", None, run)


# -- 6: cocycle identity --------------------------------------------------------

def criterion_06_cocycle(caps: Caps = DEFAULT_CAPS, seed: int = DEFAULT_SEED) -> AcceptanceResult:
    def run() -> str:
        rng = random.Random(seed)
        pairs_per_config = 1000
        total = 0
        for d in (3, 4):
            for r in (1, 2):
                ball = legal_coloring(build_ball(d, r, "vertex", caps))
                for F in (symmetric(d), alternating(d)):
                    graft = Graft(ball, F, caps)
                    for _ in range(pairs_per_config):
                        g = random_ball_automorphism(graft, rng).images
                        h = random_ball_automorphism(graft, rng).images
                        v = cocycle_defect(ball, g, h, _compose(g, h))
                        if v is not None:
                            raise AssertionError(f"cocycle violated at d={d} r={r} v={v}")
                        total += 1
        return f"{total} random pairs across 8 configurations, 0 violations"
    return _result("cocycle-identity", None, run)


# -- 7 & 8: ball groups ----------------------------------------------------------

def criterion_07_ball_order_formula(caps: Caps = DEFAULT_CAPS, seed: int = DEFAULT_SEED) -> AcceptanceResult:
    def run() -> str:
        grid = [(3, 1, symmetric(3)), (3, 2, symmetric(3)),
                (3, 1, cyclic(3)), (3, 2, cyclic(3)),
                (4, 1, symmetric(4)), (4, 1, alternating(4)), (4, 1, dihedral(4))]
        details = []
        for d, r, F in grid:
            ball = legal_coloring(build_ball(d, r, "vertex", caps))
            bg = ball_stabilizer_group(ball, F, caps)
            m = len(ball.interior) - 1
            stab = F.point_stabilizer(0).order()
            formula = F.order() * stab ** m
            if not (bg.order() == bg.enumerated_count == formula):
                raise AssertionError(
                    f"d={d} r={r} {F.name}: enumerated {bg.enumerated_count}, "
                    f"BSGS {bg.order()}, formula {formula}")
            details.append(f"d{d}r{r}:{F.name}={bg.order()}")
        return "exhaustive == |F|*|F_a|^m for " + ", ".join(details)
    return _result("ball-order-formula", 60.0, run)


def criterion_08_edge_ball_decomposition(caps: Caps = DEFAULT_CAPS, seed: int = DEFAULT_SEED) -> AcceptanceResult:
    def run() -> str:
        expect = {1: 4, 2: 64}
        details = []
        for r, fixing_order in expect.items():
            ball = legal_coloring(build_ball(3, r, "edge", caps))
            B = edge_ball_group(ball, symmetric(3), caps)
            tp = B.type_preserving
            h0, h1 = half_ball_rigid_stabilizers(B)
            half = tower_order(2, 2, r)  # |W_r(Sym(2))| on the (d-1)-ary tree
            if tp.order() != fixing_order or h0.order() != half or h1.order() != half:
                raise AssertionError(
                    f"r={r}: fixing {tp.order()}, halves {h0.order()},{h1.order()}")
            if h0.order() * h1.order() != tp.order():
                raise AssertionError(f"r={r}: orders do not multiply")
            if not _commute_groupwise(h0, h1):
                raise AssertionError(f"r={r}: halves do not commute")
            # commuting halves join to h0·h1, of order |h0|·|h1| / |h0 ∩ h1|
            if PermGroup(tp.degree, h0.generators + h1.generators).order() != tp.order():
                raise AssertionError(f"r={r}: halves intersect nontrivially")
            if not (h0.is_subgroup_of(tp) and h1.is_subgroup_of(tp)):
                raise AssertionError(f"r={r}: halves not inside the fixing subgroup")
            if B.order() != 2 * tp.order():
                raise AssertionError(f"r={r}: swap index is not 2")
            details.append(f"r={r}: {tp.order()} = {half}^2, swap index 2")
        return "; ".join(details)
    return _result("edge-ball-tits-decomposition", None, run)


# -- 9: criteria survey ------------------------------------------------------------

def criterion_09_survey(caps: Caps = DEFAULT_CAPS, seed: int = DEFAULT_SEED) -> AcceptanceResult:
    def run() -> str:
        rows = survey(5, transitive_only=True, caps=caps)
        if len(rows) != 5:
            raise AssertionError(f"expected 5 transitive classes, got {len(rows)}")
        gen_by_stabs = {r.label for r in rows if r.report.facts["Fp_gen_by_stabs"]}
        if gen_by_stabs != {"D5", "F20", "A5", "S5"}:
            raise AssertionError(f"gen-by-stabs classes: {sorted(gen_by_stabs)}")
        if not all(r.oracle_agrees for r in rows):
            raise AssertionError("exhaustive oracle disagrees with BSGS facts")
        rep = evaluate(5, alternating(5), symmetric(5))
        wanted = ("Gc_nondiscrete", "Gc_virtually_simple", "Gc_in_R")
        if not all(rep.verdict(n).value and rep.verdict(n).applicable for n in wanted):
            raise AssertionError("(Alt(5), Sym(5)) verdicts wrong")
        if oracle_facts(alternating(5), symmetric(5), caps) != rep.facts:
            raise AssertionError("(Alt(5), Sym(5)) facts not oracle-verified")
        return ("5 transitive classes; gen-by-stabs = {D5, F20, A5, S5}; "
                "(Alt(5), Sym(5)) nondiscrete + virtually simple + robust, oracle-verified")
    return _result("criteria-survey-d5", 120.0, run)


# -- 10: finite cocompact-normal-subgroup shadow -------------------------------------

def _no_cocompact_corpus(caps: Caps) -> list[PermGroup]:
    ball = legal_coloring(build_ball(3, 2, "vertex", caps))
    # S3 x S2 on 3+2 points: point stabilizers contain whole normal factors
    s3xs2 = PermGroup(5, [Permutation((1, 0, 2, 3, 4)), Permutation((1, 2, 0, 3, 4)),
                          Permutation((0, 1, 2, 4, 3))])
    return [symmetric(4), symmetric(5), alternating(5), dihedral(6), s3xs2,
            wreath_tower(symmetric(2), 2, caps).group,
            wreath_tower(symmetric(3), 1, caps).group,
            ball_stabilizer_group(ball, symmetric(3), caps).group]


def criterion_10_no_cocompact(caps: Caps = DEFAULT_CAPS, seed: int = DEFAULT_SEED) -> AcceptanceResult:
    def run() -> str:
        rng = random.Random(seed)
        corpus = _no_cocompact_corpus(caps)
        instances = 1000
        nontrivial = 0
        for _ in range(instances):
            G = corpus[rng.randrange(len(corpus))]
            a = rng.randrange(G.degree)
            U = G.point_stabilizer(a)
            orbit = G.orbit(a)
            R = None
            for _ in range(6):
                k = 1 + rng.randrange(2)
                cand = PermGroup(G.degree, [G.random_element(rng) for _ in range(k)])
                # cand <= G, so cand·G_a = G exactly when cand·a = G·a
                # (orbit-stabilizer): no chain and no intersection needed
                if len(cand.orbit(a)) == len(orbit):
                    R = cand
                    break
            if R is None:
                R = G
            # R <= G, so R ∩ G_a = R_a, and core_R(R_a) is the kernel of R
            # on R·a, which equals G·a: the pointwise stabilizer of the orbit
            K = R.pointwise_stabilizer(orbit)
            if K.order() > 1:
                nontrivial += 1
            closure = G.normal_closure(K)
            if not closure.is_subgroup_of(U):
                raise AssertionError("normal closure of K escapes U")
        return f"{instances} instances ({nontrivial} with nontrivial K), closure <= U always"
    return _result("no-cocompact-shadow", None, run)


# -- 11: rigid-stabilizer lattice ------------------------------------------------------

def criterion_11_lattice(caps: Caps = DEFAULT_CAPS, seed: int = DEFAULT_SEED) -> AcceptanceResult:
    def run() -> str:
        total = 0
        for F in (symmetric(2), klein4()):
            for n in (1, 2, 3):
                tower = wreath_tower(F, n, caps)
                checks = lattice_sweep(tower, caps)
                for c in checks:
                    if not c.meet_identity_holds:
                        raise AssertionError(
                            f"meet identity failed on W_{n}({F.name}) "
                            f"pair ({c.subset_a:#x}, {c.subset_b:#x})")
                    if c.disjoint and not c.disjoint_commutes:
                        raise AssertionError(
                            f"disjoint supports do not commute on W_{n}({F.name})")
                total += len(checks)
        return f"{total} cone-union pairs: rist meet identity + disjoint commuting"
    return _result("rigid-stabilizer-lattice", None, run)


# -- 12: eta estimate --------------------------------------------------------------------

def criterion_12_eta(caps: Caps = DEFAULT_CAPS, seed: int = DEFAULT_SEED) -> AcceptanceResult:
    def run() -> str:
        checked = 0
        for d in (3, 4, 5):
            for cls in enumerate_subgroups_up_to_conjugacy(symmetric(d), caps):
                if not cls.is_transitive:
                    continue
                F = cls.rep
                e2 = eta_estimate(F, 2)
                e3 = eta_estimate(F, 3)
                stab_primes = frozenset(prime_factors(F.point_stabilizer(0).order()))
                if not (e2 == e3 == stab_primes):
                    raise AssertionError(
                        f"eta mismatch for d={d}, |F|={cls.order}: "
                        f"{sorted(e2)} / {sorted(e3)} / {sorted(stab_primes)}")
                checked += 1
        if eta_estimate(alternating(5), 2) != frozenset({2, 3}):
            raise AssertionError("eta(Alt(5), d=5) != {2, 3}")
        return f"{checked} transitive classes over d in 3..5; depth-2/3 estimates stable"
    return _result("eta-estimate", None, run)


ALL_CRITERIA = [
    criterion_01_tate_sweep,
    criterion_02_residual_oracle,
    criterion_03_sylow,
    criterion_04_wreath_sylow_tower,
    criterion_05_wreath_order_law,
    criterion_06_cocycle,
    criterion_07_ball_order_formula,
    criterion_08_edge_ball_decomposition,
    criterion_09_survey,
    criterion_10_no_cocompact,
    criterion_11_lattice,
    criterion_12_eta,
]


def run_all(caps: Caps = DEFAULT_CAPS, seed: int = DEFAULT_SEED) -> list[AcceptanceResult]:
    results = []
    for fn in ALL_CRITERIA:
        res = fn(caps, seed)
        results.append(res)
        print(res.line(), flush=True)
    return results
