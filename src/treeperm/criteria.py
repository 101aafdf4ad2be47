"""Criteria evaluators for tree-local-action groups.

Given a degree d and local groups F <= F' <= Sym(d), the report decides
the finite facts (transitivity, free action, generation by point
stabilizers, Young-group sandwich) and derives the theorem-backed
verdicts about the associated tree groups: non-discreteness, virtual
simplicity, and membership in the simple/robust classes.  Verdicts are
inferences from published criteria and carry their citation; the tool
certifies only the finite hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .config import DEFAULT_CAPS, Caps
from .errors import InputError
from .groups import PermGroup, symmetric
from .perms import _compose
from .series import prime_factors
from .subgroups import SubgroupClass, enumerate_subgroups_up_to_conjugacy

CITES = {
    "nondiscrete": ("restricted universal groups are non-discrete exactly when F "
                    "does not act freely (Le Boudec 2016, Sec. 3)"),
    "virtually_simple": ("virtually simple iff F' is transitive and generated by its "
                         "point stabilizers (Le Boudec 2016; cf. Burger-Mozes 2000)"),
    "in_R": ("robustly monolithic: virtually simple and non-discrete, over a "
             "non-free F (criterion equivalence for restricted universal groups)"),
    "Uc_virtually_S": ("Burger-Mozes 2000, Prop. 3.2.1: simple monolith of index 2 "
                       "iff the local group is transitive and generated by its point "
                       "stabilizers"),
}


@dataclass
class Verdict:
    name: str
    value: bool
    applicable: bool
    cite: str


@dataclass
class CriterionReport:
    inputs: dict  # {"d": degree, "F": spec of F, "Fprime": spec of F'}
    facts: dict
    verdicts: list[Verdict]
    eta: list[int]
    sandwich_ok: bool

    def verdict(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)


def compute_facts(F: PermGroup, Fp: PermGroup) -> dict:
    """Finite facts feeding the verdicts (BSGS-backed route).

    Each side's facts are computed once: when Fp is F, they are shared.
    """
    young = F.young_group()
    f_side = (F.is_transitive(), F.acts_freely())
    fp_side = f_side if Fp is F else (Fp.is_transitive(), Fp.acts_freely())
    return {
        "F_transitive": f_side[0],
        "F_free": f_side[1],
        "Fp_transitive": fp_side[0],
        "Fp_free": fp_side[1],
        "Fp_gen_by_stabs": Fp.generated_by_point_stabilizers(),
        "F_le_Fp": Fp is F or F.is_subgroup_of(Fp),
        "Fp_le_young_F": Fp.is_subgroup_of(young),
    }


def oracle_facts(F: PermGroup, Fp: PermGroup, caps: Caps = DEFAULT_CAPS) -> dict:
    """The same facts by exhaustive closure only: no stabilizer chains.

    Reads each group's cached `elements`, a chain-free closure; no fact
    depends on element order.
    """
    f_elems = F.elements(caps)
    fp_elems = f_elems if Fp is F else Fp.elements(caps)

    def orbit(elems, a):
        return {g(a) for g in elems}

    def transitive(elems, deg):
        return len(orbit(elems, 0)) == deg

    def free(elems, deg):
        return all(len(orbit(elems, a)) == len(elems) for a in range(deg))

    def gen_by_stabs(elems, deg):
        # grow the closure of the point-stabilizer elements one right coset
        # at a time, adjoining only elements that lie outside it so far
        ident = tuple(range(deg))
        closed = {ident}
        gens: list[tuple] = []
        for g in elems:
            x = g.images
            if x in closed or all(x[a] != a for a in range(deg)):
                continue
            gens.append(x)
            base = list(closed)
            reps = [ident]
            for r in reps:
                for s in gens:
                    t = _compose(r, s)
                    if t not in closed:
                        reps.append(t)
                        closed.update(_compose(h, t) for h in base)
        return len(closed) == len(elems)

    def young_contains(fp_elems, f_elems, deg):
        # orbit partition of F by scanning elements
        remaining = set(range(deg))
        parts = []
        while remaining:
            a = min(remaining)
            orb = orbit(f_elems, a)
            remaining -= orb
            parts.append(orb)
        return all(all({g(x) for x in part} == part for part in parts) for g in fp_elems)

    f_set = {g.images for g in f_elems}
    return {
        "F_transitive": transitive(f_elems, F.degree),
        "F_free": free(f_elems, F.degree),
        "Fp_transitive": transitive(fp_elems, Fp.degree),
        "Fp_free": free(fp_elems, Fp.degree),
        "Fp_gen_by_stabs": gen_by_stabs(fp_elems, Fp.degree),
        "F_le_Fp": f_set <= {g.images for g in fp_elems},
        "Fp_le_young_F": young_contains(fp_elems, f_elems, F.degree),
    }


def verdicts_from_facts(facts: dict) -> list[Verdict]:
    """Pure function of the facts, per the published criteria."""
    sandwich = facts["F_le_Fp"] and facts["Fp_le_young_F"]
    crit = facts["Fp_transitive"] and facts["Fp_gen_by_stabs"]
    return [
        Verdict("Gc_nondiscrete", value=not facts["F_free"], applicable=sandwich,
                cite=CITES["nondiscrete"]),
        Verdict("Gc_virtually_simple", value=crit,
                applicable=sandwich and not facts["Fp_free"],
                cite=CITES["virtually_simple"]),
        Verdict("Gc_in_R", value=crit and not facts["F_free"],
                applicable=sandwich and not facts["F_free"],
                cite=CITES["in_R"]),
        Verdict("Uc_Fp_virtually_in_S", value=crit, applicable=not facts["Fp_free"],
                cite=CITES["Uc_virtually_S"]),
    ]


def evaluate(d: int, F: PermGroup, Fp: PermGroup) -> CriterionReport:
    """Full criteria report for the pair (F, F') at degree d."""
    if F.degree != d or Fp.degree != d:
        raise InputError(f"local groups must have degree {d}")
    facts = compute_facts(F, Fp)
    return CriterionReport(
        inputs={"d": d, "F": F.name or "custom", "Fprime": Fp.name or "custom"},
        facts=facts, verdicts=verdicts_from_facts(facts),
        eta=sorted(eta_estimate(F, 2)) if d >= 3 else [],
        sandwich_ok=facts["F_le_Fp"] and facts["Fp_le_young_F"],
    )


# -- local prime content estimate ---------------------------------------------

def eta_estimate(F: PermGroup, depth: int) -> frozenset[int]:
    """Primes whose p-part of the vertex-ball stabilizer order grows at
    `depth`: a finite proxy for the local prime content, which for
    transitive F and depth >= 2 is the primes of a point stabilizer.

    That order is the legal ball's graft count: |F| at the center times
    |F_c| = |F| / |c^F| at every other interior vertex, c its inward color.
    The center hands out each color once and every other vertex all but
    its inward one, so each color is inward at (d-1)^(k-1) vertices of
    depth k, and from radius depth-1 to depth >= 2 the order grows by a
    positive power of prod_c |F_c|.  So eta(F, 1) is the primes of |F|,
    and eta(F, depth >= 2) the primes of |F| / |O| over F's orbits O.
    """
    if depth < 1:
        raise InputError("eta estimate needs depth >= 1")
    if F.degree < 3:
        raise InputError(f"tree arity must be >= 3, got {F.degree}")
    order = F.order()
    lengths = [1] if depth == 1 else map(len, F.orbits())
    return frozenset(p for n in lengths for p in prime_factors(order // n))


# -- survey over subgroup classes ----------------------------------------------

_KNOWN_TRANSITIVE = {
    (3, 3): "C3", (3, 6): "S3",
    (4, 4): None,  # C4 vs V disambiguated below
    (4, 8): "D4", (4, 12): "A4", (4, 24): "S4",
    (5, 5): "C5", (5, 10): "D5", (5, 20): "F20", (5, 60): "A5", (5, 120): "S5",
}


def class_label(cls: SubgroupClass, d: int, idx: int) -> str:
    """Human name when recognizable, else a stable generic label."""
    n = cls.order
    if n == 1:
        return "1"
    if cls.is_transitive:
        if (d, n) in _KNOWN_TRANSITIVE and _KNOWN_TRANSITIVE[(d, n)]:
            return _KNOWN_TRANSITIVE[(d, n)]
        if d == 4 and n == 4:
            return "C4" if cls.cyclic else "V"
    if cls.cyclic:
        return f"C{n}"
    if n == 4:
        return "C2xC2"
    return f"G{n}_{idx}"


@dataclass
class SurveyRow:
    label: str
    order: int
    class_size: int
    generators: list[str]
    report: CriterionReport
    oracle_agrees: bool


def survey(d: int, transitive_only: bool = False, caps: Caps = DEFAULT_CAPS) -> list[SurveyRow]:
    """One criteria row per conjugacy class of F' <= Sym(d), F = F'.

    Every row's facts are recomputed by the exhaustive no-BSGS oracle;
    disagreement is reported, never silently patched.
    """
    if d > 6:
        raise InputError("survey supports d <= 6 (subgroup enumeration cap)")
    classes = enumerate_subgroups_up_to_conjugacy(symmetric(d), caps)
    rows = []
    for idx, cls in enumerate(classes):
        if transitive_only and not cls.is_transitive:
            continue
        F = cls.rep
        label = class_label(cls, d, idx)
        # F <= F <= Young(F) always holds, so every row's sandwich is ok
        report = replace(evaluate(d, F, F),
                         inputs={"d": d, "F": label, "Fprime": label})
        rows.append(SurveyRow(
            label=label,
            order=cls.order,
            class_size=cls.class_size,
            generators=[g.cycle_string() for g in F.generators],
            report=report,
            oracle_agrees=oracle_facts(F, F, caps) == report.facts,
        ))
    return rows
