"""Criteria reports, surveys, and the local prime content estimate."""

import pytest

from treeperm.criteria import (class_label, compute_facts, eta_estimate, evaluate,
                               oracle_facts, survey, verdicts_from_facts)
from treeperm.errors import InputError
from treeperm.groups import (PermGroup, alternating, cyclic, dihedral,
                             frobenius20, symmetric, trivial)
from treeperm.perms import parse_cycles
from treeperm.series import prime_factors


def test_alt5_sym5_report():
    rep = evaluate(5, alternating(5), symmetric(5))
    assert rep.sandwich_ok
    assert rep.facts["F_transitive"] and not rep.facts["F_free"]
    for name in ("Gc_nondiscrete", "Gc_virtually_simple", "Gc_in_R",
                 "Uc_Fp_virtually_in_S"):
        v = rep.verdict(name)
        assert v.value and v.applicable and v.cite


def test_free_transitive_action_is_discrete():
    rep = evaluate(5, cyclic(5), cyclic(5))
    assert not rep.verdict("Gc_nondiscrete").value
    assert not rep.verdict("Gc_virtually_simple").value
    assert not rep.verdict("Gc_in_R").value


def test_sym3_pair_in_R():
    rep = evaluate(3, symmetric(3), symmetric(3))
    assert rep.verdict("Gc_in_R").value
    assert rep.verdict("Uc_Fp_virtually_in_S").value
    assert rep.eta == [2]


def test_sandwich_violation_marks_not_applicable():
    # F' not inside the Young group of F: Alt(5) orbits are one block, fine;
    # use an F whose orbits are finer than F' respects
    F = PermGroup(5, [parse_cycles("(1 2)", 5)])
    Fp = symmetric(5)
    rep = evaluate(5, F, Fp)
    assert not rep.sandwich_ok
    assert not rep.verdict("Gc_nondiscrete").applicable


def test_verdicts_are_pure_functions_of_facts():
    facts = compute_facts(alternating(5), symmetric(5))
    assert verdicts_from_facts(facts) == verdicts_from_facts(dict(facts))


def test_oracle_facts_agree_on_survey_grid():
    for d in (3, 4, 5):
        for row in survey(d):
            assert row.oracle_agrees, row.label


def test_oracle_gen_by_stabs_matches_closing_every_stabilizer_element():
    from treeperm.groups import closure_elements
    from treeperm.subgroups import enumerate_subgroups_up_to_conjugacy
    groups = [cls.rep for n in (4, 5) for cls in enumerate_subgroups_up_to_conjugacy(symmetric(n))]
    groups += [dihedral(6), cyclic(6), trivial(3)]
    for F in groups:
        elems = F.elements()
        stab = [g for g in elems
                if not g.is_identity() and any(g(a) == a for a in range(F.degree))]
        closed = len(closure_elements(F.degree, stab, 10 ** 6)) if stab else 1
        assert oracle_facts(F, F)["Fp_gen_by_stabs"] == (closed == len(elems)), F.generators


def test_survey_d3():
    rows = survey(3, transitive_only=True)
    assert [r.label for r in rows] == ["C3", "S3"]
    gen_by_stabs = [r.label for r in rows if r.report.facts["Fp_gen_by_stabs"]]
    assert gen_by_stabs == ["S3"]


def test_survey_d4_transitive_labels():
    rows = survey(4, transitive_only=True)
    assert {r.label for r in rows} == {"C4", "V", "D4", "A4", "S4"}
    assert [r.order for r in rows] == [4, 4, 8, 12, 24]


def test_survey_d5_counts():
    rows = survey(5, transitive_only=True)
    assert len(rows) == 5
    assert {r.label for r in rows} == {"C5", "D5", "F20", "A5", "S5"}


def test_survey_d1_degenerate():
    rows = survey(1)
    assert len(rows) == 1
    assert rows[0].report.facts["Fp_transitive"]


def test_survey_rejects_large_degree():
    with pytest.raises(InputError):
        survey(7)


def test_sandwich_stability_under_young_enlargement():
    # growing F' towards the Young group preserves the sandwich facts
    F = alternating(5)
    for Fp in (alternating(5), symmetric(5)):
        facts = compute_facts(F, Fp)
        assert facts["F_le_Fp"] and facts["Fp_le_young_F"]


def test_eta_examples():
    assert sorted(eta_estimate(alternating(5), 2)) == [2, 3]
    assert sorted(eta_estimate(symmetric(3), 2)) == [2]
    assert eta_estimate(cyclic(5), 2) == frozenset()
    assert eta_estimate(cyclic(4), 2) == frozenset()


def test_eta_stabilizes_after_depth_two():
    for F in (symmetric(3), symmetric(4), dihedral(4), frobenius20()):
        assert eta_estimate(F, 2) == eta_estimate(F, 3)
        stab = F.point_stabilizer(0).order()
        assert eta_estimate(F, 2) == frozenset(prime_factors(stab))


def test_class_labels_name_the_families():
    from treeperm.subgroups import enumerate_subgroups_up_to_conjugacy
    classes = enumerate_subgroups_up_to_conjugacy(symmetric(4))
    labels = [class_label(c, 4, i) for i, c in enumerate(classes)]
    for expected in ("1", "C2", "C3", "C4", "V", "C2xC2", "D4", "A4", "S4"):
        assert expected in labels, labels


# -- the graft-count oracle for eta and the cached-closure oracle --------------

def _sym_classes(degrees=(3, 4, 5)):
    from treeperm.subgroups import enumerate_subgroups_up_to_conjugacy
    return [cls.rep for d in degrees
            for cls in enumerate_subgroups_up_to_conjugacy(symmetric(d))]


def _eta_corpus():
    """(F, depth) pairs: every class of Sym(3..5) at depths 1-3, transitive or
    not, every class of Sym(6) at depths 1-2, and nine named groups at 1-2."""
    from treeperm.groups import klein4
    from treeperm.subgroups import enumerate_subgroups_up_to_conjugacy
    cases = [(F, depth) for F in _sym_classes() for depth in (1, 2, 3)]
    cases += [(cls.rep, depth) for cls in enumerate_subgroups_up_to_conjugacy(symmetric(6))
              for depth in (1, 2)]
    named = [symmetric(7), symmetric(8), alternating(7), alternating(8), dihedral(7),
             dihedral(8), cyclic(7), frobenius20(), klein4()]
    return cases + [(F, depth) for F in named for depth in (1, 2)]


def test_eta_estimate_equals_the_graft_count_oracle():
    """eta is the set of primes whose p-part of the legal vertex-ball graft
    count grows from radius depth-1 to radius depth."""
    from treeperm.localact import Graft
    from treeperm.series import p_part
    from treeperm.treeball import build_ball, legal_coloring
    balls = {}

    def graft_count(F, radius):
        key = (F.degree, radius)
        if key not in balls:
            balls[key] = legal_coloring(build_ball(F.degree, radius, "vertex"))
        return Graft(balls[key], F).count()

    cases = _eta_corpus()
    assert len(cases) == 232
    for F, depth in cases:
        before, after = graft_count(F, depth - 1), graft_count(F, depth)
        grown = frozenset(p for p in prime_factors(after) if p_part(after, p) > p_part(before, p))
        assert eta_estimate(F, depth) == grown, (F.generators, depth)


def test_eta_estimate_refusals():
    with pytest.raises(InputError, match="^eta estimate needs depth >= 1$"):
        eta_estimate(symmetric(3), 0)
    for d in (1, 2):
        with pytest.raises(InputError, match=f"^tree arity must be >= 3, got {d}$"):
            eta_estimate(symmetric(d), 2)


def test_criteria_builds_no_tree_ball_and_no_graft():
    """eta is read off orbit lengths: `criteria` imports neither `treeball`
    nor `localact`, and caches nothing with `lru_cache`."""
    import ast
    from pathlib import Path

    import treeperm.criteria
    source = Path(treeperm.criteria.__file__).read_text(encoding="utf-8")
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    assert not names & {"treeball", "localact", "lru_cache"}, names


def _closure_ordered(G):
    """A copy of G whose cached elements are in `closure_elements` BFS
    order, the order the oracle read before it used `elements`."""
    from treeperm.groups import closure_elements
    H = PermGroup(G.degree, G.generators, name=G.name)
    H._elements = tuple(closure_elements(G.degree, G.generators, 10 ** 5))
    return H


def test_oracle_facts_equal_their_closure_order_version():
    groups = _sym_classes()
    for F in groups:
        assert oracle_facts(F, F) == oracle_facts(_closure_ordered(F), _closure_ordered(F)), \
            F.generators
    for F, Fp in [(alternating(5), symmetric(5)), (cyclic(5), dihedral(5)),
                  (PermGroup(5, [parse_cycles("(1 2)", 5)]), symmetric(5)),
                  (frobenius20(), alternating(5))]:
        assert oracle_facts(F, Fp) == oracle_facts(_closure_ordered(F), _closure_ordered(Fp))
        assert oracle_facts(F, Fp) == compute_facts(F, Fp)


def test_oracle_element_cap_refusal_text_is_unchanged():
    from treeperm.config import DEFAULT_CAPS
    from treeperm.errors import ResourceLimitError
    from treeperm.groups import closure_elements
    caps = DEFAULT_CAPS.with_overrides(element_cap=50)
    with pytest.raises(ResourceLimitError) as fresh:
        closure_elements(5, symmetric(5).generators, 50)
    for F in (symmetric(5), _closure_ordered(symmetric(5))):  # cold, then cached
        with pytest.raises(ResourceLimitError) as info:
            oracle_facts(F, F, caps)
        assert str(info.value) == str(fresh.value)
