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
