"""Sylow subgroups, cores, residuals, Frattini ranks, Tate checks."""

import pytest

from treeperm.errors import InputError
from treeperm.groups import PermGroup, alternating, cyclic, dihedral, symmetric, trivial
from treeperm.perms import Permutation, parse_cycles
from treeperm.series import (frattini_quotient_rank, is_prime, p_part, p_residual,
                             p_residual_oracle, pi_core, prime_factors,
                             sylow_subgroup, tate_check, verify_normal)
from treeperm.subgroups import enumerate_subgroups_up_to_conjugacy


def test_prime_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(360) == [2, 3, 5]
    assert p_part(360, 2) == 8 and p_part(360, 3) == 9 and p_part(360, 7) == 1


def test_sylow_examples():
    assert sylow_subgroup(symmetric(3), 2).order() == 2
    S = sylow_subgroup(symmetric(4), 2)
    assert S.order() == 8 and symmetric(4).order() // S.order() == 3
    assert sylow_subgroup(trivial(1), 5).order() == 1
    assert sylow_subgroup(cyclic(6), 3).order() == 3
    assert sylow_subgroup(cyclic(3), 2).order() == 1  # p does not divide |G|


def test_sylow_orders_each_element_once(monkeypatch):
    calls = []
    order = Permutation.order

    def spy(self):
        calls.append(self)
        return order(self)

    monkeypatch.setattr(Permutation, "order", spy)
    assert sylow_subgroup(symmetric(6), 2).order() == 16
    assert len(calls) == 720


def test_sylow_rejects_non_prime():
    with pytest.raises(InputError):
        sylow_subgroup(symmetric(4), 4)


def test_sylow_characterization_over_sym4_classes():
    for cls in enumerate_subgroups_up_to_conjugacy(symmetric(4)):
        for p in prime_factors(cls.order):
            S = sylow_subgroup(cls.rep, p)
            assert S.order() == p_part(cls.order, p)
            assert (cls.order // S.order()) % p != 0
            assert S.is_subgroup_of(cls.rep)


def test_pi_core_examples():
    S4 = symmetric(4)
    assert pi_core(S4, {2}).order() == 4
    assert pi_core(S4, {3}).order() == 1
    assert pi_core(S4, {2, 3}).order() == 24


def test_pi_core_matches_normal_subgroup_scan_in_sym4():
    # independent oracle: normal subgroups of S4 are 1, V, A4, S4
    S4 = symmetric(4)
    normals = [cls.rep for cls in enumerate_subgroups_up_to_conjugacy(S4)
               if cls.class_size == 1]
    assert sorted(N.order() for N in normals) == [1, 4, 12, 24]
    for primes in [{2}, {3}, {2, 3}]:
        best = max((N for N in normals
                    if set(prime_factors(N.order())) <= primes),
                   key=lambda N: N.order())
        assert pi_core(S4, primes).equals(best)


def test_p_residual_examples():
    assert p_residual(symmetric(4), 2).order() == 12
    assert p_residual(symmetric(3), 2).order() == 3
    assert p_residual(dihedral(4), 2).order() == 1  # 2-group
    assert p_residual(cyclic(6), 2).order() == 3
    assert p_residual(cyclic(6), 5).order() == 6  # p does not divide


def test_p_residual_agrees_with_pprime_element_oracle():
    for cls in enumerate_subgroups_up_to_conjugacy(symmetric(4)):
        for p in (2, 3):
            assert p_residual(cls.rep, p).equals(p_residual_oracle(cls.rep, p))


def test_pprime_core_below_p_residual():
    # O_{p'}(G) <= O^p(G), equality iff O^p(G) has order coprime to p
    for G in [symmetric(3), symmetric(4), alternating(4), dihedral(6), cyclic(12)]:
        for p in prime_factors(G.order()):
            pprime = set(prime_factors(G.order())) - {p}
            core = pi_core(G, pprime)
            residual = p_residual(G, p)
            assert core.is_subgroup_of(residual)
            coprime = residual.order() % p != 0
            assert (core.order() == residual.order()) == coprime, (G, p)


def test_residual_is_normal_with_witness():
    G = symmetric(4)
    assert verify_normal(G, p_residual(G, 2))


def test_frattini_ranks():
    assert frattini_quotient_rank(dihedral(4), 2) == 2
    assert frattini_quotient_rank(symmetric(4), 2) == 1
    assert frattini_quotient_rank(cyclic(5), 2) == 0
    assert frattini_quotient_rank(klein(), 2) == 2
    assert frattini_quotient_rank(cyclic(8), 2) == 1


def klein():
    return PermGroup(4, [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])


def test_tate_examples():
    r = tate_check(symmetric(3), 2)
    assert r.hypothesis_holds and r.conclusion_holds
    r = tate_check(symmetric(4), 2)
    assert not r.hypothesis_holds and not r.conclusion_holds
    assert (r.frattini_rank_sylow, r.frattini_rank_group) == (2, 1)
    assert r.intersection_order == 4
    # p-groups: O^p trivial, hypothesis trivially true
    r = tate_check(dihedral(4), 2)
    assert r.hypothesis_holds and r.conclusion_holds and r.p_residual_order == 1


def test_tate_sweep_small_symmetric_groups():
    for n in range(2, 5):
        for cls in enumerate_subgroups_up_to_conjugacy(symmetric(n)):
            for p in prime_factors(cls.order):
                r = tate_check(cls.rep, p)
                assert not (r.hypothesis_holds and not r.conclusion_holds)


def test_p_residual_series_descends():
    from treeperm.series import p_residual_series
    series = p_residual_series(symmetric(4), 2)
    assert [N.order() for N in series] == [24, 12]
    series = p_residual_series(cyclic(12), 2)
    assert series[-1].order() == 3


def count_normality_witnesses(monkeypatch):
    from treeperm import cli, series
    calls = []

    def counted(G, N):
        calls.append(N.order())
        return verify_normal(G, N)

    # the CLI would see the wrapper too if it imported the check by name
    for module in (series, cli):
        monkeypatch.setattr(module, "verify_normal", counted, raising=False)
    return calls


def test_tate_check_runs_the_normality_witness_once(monkeypatch):
    calls = count_normality_witnesses(monkeypatch)
    r = tate_check(symmetric(5), 2)
    assert calls == [60]
    assert r.certificate.normal_verified


@pytest.mark.parametrize("kind, order", [("residual", 60), ("core", 1)])
def test_series_op_runs_the_normality_witness_once(monkeypatch, capsys, kind, order):
    from treeperm.cli import main
    calls = count_normality_witnesses(monkeypatch)
    assert main(["series", "op", "--group", "Sym(5)", "--kind", kind, "--p", "2"]) == 0
    assert calls == [order]
    assert '"normal_verified": true' in capsys.readouterr().out
