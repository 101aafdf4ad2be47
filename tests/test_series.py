"""Sylow subgroups, cores, residuals, Frattini ranks, Tate checks."""

from unittest import mock

import pytest

from scan_oracles import intersection_scan, pi_core_scan
from treeperm import series
from treeperm.config import DEFAULT_CAPS
from treeperm.errors import InputError, ResourceLimitError
from treeperm.groups import (PermGroup, alternating, cyclic, dihedral, klein4, named_group,
                             symmetric, trivial)
from treeperm.perms import Permutation, parse_cycles
from treeperm.series import (frattini_quotient_rank, is_prime, p_part, p_residual,
                             p_residual_oracle, pi_core, prime_factors,
                             sylow_subgroup, tate_check, verify_normal)
from treeperm.subgroups import enumerate_subgroups_up_to_conjugacy
from treeperm.wreath import wreath_tower


def test_prime_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(360) == [2, 3, 5]
    assert p_part(360, 2) == 8 and p_part(360, 3) == 9 and p_part(360, 7) == 1


def _trial_division_primes(limit):
    return [n for n in range(2, limit) if all(n % f for f in range(2, int(n ** 0.5) + 1))]


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(-3, 10 ** 5) if is_prime(n)] == _trial_division_primes(10 ** 5)


@pytest.mark.parametrize("n", [
    3215031751,                  # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,         # ... to the bases 2..23
    318665857834031151167461,    # ... to the bases 2..37: only base 41 exposes it
    (2 ** 89 - 1) * (2 ** 61 - 1),  # past the bound, a composite verdict is still a proof
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_decides_large_primes_below_the_bound():
    assert is_prime(1000000000000000003) and is_prime(2 ** 61 - 1)
    assert not is_prime(1000000000000000003 * 3)


@pytest.mark.parametrize("n", [
    2 ** 89 - 1,                 # a prime past the bound
    3317044064679887385961981,   # the bound: composite, yet strong to every base 2..41
])
def test_is_prime_refuses_probable_primes_past_the_bound(n):
    with pytest.raises(InputError) as info:
        is_prime(n)
    assert str(info.value) == (f"cannot prove {n} prime: Miller-Rabin on bases 2..41 "
                               "is exact only below 3317044064679887385961981")


def test_sylow_examples():
    assert sylow_subgroup(symmetric(3), 2).order() == 2
    S = sylow_subgroup(symmetric(4), 2)
    assert S.order() == 8 and symmetric(4).order() // S.order() == 3
    assert sylow_subgroup(trivial(1), 5).order() == 1
    assert sylow_subgroup(cyclic(6), 3).order() == 3
    assert sylow_subgroup(cyclic(3), 2).order() == 1  # p does not divide |G|


def test_sylow_orders_each_element_once(monkeypatch):
    # W_2(Sym(3)) at p = 3: the orbit of 0 has length 9, so the scan runs
    # over all 1 296 elements
    calls = []
    order = Permutation.order

    def spy(self):
        calls.append(self)
        return order(self)

    monkeypatch.setattr(Permutation, "order", spy)
    assert sylow_subgroup(wreath_tower(symmetric(3), 2).group, 3).order() == 81
    assert len(calls) == 1296


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


def _sylow_scan_oracle(G, p):
    """The greedy scan over every element of G, with no stabilizer reduction."""
    target = p_part(G.order(), p)
    if target == 1:
        return PermGroup(G.degree, [])
    p_elements = [x for x in G.elements() if x.order() > 1 and p_part(x.order(), p) == x.order()]
    S = PermGroup(G.degree, [max(p_elements, key=Permutation.order)])  # first of maximal order
    while S.order() < target:
        y = next(y for y in p_elements if not S.membership(y)
                 and all(S.membership(y * s * y.inverse()) for s in S.generators))
        S = PermGroup(G.degree, list(S.generators) + [y])
    return S


def _sylow_with_scan_spy(G, p):
    """sylow_subgroup(G, p), and whether it ran the greedy scan."""
    with mock.patch.object(series, "_sylow_scan", wraps=series._sylow_scan) as scan:
        return sylow_subgroup(G, p), scan.called


def _moved(G):
    return {i for g in G.generators for i, x in enumerate(g.images) if x != i}


def assert_is_sylow(G, p, S):
    """Chain order, p-part of |G| and closure count agree; S lies in G
    and moves only points that G moves."""
    assert S.order() == p_part(G.order(), p), (G.name, p)
    assert all(G.membership(g) for g in S.generators), (G.name, p)
    assert _moved(S) <= _moved(G), (G.name, p)
    if S.order() <= DEFAULT_CAPS.element_cap:
        assert len(S.elements()) == S.order(), (G.name, p)


def assert_sylow_matches_scan_oracle(G):
    """The scan's generators where sylow_subgroup scans; a checked Sylow
    subgroup where it takes the closed form for Sym or Alt."""
    for p in prime_factors(G.order()):
        got, scanned = _sylow_with_scan_spy(G, p)
        if scanned:
            assert [g.images for g in got.generators] == \
                [g.images for g in _sylow_scan_oracle(G, p).generators], (G.name, p)
        else:
            assert_is_sylow(G, p, got)


@pytest.mark.parametrize("n", range(2, 7))
def test_sylow_matches_scan_oracle_over_subgroup_classes(n):
    for cls in enumerate_subgroups_up_to_conjugacy(symmetric(n)):
        assert_sylow_matches_scan_oracle(cls.rep)


NAMED = {"Sym(7)": lambda: symmetric(7), "Alt(7)": lambda: alternating(7),
         "Sym(8)": lambda: symmetric(8), "Alt(8)": lambda: alternating(8),
         "W_2(Sym(3))": lambda: wreath_tower(symmetric(3), 2).group,
         "W_3(Sym(2))": lambda: wreath_tower(symmetric(2), 3).group,
         "W_2(Klein4)": lambda: wreath_tower(klein4(), 2).group}


@pytest.mark.parametrize("name", NAMED)
def test_sylow_matches_scan_oracle_on_named_groups(name):
    assert_sylow_matches_scan_oracle(NAMED[name]())


def test_sylow_matches_scan_oracle_on_random_groups():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    perms = lambda n: st.permutations(range(n)).map(Permutation)
    groups = st.integers(2, 7).flatmap(lambda n: st.lists(perms(n), min_size=1, max_size=3))

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(groups)
    def check(gens):
        assert_sylow_matches_scan_oracle(PermGroup(gens[0].degree, gens))

    check()


def test_sylow_scans_the_smallest_moved_point_stabilizer(monkeypatch):
    # W_2(Sym(3)) at p = 2: the orbit of 0 has length 9, prime to 2, so
    # the scan runs over the stabilizer of 0, Sym(2) x (Sym(3) wr Sym(2));
    # the orbit of 1 there has length 2
    seen = []
    elements = PermGroup.elements

    def spy(self, *args):
        out = elements(self, *args)
        seen.append(len(out))
        return out

    monkeypatch.setattr(PermGroup, "elements", spy)
    assert sylow_subgroup(wreath_tower(symmetric(3), 2).group, 2).order() == 16
    assert seen == [144]


def _legendre(m, p):
    """p-part of m!: p to the sum of floor(m / p^i)."""
    exponent, q = 0, p
    while q <= m:
        exponent += m // q
        q *= p
    return p ** exponent


@pytest.mark.parametrize("n", range(1, 13))
def test_sylow_of_sym_and_alt_in_closed_form(n):
    for G in (symmetric(n), alternating(n)):
        for p in (q for q in range(2, n + 1) if is_prime(q)):
            S, scanned = _sylow_with_scan_spy(G, p)
            assert not scanned, (G.name, p)
            halved = 2 if G.name.startswith("Alt") and p == 2 else 1
            assert S.order() == _legendre(n, p) // halved
            assert_is_sylow(G, p, S)


# Sym(4) and Alt(4) on the points 1, 2, 3, 5 (cycle notation) of 7
SPARSE = {"Sym(4) on 1,2,3,5": ["(1 2)", "(1 2 3 5)"],
          "Alt(4) on 1,2,3,5": ["(1 2 3)", "(2 3 5)"]}


@pytest.mark.parametrize("name", SPARSE)
def test_sylow_closed_form_on_a_sparse_support(name):
    G = PermGroup(7, [parse_cycles(c, 7) for c in SPARSE[name]], name=name)
    assert G.order() in (24, 12) and _moved(G) == {0, 1, 2, 4}
    for p in (2, 3):
        S, scanned = _sylow_with_scan_spy(G, p)
        assert not scanned
        assert_is_sylow(G, p, S)


# same order as Sym(3) or Sym(5), not Sym of the points they move
LOOKALIKES = {
    "regular Sym(3)": ["(1 2)(3 4)(5 6)", "(1 3 5)(2 6 4)"],
    # x -> x + 1, 2x, -1/x on the projective line over GF(5), ∞ = 1, x = x + 2
    "PGL(2,5) on 6 points": ["(2 3 4 5 6)", "(3 4 6 5)", "(1 2)(3 6)"],
}


@pytest.mark.parametrize("name", LOOKALIKES)
def test_sylow_lookalikes_of_sym_take_the_scan(name):
    G = PermGroup(6, [parse_cycles(c, 6) for c in LOOKALIKES[name]], name=name)
    assert G.order() in (6, 120) and G.is_transitive()
    assert all(_sylow_with_scan_spy(G, p)[1] for p in prime_factors(G.order()))
    assert_sylow_matches_scan_oracle(G)


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


# every (group, prime) pair of these groups at p = 2, 3, 5 and 7
CORE_CORPUS = ([f"Sym({n})" for n in range(2, 8)] + [f"Alt({n})" for n in range(3, 8)]
               + [f"Dih({n})" for n in (3, 4, 5, 6, 8, 9, 10, 12)]
               + [f"Cyc({n})" for n in (4, 6, 8, 9)] + ["Klein4", "F20"])


@pytest.mark.parametrize("spec", CORE_CORPUS)
def test_pi_core_of_one_prime_matches_the_scan_of_the_group(spec):
    # O_p(G) from a Sylow subgroup's elements keeps the generators that
    # the scan of all of G keeps
    G = named_group(spec)
    for p in (2, 3, 5, 7):
        core, oracle = pi_core(G, {p}), pi_core_scan(G, {p})
        assert core.generators == oracle.generators, (spec, p)
        assert core.order() == oracle.order(), (spec, p)


def test_pi_core_of_several_primes_matches_the_scan_of_the_group():
    for spec in ["Sym(4)", "Dih(6)", "Dih(12)", "Cyc(6)", "Alt(5)"]:
        G = named_group(spec)
        for primes in ({2, 3}, {2, 5}, {3, 5}):
            assert pi_core(G, primes).generators == pi_core_scan(G, primes).generators


def test_pi_core_of_one_prime_scans_only_a_sylow_subgroup():
    # |Sym(9)| = 362 880 is past the element cap; its Sylow subgroups are not
    G = symmetric(9)
    assert pi_core(G, {2}).order() == pi_core(G, {3}).order() == 1
    with pytest.raises(ResourceLimitError, match="element enumeration"):
        pi_core(G, {2, 3})


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
    # |S ∩ O^p(G)|, read off |S|·|O^p(G)| / |G|, against a scan of S
    pairs = 0
    for n in range(2, 7):
        for cls in enumerate_subgroups_up_to_conjugacy(symmetric(n)):
            for p in prime_factors(cls.order):
                r = tate_check(cls.rep, p)
                assert not (r.hypothesis_holds and not r.conclusion_holds)
                S, N = sylow_subgroup(cls.rep, p), p_residual(cls.rep, p)
                assert r.intersection_order == intersection_scan(S, N).order()
                pairs += 1
    assert pairs == 142


@pytest.mark.parametrize("last, product", [
    ("(1 2)(3 4)", 16),          # not normal in Sym(4)
    ("(1 2)(3 4); (1 3)(2 4)", 32),  # normal, but of index 6 in Sym(4)
])
def test_tate_refuses_a_residual_that_is_not_o_p(monkeypatch, last, product):
    # Sym(4) > Alt(4) > a residual that is not O^2: |S|·|N| = 8·|N|
    # is no multiple of 24
    fake = PermGroup(4, [parse_cycles(c, 4) for c in last.split("; ")])
    real = series.p_residual_series
    monkeypatch.setattr(series, "p_residual_series", lambda G, p: real(G, p) + [fake])
    with pytest.raises(AssertionError, match=rf"= {product} is not a multiple of \|G\| = 24"):
        tate_check(symmetric(4), 2)


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
