"""Sylow subgroups, pi-cores, p-residuals, Frattini-quotient ranks, and
the finite Tate normal p-complement check.

Every computed subgroup carries a certificate re-checkable by
conjugation sifting; nothing is reported normal without a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import DEFAULT_CAPS, Caps
from .errors import InputError
from .groups import PermGroup
from .perms import Permutation, commutator


# -- prime helpers -----------------------------------------------------------

def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def p_part(n: int, p: int) -> int:
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def parse_prime_set(text: str) -> frozenset[int]:
    try:
        primes = frozenset(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise InputError(f"prime set must be integers, got {text!r}") from exc
    for p in primes:
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
    return primes


# -- certificates ------------------------------------------------------------

@dataclass
class SeriesCertificate:
    """Audit record for a computed characteristic/normal subgroup."""

    kind: str
    group_order: int
    subgroup_order: int
    normal_verified: bool
    details: dict = field(default_factory=dict)
    index: int = field(init=False)

    def __post_init__(self) -> None:
        self.index = self.group_order // self.subgroup_order


def verify_normal(G: PermGroup, N: PermGroup) -> bool:
    """Conjugation sift: every generator conjugate lands back in N."""
    return all(N.membership(g * x * g.inverse())
               for x in N.generators for g in G.generators)


# -- Sylow subgroups ---------------------------------------------------------

def sylow_subgroup(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """A p-Sylow subgroup by greedy closure of normalizing p-elements.

    Starts from a p-element of maximal order and repeatedly adjoins
    p-elements of the normalizer until the p-part of |G| is reached.
    Returns the trivial group when p does not divide |G|.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    target = p_part(G.order(), p)
    if target == 1:
        return PermGroup(G.degree, [], name=f"Sylow_{p}(trivial)")
    elements = G.elements(caps)
    p_elements = []
    best, best_order = None, 1
    for x in elements:
        o = x.order()
        if o > 1 and p_part(o, p) == o:
            p_elements.append(x)
            if o > best_order:
                best, best_order = x, o
    S = PermGroup(G.degree, [best])
    while S.order() < target:
        grew = False
        for y in p_elements:
            if S.membership(y):
                continue
            if all(S.membership(y * s * y.inverse()) for s in S.generators):
                S = PermGroup(G.degree, list(S.generators) + [y])
                grew = True
                break
        if not grew:
            raise AssertionError("Sylow greedy closure stalled below the p-part")
    if S.order() != target or (G.order() // S.order()) % p == 0:
        raise AssertionError("Sylow characterization failed")
    return S


# -- pi-core O_pi ------------------------------------------------------------

def pi_core(G: PermGroup, primes: frozenset[int] | set[int],
            caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Largest normal subgroup whose order has all prime divisors in `primes`.

    Join of the normal closures <<x>> that are pi-groups; every normal
    pi-subgroup is such a join, so the result is O_pi(G).
    """
    for p in primes:
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
    primes = frozenset(primes)
    elements = G.elements(caps)
    gens: list[Permutation] = []
    core = PermGroup(G.degree, [])
    for x in elements:
        if x.is_identity() or core.membership(x):
            continue
        if not set(prime_factors(x.order())) <= primes:
            continue
        ncl = G.normal_closure(PermGroup(G.degree, [x]))
        if set(prime_factors(ncl.order())) <= primes:
            gens.extend(ncl.generators)
            core = PermGroup(G.degree, gens)
    if not verify_normal(G, core):
        raise AssertionError("pi-core failed its normality witness")
    return core


# -- p-residual O^p ----------------------------------------------------------

def _agemo_commutator_step(N: PermGroup, p: int) -> PermGroup:
    """N^p [N,N]: derived subgroup joined with generator p-th powers."""
    derived = N.derived_subgroup()
    gens = list(derived.generators) + [g ** p for g in N.generators]
    return PermGroup(N.degree, gens)


def p_residual(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """O^p(G): limit of the descending series N_{i+1} = N_i^p [N_i, N_i]."""
    return p_residual_series(G, p, caps)[-1]


def p_residual_series(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> list[PermGroup]:
    """The whole descending series G = N_0 > N_1 > ... > O^p(G)."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    series = [G]
    while True:
        N = series[-1]
        K = _agemo_commutator_step(N, p)
        if K.order() == N.order():
            break
        index = N.order() // K.order()
        if p_part(index, p) != index:
            raise AssertionError("p-residual step must have p-power index")
        series.append(K)
    if not verify_normal(G, series[-1]):
        raise AssertionError("p-residual failed its normality witness")
    return series


def p_residual_oracle(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Independent definition: subgroup generated by all p'-order elements."""
    gens = [x for x in G.elements(caps)
            if not x.is_identity() and x.order() % p != 0]
    return PermGroup(G.degree, gens)


# -- Frattini-quotient rank --------------------------------------------------

def frattini_quotient_rank(G: PermGroup, p: int) -> int:
    """Rank r with |G / G^p[G,G]| = p^r (the quotient is elementary abelian)."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    return _log_p(G.order() // _agemo_commutator_step(G, p).order(), p)


def _log_p(index: int, p: int) -> int:
    """r with index == p^r, for the index of G^p[G,G] in G."""
    r = 0
    while index % p == 0:
        index //= p
        r += 1
    if index != 1:
        raise AssertionError("G^p[G,G] quotient was not a p-group")
    return r


# -- Tate check --------------------------------------------------------------

@dataclass
class TateReport:
    p: int
    group_order: int
    sylow_order: int
    frattini_rank_sylow: int
    frattini_rank_group: int
    p_residual_order: int
    intersection_order: int
    hypothesis_holds: bool
    conclusion_holds: bool
    certificate: SeriesCertificate


def tate_check(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> TateReport:
    """Finite Tate check at p.

    Hypothesis: the Frattini quotients of a p-Sylow subgroup S and of G
    have equal rank (elementary abelian p-groups are isomorphic iff
    their ranks agree).  Conclusion: S meets O^p(G) trivially.  The
    theorem promises hypothesis => conclusion.
    """
    S = sylow_subgroup(G, p, caps)
    rank_s = frattini_quotient_rank(S, p)
    # the series starts G > G^p[G,G], so its first index is the Frattini quotient
    series = p_residual_series(G, p, caps)
    rank_g = _log_p(G.order() // series[1].order(), p) if len(series) > 1 else 0
    residual = series[-1]
    inter = S.intersection(residual, caps)
    cert = SeriesCertificate(
        kind="tate",
        group_order=G.order(),
        subgroup_order=residual.order(),
        normal_verified=True,  # p_residual_series raises if its witness fails
        details={"p": p, "sylow_order": S.order(),
                 "sylow_index_coprime": (G.order() // S.order()) % p != 0},
    )
    return TateReport(
        p=p,
        group_order=G.order(),
        sylow_order=S.order(),
        frattini_rank_sylow=rank_s,
        frattini_rank_group=rank_g,
        p_residual_order=residual.order(),
        intersection_order=inter.order(),
        hypothesis_holds=rank_s == rank_g,
        conclusion_holds=inter.order() == 1,
        certificate=cert,
    )
