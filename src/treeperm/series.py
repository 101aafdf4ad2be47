"""Sylow subgroups, pi-cores, p-residuals, Frattini-quotient ranks, and
the finite Tate normal p-complement check.

Every computed subgroup carries a certificate re-checkable by
conjugation sifting; nothing is reported normal without a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

from .config import DEFAULT_CAPS, Caps
from .errors import InputError
from .groups import PermGroup
from .perms import Permutation, commutator


# -- prime helpers -----------------------------------------------------------

# Miller-Rabin on the primes 2..41 decides every n below _MR_BOUND
# (Sorenson-Webster 2015); a composite verdict is a proof at any size.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; a probable prime at or past `_MR_BOUND`
    is refused, since these bases no longer prove it prime."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= _MR_BOUND:
        raise InputError(f"cannot prove {p} prime: Miller-Rabin on bases 2..41 "
                         f"is exact only below {_MR_BOUND}")
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
    if not primes:
        raise InputError(f"prime set must name at least one prime, got {text!r}")
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
    """A p-Sylow subgroup: in closed form for Sym or Alt of the points
    moved, otherwise by greedy closure of normalizing p-elements.

    First reduces G to H (Seress, *Permutation Group Algorithms*, §4.7):
    while the smallest point b moved by H has an orbit of length prime
    to p, a Sylow p-subgroup of H_b is one of G, and H becomes H_b.

    If H moves m points and |H| is m! or m!/2, then H is Sym or Alt of
    those points, since Alt is the only subgroup of index 2 in Sym.  The
    Sylow subgroup is then built as in `_sym_sylow_generators` (sympy's
    `_sylow_alt_sym` cuts the points the same way), and its chain order,
    its structural order and the p-part of |G| must agree.

    Any other H is scanned: starting from a p-element of maximal order,
    the scan adjoins p-elements of the normalizer until the p-part of
    |G| is reached.  H fixes every point below b, so H_b leads H's sorted
    element list and, by induction, G's.  H holds a Sylow subgroup of G,
    so the first p-element of maximal order and, at each step, the first
    normalizing p-element outside S lie in that block, so a scan of all
    of G picks them too.  Returns the trivial group when p does not
    divide |G|.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    target = p_part(G.order(), p)
    if target == 1:
        return PermGroup(G.degree, [], name=f"Sylow_{p}(trivial)")
    H = G
    while True:
        support = sorted({i for g in H.generators for i, x in enumerate(g.images) if x != i})
        if len(H.orbit(support[0])) % p == 0:
            break
        H = H.point_stabilizer(support[0])
    full = factorial(len(support))
    if H.order() in (full, full // 2):
        gens, structural = _sym_sylow_generators(G.degree, support, p)
        if H.order() != full and p == 2:
            # Schreier generators of the even part, with transversal {1, t}
            t = next(g for g in gens if _is_odd(g))
            t_inv = t.inverse()
            gens = [h for g in gens for h in
                    ((g * t_inv, t * g) if _is_odd(g) else (g, t * g * t_inv))]
            structural //= 2
        S = PermGroup(G.degree, gens)
        if S.order() != structural or not all(G.membership(g) for g in S.generators):
            raise AssertionError(f"Sylow {p}-subgroup of Sym or Alt on {len(support)} points "
                                 f"has order {S.order()}, not {structural}, or escapes G")
    else:
        S = _sylow_scan(H, p, target, caps)
    if S.order() != target or (G.order() // S.order()) % p == 0:
        raise AssertionError("Sylow characterization failed")
    return S


def _sym_sylow_generators(degree: int, points: list[int], p: int
                          ) -> tuple[list[Permutation], int]:
    """Generators and order of a Sylow p-subgroup of Sym(points).

    With len(points) = sum a_k p^k in base p, the points are cut into
    a_k blocks of p^k consecutive points, largest blocks first.  A block
    gets the k generators of the iterated wreath product of C_p: the
    j-th cyclically shifts the p sub-blocks of size p^j inside the
    block's first p^(j+1) points.  The order is the product of the
    p^(a_k (p^k - 1)/(p - 1)).
    """
    digits = []
    m = len(points)
    while m:
        m, a = divmod(m, p)
        digits.append(a)
    gens, exponent, start = [], 0, 0
    for k in reversed(range(len(digits))):
        for _ in range(digits[k]):
            block = points[start:start + p ** k]
            start += p ** k
            exponent += (p ** k - 1) // (p - 1)
            for j in range(k):
                span, shift = p ** (j + 1), p ** j
                images = list(range(degree))
                for i in range(span):
                    images[block[i]] = block[(i + shift) % span]
                gens.append(Permutation(images))
    return gens, p ** exponent


def _is_odd(g: Permutation) -> bool:
    return sum(len(c) - 1 for c in g.cycles()) % 2 == 1


def _sylow_scan(H: PermGroup, p: int, target: int, caps: Caps) -> PermGroup:
    """Greedy closure over H's sorted elements: the first p-element of
    maximal order, then each first normalizing p-element outside S."""
    p_elements = []
    best, best_order = None, 1
    for x in H.elements(caps):
        o = x.order()
        if o > 1 and p_part(o, p) == o:
            p_elements.append(x)
            if o > best_order:
                best, best_order = x, o
    S = PermGroup(H.degree, [best])
    while S.order() < target:
        grew = False
        for y in p_elements:
            if S.membership(y):
                continue
            if all(S.membership(y * s * y.inverse()) for s in S.generators):
                S = PermGroup(H.degree, list(S.generators) + [y])
                grew = True
                break
        if not grew:
            raise AssertionError("Sylow greedy closure stalled below the p-part")
    return S


# -- pi-core O_pi ------------------------------------------------------------

def pi_core(G: PermGroup, primes: frozenset[int] | set[int],
            caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Largest normal subgroup whose order has all prime divisors in `primes`.

    Join of the normal closures <<x>> that are pi-groups; every normal
    pi-subgroup is such a join, so the result is O_pi(G).

    For one prime p the scan runs over a Sylow p-subgroup S, not over G
    (Seress §6.3): the x whose closure is a p-group are exactly the
    non-identity elements of O_p(G), and O_p(G) lies in S.  S's sorted
    elements are a subsequence of G's, so the scan keeps the generators
    that a scan of G keeps (`tests/scan_oracles.py` holds that scan).
    Several primes scan G.
    """
    for p in primes:
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
    primes = frozenset(primes)
    scanned = sylow_subgroup(G, next(iter(primes)), caps) if len(primes) == 1 else G
    gens: list[Permutation] = []
    core = PermGroup(G.degree, [])
    for x in scanned.elements(caps):
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


def p_residual(G: PermGroup, p: int) -> PermGroup:
    """O^p(G): limit of the descending series N_{i+1} = N_i^p [N_i, N_i]."""
    return p_residual_series(G, p)[-1]


def p_residual_series(G: PermGroup, p: int) -> list[PermGroup]:
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
    series = p_residual_series(G, p)
    rank_g = _log_p(G.order() // series[1].order(), p) if len(series) > 1 else 0
    residual = series[-1]
    # G/O^p(G) is a p-group, so S·O^p(G) = G and |S ∩ O^p(G)| = |S|·|O^p(G)| / |G|
    product = S.order() * residual.order()
    inter, rest = divmod(product, G.order())
    if rest:
        raise AssertionError(f"|S|·|O^p(G)| = {product} is not a multiple of |G| = {G.order()}")
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
        intersection_order=inter,
        hypothesis_holds=rank_s == rank_g,
        conclusion_holds=inter == 1,
        certificate=cert,
    )
