"""Seeded job batches for the four workloads, and the independent checks.

A workload is a list of strata.  Each stratum names a size class and
lists candidate jobs of about the same cost; the seed picks which
candidates run, never how many, so batches under different seeds cost
about the same.  No argv repeats within a batch, but jobs still share
sub-work such as the same base group or the same Sym(d).

Every expected value below comes from this file's own arithmetic
(group orders, tower and ball order laws, known class counts), never
from flags that treeperm reports about itself.  Nothing here imports
treeperm, so generating a batch costs the same on every commit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("towers", "lattice", "survey", "balls")


# -- group arithmetic ------------------------------------------------------------

def family_degree_order(spec: str) -> tuple[int, int]:
    """(degree, order) of the named families used in the pools."""
    if spec == "Klein4":
        return 4, 4
    if spec == "F20":
        return 5, 20
    head, n = spec[:-1].split("(")
    n = int(n)
    return n, {"Sym": math.factorial(n), "Alt": math.factorial(n) // 2,
               "Cyc": n, "Dih": 2 * n}[head]


def p_part(n: int, p: int) -> int:
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def primes_of(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def tower_order(base_order: int, d: int, n: int) -> int:
    """|W_n(F)| = |F|^((d^n - 1)/(d - 1))."""
    return base_order ** ((d ** n - 1) // (d - 1))


def p_residual_order(spec: str, p: int) -> int:
    """|O^p(G)| for Sym(n >= 2), Alt(n >= 5) and Dih(n)."""
    head = spec.split("(")[0]
    n, order = family_degree_order(spec)
    if head == "Sym":
        return order // 2 if p == 2 else order
    if head == "Alt" and n >= 5:
        return order
    if head == "Dih":
        return n // p_part(n, 2) if p == 2 else order
    raise ValueError(f"no residual law for {spec}")


def ball_interior(d: int, radius: int, center: str) -> int:
    """Interior vertices (distance < radius from the center) of a d-regular ball."""
    if center == "vertex":
        return 1 + sum(d * (d - 1) ** (j - 1) for j in range(1, radius))
    return 2 * sum((d - 1) ** j for j in range(radius))


def ball_group_order(spec: str, radius: int, center: str) -> int:
    """|F|·|F_a|^(m-1) for a vertex center, 2·|F_a|^m for an edge center (F transitive)."""
    d, order = family_degree_order(spec)
    m = ball_interior(d, radius, center)
    stab = order // d
    return order * stab ** (m - 1) if center == "vertex" else 2 * stab ** m


def cone_pool_size(d: int, n: int) -> int:
    """Size of the lattice sweep's cone-union pool: empty, full, then per
    level every union of that level's cones while they number <= 12,
    single cones otherwise."""
    leaves = d ** n
    pool = {0, (1 << leaves) - 1}
    for k in range(1, n + 1):
        width = d ** (n - k)
        cones = [((1 << width) - 1) << (i * width) for i in range(d ** k)]
        if len(cones) <= 12:
            for pick in range(1 << len(cones)):
                pool.add(sum(c for i, c in enumerate(cones) if pick >> i & 1))
        else:
            pool.update(cones)
    return len(pool)


# -- jobs -------------------------------------------------------------------------

@dataclass
class Job:
    """One CLI invocation (argv) or one acceptance criterion (name)."""

    stratum: str
    argv: list[str] | None = None
    criterion: str | None = None
    expect: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.argv) if self.argv else self.criterion

    def as_dict(self) -> dict:
        return {"stratum": self.stratum, "label": self.label, "expect": self.expect}


def crit(name: str) -> Job:
    return Job(stratum=name, criterion=name, expect={"kind": "criterion"})


def tower_job(base: str, depth: int, sylow: int | None = None, square: bool = False) -> Job:
    d, order = family_degree_order(base)
    expected = tower_order(order, d, depth)
    argv = ["wreath", "build", "--base", base, "--depth", str(depth)]
    if sylow is not None:
        argv += ["--sylow", str(sylow)]
        expected = p_part(expected, sylow)
    if square:
        argv.append("--square")
        expected *= expected
    return Job(stratum="", argv=argv,
               expect={"kind": "order", "order": expected,
                       "degree": d ** depth * (2 if square else 1)})


def sweep_job(tower: str, max_pairs: int | None = None) -> Job:
    base, depth = tower.rsplit(":", 1)
    d, _ = family_degree_order(base)
    size = cone_pool_size(d, int(depth))
    cap = 400 if max_pairs is None else max_pairs
    argv = ["lattice", "sweep", "--tower", tower]
    if max_pairs is not None:
        argv += ["--max-pairs", str(max_pairs)]
    return Job(stratum="", argv=argv,
               expect={"kind": "sweep", "pairs": min(cap, size * (size + 1) // 2)})


def rist_job(tower: str, k: int, m: int, rng: random.Random) -> Job:
    """rist of m whole cones at depth k, at most one per parent vertex, so
    its order is |W_{n-k}(F)|^m; the seed picks the cones."""
    base, depth = tower.rsplit(":", 1)
    n = int(depth)
    d, order = family_degree_order(base)
    paths = []
    for par in sorted(rng.sample(range(d ** (k - 1)), m)):
        v = par * d + rng.randrange(d)
        paths.append(".".join(str((v // d ** (k - 1 - j)) % d + 1) for j in range(k)))
    return Job(stratum="", argv=["lattice", "rist", "--tower", tower, "--subset", ",".join(paths)],
               expect={"kind": "rist", "order": tower_order(order, d, n - k) ** m,
                       "leaves": m * d ** (n - k)})


def survey_job(d: int, transitive_only: bool) -> Job:
    counts = {(4, False): 11, (5, False): 19, (6, False): 56,
              (4, True): 5, (5, True): 5, (6, True): 16}
    argv = ["criteria", "survey", "--d", str(d)] + (["--transitive-only"] if transitive_only else [])
    return Job(stratum="", argv=argv, expect={"kind": "rows", "rows": counts[(d, transitive_only)]})


def check_job(F: str, Fp: str) -> Job:
    d, _ = family_degree_order(F)
    return Job(stratum="", argv=["criteria", "check", "--d", str(d), "--F", F, "--Fprime", Fp],
               expect={"kind": "pair", "F_le_Fp": True, "Fp_transitive": True})


def tate_job(G: str, p: int) -> Job:
    _, order = family_degree_order(G)
    return Job(stratum="", argv=["tate", "verify", "--group", G, "--p", str(p)],
               expect={"kind": "tate", "group_order": order, "sylow_order": p_part(order, p)})


def series_job(G: str, kind: str, p: int) -> Job:
    _, order = family_degree_order(G)
    sub = p_part(order, p) if kind == "sylow" else p_residual_order(G, p)
    return Job(stratum="", argv=["series", "op", "--group", G, "--kind", kind, "--p", str(p)],
               expect={"kind": "series", "group_order": order, "subgroup_order": sub})


def ball_job(d: int, radius: int, F: str, center: str = "vertex") -> Job:
    argv = ["ball", "group", "--d", str(d), "--radius", str(radius), "--F", F]
    if center == "edge":
        argv += ["--center", "edge"]
    return Job(stratum="", argv=argv,
               expect={"kind": "ball", "order": ball_group_order(F, radius, center)})


# -- strata -------------------------------------------------------------------------
# (name, how many to pick, candidates).  Candidates of one stratum cost
# about the same.  Counts are set so that the median job (job_p50_ms)
# falls inside one stratum of near-equal jobs, not on a gap between cost
# classes.  No job takes much over 1 s, so one run fits enough batches
# for a median per job (see run.py); the heavier rows are listed in
# predictions.json.  Costs noted are rough, on a 2-core x86-64 VM with
# Python 3.11.

def _towers(rng: random.Random) -> list[tuple[str, int, list[Job]]]:
    return [
        # 27-32 leaves (~0.01-0.04 s)
        ("w27-plain", 2, [tower_job("Sym(3)", 3), tower_job("Cyc(3)", 3), tower_job("Sym(2)", 5)]),
        # 27-54 leaves through the Sylow path or squared (~0.07 s)
        ("w27", 2, [tower_job("Sym(3)", 3, 2), tower_job("Sym(3)", 3, 3),
                    tower_job("Cyc(3)", 3, square=True)]),
        ("criterion_04_wreath_sylow_tower", 1, [crit("criterion_04_wreath_sylow_tower")]),
        # 81 leaves, a light base (~0.11 s): one candidate, so that the
        # median job is Dih(4):3 under every seed
        ("w81-light", 1, [tower_job("Cyc(3)", 4)]),
        # 64 leaves (~0.12-0.14 s); Dih(4):3, the cheapest, is the median job
        ("w64", 3, [tower_job("Alt(4)", 3), tower_job("Dih(4)", 3), tower_job("Sym(2)", 6)]),
        # 54-125 leaves (~0.15-0.18 s)
        ("w125-light", 1, [tower_job("Cyc(5)", 3), tower_job("Sym(3)", 3, square=True)]),
        ("criterion_05_wreath_order_law", 1, [crit("criterion_05_wreath_order_law")]),
        # 64 leaves through the Sylow path (~0.3 s)
        ("w64-sylow", 1, [tower_job("Alt(4)", 3, 2), tower_job("Alt(4)", 3, 3)]),
        # 125 leaves: the largest-degree chain build in the batch (~0.8 s)
        ("w125", 1, [tower_job("Dih(5)", 3)]),
    ]


def _lattice(rng: random.Random) -> list[tuple[str, int, list[Job]]]:
    return [
        # seeded cone-union rists, fixed depth and cone count per tower
        ("rist-Cyc(3):3", 4, [rist_job("Cyc(3):3", 2, 2, rng) for _ in range(40)]),  # ~6 ms
        ("rist-Sym(2):4", 5, [rist_job("Sym(2):4", 3, 2, rng) for _ in range(40)]),  # ~6 ms
        ("rist-Sym(2):5", 5, [rist_job("Sym(2):5", 3, 3, rng) for _ in range(40)]),  # ~9 ms, median
        ("rist-Klein4:3", 3, [rist_job("Klein4:3", 2, 3, rng) for _ in range(40)]),  # ~12 ms
        # 400-pair sweeps of small towers (~0.3 s)
        ("sweep-small", 2, [sweep_job("Sym(3):2"), sweep_job("Cyc(3):3")]),
        ("criterion_10_no_cocompact", 1, [crit("criterion_10_no_cocompact")]),
        # the Klein4:3 sweep's first, coarsest pairs: exhaustive intersections
        # over the largest rists, the sift path (~0.4 s); the pair count is
        # fixed, since each further pair adds about 3% to the batch
        ("sweep-klein4-3", 1, [sweep_job("Klein4:3", 14)]),
    ]


def _survey(rng: random.Random) -> list[tuple[str, int, list[Job]]]:
    checks = [("Alt(4)", "Sym(4)"), ("Klein4", "Alt(4)"), ("Klein4", "Dih(4)"),
              ("Cyc(4)", "Dih(4)"), ("Dih(4)", "Sym(4)"), ("Cyc(4)", "Sym(4)"),
              ("Alt(5)", "Sym(5)"), ("Cyc(5)", "Dih(5)"), ("Dih(5)", "F20"),
              ("Cyc(5)", "Alt(5)"), ("Dih(5)", "Alt(5)"), ("F20", "Sym(5)"),
              ("Alt(6)", "Sym(6)"), ("Cyc(6)", "Dih(6)"), ("Dih(6)", "Sym(6)"),
              ("Cyc(6)", "Sym(6)")]
    tate_groups = ["Sym(4)", "Alt(4)", "Dih(4)", "Sym(5)", "Alt(5)", "Dih(5)",
                   "Dih(6)", "Dih(7)", "Dih(8)"]
    residual_groups = ["Sym(5)", "Alt(5)", "Dih(5)", "Sym(6)", "Alt(6)", "Dih(6)",
                       "Dih(7)", "Dih(8)", "Sym(7)", "Alt(7)", "Sym(8)"]

    def primes(G: str) -> list[int]:
        return primes_of(family_degree_order(G)[1])

    return [
        # small queries (~5-25 ms)
        ("tate", 2, [tate_job(G, p) for G in tate_groups for p in primes(G)]),
        ("check", 1, [check_job(F, Fp) for F, Fp in checks]),
        ("residual", 1, [series_job(G, "residual", p) for G in residual_groups
                         for p in primes(G)]),
        ("survey-d4", 1, [survey_job(4, False), survey_job(4, True)]),
        # ~0.1 s: Sym(5) surveys, small criteria and degree-7 Sylow scans; the median job
        ("survey-d5", 2, [survey_job(5, False), survey_job(5, True)]),
        ("sylow-deg7", 3, [series_job("Sym(7)", "sylow", p) for p in (3, 5, 7)]),
        *[(name, 1, [crit(name)]) for name in (
            "criterion_01_tate_sweep", "criterion_02_residual_oracle",
            "criterion_09_survey", "criterion_12_eta")],
    ]


def _balls(rng: random.Random) -> list[tuple[str, int, list[Job]]]:
    tiny = [ball_job(3, 2, "Sym(3)"), ball_job(3, 2, "Sym(3)", "edge"),
            ball_job(3, 3, "Cyc(3)"), ball_job(3, 3, "Cyc(3)", "edge"),
            ball_job(4, 2, "Alt(4)"), ball_job(4, 2, "Dih(4)"), ball_job(4, 2, "Cyc(4)"),
            ball_job(4, 3, "Klein4"), ball_job(4, 2, "Klein4", "edge"),
            ball_job(5, 2, "Dih(5)"), ball_job(5, 2, "Cyc(5)"), ball_job(5, 1, "Sym(5)")]
    return [
        # under 50 ms: tiny balls and criteria 7-8
        ("ball-tiny", 3, tiny),
        *[(name, 1, [crit(name)]) for name in (
            "criterion_07_ball_order_formula", "criterion_08_edge_ball_decomposition")],
        ("ball-1k", 1, [ball_job(4, 2, "Dih(4)", "edge"), ball_job(5, 1, "Sym(5)", "edge")]),
        # the ROADMAP row, d3 r3 vertex-centered (~60 ms): the median job
        ("ball-d3r3", 1, [ball_job(3, 3, "Sym(3)")]),
        # over 0.1 s: 2 000 to 33 000 grafts, and criterion 6's 16 000 samples
        ("ball-2k", 1, [ball_job(5, 2, "Dih(5)", "edge")]),
        ("ball-20k", 3, [ball_job(4, 2, "Sym(4)"), ball_job(4, 2, "Alt(4)", "edge"),
                         ball_job(5, 2, "F20")]),
        ("ball-d3r3-edge", 1, [ball_job(3, 3, "Sym(3)", "edge")]),
        ("criterion_06_cocycle", 1, [crit("criterion_06_cocycle")]),
    ]


_STRATA = {"towers": _towers, "lattice": _lattice, "survey": _survey, "balls": _balls}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's batch for this seed: per stratum, the seeded pick.

    A candidate is one job or a tuple of jobs picked together."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[Job] = []
    seen: set[str] = set()
    for name, count, candidates in _STRATA[workload](rng):
        unique: dict[tuple[str, ...], tuple[Job, ...]] = {}
        for cand in candidates:
            group = cand if isinstance(cand, tuple) else (cand,)
            labels = tuple(j.label for j in group)
            if not seen.intersection(labels):
                unique.setdefault(labels, group)
        if len(unique) < count:
            raise ValueError(f"stratum {name} has {len(unique)} distinct candidates, needs {count}")
        for group in rng.sample(list(unique.values()), count):
            for job in group:
                job.stratum = name
                seen.add(job.label)
                jobs.append(job)
    return jobs


# -- independent checks -----------------------------------------------------------------

def check(job: Job, code: int, result: dict | None, ok: bool | None = None) -> str | None:
    """Failure reason for one finished job, or None when it passed."""
    exp = job.expect
    if exp["kind"] == "criterion":
        return None if ok else "criterion did not return ok"
    if code != 0:
        return f"exit code {code}"
    if result is None:
        return "no JSON result"
    try:
        got, want = _observed(exp, result)
    except (KeyError, TypeError) as exc:
        return f"malformed result: missing or mistyped {exc}"
    return None if got == want else f"got {got}, want {want}"


def _observed(exp: dict, result: dict) -> tuple[object, object]:
    """(what the result shows, what this file's arithmetic expects)."""
    kind = exp["kind"]
    if kind == "order":
        got = (result["order"], result["degree"])
        want = (exp["order"], exp["degree"])
    elif kind == "rist":
        got = (result["rist"]["order"], len(result["subset_leaves"]))
        want = (exp["order"], exp["leaves"])
    elif kind == "sweep":
        bad = [c for c in result["checks"] if c["meet_rist_order"] != c["intersection_order"]]
        got = (result["pairs_checked"], len(result["checks"]), len(bad))
        want = (exp["pairs"], exp["pairs"], 0)
    elif kind == "rows":
        got, want = len(result["rows"]), exp["rows"]
    elif kind == "pair":
        facts = result["facts"]
        got = (facts["F_le_Fp"], facts["Fp_transitive"])
        want = (exp["F_le_Fp"], exp["Fp_transitive"])
    elif kind == "tate":
        got = (result["group_order"], result["sylow_order"],
               not result["hypothesis_holds"] or result["conclusion_holds"])
        want = (exp["group_order"], exp["sylow_order"], True)
    elif kind == "series":
        got = (result["certificate"]["group_order"], result["subgroup"]["order"])
        want = (exp["group_order"], exp["subgroup_order"])
    elif kind == "ball":
        got = (result["order"], result["enumerated"])
        want = (exp["order"], exp["order"])
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    return got, want
