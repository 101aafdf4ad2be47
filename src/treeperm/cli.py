"""Unified command-line interface.

JSON is the only machine output; every report carries tool version,
caps, seed, and wall time.  Identical invocations (same inputs and
seed) produce identical JSON apart from the wall_time_ms field.
Exit codes: 0 success, 2 criteria hypotheses not applicable, 1 error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

from . import acceptance
from .config import DEFAULT_CAPS, DEFAULT_SEED, TOOL_VERSION, Caps
from .criteria import evaluate, survey
from .errors import InputError, ResourceLimitError, read_input_file
from .groups import PermGroup, parse_group_spec
from .lattice import cone_bits, lattice_sweep, rist
from .localact import (ball_stabilizer_group, defect_set, edge_ball_group,
                       is_ball_automorphism)
from .perms import Permutation
from .series import (parse_prime_set, p_part, p_residual_series, pi_core,
                     sylow_subgroup, tate_check, SeriesCertificate)
from .treeball import (ball_to_json, build_ball, coloring_from_json, is_legal,
                       is_valid_coloring, legal_coloring)
from .wreath import WreathTower, direct_square, sylow_tower, wreath_tower


def _read_json(spec: str, flag: str) -> dict:
    """JSON object from a `file:<path>` spec or inline text."""
    text = read_input_file(spec[5:], flag) if spec.startswith("file:") else spec
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InputError(f"{flag}: bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{flag}: expected a JSON object")
    return data


def _cap_flag(name: str) -> str:
    """The flag of the `Caps` field `name`: `pair_cap` is the sweep's --max-pairs."""
    return "--max-pairs" if name == "pair_cap" else "--" + name.replace("_", "-")


def _caps_from_args(args: argparse.Namespace) -> Caps:
    """Caps with the flags given; a negative cap is an input error (0 is legal)."""
    caps = DEFAULT_CAPS.with_overrides(
        **{f.name: getattr(args, f.name, None) for f in fields(Caps)})
    for name, value in vars(caps).items():
        if value < 0:
            raise InputError(f"{_cap_flag(name)} must be non-negative, got {value}")
    return caps


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _plain(o: object) -> dict:
    """JSON hook: a dataclass instance prints as the dict of its fields,
    their names read once per dataclass type."""
    if is_dataclass(o) and not isinstance(o, type):
        return {name: getattr(o, name) for name in _field_names(type(o))}
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def emit(result: object, args: argparse.Namespace, caps: Caps, t0: float) -> None:
    """Write `result` in its JSON envelope, or as it is if it is text (a
    rendered table), to the `--out` file or to stdout."""
    text = result
    if not isinstance(result, str):
        envelope = {
            "tool_version": TOOL_VERSION,
            "seed": args.seed,
            "caps": caps,
            "wall_time_ms": int((time.perf_counter() - t0) * 1000),
            "result": result,
        }
        text = json.dumps(envelope, indent=2, sort_keys=True, default=_plain) + "\n"
    out = getattr(args, "out", None)
    if out:
        outdir = os.environ.get("TREEPERM_OUTDIR")
        path = Path(outdir) / out if outdir else Path(out)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        except OSError as exc:
            raise InputError(f"--out: cannot write {path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _group_summary(G: PermGroup) -> dict:
    return {
        "degree": G.degree,
        "order": G.order(),
        "generators": [g.cycle_string() for g in G.generators],
    }


# -- subcommand handlers -----------------------------------------------------

def cmd_criteria_check(args, caps) -> tuple[object, int]:
    F = parse_group_spec(args.F)
    Fp = parse_group_spec(args.Fprime)
    report = evaluate(args.d, F, Fp)
    return report, 0 if report.sandwich_ok else 2


def render_survey_table(doc: dict) -> str:
    """Aligned text view of a survey document, whose rows are `SurveyRow`s
    (derived, never recomputed)."""
    header = ["label", "order", "classes", "transitive", "free", "gen_by_stabs",
              "nondiscrete", "virt_simple", "in_R", "eta"]
    lines = [header]
    for row in doc["rows"]:
        facts = row.report.facts
        verdicts = {v.name: v.value for v in row.report.verdicts}
        lines.append([
            row.label, str(row.order), str(row.class_size),
            str(facts["Fp_transitive"]), str(facts["Fp_free"]),
            str(facts["Fp_gen_by_stabs"]), str(verdicts["Gc_nondiscrete"]),
            str(verdicts["Gc_virtually_simple"]), str(verdicts["Gc_in_R"]),
            ",".join(str(p) for p in row.report.eta) or "-",
        ])
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
                     for line in lines) + "\n"


def cmd_criteria_survey(args, caps) -> tuple[dict | str, int]:
    rows = survey(args.d, transitive_only=args.transitive_only, caps=caps)
    doc = {"d": args.d, "transitive_only": args.transitive_only,
           "rows": rows}
    return (render_survey_table(doc) if args.format == "table" else doc), 0


def cmd_wreath_build(args, caps) -> tuple[dict, int]:
    base = parse_group_spec(args.base)
    result: dict = {"base": _group_summary(base), "depth": args.depth}
    if args.sylow is not None:
        tower, ambient = sylow_tower(base, args.sylow, args.depth, caps)
        result["sylow_p"] = args.sylow
        result["ambient_order"] = ambient.group.order()
        # sylow_tower raises unless both hold
        result["certified"] = {"containment": True, "order_is_p_part": True}
    else:
        tower = wreath_tower(base, args.depth, caps)
        # the tower's chain, built below, raises in PermGroup.chain short of the order law
        result["certified"] = {"order_law": True}
    group = tower.group
    if args.square:
        group = direct_square(tower, caps)
        result["square"] = True
    result["order"] = group.order()
    result["degree"] = group.degree
    result["generator_count"] = len(group.generators)
    return result, 0


def cmd_tree_ball(args, caps) -> tuple[dict, int]:
    ball = build_ball(args.d, args.radius, args.center, caps)
    color = args.color
    if color == "legal":
        ball = legal_coloring(ball)
    elif color.startswith("file:"):
        ball = coloring_from_json(ball, _read_json(color, "--color"))
    elif color != "none":
        raise InputError(f"--color must be 'legal', 'none', or 'file:<path>', got {color!r}")
    doc = ball_to_json(ball)
    if ball.is_colored():
        valid, v_witness = is_valid_coloring(ball)
        legal, l_witness = is_legal(ball)
        doc["valid"] = valid
        doc["legal"] = legal
        if v_witness or l_witness:
            doc["witness"] = v_witness or l_witness
    doc["n_vertices"] = ball.n_vertices
    return doc, 0


def cmd_ball_group(args, caps) -> tuple[dict, int]:
    F = parse_group_spec(args.F)
    ball = legal_coloring(build_ball(args.d, args.radius, args.center, caps))
    build = ball_stabilizer_group if args.center == "vertex" else edge_ball_group
    B = build(ball, F, caps)
    order = B.order()
    result = {
        "order": order,
        "enumerated": B.enumerated_count,
        "formula_order": B.formula_count,
        "match": order == B.formula_count,
        "generators": [g.cycle_string() for g in B.group.generators],
    }
    if B.type_preserving is not None:
        tp_order = B.type_preserving.order()
        result["type_preserving_order"] = tp_order
        result["type_preserving_index"] = order // tp_order
    return result, 0


def cmd_ball_defects(args, caps) -> tuple[object, int]:
    F = parse_group_spec(args.F)
    Fp = parse_group_spec(args.Fprime)
    ball = legal_coloring(build_ball(args.d, args.radius, "vertex", caps))
    images = _read_json(args.element, "--element").get("vertex_images")
    if not isinstance(images, list):
        raise InputError("--element: expected a 'vertex_images' list")
    if any(isinstance(x, bool) for x in images):
        raise InputError("--element: vertex images must be integers, not booleans")
    if len(images) != ball.n_vertices:
        raise InputError(
            f"element has {len(images)} vertex images, ball has {ball.n_vertices}")
    g = Permutation(images)
    if not is_ball_automorphism(ball, g):
        raise InputError("element is not an automorphism of the ball: "
                         "it must fix the center and preserve adjacency")
    return defect_set(ball, g, F, Fp), 0


def cmd_tate_verify(args, caps) -> tuple[object, int]:
    G = parse_group_spec(args.group)
    return tate_check(G, args.p, caps), 0


def cmd_series_op(args, caps) -> tuple[dict, int]:
    if args.pi is not None and args.kind != "core":
        raise InputError(f"--pi applies to --kind core only, not --kind {args.kind}")
    if args.pi is not None and args.p is not None:
        raise InputError("--kind core takes --pi or --p, not both")
    G = parse_group_spec(args.group)
    if args.kind == "sylow":
        if args.p is None:
            raise InputError("--p is required for --kind sylow")
        H = sylow_subgroup(G, args.p, caps)
        kind, normal = "sylow_p", False
        details = {"p": args.p, "p_part": p_part(G.order(), args.p),
                   "index_coprime_to_p": (G.order() // H.order()) % args.p != 0}
    elif args.kind == "core":
        if args.pi is not None:
            primes = parse_prime_set(args.pi)
        elif args.p is not None:
            primes = frozenset({args.p})
        else:
            raise InputError("--pi or --p is required for --kind core")
        H = pi_core(G, primes, caps)
        kind, normal = "pi_core", True  # pi_core raised otherwise
        details = {"pi": sorted(primes)}
    else:  # residual: argparse admits no other --kind
        if args.p is None:
            raise InputError("--p is required for --kind residual")
        series = p_residual_series(G, args.p)
        H = series[-1]
        kind, normal = "p_residual", True  # p_residual_series raised otherwise
        details = {"p": args.p, "quotient_order": G.order() // H.order(),
                   "series_orders": [N.order() for N in series]}
    cert = SeriesCertificate(kind=kind, group_order=G.order(), subgroup_order=H.order(),
                             normal_verified=normal, details=details)
    return {"kind": args.kind, "subgroup": _group_summary(H),
            "certificate": cert}, 0


def _parse_tower(spec: str, caps: Caps) -> WreathTower:
    base_spec, sep, depth = spec.rpartition(":")
    if not sep:
        raise InputError("tower spec is <base>:<depth>, e.g. Klein4:2")
    try:
        n = int(depth)
    except ValueError as exc:
        raise InputError(f"bad tower depth {depth!r} in {spec!r}") from exc
    return wreath_tower(parse_group_spec(base_spec), n, caps)


def _parse_subset(T: WreathTower, spec: str) -> int:
    """Cone-union spec: comma-separated vertex paths of 1-based child
    indices ('1.2'), 'root' for everything, '' for empty; leading '~'
    complements the union."""
    full = cone_bits(T, ())
    text = spec.strip()
    complement = text.startswith("~")
    if complement:
        text = text[1:]
    bits = 0
    for token in filter(None, (t.strip() for t in text.split(","))):
        if token == "root":
            bits |= full
            continue
        try:
            path = tuple(int(x) - 1 for x in token.split("."))
        except ValueError as exc:
            raise InputError(f"bad cone path {token!r}") from exc
        try:
            bits |= cone_bits(T, path)
        except InputError as exc:
            raise InputError(f"cone path {token!r} is not a vertex of the depth-{T.depth} "
                             f"tree (child indices 1..{T.arity})") from exc
    return full ^ bits if complement else bits


def cmd_lattice_rist(args, caps) -> tuple[dict, int]:
    T = _parse_tower(args.tower, caps)
    bits = _parse_subset(T, args.subset)
    R = rist(T, bits, caps)
    return {
        "tower": {"base_order": T.base.order(), "depth": T.depth, "leaves": T.leaf_count},
        "subset_leaves": [i for i in range(T.leaf_count) if bits >> i & 1],
        "rist": _group_summary(R),
    }, 0


def cmd_lattice_sweep(args, caps) -> tuple[dict, int]:
    T = _parse_tower(args.tower, caps)
    checks = lattice_sweep(T, caps)
    return {
        "tower": {"base_order": T.base.order(), "depth": T.depth, "leaves": T.leaf_count},
        "pairs_checked": len(checks),
        "all_meet_identities_hold": all(c.meet_identity_holds for c in checks),
        "all_disjoint_pairs_commute": all(c.disjoint_commutes for c in checks if c.disjoint),
        "checks": checks,
    }, 0


def cmd_selftest(args, caps) -> tuple[dict, int]:
    results = acceptance.run_all(caps, args.seed)
    ok = all(r.ok and r.within_budget for r in results)
    return {
        "criteria": [{"name": r.name, "ok": r.ok, "within_budget": r.within_budget,
                      "detail": r.detail}
                     for r in results],
        "all_pass": ok,
    }, 0 if ok else 1


# -- parser ---------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for randomized property checks")
    p.add_argument("--out", help="write the output here instead of stdout "
                                 "(TREEPERM_OUTDIR prefixes the path)")
    for f in fields(Caps):
        if f.name != "pair_cap":
            p.add_argument(_cap_flag(f.name), type=int, dest=f.name)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `treeperm` argument parser, built on the first call.

    It is built once per process and shared by every later `main` call,
    so callers must not mutate it.  Its handlers are the `cmd_*`
    functions bound at that first call.
    """
    parser = argparse.ArgumentParser(
        prog="treeperm",
        description="Finite permutation-group toolkit for tree-local-action "
                    "criteria, wreath Sylow towers, and rigid-stabilizer lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    crit = sub.add_parser("criteria", help="theorem-backed criteria reports")
    crit_sub = crit.add_subparsers(dest="subcommand", required=True)
    c_check = crit_sub.add_parser("check", help="evaluate one (d, F, F') triple")
    c_check.add_argument("--d", type=int, required=True)
    c_check.add_argument("--F", required=True)
    c_check.add_argument("--Fprime", required=True)
    _add_common(c_check)
    c_check.set_defaults(handler=cmd_criteria_check)
    c_survey = crit_sub.add_parser("survey", help="sweep subgroup classes of Sym(d)")
    c_survey.add_argument("--d", type=int, required=True)
    c_survey.add_argument("--transitive-only", action="store_true")
    c_survey.add_argument("--format", choices=["json", "table"], default="json",
                          help="table is rendered from the JSON document")
    _add_common(c_survey)
    c_survey.set_defaults(handler=cmd_criteria_survey)

    wreath_p = sub.add_parser("wreath", help="iterated wreath towers")
    wreath_sub = wreath_p.add_subparsers(dest="subcommand", required=True)
    w_build = wreath_sub.add_parser("build", help="build W_n(F), optionally its Sylow tower")
    w_build.add_argument("--base", required=True)
    w_build.add_argument("--depth", type=int, required=True)
    w_build.add_argument("--sylow", type=int)
    w_build.add_argument("--square", action="store_true")
    _add_common(w_build)
    w_build.set_defaults(handler=cmd_wreath_build)

    tree_p = sub.add_parser("tree", help="tree balls and colorings")
    tree_sub = tree_p.add_subparsers(dest="subcommand", required=True)
    t_ball = tree_sub.add_parser("ball", help="build a colored ball")
    t_ball.add_argument("--d", type=int, required=True)
    t_ball.add_argument("--radius", type=int, required=True)
    t_ball.add_argument("--center", choices=["vertex", "edge"], default="vertex")
    t_ball.add_argument("--color", default="legal",
                        help="'legal' (default), 'none', or file:<path>")
    _add_common(t_ball)
    t_ball.set_defaults(handler=cmd_tree_ball)

    ball_p = sub.add_parser("ball", help="ball automorphism groups")
    ball_sub = ball_p.add_subparsers(dest="subcommand", required=True)
    b_group = ball_sub.add_parser("group", help="generate the panel-constrained ball group")
    b_group.add_argument("--d", type=int, required=True)
    b_group.add_argument("--radius", type=int, required=True)
    b_group.add_argument("--F", required=True)
    b_group.add_argument("--center", choices=["vertex", "edge"], default="vertex")
    _add_common(b_group)
    b_group.set_defaults(handler=cmd_ball_group)
    b_def = ball_sub.add_parser("defects", help="defect set of one element")
    b_def.add_argument("--d", type=int, required=True)
    b_def.add_argument("--radius", type=int, required=True)
    b_def.add_argument("--F", required=True)
    b_def.add_argument("--Fprime", required=True)
    b_def.add_argument("--element", required=True,
                       help="file:<path> or inline JSON with vertex_images")
    _add_common(b_def)
    b_def.set_defaults(handler=cmd_ball_defects)

    tate_p = sub.add_parser("tate", help="Tate normal p-complement checks")
    tate_sub = tate_p.add_subparsers(dest="subcommand", required=True)
    t_verify = tate_sub.add_parser("verify")
    t_verify.add_argument("--group", required=True)
    t_verify.add_argument("--p", type=int, required=True)
    _add_common(t_verify)
    t_verify.set_defaults(handler=cmd_tate_verify)

    series_p = sub.add_parser("series", help="Sylow / core / residual subgroups")
    series_sub = series_p.add_subparsers(dest="subcommand", required=True)
    s_op = series_sub.add_parser("op")
    s_op.add_argument("--group", required=True)
    s_op.add_argument("--kind", choices=["sylow", "core", "residual"], required=True)
    s_op.add_argument("--p", type=int)
    s_op.add_argument("--pi", help="prime set for --kind core, e.g. '2 3'")
    _add_common(s_op)
    s_op.set_defaults(handler=cmd_series_op)

    lat_p = sub.add_parser("lattice", help="rigid-stabilizer Boolean lattice")
    lat_sub = lat_p.add_subparsers(dest="subcommand", required=True)
    l_rist = lat_sub.add_parser("rist")
    l_rist.add_argument("--tower", required=True, help="<base>:<depth>, e.g. Klein4:2")
    l_rist.add_argument("--subset", required=True,
                        help="cone paths like '1,2.1'; 'root'; '~...' complements")
    _add_common(l_rist)
    l_rist.set_defaults(handler=cmd_lattice_rist)
    l_sweep = lat_sub.add_parser("sweep")
    l_sweep.add_argument("--tower", required=True)
    l_sweep.add_argument(_cap_flag("pair_cap"), type=int, dest="pair_cap", metavar="MAX_PAIRS")
    _add_common(l_sweep)
    l_sweep.set_defaults(handler=cmd_lattice_sweep)

    st = sub.add_parser("selftest", help="run the acceptance suite")
    _add_common(st)
    st.set_defaults(handler=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        caps = _caps_from_args(args)
        result, code = args.handler(args, caps)
        emit(result, args, caps, t0)
    except (InputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
