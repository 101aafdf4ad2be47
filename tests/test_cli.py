"""CLI surface: subcommands, JSON determinism, exit codes, cap refusals."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from treeperm import groups
from treeperm.cli import _plain, build_parser, main
from treeperm.criteria import CriterionReport, SurveyRow, Verdict
from treeperm.groups import symmetric
from treeperm.localact import DefectReport
from treeperm.series import SeriesCertificate, TateReport, tate_check


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_json(text):
    return json.loads(text)


def strip_timing(doc):
    doc = dict(doc)
    doc.pop("wall_time_ms", None)
    return doc


def test_criteria_check_alt5_sym5(capsys):
    code, out, _ = run_cli(capsys, "criteria", "check", "--d", "5",
                           "--F", "Alt(5)", "--Fprime", "Sym(5)")
    assert code == 0
    doc = parse_json(out)
    verdicts = {v["name"]: v["value"] for v in doc["result"]["verdicts"]}
    assert verdicts["Gc_nondiscrete"] and verdicts["Gc_virtually_simple"] \
        and verdicts["Gc_in_R"]
    assert doc["result"]["eta"] == [2, 3]


def test_criteria_check_not_applicable_exit_code(capsys):
    code, out, _ = run_cli(capsys, "criteria", "check", "--d", "5",
                           "--F", "degree: 5\ngen: (1 2)", "--Fprime", "Sym(5)")
    assert code == 2
    assert not parse_json(out)["result"]["sandwich_ok"]


def test_wreath_build(capsys):
    code, out, _ = run_cli(capsys, "wreath", "build", "--base", "Klein4",
                           "--depth", "2")
    assert code == 0
    doc = parse_json(out)
    assert doc["result"]["order"] == 1024
    assert doc["result"]["certified"]["order_law"]


def test_wreath_build_sylow_square(capsys):
    code, out, _ = run_cli(capsys, "wreath", "build", "--base", "Alt(4)",
                           "--depth", "1", "--sylow", "2", "--square")
    assert code == 0
    doc = parse_json(out)
    assert doc["result"]["order"] == 16
    assert doc["result"]["certified"]["containment"]


def test_tree_ball(capsys):
    code, out, _ = run_cli(capsys, "tree", "ball", "--d", "3", "--radius", "2")
    assert code == 0
    doc = parse_json(out)
    assert doc["result"]["n_vertices"] == 10
    assert doc["result"]["valid"] and doc["result"]["legal"]
    assert len(doc["result"]["edges"]) == 18


def test_ball_group(capsys):
    code, out, _ = run_cli(capsys, "ball", "group", "--d", "3", "--radius", "2",
                           "--F", "Sym(3)")
    assert code == 0
    doc = parse_json(out)
    assert doc["result"]["order"] == 48
    assert doc["result"]["match"]


def test_edge_ball_group(capsys):
    code, out, _ = run_cli(capsys, "ball", "group", "--d", "3", "--radius", "1",
                           "--F", "Sym(3)", "--center", "edge")
    assert code == 0
    doc = parse_json(out)
    assert doc["result"]["type_preserving_index"] == 2


def test_ball_defects_inline_element(capsys):
    ident = list(range(10))
    code, out, _ = run_cli(capsys, "ball", "defects", "--d", "3", "--radius", "2",
                           "--F", "Alt(3)", "--Fprime", "Sym(3)",
                           "--element", json.dumps({"vertex_images": ident}))
    assert code == 0
    doc = parse_json(out)
    assert doc["result"]["defects"] == [] and doc["result"]["is_valid_element"]


def test_tate_verify(capsys):
    code, out, _ = run_cli(capsys, "tate", "verify", "--group", "Sym(4)", "--p", "2")
    assert code == 0
    doc = parse_json(out)
    assert not doc["result"]["hypothesis_holds"]
    assert doc["result"]["certificate"]["normal_verified"]


@pytest.mark.parametrize("argv", [
    ["tate", "verify", "--group", "Sym(5)", "--p", "1000000000000000003"],
    ["series", "op", "--group", "Sym(4)", "--kind", "core", "--pi", "1000000000000000003"],
], ids=["tate", "core"])
def test_large_prime_is_decided_at_once(capsys, argv):
    # a prime of 19 digits: trial division up to its square root would not finish
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and err == ""
    result = parse_json(out)["result"]
    assert (result.get("intersection_order") or result["subgroup"]["order"]) == 1


def test_series_ops(capsys):
    code, out, _ = run_cli(capsys, "series", "op", "--group", "Sym(4)",
                           "--kind", "sylow", "--p", "2")
    assert code == 0
    assert parse_json(out)["result"]["subgroup"]["order"] == 8
    code, out, _ = run_cli(capsys, "series", "op", "--group", "Sym(4)",
                           "--kind", "core", "--pi", "2")
    assert parse_json(out)["result"]["subgroup"]["order"] == 4
    code, out, _ = run_cli(capsys, "series", "op", "--group", "Sym(4)",
                           "--kind", "residual", "--p", "2")
    assert parse_json(out)["result"]["subgroup"]["order"] == 12


def test_report_keys_are_dataclass_fields(capsys):
    """Every report prints as the dict of the fields of the dataclass behind it."""
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    def result(*argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 2)
        return parse_json(out)["result"]

    tate = result("tate", "verify", "--group", "Sym(4)", "--p", "2")
    assert set(tate) == fields(TateReport)
    assert set(tate["certificate"]) == fields(SeriesCertificate)
    for kind in ("sylow", "core", "residual"):
        doc = result("series", "op", "--group", "Sym(4)", "--kind", kind, "--p", "2")
        assert set(doc["certificate"]) == fields(SeriesCertificate)
    check = result("criteria", "check", "--d", "4", "--F", "Sym(4)", "--Fprime", "Alt(4)")
    assert set(check) == fields(CriterionReport)
    assert all(set(v) == fields(Verdict) for v in check["verdicts"])
    for row in result("criteria", "survey", "--d", "3")["rows"]:
        assert set(row) == fields(SurveyRow)
        assert set(row["report"]) == fields(CriterionReport)
    element = json.dumps({"vertex_images": [0, 1, 2, 3, 5, 4, 6, 7, 8, 9]})
    defects = result("ball", "defects", "--d", "3", "--radius", "2", "--F", "Alt(3)",
                     "--Fprime", "Sym(3)", "--element", element)
    assert set(defects) == fields(DefectReport)


def test_json_hook_prints_dataclasses_as_asdict_does():
    report = tate_check(symmetric(4), 2)
    assert (json.dumps(report, indent=2, sort_keys=True, default=_plain)
            == json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    for bad in ({1, 2}, TateReport):
        with pytest.raises(TypeError):
            json.dumps(bad, default=_plain)
    # field names are read once per type, and each instance's values are its own
    reports = [DefectReport([1], []), DefectReport([], [2, 3])]
    assert ([json.dumps(r, sort_keys=True, default=_plain) for r in reports]
            == [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in reports])


def test_lattice_rist(capsys):
    code, out, _ = run_cli(capsys, "lattice", "rist", "--tower", "Sym(2):2",
                           "--subset", "1")
    assert code == 0
    doc = parse_json(out)
    assert doc["result"]["rist"]["order"] == 2
    assert doc["result"]["subset_leaves"] == [0, 1]


def test_lattice_rist_complements_a_subset(capsys):
    # a leading '~' complements the union after it; alone, the empty union
    def result(subset):
        code, out, _ = run_cli(capsys, "lattice", "rist", "--tower", "Sym(2):2",
                               "--subset", subset)
        assert code == 0
        return parse_json(out)["result"]

    assert result("~1") == result("2")
    assert result("~1")["subset_leaves"] == [2, 3]
    assert result("~") == result("root")
    assert result("~")["subset_leaves"] == [0, 1, 2, 3]


def test_lattice_sweep(capsys):
    code, out, _ = run_cli(capsys, "lattice", "sweep", "--tower", "Sym(2):2",
                           "--max-pairs", "20")
    assert code == 0
    doc = parse_json(out)
    assert doc["result"]["pairs_checked"] == 20
    assert doc["result"]["all_meet_identities_hold"]
    assert doc["result"]["all_disjoint_pairs_commute"]


def test_json_byte_determinism_modulo_wall_time(capsys):
    args = ("criteria", "check", "--d", "4", "--F", "Alt(4)", "--Fprime", "Sym(4)")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert strip_timing(parse_json(out1)) == strip_timing(parse_json(out2))
    assert json.dumps(strip_timing(parse_json(out1)), sort_keys=True) == \
        json.dumps(strip_timing(parse_json(out2)), sort_keys=True)


def test_survey_envelope_is_the_same_under_any_hash_seed():
    # string hashes change with the per-process hash seed, so an envelope
    # that leaned on the iteration order of a set or dict of strings would
    # differ between these two processes
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from treeperm.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "criteria", "survey", "--d", "5"],
            env=env, capture_output=True, text=True, check=True)
        outs.append(strip_timing(parse_json(proc.stdout)))
    assert outs[0] == outs[1]


def test_cap_refusal_names_cap_and_flag(capsys):
    code, out, err = run_cli(capsys, "wreath", "build", "--base", "Klein4",
                             "--depth", "2", "--leaf-cap", "4")
    assert code == 1
    assert "--leaf-cap" in err and "cap" in err and "16" in err


def test_unknown_flag_exits_nonzero(capsys):
    code = main(["wreath", "build", "--nope"])
    capsys.readouterr()
    assert code == 1


def test_bad_group_spec_is_input_error(capsys):
    code, _, err = run_cli(capsys, "tate", "verify", "--group", "Quat(8)", "--p", "2")
    assert code == 1 and "error" in err


def test_out_file_and_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TREEPERM_OUTDIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "series", "op", "--group", "Sym(3)",
                           "--kind", "sylow", "--p", "3", "--out", "r.json")
    assert code == 0 and out == ""
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["result"]["subgroup"]["order"] == 3


def test_survey_table_follows_out(tmp_path, monkeypatch, capsys):
    table = ["criteria", "survey", "--d", "3", "--format", "table"]
    _, shown, _ = run_cli(capsys, *table)
    monkeypatch.setenv("TREEPERM_OUTDIR", str(tmp_path))
    code, out, err = run_cli(capsys, *table, "--out", "t.txt")
    assert (code, out, err) == (0, "", "")
    assert (tmp_path / "t.txt").read_text() == shown
    (tmp_path / "dir").mkdir()
    code, out, err = run_cli(capsys, *table, "--out", "dir")
    assert (code, out) == (1, "")
    assert err == f"error: --out: cannot write {tmp_path / 'dir'}: Is a directory\n"


def test_selftest_json_carries_no_timing(monkeypatch, capsys):
    from treeperm import acceptance
    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        [acceptance.criterion_05_wreath_order_law, acceptance.criterion_12_eta])
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    body = out[out.index("{"):]
    entries = parse_json(body)["result"]["criteria"]
    assert [e["name"] for e in entries] == ["wreath-order-law", "eta-estimate"]
    for entry in entries:
        assert set(entry) == {"name", "ok", "within_budget", "detail"}


def test_tree_ball_from_coloring_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "tree", "ball", "--d", "3", "--radius", "1")
    doc = parse_json(out)["result"]
    # swap two outbound colors at the center: valid but illegal
    edges = doc["edges"]
    outbound = [e for e in edges if e["origin"] == 0]
    outbound[0]["color"], outbound[1]["color"] = outbound[1]["color"], outbound[0]["color"]
    path = tmp_path / "col.json"
    path.write_text(json.dumps({"d": 3, "radius": 1, "center": "vertex",
                                "edges": edges}))
    code, out, _ = run_cli(capsys, "tree", "ball", "--d", "3", "--radius", "1",
                           "--color", f"file:{path}")
    assert code == 0
    result = parse_json(out)["result"]
    assert result["valid"] and not result["legal"]
    assert "witness" in result


def test_survey_table_format(capsys):
    code, out, _ = run_cli(capsys, "criteria", "survey", "--d", "3",
                           "--transitive-only", "--format", "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("label")
    assert len(lines) == 3  # header + C3 + S3


DEFECTS = ["ball", "defects", "--d", "3", "--F", "Alt(3)", "--Fprime", "Sym(3)"]
COLOR_FILE = ["tree", "ball", "--d", "3", "--radius", "1", "--color", "file:{tmp}/input"]
TATE = ["tate", "verify", "--group", "Sym(3)", "--p", "2"]
BALL = ["ball", "group", "--d", "3", "--radius", "2", "--F", "Sym(3)"]

HUGE = 99999999999999999999  # past sys.maxsize, so no index can reach it

MALFORMED = {
    "element-bad-json": DEFECTS + ["--radius", "2", "--element", "{bad"],
    "element-missing-file": DEFECTS + ["--radius", "2", "--element",
                                       "file:/nonexistent.json"],
    "element-no-vertex-images": DEFECTS + ["--radius", "2", "--element", "{}"],
    "element-not-object": DEFECTS + ["--radius", "2", "--element", "[0, 1]"],
    "element-not-automorphism": DEFECTS + [
        "--radius", "2", "--element",
        json.dumps({"vertex_images": [0, 1, 2, 3, 6, 5, 4, 7, 8, 9]})],
    "element-moves-center": DEFECTS + [
        "--radius", "1", "--element", json.dumps({"vertex_images": [1, 0, 2, 3]})],
    "color-missing-file": ["tree", "ball", "--d", "3", "--radius", "2",
                           "--color", "file:/nonexistent.json"],
    "rist-bad-depth": ["lattice", "rist", "--tower", "Klein4:x", "--subset", "1"],
    "rist-subset-index-too-big": ["lattice", "rist", "--tower", "Klein4:2", "--subset", "9.9"],
    "rist-subset-index-zero": ["lattice", "rist", "--tower", "Klein4:2", "--subset", "0.1"],
    "sweep-bad-depth": ["lattice", "sweep", "--tower", "Klein4:x"],
    "triv-bad-argument": ["wreath", "build", "--base", "Triv(x)", "--depth", "2"],
    "pi-not-integer": ["series", "op", "--group", "Sym(4)", "--kind", "core",
                       "--pi", "2,x"],
    "pi-empty-comma": ["series", "op", "--group", "Sym(9)", "--kind", "core", "--pi", ","],
    "pi-empty-blank": ["series", "op", "--group", "Sym(9)", "--kind", "core", "--pi", " "],
    "pi-empty": ["series", "op", "--group", "Sym(9)", "--kind", "core", "--pi", ""],
    "color-edges-not-list": COLOR_FILE,
    "color-edge-not-object": COLOR_FILE,
    "color-id-is-list": COLOR_FILE,
    "color-not-integer": COLOR_FILE,
    "color-id-boolean": COLOR_FILE,
    "color-id-repeated": COLOR_FILE,
    "color-radius-boolean": COLOR_FILE,
    "color-d-float": COLOR_FILE,
    "group-file-is-directory": ["wreath", "build", "--base", "file:{tmp}", "--depth", "2"],
    "group-file-not-utf8": ["wreath", "build", "--base", "file:{tmp}/input", "--depth", "2"],
    "family-dih-too-small": ["tate", "verify", "--group", "Dih(2)", "--p", "2"],
    "family-sym-zero": ["tate", "verify", "--group", "Sym(0)", "--p", "2"],
    "family-cyc-zero": ["tate", "verify", "--group", "Cyc(0)", "--p", "2"],
    "family-bad-argument": ["tate", "verify", "--group", "Sym(x)", "--p", "2"],
    "unknown-group-spec": ["tate", "verify", "--group", "Foo(3)", "--p", "2"],
    "ball-radius-20000": ["ball", "group", "--d", "3", "--radius", "20000", "--F", "Sym(3)"],
    "ball-radius-999999": ["ball", "group", "--d", "3", "--radius", "999999", "--F", "Sym(3)"],
    "ball-order-1850-digits": ["ball", "group", "--d", "3", "--radius", "12", "--F", "Sym(3)"],
    "tree-vertex-cap-4300-digits": ["tree", "ball", "--d", "3", "--radius", "20000",
                                    "--tree-vertex-cap", "9" * 4300],
    "out-under-a-file": ["tate", "verify", "--group", "Sym(3)", "--p", "2",
                         "--out", "{tmp}/input/x.json"],
    "out-is-a-directory": ["tate", "verify", "--group", "Sym(3)", "--p", "2",
                           "--out", "{tmp}"],
    "group-file-repeated-point": ["wreath", "build", "--base", "file:{tmp}/input",
                                  "--depth", "2"],
    "group-file-repeated-fixed-point": ["wreath", "build", "--base", "file:{tmp}/input",
                                        "--depth", "2"],
    "defects-F-degree-mismatch": [
        "ball", "defects", "--d", "3", "--radius", "2", "--F", "Sym(4)", "--Fprime", "Sym(4)",
        "--element", json.dumps({"vertex_images": [0, 1, 2, 3, 5, 4, 6, 7, 8, 9]})],
    "defects-Fprime-degree-mismatch": [
        "ball", "defects", "--d", "3", "--radius", "2", "--F", "Sym(3)", "--Fprime", "Sym(4)",
        "--element", json.dumps({"vertex_images": [0, 1, 2, 3, 5, 4, 6, 7, 8, 9]})],
    "element-boolean-image": DEFECTS + [
        "--radius", "1", "--element", json.dumps({"vertex_images": [0, True, 2, 3]})],
    "element-cap-negative": TATE + ["--element-cap", "-5"],
    "subgroup-cap-negative": ["criteria", "survey", "--d", "4", "--subgroup-cap", "-3"],
    "leaf-cap-negative": ["wreath", "build", "--base", "Klein4", "--depth", "2",
                          "--leaf-cap", "-1"],
    "ball-order-cap-negative": BALL + ["--ball-order-cap", "-1"],
    "ball-vertex-cap-negative": BALL + ["--ball-vertex-cap", "-7"],
    "tree-vertex-cap-negative": ["tree", "ball", "--d", "3", "--radius", "2",
                                 "--tree-vertex-cap", "-2"],
    "max-pairs-negative": ["lattice", "sweep", "--tower", "Sym(2):2", "--max-pairs", "-1"],
    "tate-prime-past-the-bound": ["tate", "verify", "--group", "Sym(3)",
                                  "--p", str(2 ** 89 - 1)],
    "core-prime-past-the-bound": ["series", "op", "--group", "Sym(4)", "--kind", "core",
                                  "--pi", f"2,{2 ** 89 - 1}"],
    "tate-composite-past-the-bound": ["tate", "verify", "--group", "Sym(3)",
                                      "--p", str((2 ** 89 - 1) * (2 ** 61 - 1))],
    "group-file-repeated-degree": ["series", "op", "--group", "degree: 3\ndegree: 4\ngen: (1 2)",
                                   "--kind", "sylow", "--p", "2"],
    "group-file-degree-after-gen": ["series", "op", "--group", "degree: 3\ngen: (1 2)\ndegree: 4",
                                    "--kind", "sylow", "--p", "2"],
    "sylow-with-pi": ["series", "op", "--group", "Sym(4)", "--kind", "sylow", "--p", "2",
                      "--pi", "3"],
    "residual-with-pi": ["series", "op", "--group", "Sym(4)", "--kind", "residual", "--p", "2",
                         "--pi", "3"],
    "core-with-p-and-pi": ["series", "op", "--group", "Sym(4)", "--kind", "core", "--p", "2",
                           "--pi", "3"],
    "family-degree-past-maxsize": ["series", "op", "--group", f"Sym({HUGE})",
                                   "--kind", "residual", "--p", "2"],
    "group-file-degree-past-maxsize": ["series", "op", "--group", f"degree: {HUGE}\ngen: ()",
                                       "--kind", "residual", "--p", "2"],
    "wreath-base-degree-past-maxsize": ["wreath", "build", "--base", f"Sym({HUGE})",
                                        "--depth", "1"],
    "check-F-degree-past-maxsize": ["criteria", "check", "--d", "3", "--F", f"Cyc({HUGE})",
                                    "--Fprime", "Sym(3)"],
}

# exact stderr where the message itself is pinned: a named family's own
# complaint passes through, an unknown spec keeps the generic line, and a
# bad cone path is echoed as the 1-based token typed
ERROR_TEXT = {
    "rist-subset-index-too-big":
        "error: cone path '9.9' is not a vertex of the depth-2 tree (child indices 1..4)\n",
    "rist-subset-index-zero":
        "error: cone path '0.1' is not a vertex of the depth-2 tree (child indices 1..4)\n",
    "family-dih-too-small": "error: Dih(n) needs n >= 3, got 2\n",
    "family-sym-zero": "error: degree must be positive, got 0\n",
    "family-cyc-zero": "error: Cyc(n) needs n >= 1, got 0\n",
    "family-bad-argument": "error: bad family argument in 'Sym(x)'\n",
    "unknown-group-spec": "error: not a recognized group spec: 'Foo(3)'\n",
    # a huge radius is refused at the first sphere that passes the cap
    "ball-radius-20000": "error: tree vertices (radius 16 of 20000) cap exceeded: "
                         "requested 196606, cap 100000 (raise with --tree-vertex-cap)\n",
    "ball-radius-999999": "error: tree vertices (radius 16 of 999999) cap exceeded: "
                          "requested 196606, cap 100000 (raise with --tree-vertex-cap)\n",
    # sizes of a thousand digits or more print as the power of two below them
    "ball-order-1850-digits": "error: ball group order cap exceeded: requested over 2^6143, "
                              "cap 10000000 (raise with --ball-order-cap (or reduce the radius))\n",
    "tree-vertex-cap-4300-digits": "error: tree vertices (radius 14283 of 20000) cap exceeded: "
                                   "requested over 2^14284, cap over 2^14284 "
                                   "(raise with --tree-vertex-cap)\n",
    # an --out path that cannot be written names the path and the OS reason
    "out-under-a-file": "error: --out: cannot write {tmp}/input/x.json: File exists\n",
    "out-is-a-directory": "error: --out: cannot write {tmp}: Is a directory\n",
    # a point repeated within one cycle, even next to itself
    "group-file-repeated-point": "error: line 2: point 2 repeated in cycle notation\n",
    # or across cycles, when it first appears as a 1-cycle
    "group-file-repeated-fixed-point": "error: line 2: point 1 repeated in cycle notation\n",
    # ball defects checks its local groups and its element as ball group does
    "defects-F-degree-mismatch": "error: local group degree 4 != arity 3\n",
    "defects-Fprime-degree-mismatch": "error: local group degree 4 != arity 3\n",
    "element-boolean-image": "error: --element: vertex images must be integers, not booleans\n",
    # a coloring file's ids and shape are integers, not booleans or floats,
    # and each edge id is given once
    "color-id-boolean": "error: coloring file: edge id True is not an integer\n",
    "color-id-repeated": "error: coloring file: edge id 1 appears twice\n",
    "color-radius-boolean": "error: coloring file: 'radius' True is not an integer\n",
    "color-d-float": "error: coloring file: 'd' 3.0 is not an integer\n",
    # a negative cap names its flag
    "element-cap-negative": "error: --element-cap must be non-negative, got -5\n",
    "subgroup-cap-negative": "error: --subgroup-cap must be non-negative, got -3\n",
    "leaf-cap-negative": "error: --leaf-cap must be non-negative, got -1\n",
    "ball-order-cap-negative": "error: --ball-order-cap must be non-negative, got -1\n",
    "ball-vertex-cap-negative": "error: --ball-vertex-cap must be non-negative, got -7\n",
    "tree-vertex-cap-negative": "error: --tree-vertex-cap must be non-negative, got -2\n",
    "max-pairs-negative": "error: --max-pairs must be non-negative, got -1\n",
    # a probable prime is refused where Miller-Rabin on 2..41 stops being
    # a proof; a composite verdict is a proof at any size
    "tate-prime-past-the-bound": f"error: cannot prove {2 ** 89 - 1} prime: Miller-Rabin "
                                 "on bases 2..41 is exact only below 3317044064679887385961981\n",
    "core-prime-past-the-bound": f"error: cannot prove {2 ** 89 - 1} prime: Miller-Rabin "
                                 "on bases 2..41 is exact only below 3317044064679887385961981\n",
    "tate-composite-past-the-bound": f"error: {(2 ** 89 - 1) * (2 ** 61 - 1)} is not prime\n",
    # a group file has one degree, wherever a second one stands
    "group-file-repeated-degree": "error: line 2: repeated 'degree:' line\n",
    "group-file-degree-after-gen": "error: line 3: repeated 'degree:' line\n",
    # no flag is ignored: --pi only serves --kind core, and core takes one prime set
    "sylow-with-pi": "error: --pi applies to --kind core only, not --kind sylow\n",
    "residual-with-pi": "error: --pi applies to --kind core only, not --kind residual\n",
    "core-with-p-and-pi": "error: --kind core takes --pi or --p, not both\n",
    # an empty prime set is refused before any element is listed
    "pi-empty-comma": "error: prime set must name at least one prime, got ','\n",
    "pi-empty-blank": "error: prime set must name at least one prime, got ' '\n",
    "pi-empty": "error: prime set must name at least one prime, got ''\n",
    # a degree no index can reach is refused before anything is built
    "family-degree-past-maxsize": f"error: degree must be at most {sys.maxsize}, got {HUGE}\n",
    "group-file-degree-past-maxsize": f"error: line 1: degree must be at most {sys.maxsize}\n",
    "wreath-base-degree-past-maxsize": f"error: degree must be at most {sys.maxsize}, "
                                       f"got {HUGE}\n",
    "check-F-degree-past-maxsize": f"error: degree must be at most {sys.maxsize}, got {HUGE}\n",
}

SHAPE = {"d": 3, "radius": 1, "center": "vertex"}
# bytes written to {tmp}/input before the command runs
INPUT_FILES = {
    "color-edges-not-list": json.dumps({**SHAPE, "edges": 5}).encode(),
    "color-edge-not-object": json.dumps({**SHAPE, "edges": [1]}).encode(),
    "color-id-is-list": json.dumps({**SHAPE, "edges": [{"id": [0], "color": 1}]}).encode(),
    "color-not-integer": json.dumps({**SHAPE, "edges": [{"id": 0, "color": "red"}]}).encode(),
    "color-id-boolean": json.dumps({**SHAPE, "edges": [{"id": True, "color": 1}]}).encode(),
    "color-id-repeated": json.dumps({**SHAPE, "edges": [{"id": 1, "color": 1},
                                                        {"id": 1, "color": 2}]}).encode(),
    "color-radius-boolean": json.dumps({**SHAPE, "radius": True, "edges": []}).encode(),
    "color-d-float": json.dumps({**SHAPE, "d": 3.0, "edges": []}).encode(),
    "group-file-not-utf8": b"degree: 3\ngen: (1 2)\xff\n",
    "out-under-a-file": b"",
    "group-file-repeated-point": b"degree: 3\ngen: (1 2 2)\n",
    "group-file-repeated-fixed-point": b"degree: 3\ngen: (1)(1 2)\n",
}


@pytest.mark.parametrize("case", MALFORMED, ids=MALFORMED.keys())
def test_malformed_input_is_one_error_line(capsys, tmp_path, case):
    if case in INPUT_FILES:
        (tmp_path / "input").write_bytes(INPUT_FILES[case])
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in MALFORMED[case]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    if case in ERROR_TEXT:
        assert err == ERROR_TEXT[case].replace("{tmp}", str(tmp_path))
    elif "vertex_images" in argv[-1]:
        assert "not an automorphism" in err


@pytest.mark.parametrize("gen, plain", [("(1 2,)", "(1 2)"), ("(1,)(2 3)", "(2 3)")])
def test_group_file_cycle_with_trailing_separator(capsys, gen, plain):
    def sylow(text):
        return run_cli(capsys, "series", "op", "--group", f"degree: 3\ngen: {text}",
                       "--kind", "sylow", "--p", "2")
    code, out, err = sylow(gen)
    assert code == 0 and err == ""
    assert strip_timing(parse_json(out)) == strip_timing(parse_json(sylow(plain)[1]))


def test_zero_caps_stay_legal(capsys):
    code, out, _ = run_cli(capsys, "lattice", "sweep", "--tower", "Sym(2):2", "--max-pairs", "0")
    assert code == 0 and parse_json(out)["result"]["pairs_checked"] == 0
    # Tate's Sylow subgroup of Dih(4) comes from the element scan
    code, out, err = run_cli(capsys, "tate", "verify", "--group", "Dih(4)", "--p", "2",
                             "--element-cap", "0")
    assert code == 1 and out == ""
    assert err == ("error: element enumeration cap exceeded: requested 2, cap 0 "
                   "(raise with --element-cap)\n")
    # ... and that of Sym(3) in closed form, with no element listed
    code, out, err = run_cli(capsys, *TATE, "--element-cap", "0")
    assert code == 0 and err == "" and parse_json(out)["result"]["sylow_order"] == 2


# different subcommands in one process, the last a usage error
SUBCOMMANDS = [
    ["criteria", "check", "--d", "4", "--F", "Alt(4)", "--Fprime", "Sym(4)"],
    ["wreath", "build", "--base", "Klein4", "--depth", "2"],
    ["tree", "ball", "--d", "3", "--radius", "1"],
    ["tate", "verify", "--group", "Sym(3)", "--p", "2"],
    ["lattice", "rist", "--tower", "Sym(2):2", "--subset", "1"],
    ["wreath", "build", "--nope"],
]


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    build_parser.cache_clear()
    for argv in SUBCOMMANDS:
        run_cli(capsys, *argv)
    assert built.count("treeperm") == 1


BALL = ["ball", "group", "--d", "3", "--radius", "2", "--F", "Sym(3)"]
WREATH = ["wreath", "build", "--base", "Klein4", "--depth", "2"]
SURVEY = ["criteria", "survey", "--d", "3"]

# (earlier call, later call) in one process
CARRY_OVER = {
    "ball-edge-then-vertex": (BALL + ["--center", "edge"], BALL),
    "wreath-square-then-plain": (WREATH + ["--square"], WREATH),
    "survey-table-then-json": (SURVEY + ["--format", "table"], SURVEY),
    "usage-error-then-success": (["wreath", "build", "--nope"], WREATH),
    "help-twice": (["--help"], ["--help"]),
}


@pytest.mark.parametrize("case", CARRY_OVER, ids=CARRY_OVER.keys())
def test_no_state_carries_over_between_calls(capsys, case):
    earlier, later = CARRY_OVER[case]

    def call(argv):
        code, out, err = run_cli(capsys, *argv)
        try:
            out = strip_timing(parse_json(out))
        except ValueError:  # help text or a survey table
            pass
        return code, out, err

    build_parser.cache_clear()
    first = call(later)
    build_parser.cache_clear()
    call(earlier)
    assert call(later) == first


# a tower too deep to flatten is refused at the first level past a cap, in
# a child process held to 1.5 GB of address space, so a regression ends in
# a MemoryError there instead of exhausting the machine
DEEP_TOWERS = {
    "depth-10^12": (["wreath", "build", "--base", "Sym(2)", "--depth", "1000000000000"],
                    "error: flatten leaves (depth 13 of 1000000000000) cap exceeded: "
                    "requested 8192, cap 4096 (raise with --leaf-cap)\n"),
    "rist-depth-10^20": (["lattice", "rist", "--tower", f"Sym(2):{HUGE}", "--subset", "root"],
                         f"error: flatten leaves (depth 13 of {HUGE}) cap exceeded: "
                         "requested 8192, cap 4096 (raise with --leaf-cap)\n"),
    # a degree-1 base has one leaf at any depth, and one interior vertex per level
    "degree-1-depth-20000": (["wreath", "build", "--base", "Sym(1)", "--depth", "20000"],
                             "error: tower interior vertices cap exceeded: requested 20000, "
                             "cap 4096 (raise with --leaf-cap)\n"),
    "sweep-degree-1-depth-20000": (["lattice", "sweep", "--tower", "Sym(1):20000"],
                                   "error: tower interior vertices cap exceeded: "
                                   "requested 20000, cap 4096 (raise with --leaf-cap)\n"),
    # a cap passed before the last level names the level reached
    "depth-10-of-sym3": (["wreath", "build", "--base", "Sym(3)", "--depth", "10"],
                         "error: flatten leaves (depth 8 of 10) cap exceeded: "
                         "requested 6561, cap 4096 (raise with --leaf-cap)\n"),
}


def run_cli_limited(argv):
    """Run the CLI in a child process whose address space alone is
    limited to 1.5 GB; returns the finished process and its wall time."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "treeperm.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30, preexec_fn=limit)
    return proc, time.perf_counter() - t0


@pytest.mark.skipif(sys.platform != "linux", reason="address-space limit via setrlimit")
@pytest.mark.parametrize("case", DEEP_TOWERS, ids=DEEP_TOWERS.keys())
def test_deep_tower_is_refused_in_bounded_time_and_memory(case):
    argv, expected = DEEP_TOWERS[case]
    proc, elapsed = run_cli_limited(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", expected)
    assert elapsed < 10, elapsed


def test_memory_error_is_one_error_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    # the family builder fails as Alt(n) of a huge n does
    monkeypatch.setitem(groups._FAMILY_BUILDERS, "alt", exhausted)
    code, out, err = run_cli(capsys, "series", "op", "--group", "Alt(5)",
                             "--kind", "residual", "--p", "2")
    assert (code, out, err) == (1, "", "error: out of memory\n")


@pytest.mark.skipif(sys.platform != "linux", reason="address-space limit via setrlimit")
def test_a_huge_named_degree_out_of_memory_is_one_error_line():
    # the degree cap is still undecided; the 99999999-point generators
    # do not fit in the child's address space
    proc, _ = run_cli_limited(["series", "op", "--group", "Alt(99999999)",
                               "--kind", "residual", "--p", "2"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


def test_leaf_cap_zero_still_refuses_the_root_leaf(capsys):
    for base, depth in (("Sym(1)", "3"), ("Sym(2)", "0")):
        code, out, err = run_cli(capsys, "wreath", "build", "--base", base, "--depth", depth,
                                 "--leaf-cap", "0")
        assert (code, out) == (1, "")
        assert err == ("error: flatten leaves cap exceeded: requested 1, cap 0 "
                       "(raise with --leaf-cap)\n")


def test_survey_bytes_are_the_same_cold_and_warm(capsys):
    from treeperm.subgroups import _classes
    _classes.cache_clear()
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "criteria", "survey", "--d", "5")
        assert code == 0
        outs.append(re.sub(r'"wall_time_ms": \d+', "", out))
    assert _classes.cache_info().hits > 0
    assert outs[0] == outs[1]


def test_survey_cap_refusals_are_raised_again_after_the_classes_were_cached(capsys):
    from treeperm.subgroups import _classes
    _classes.cache_clear()
    survey = ["criteria", "survey", "--d", "5"]
    code, first, _ = run_cli(capsys, *survey)
    assert code == 0
    # the element cap refuses inside the memoized enumeration: twice, not once
    for flag, what, requested in (("--subgroup-cap", "subgroup", 120),
                                  ("--element-cap", "element", 101),
                                  ("--element-cap", "element", 101)):
        code, out, err = run_cli(capsys, *survey, flag, "100")
        assert (code, out) == (1, "")
        assert err == (f"error: {what} enumeration cap exceeded: requested {requested}, "
                       f"cap 100 (raise with {flag})\n")
    assert _classes.cache_info().currsize == 1     # no refusal was memoized
    code, again, _ = run_cli(capsys, *survey)
    assert code == 0 and _classes.cache_info().hits > 0
    strip = lambda out: re.sub(r'"wall_time_ms": \d+', "", out)
    assert strip(again) == strip(first)


def test_criteria_check_answers_under_tree_and_element_caps(capsys):
    # eta is read off |F| and F's orbits: no ball is built, no element listed
    check = ["criteria", "check", "--d", "5", "--F", "Sym(5)", "--Fprime", "Sym(5)"]
    code, out, _ = run_cli(capsys, *check)
    assert code == 0
    expected = json.loads(out)["result"]
    for flag in ("--tree-vertex-cap", "20"), ("--element-cap", "0"):
        code, out, err = run_cli(capsys, *check, *flag)
        assert (code, err) == (0, "")
        assert json.loads(out)["result"] == expected
