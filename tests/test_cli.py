"""CLI surface: subcommands, JSON determinism, exit codes, cap refusals."""

import dataclasses
import json

import pytest

from treeperm.cli import main
from treeperm.criteria import CriterionReport, SurveyRow, Verdict
from treeperm.localact import DefectReport
from treeperm.series import SeriesCertificate, TateReport


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
    """Every report prints as dataclasses.asdict of the dataclass behind it."""
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


def test_lattice_rist(capsys):
    code, out, _ = run_cli(capsys, "lattice", "rist", "--tower", "Sym(2):2",
                           "--subset", "1")
    assert code == 0
    doc = parse_json(out)
    assert doc["result"]["rist"]["order"] == 2
    assert doc["result"]["subset_leaves"] == [0, 1]


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
    "color-edges-not-list": COLOR_FILE,
    "color-edge-not-object": COLOR_FILE,
    "color-id-is-list": COLOR_FILE,
    "color-not-integer": COLOR_FILE,
    "group-file-is-directory": ["wreath", "build", "--base", "file:{tmp}", "--depth", "2"],
    "group-file-not-utf8": ["wreath", "build", "--base", "file:{tmp}/input", "--depth", "2"],
    "family-dih-too-small": ["tate", "verify", "--group", "Dih(2)", "--p", "2"],
    "family-sym-zero": ["tate", "verify", "--group", "Sym(0)", "--p", "2"],
    "family-cyc-zero": ["tate", "verify", "--group", "Cyc(0)", "--p", "2"],
    "family-bad-argument": ["tate", "verify", "--group", "Sym(x)", "--p", "2"],
    "unknown-group-spec": ["tate", "verify", "--group", "Foo(3)", "--p", "2"],
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
}

SHAPE = {"d": 3, "radius": 1, "center": "vertex"}
# bytes written to {tmp}/input before the command runs
INPUT_FILES = {
    "color-edges-not-list": json.dumps({**SHAPE, "edges": 5}).encode(),
    "color-edge-not-object": json.dumps({**SHAPE, "edges": [1]}).encode(),
    "color-id-is-list": json.dumps({**SHAPE, "edges": [{"id": [0], "color": 1}]}).encode(),
    "color-not-integer": json.dumps({**SHAPE, "edges": [{"id": 0, "color": "red"}]}).encode(),
    "group-file-not-utf8": b"degree: 3\ngen: (1 2)\xff\n",
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
    if "vertex_images" in argv[-1]:
        assert "not an automorphism" in err
    if case in ERROR_TEXT:
        assert err == ERROR_TEXT[case]
