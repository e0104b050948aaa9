import json

import pytest

from normloc.cli import main

SQUARE = {"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}
REEVE = {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 3]]}
TRI_P = {"vertices": [[165, 0], [175, 0], [0, 385]]}
TRI_Q = {"vertices": [[0, 0], [35, 0], [0, 77]]}
QUADRANT = {"vertices": [[0, 0]], "rays": [[1, 0], [0, 1]]}
SEG1 = {"vertices": [[0], [1]]}
SEG2 = {"vertices": [[0], [2]]}
GRADING = {"weights": [[4, 1], [2, 1], [1, 2], [1, 3]]}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_normal_check(files, capsys):
    sq = files("sq.json", SQUARE)
    code, rep = run(capsys, "normal-check", "--input", sq, "--s-max", "3")
    assert code == 0
    assert rep["command"] == "normal-check"
    assert rep["verdict"] == "verified_up_to"
    assert rep["checked"] == {"s_max": 3, "scales_scanned": [],
                              "all_scales": True}
    code, rep = run(capsys, "normal-check", "--input", sq)
    assert code == 0
    assert rep["verdict"] == "located"
    assert rep["checked"] == {"s_max": None, "scales_scanned": [],
                              "all_scales": True}
    reeve = files("reeve.json", REEVE)
    code, rep = run(capsys, "normal-check", "--input", reeve)
    assert code == 1
    assert rep["witness"] == {"point": [1, 1, 1], "kind": "normality_failure",
                              "scale": 2}


def test_located_check(files, capsys):
    p, q = files("p.json", TRI_P), files("q.json", TRI_Q)
    code, rep = run(capsys, "located-check", "--input", p, "--input", q)
    assert code == 1
    assert rep["verdict"] == "not_located"
    assert rep["witness"]["point"] == [1, 383]
    quad = files("quad.json", QUADRANT)
    code, rep = run(capsys, "located-check", "--input", quad, "--input", quad,
                    "--window", "0..5,0..5")
    assert code == 0
    assert rep["verdict"] == "verified_up_to"
    assert rep["checked"]["window"] == [[0, 0], [5, 5]]


def test_normal_fan_and_refine(files, capsys):
    p = files("p.json", TRI_P)
    code, rep = run(capsys, "normal-fan", "--input", p)
    assert code == 0
    assert len(rep["fan"]["maximal_cones"]) == 3
    sq = files("sq.json", SQUARE)
    both = files("both.json",
                 {"vertices": [[0, 0], [2, 0], [0, 2], [2, 1], [1, 2]]})
    code, rep = run(capsys, "refine-check", "--input", both, "--input", sq)
    assert code == 0 and rep["refines"] is True
    code, rep = run(capsys, "refine-check", "--input", sq, "--input", both)
    assert code == 1 and rep["refines"] is False
    quad = files("quad.json", QUADRANT)
    assert main(["refine-check", "--input", sq, "--input", quad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fans have different supports\n"


def test_gitfan_and_fiber(files, capsys):
    g = files("g.json", GRADING)
    code, rep = run(capsys, "gitfan", "--input", g)
    assert code == 0
    assert rep["fan_verified"] is True
    assert len(rep["git_cones"]) == 3
    code, rep = run(capsys, "fiber", "--input", g, "--u", "4,2")
    assert code == 0
    assert rep["fiber"]["dim"] == 4
    assert ["0", "2", "0", "0"] in rep["fiber"]["vertices"]


def test_realize(files, capsys):
    a, b = files("a.json", SEG1), files("b.json", SEG2)
    code, rep = run(capsys, "realize", "--input", a, "--input", b)
    assert code == 0
    assert rep["u1"] == [2, -1] and rep["u2"] == [3, -1]
    assert rep["projection"]["weights"] == [[1, -1], [1, 0], [0, 1]]


def test_p3_and_mcrit_search(files, capsys):
    g = files("g.json", GRADING)
    code, rep = run(capsys, "p3-search", "--input", g,
                    "--u1", "2,1", "--u2", "1,2", "--k-max", "2",
                    "--s-max", "2")
    assert code == 1
    assert rep["verdict"] == "exhausted"
    assert rep["checked"]["failures"] == [[1, 2, [1, 0, 1, 1]],
                                          [2, 1, [1, 0, 1, 1]]]
    reeve = files("reeve.json", REEVE)
    code, rep = run(capsys, "mcrit-search", "--input", reeve, "--input",
                    reeve, "--k-max", "2", "--s-max", "2")
    assert code == 0
    assert rep["verdict"] == "verified_up_to" and rep["checked"]["k"] == 2
    # N(triangle) does not refine N(square): a report, not an input error
    tri = files("tri.json", {"vertices": [[0, 0], [1, 0], [0, 1]]})
    sq = files("sq.json", SQUARE)
    code, rep = run(capsys, "mcrit-search", "--input", tri, "--input", sq,
                    "--k-max", "1", "--s-max", "2")
    assert code == 0
    assert rep["verdict"] == "verified_up_to"
    assert rep["checked"] == {"k": 1, "k_max": 1, "s_max": 2,
                              "all_scales": True, "refines": False}


def test_builtin_cases(files, capsys):
    code, rep = run(capsys, "paper-counterexample")
    assert code == 1
    assert rep["k"] == 1 and rep["witness"]["point"] == [1, 383]
    code, rep = run(capsys, "paper-counterexample", "--k", "2")
    assert code == 1 and rep["witness"]["point"] == [1, 768]
    code, rep = run(capsys, "paper-oldex")
    assert code == 0 and rep["verdict"] == "located"
    code, rep = run(capsys, "paper-oldex", "--s", "2")
    assert code == 1 and rep["witness"]["point"] == [1, 0, 1, 1]


@pytest.mark.parametrize("argv", [
    ("paper-oldex", "--s", "0"),
    ("paper-oldex", "--s", "-2"),
    ("paper-counterexample", "--k", "0"),
], ids=["oldex-s0", "oldex-negative", "counterexample-k0"])
def test_builtin_cases_reject_nonpositive_scales(capsys, argv):
    # a scale of 0 gives one-point sets, which would read as a verdict
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_output_is_deterministic(files, capsys):
    p, q = files("p.json", TRI_P), files("q.json", TRI_Q)
    argv = ("located-check", "--input", p, "--input", q)
    main(list(argv))
    first = capsys.readouterr().out
    main(list(argv))
    assert capsys.readouterr().out == first
    # compact separators, sorted keys
    assert '"checked":' in first and ": " not in first.split("\n")[0]


def test_error_exits(files, capsys, tmp_path):
    sq = files("sq.json", SQUARE)
    assert main(["normal-check", "--input", "/no/such/file.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["normal-check", "--input", str(bad)]) == 2
    assert main(["located-check", "--input", sq]) == 2   # needs two inputs
    assert main(["no-such-command"]) == 2
    assert main(["located-check", "--input", sq, "--input", sq,
                 "--window", "oops"]) == 2
    assert main(["fiber", "--input", sq, "--u", "1,1"]) == 2  # not a grading
    capsys.readouterr()


@pytest.mark.parametrize("command, poly, extra", [
    ("normal-check", [[0, 0], [1, 0]], ()),
    ("normal-check", {"vertices": [["1/0", 0], [1, 0]]}, ()),
    ("fiber", GRADING, ("--u", "a,b")),
    ("located-check", SQUARE, ("--window", "0..x,0..1")),
    ("located-check", SQUARE, ("--window", "2..0,2..0")),
    ("gitfan", [[4, 1], [2, 1]], ()),
    ("fiber", {"weights": [[4.9, 1], [2, 1], [1, 2], [1, 3]]}, ("--u", "4,2")),
    ("normal-fan", {"vertices": [[0, 0]], "rays": [[1.7, 0], [0, 1]]}, ()),
    # JSON 1e400 parses to inf, which no Fraction can hold
    ("normal-fan", {"vertices": [[1e400, 0], [0, 1], [0, 0]]}, ()),
    ("located-check", {"inequalities": [{"normal": [-1, 0], "rhs": 0},
                                        {"normal": [0, -1], "rhs": 0},
                                        {"normal": [1, 1], "rhs": 1e400}]},
     ()),
    # rays spanning the plane: no vertex, so no polyhedron
    ("normal-fan", {"vertices": [[0, 0]],
                    "rays": [[1, 1], [-1, 0], [0, -1]]}, ()),
    ("normal-fan", {"vertices": [[]]}, ()),
    ("located-check", {"inequalities": [{"normal": [-1, 0], "rhs": 0},
                                        {"normal": [0, -1], "rhs": 0},
                                        {"normal": [1, 1], "rhs": 1},
                                        {"normal": [0, 0], "rhs": 1}]},
     ()),
    ("located-check", SQUARE, ("--window", "0..5")),
    ("normal-check", {"inequalities": [{"normal": [1, 0], "rhs": 1},
                                       {"normal": [-1], "rhs": 0}]}, ()),
    ("normal-fan", {"vertices": []}, ()),
    # JSON true is no coordinate (Fraction(True) would read it as 1)
    ("normal-check", {"vertices": [[True, 0], [0, 1], [0, 0]]}, ()),
    ("located-check", {"inequalities": [{"normal": [-1, 0], "rhs": 0},
                                        {"normal": [0, -1], "rhs": 0},
                                        {"normal": [1, 1], "rhs": True}]},
     ()),
    ("normal-check", {"inequalities": [{"normal": [-1, 0], "rhs": 0},
                                       {"normal": [0, -1], "rhs": 0},
                                       {"normal": [1, 1], "rhs": 2}],
                      "equalities": [{"normal": [1, -1], "rhs": False}]},
     ()),
    ("gitfan", {"weights": [[1.5, 1], [2, 1], [1, 2]]}, ()),
    ("gitfan", {"weights": [[True, 1], [2, 1], [1, 2]]}, ()),
    # an empty window is a malformed one, not "no window"
    ("located-check", SQUARE, ("--window", "")),
], ids=["json-list", "zero-denominator", "bad-vector", "bad-window",
        "inverted-window", "grading-list", "float-weight", "float-ray",
        "inf-vertex", "inf-rhs", "spanning-rays", "empty-vertex",
        "zero-normal", "short-window", "mixed-normals", "no-vertex",
        "bool-vertex", "bool-rhs", "bool-equality-rhs",
        "gitfan-float-weight", "gitfan-bool-weight", "empty-window"])
def test_malformed_input_exits_2(files, capsys, command, poly, extra):
    path = files("in.json", poly)
    inputs = ("--input", path) * (2 if command == "located-check" else 1)
    assert main([command, *inputs, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    # the package's own errors read as themselves, not as a wrapped repr
    assert "NormlocError(" not in captured.err


@pytest.mark.parametrize("raw", [
    b"\xff\xfe",
    b"[" * 200000 + b"]" * 200000,
    b'{"vertices": [[' + b"9" * 5000 + b', 0], [0, 1], [0, 0]]}',
], ids=["undecodable", "too-deep", "too-many-digits"])
def test_unreadable_json_exits_2(tmp_path, capsys, raw):
    # the decoder's own failures: bad UTF-8, nesting past the recursion
    # limit, an integer past the int-from-string digit limit
    path = tmp_path / "in.json"
    path.write_bytes(raw)
    assert main(["normal-check", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_gitfan_of_wide_grading_exits_0(files, capsys):
    # 22 weights, 2^22 weight subsets: the report reads no orbit cone
    wide = files("wide.json",
                 {"weights": [[1, i] for i in range(21)] + [[21, 1]]})
    code, rep = run(capsys, "gitfan", "--input", wide)
    assert code == 0
    assert len(rep["git_cones"]) == 21 and rep["fan_verified"] is True
    assert sorted(rep) == ["command", "fan_verified", "git_cones",
                           "weight_cone"]
