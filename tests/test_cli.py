import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defent
from defent.cli import _emit, build_parser, main
from conftest import HYP_TEXT, KR_TEXT, SQRT_TEXT

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
PAPER_MATRIX_TEXT = "1 0 2 3 0\n2 9 7 7 7\n9 3 3 3 0\n2 2 7 7 7\n"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 0, out
    return json.loads(out)


@pytest.fixture
def hyp_file(tmp_path):
    f = tmp_path / "hyp.ring"
    f.write_text(HYP_TEXT)
    return str(f)


@pytest.fixture
def sqrt_file(tmp_path):
    f = tmp_path / "sq.ring"
    f.write_text(SQRT_TEXT)
    return str(f)


@pytest.fixture
def matrix_file(tmp_path):
    f = tmp_path / "paper.mat"
    f.write_text(PAPER_MATRIX_TEXT)
    return str(f)


def test_count(capsys, hyp_file, sqrt_file):
    obj = run_json(capsys, ["count", hyp_file, "--p", "5"])
    assert obj["rows"][0] == {"count": 9, "e": 1, "q": 5}
    obj2 = run_json(capsys, ["count", sqrt_file, "--p", "7"])
    assert obj2["rows"][0]["count"] == 1


def test_profile_and_base(capsys, hyp_file):
    obj = run_json(capsys, ["profile", hyp_file, "--p", "5", "--base", "5"])
    assert obj["entries"]["x,y"] == {"terms": {"3": "2/1"}}
    assert obj["normalized"][""] == "0"
    assert abs(obj["normalized"]["y"] - 0.80966) < 1e-4


def test_profile_blocks_declared(capsys, tmp_path):
    f = tmp_path / "kr.ring"
    f.write_text(KR_TEXT)
    obj = run_json(capsys, ["profile", str(f), "--p", "5", "--blocks"])
    assert set(obj["ground_set"]) == {"A", "B", "C", "D"}
    assert len(obj["entries"]) == 16
    obj2 = run_json(
        capsys,
        ["profile", str(f), "--p", "5", "--blocks", "P=a1,a2,b1,b2;Q=c0,c1,d0,d1,d2"],
    )
    assert set(obj2["ground_set"]) == {"P", "Q"}


def test_profile_blocks_missing_declaration(capsys, hyp_file):
    code, _ = run(capsys, ["profile", hyp_file, "--p", "3", "--blocks"])
    assert code == 3  # Hyp declares no blocks


def test_tower_with_period(capsys, sqrt_file):
    obj = run_json(capsys, ["tower", sqrt_file, "--p", "7", "--emax", "6"])
    assert [r["count"] for r in obj["census"]["rows"]] == [1, 49, 1, 2401, 1, 117649]
    assert obj["period"]["m"] == 2
    assert obj["period"]["classes"]["1"] == {"d": 0, "mu": "1/1"}
    assert obj["period"]["classes"]["0"] == {"d": 1, "mu": "1/1"}


def test_lincong_and_snf(capsys, matrix_file, tmp_path):
    obj = run_json(capsys, ["lincong", matrix_file, "--m", "343", "--base", "7"])
    assert obj["normalized"]["1,2,3,4"] == "11"
    assert obj["normalized"]["2,4"] == "5"
    diag = tmp_path / "diag.mat"
    diag.write_text("2 0\n0 3\n")
    obj2 = run_json(capsys, ["snf", str(diag)])
    assert obj2["diagonal"] == [1, 6]
    S, T, U = obj2["S"], obj2["T"], obj2["U"]
    assert S[0][0] == 1 and S[1][1] == 6


def test_torus(capsys, tmp_path):
    f = tmp_path / "sq.mat"
    f.write_text("2\n")
    obj = run_json(capsys, ["torus", str(f), "--p", "5"])
    assert obj["entries"]["1"] == {"terms": {"2": "1/1"}}


def test_check_expr_and_gmm(capsys, matrix_file, tmp_path):
    prof_path = tmp_path / "prof.json"
    code, out = run(capsys, ["-o", str(prof_path), "lincong", matrix_file, "--m", "343"])
    assert code == 0
    obj = run_json(capsys, ["check", str(prof_path), "--expr", "I(1:2)"])
    assert obj["sign"] == 0
    obj2 = run_json(capsys, ["check", str(prof_path), "--expr", "ING(1:2|3:4)"])
    assert obj2["sign"] >= 0
    obj3 = run_json(capsys, ["check", str(prof_path), "--gmm"])
    assert obj3["all_zero"] is False and obj3["conclusive"] is False
    obj4 = run_json(capsys, ["check", str(prof_path), "--dfz", "2"])
    assert "functional" in obj4 and "sign" in obj4


def test_kr_commands(capsys):
    obj = run_json(capsys, ["kr", "--q", "7"])
    forms = obj["closed_forms"]
    assert forms["D(A:B)"]["value"]["terms"] == {"7": "1/1", "2": "-1/1", "3": "-1/1"}
    assert forms["D(C:D|A)"]["sign"] == 1
    assert forms["D(C:D|A)"]["value"]["terms"] == {"7": "1/1", "2": "-1/1", "3": "-1/1"}
    classical = run_json(capsys, ["kr", "--q", "7", "--classical"])["closed_forms"]
    assert classical["D(C:D|A)"]["value"]["terms"] == {"2": "1/1", "3": "1/1", "5": "-1/1"}
    obj2 = run_json(capsys, ["kr", "--scan", "--eps", "1/10", "--qmax", "10000"])
    assert obj2["q_star"] == 37 and obj2["prev_q"] == 31
    assert obj2["at_q_star"]["sign"] == -1 and obj2["at_prev"]["sign"] >= 0
    obj3 = run_json(capsys, ["kr", "--q", "7", "--eps", "0"])
    assert obj3["violation"]["sign"] == 1
    obj4 = run_json(capsys, ["kr", "--scan", "--eps", "0", "--qmax", "100"])
    assert obj4["q_star"] is None and "message" in obj4


def test_extend_commands(capsys, tmp_path, hyp_file):
    prof_path = tmp_path / "hyp_prof.json"
    assert main(["-o", str(prof_path), "profile", hyp_file, "--p", "3"]) == 0
    capsys.readouterr()
    sw = run_json(capsys, ["extend", "sw", str(prof_path), "--L", "y", "--alpha", "auto"])
    from defent import parse_functional

    assert [parse_functional(c).coeffs for c in sw["constraints"]] == [
        parse_functional("H(x,z) - H(x)").coeffs
    ]
    assert sw["entries"]["x,y,z"] is not None
    ak = run_json(capsys, ["extend", "ak", str(prof_path), "--L", "y"])
    assert len(ak["constraints"]) == 3
    dist_path = tmp_path / "dist.json"
    code, _ = run(capsys, ["-o", str(dist_path), "profile", hyp_file, "--p", "3"])
    # build a distribution file via the library (format is part of extend)
    from defent import Distribution, field, marginal_distribution, parse_set

    d = marginal_distribution(parse_set(HYP_TEXT), ["x", "y"], field(3))
    dist_path.write_text(json.dumps(d.to_json()))
    cp = run_json(capsys, ["extend", "copy", str(dist_path), "--L", "y"])
    assert cp["check"]["ok"] is True
    assert cp["tau"]["x'"] == "x"


def test_factor_and_convolve(capsys, tmp_path, matrix_file):
    prof_path = tmp_path / "prof.json"
    assert main(["-o", str(prof_path), "lincong", matrix_file, "--m", "7"]) == 0
    capsys.readouterr()
    obj = run_json(capsys, ["factor", str(prof_path), "--blocks", "X=1,2;Y=3,4"])
    assert set(obj["ground_set"]) == {"X", "Y"}
    # convolving with a non-modular second argument is a precondition error
    code, _ = run(capsys, ["convolve", str(prof_path), str(prof_path)])
    assert code == 3


def test_exit_codes(capsys, tmp_path, hyp_file, sqrt_file):
    bad = tmp_path / "bad.ring"
    bad.write_text("set Broken(x) := x +")
    code, _ = run(capsys, ["count", str(bad), "--p", "5"])
    assert code == 2
    code, _ = run(capsys, ["count", str(tmp_path / "missing.ring"), "--p", "5"])
    assert code == 2
    code, _ = run(capsys, ["count", hyp_file, "--p", "6"])
    assert code == 3  # 6 is not prime
    code, _ = run(capsys, ["count", hyp_file, "--p", "5", "--max-evals", "3"])
    assert code == 4
    code, _ = run(capsys, ["count", hyp_file])  # missing --p
    assert code == 2
    # a 2-label profile: the DFZ family and the GMM check need exactly 4
    prof = tmp_path / "two.json"
    assert main(["-o", str(prof), "profile", hyp_file, "--p", "3"]) == 0
    for flags in (["--dfz", "3"], ["--gmm"]):
        code, _ = run(capsys, ["check", str(prof), *flags])
        assert code == 3
    # malformed rationals and LogValue JSON from the command line
    for argv in (["kr", "--q", "7", "--eps", "abc"],
                 ["kr", "--scan", "--eps", "1/0"],
                 ["kr", "--q", "7", "--eps", "1/0"]):
        code, _ = run(capsys, argv)
        assert code == 2, argv
    code, _ = run(capsys, ["extend", "sw", str(prof), "--L", "y",
                           "--alpha", '{"terms":{"2":"x"}}'])
    assert code == 3
    # profile, distribution and matrix JSON with a missing key or a wrong shape
    malformed = {"empty.json": "{}", "entries.json": '{"ground_set":["x"],"entries":[]}',
                 "labels.json": '{"ground_set":[["x"]],"entries":{}}',
                 "norows.json": '{"labels":["a"]}', "badrow.json": '{"rows":[[1,"x"]]}'}
    for name, text in malformed.items():
        (tmp_path / name).write_text(text)
    for argv in (["check", "empty.json", "--expr", "H(x)"],
                 ["check", "entries.json", "--expr", "H(x)"],
                 ["check", "labels.json", "--expr", "H(x)"],
                 ["extend", "copy", "empty.json", "--L", "y"],
                 ["lincong", "norows.json", "--m", "5"],
                 ["lincong", "badrow.json", "--m", "5"]):
        argv = [str(tmp_path / a) if a in malformed else a for a in argv]
        code, _ = run(capsys, argv)
        assert code == 3, argv


@pytest.mark.parametrize("name, text, message", [
    ("float.json", '{"rows": [[1.5, 2]]}', "matrix entry 1.5 is not an integer"),
    ("bool.json", '{"rows": [[true, 2]]}', "matrix entry True is not an integer"),
    ("intlabels.json", '{"labels": [1, 2], "rows": [[1, 2], [3, 4]]}', "row label 1 is"),
    ("comma.mat", "a,b: 1 2\nc: 3 4\n", "row label 'a,b' is"),
])
def test_bad_matrix_entries_and_labels_exit_3(capsys, tmp_path, name, text, message):
    # each used to print a result (or a traceback) for a matrix the profile code cannot name
    f = tmp_path / name
    f.write_text(text)
    for argv in (["snf", str(f)], ["lincong", str(f), "--m", "5"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", argv
        assert captured.err.startswith("defent: ") and message in captured.err, captured.err


def test_json_integers_past_the_digit_limit_exit_2(capsys, tmp_path):
    # json.loads raises a plain ValueError, not a JSONDecodeError, past 4,300 digits
    big = "9" * 5001
    prof = tmp_path / "prof.json"
    prof.write_text('{"ground_set": ["x"], "entries": {"x": {"terms": {"2": %s}}}}' % big)
    dist = tmp_path / "dist.json"
    dist.write_text('{"ground_set": ["x"], "support": [{"outcome": ["0"], "prob": %s}]}' % big)
    mat = tmp_path / "big.mat"
    mat.write_text('{"rows": [[%s, 1]]}' % big)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(defent.zero_profile(("x", "y")).to_json()))
    for argv in (["check", str(prof), "--gmm"], ["check", str(prof), "--expr", "H(x)"],
                 ["factor", str(prof), "--blocks", "X=x"], ["convolve", str(prof), str(good)],
                 ["extend", "ak", str(prof), "--L", "x"], ["extend", "copy", str(dist)],
                 ["extend", "sw", str(good), "--L", "y", "--alpha", '{"terms": {"2": %s}}' % big],
                 ["snf", str(mat)], ["lincong", str(mat), "--m", "5"], ["torus", str(mat), "--p", "5"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv[:2]
        assert captured.err.startswith("defent: parse error: Exceeds the limit"), captured.err
    with pytest.raises(defent.ParseError, match="Exceeds the limit"):
        defent.parse_matrix('{"rows": [[%s]]}' % big)


def test_extend_copy_of_a_wide_distribution_exits_4_at_once(capsys, tmp_path):
    # one outcome over 40 labels is valid; its 2^40 marginals used to run until killed
    dist = tmp_path / "dist40.json"
    dist.write_text(json.dumps({"ground_set": [f"x{i}" for i in range(40)],
                                "support": [{"outcome": ["0"] * 40, "prob": 1}]}))
    for L in ([], ["--L", ",".join(f"x{i}" for i in range(40))]):
        start = time.perf_counter()
        code = main(["extend", "copy", str(dist), *L])
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert code == 4 and captured.out == "", captured.err
        assert captured.err.startswith("defent: budget exceeded: entropy profile needs 2^")


@pytest.mark.parametrize("argv", [
    ["lincong", "tall24.mat", "--m", "6"],      # 2^24 row subsets
    ["torus", "tall24.mat", "--p", "7"],
    ["profile", "zero20.ring", "--p", "2"],    # 2^20 marginals of 2^20 points
])
def test_subset_walks_past_their_budget_exit_4_at_once(capsys, argv):
    # valid inputs whose walks over every subset used to run until killed
    argv = [argv[0], str(GOLDEN_INPUTS / argv[1]), *argv[2:]]
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert code == 4 and captured.out == "", captured.err
    assert captured.err.startswith("defent: budget exceeded: ") and captured.err.count("\n") == 1


def test_malformed_functionals_exit_3(capsys, tmp_path):
    # the profile has every label these texts name, so only the parser can reject them
    prof = tmp_path / "prof.json"
    prof.write_text(json.dumps(defent.zero_profile(("A", "B", "1", "x")).to_json()))
    for expr in ("H(A)-", "1/0 H(A)", "H(A,)", "H(A B)", "H(1x)"):
        code = main(["check", str(prof), "--expr", expr])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("defent: ") and "Traceback" not in err, (expr, err)


def test_output_deterministic(capsys, hyp_file):
    _, out1 = run(capsys, ["profile", hyp_file, "--p", "5"])
    _, out2 = run(capsys, ["profile", hyp_file, "--p", "5"])
    assert out1 == out2
    _, out3 = run(capsys, ["count", hyp_file, "--p", "5", "--jobs", "2"])
    _, out4 = run(capsys, ["count", hyp_file, "--p", "5", "--jobs", "1"])
    assert out3 == out4


def test_import_loads_neither_mpmath_nor_the_process_pool():
    # mpmath is a test-only oracle; the pool is imported only when --jobs > 1 runs
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(defent.__file__)))
    code = ("import sys, defent.cli; print(sorted({'mpmath', 'concurrent.futures.process'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_parser_built_once_per_process(capsys, tmp_path, hyp_file):
    build_parser.cache_clear()
    prof = tmp_path / "hyp.json"
    assert main(["-o", str(prof), "profile", hyp_file, "--p", "5"]) == 0
    check = ["check", str(prof), "--expr", "I(x:y)"]
    assert run(capsys, ["check", str(prof)]) == (2, "")  # argparse errors: no stdout
    code, first = run(capsys, check)
    assert run(capsys, ["check", str(prof), "--gmm", "--expr", "H(x)"]) == (2, "")
    # neither the earlier -o nor the failed parses carry over into a later call
    assert run(capsys, check) == (code, first)
    assert code == 0 and json.loads(first)["expr"] == "I(x:y)"
    assert build_parser.cache_info().misses == 1


# -- long and deep formulas ------------------------------------------------------

LONG_AND_DEEP = [
    # (formula over x and y, points over GF(3))
    (" /\\ ".join(["x != 1", "y = 0"] * 1000), 2),    # 2,000 conjuncts
    (" \\/ ".join(["x = 1", "y = 2"] * 1000), 5),     # 2,000 disjuncts
    (" /\\ ".join(["x != 1", "y = 0"] * 494), 2),     # 988 conjuncts
    (" \\/ ".join(["x = 1", "y = 2"] * 167), 5),      # 334 disjuncts
    ("~" * 376 + "x = 1 /\\ y = y", 3),
    ("-" * 978 + "x = y", 3),
    ("(" * 195 + "x = y" + ")" * 195, 3),
    ("~" * 5000 + "-" * 5000 + "x*y = 1", 2),
]


@pytest.mark.parametrize("formula, count", LONG_AND_DEEP, ids=range(len(LONG_AND_DEEP)))
def test_long_and_deep_formulas_count(capsys, tmp_path, formula, count):
    f = tmp_path / "long.ring"
    f.write_text(f"set L(x, y) := {formula}")
    obj = run_json(capsys, ["count", str(f), "--p", "3"])
    assert obj["rows"][0]["count"] == count
    assert run_json(capsys, ["tower", str(f), "--p", "3", "--emax", "2"])["census"]


@pytest.mark.parametrize("formula", [
    "(" * 201 + "x = y" + ")" * 201,
    "x = 0 -> " * 200 + "y = 0",
    "~(x = 0 /\\ " * 100 + "y = 0" + ")" * 100,
    "(" * 100 + "x" + ")^2*y + x" * 100 + " = 0",
    "exists u. " + "(u = x \\/ " * 200 + "u = y" + ")" * 200,
])
def test_nesting_past_the_limit_exits_2(capsys, tmp_path, formula):
    f = tmp_path / "deep.ring"
    f.write_text(f"set D(x, y) := {formula}")
    assert main(["count", str(f), "--p", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("defent: parse error:") and "nested deeper than" in err
    assert "Traceback" not in err


def test_more_variables_than_numpy_axes_exits_3(capsys, tmp_path):
    f = tmp_path / "wide.ring"
    quantifiers = "".join(f"exists u{i}. " for i in range(64))
    product = "*".join(f"u{i}" for i in range(64))
    f.write_text(f"set W(x) := {quantifiers}{product} = x")  # every quantifier materialises
    for command in ("count", "profile"):
        assert main([command, str(f), "--p", "3"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("defent: ") and "65 variables" in err
    f.write_text(f"set W(x) := {quantifiers}x = 0")  # vacuous quantifiers need no axis
    assert run_json(capsys, ["count", str(f), "--p", "3"])["rows"][0]["count"] == 1


json_leaves = (st.none() | st.booleans() | st.integers(-10**40, 10**40)
               | st.floats(allow_nan=True, allow_infinity=True) | st.text())
json_trees = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(json_trees)
def test_emit_writes_what_json_dumps_writes(obj):
    # non-ASCII text, empty containers, nesting, bools, None, large ints, floats
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert _emit(SimpleNamespace(), obj) == 0
    assert buf.getvalue() == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_emit_edge_cases_and_refusals(tmp_path):
    obj = {"é": [(), {}, (1, "\u2603")], "": {"b": None, "a": [True, False, 2**70]},
           "floats": [0.1, -0.0, 1e300, float("inf"), float("-inf"), float("nan")]}
    out = tmp_path / "o.json"
    _emit(SimpleNamespace(output=str(out)), obj)
    assert out.read_text(encoding="utf-8") == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    for bad in ({"x": {1, 2}}, [object()], {(1,): 2}, {1: "a"}):  # the writer takes str keys only
        with pytest.raises(TypeError):
            _emit(SimpleNamespace(output=str(out)), bad)
