"""Every JSON input decodes exactly, in bounded time, or is refused with exit 3.

A profile is read by one key table and one term decoder: a key is a subset's labels
in ground-set order, comma-joined; a term key is a prime in canonical decimal; a
coefficient (and a probability) is an int or an "n/d" string.  These tests pin the
spellings that used to be read as something else, the trial-division cap, and a property
over the golden corpus: mutated JSON inputs exit 0, 2, 3 or 4 within 2 s, print no
traceback, and exit 0 only when the input is still canonical (``canonical_*`` below
define that, independently of the readers).
"""

import contextlib
import copy
import io
import itertools
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from defent import (
    Distribution,
    DomainError,
    LogValue,
    PartialProfile,
    Profile,
    entropy_profile,
    parse_matrix,
)
from defent.cli import main
from test_enumeration import fuzz_cases

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
HUGE_PRIME_KEY = str(10**30 + 57)  # prime, far above the trial-division cap


def golden(name):
    return json.loads((GOLDEN_INPUTS / name).read_text())


def run_cli(argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def assert_refused(argv):
    code, out, err, seconds = run_cli(argv)
    assert (code, out) == (3, ""), (argv, err)
    assert err.startswith("defent: ") and err.count("\n") == 1, err
    assert seconds < 2, (argv, seconds)
    return err


# -- the spellings that used to alias ------------------------------------------------

def kr5_with(edit):
    blob = golden("kr5.json")
    edit(blob["entries"])
    return blob


@pytest.mark.parametrize("edit, message", [
    (lambda e: e.update({"A,A": {"terms": {"3": "7/1"}}}), "'A,A' not within ground set"),
    (lambda e: e.update({"B,A": e.pop("A,B")}), "'B,A' not within ground set"),
    (lambda e: e["A"]["terms"].update({"02": "1/1"}), "'02' is not prime or not in canonical decimal"),
    (lambda e: e["A"]["terms"].update({"5": 0.1}), "Invalid literal for Fraction: 0.1"),
    (lambda e: e["A"]["terms"].update({HUGE_PRIME_KEY: "1/1"}), "exceeds the trial-division cap"),
    # an int read first must not let an equal float or bool through a later entry
    (lambda e: e.update({"A": {"terms": {"5": 2}}, "B": {"terms": {"5": 2.0}}}),
     "Invalid literal for Fraction: 2.0"),
    (lambda e: e.update({"A": {"terms": {"5": 1}}, "B": {"terms": {"5": True}}}),
     "Invalid literal for Fraction: True"),
])
def test_non_canonical_profile_json_exits_3(tmp_path, edit, message):
    # each was read at the parent, with exit 0: "A,A" replaced the entry of A (7 log 3
    # for 2 log 5), "02" was 2, 0.1 was 3602879701896397/36028797018963968; the
    # 31-digit prime key ran trial division past 30 s
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(kr5_with(edit)))
    for argv in (["check", str(path), "--expr", "H(A)"], ["factor", str(path), "--blocks", "P=A,B;Q=C,D"]):
        assert message in assert_refused(argv)
    with pytest.raises(DomainError, match=re.escape(message)):
        Profile.from_json(kr5_with(edit))


def test_many_labels_are_refused_before_any_subset_table(tmp_path):
    # 2^40 subsets: refused for the one entry given, before 2^40 keys or rows are built
    labels = [f"v{i}" for i in range(40)]
    blob = {"ground_set": labels, "entries": {"": {"terms": {}}}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(blob))
    err = assert_refused(["check", str(path), "--expr", "0"])
    assert "define all 1099511627776 subsets, got 1" in err
    start = time.perf_counter()
    for read in (Profile.from_json, PartialProfile.from_json, lambda b: Profile(labels, {})):
        with pytest.raises(DomainError, match="define all"):
            read(blob)
    assert time.perf_counter() - start < 2


def test_partial_profile_json_keeps_pinned_zeros_apart_from_nulls():
    x, y = frozenset({"x"}), frozenset({"y"})
    pp = PartialProfile(("x", "y"), {x: LogValue.zero(), y: LogValue({2: 1})})
    back = PartialProfile.from_json(json.loads(json.dumps(pp.to_json())))
    assert back.entries == pp.entries
    assert back.entries[x] == LogValue.zero() and back.entries[x | y] is None


@pytest.mark.parametrize("labels", [["", "x"], ["a,b", "c"], ["x", 1], "xy"])
def test_profile_labels_are_nonempty_strings_without_commas(labels):
    # {"ground_set": ["", "x"]} decoded at the parent, and its own to_json no longer re-parsed
    gs = labels if isinstance(labels, list) else list(labels)
    keys = {",".join(map(str, c)) for r in range(3) for c in itertools.combinations(gs, r)}
    blob = {"ground_set": labels, "entries": {k: {"terms": {}} for k in keys}}
    with pytest.raises(DomainError):
        Profile.from_json(blob)
    with pytest.raises(DomainError):
        PartialProfile.from_json(blob)
    if isinstance(labels, list):
        with pytest.raises(DomainError, match="non-empty string without ','"):
            Profile(labels, {})


def test_float_probability_exits_3(tmp_path):
    blob = golden("dist.json")
    for row in blob["support"]:
        row["prob"] = 0.2  # read as Fraction(0.2), not 1/5, at the parent
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(blob))
    assert "0.2" in assert_refused(["extend", "copy", str(path), "--L", "y"])
    with pytest.raises(DomainError):
        Distribution.from_json(blob)


def test_float_alpha_exits_3():
    argv = ["extend", "sw", str(GOLDEN_INPUTS / "hyp3.json"), "--L", "y", "--alpha",
            '{"terms": {"3": 0.5}}']
    assert "Invalid literal for Fraction: 0.5" in assert_refused(argv)


def test_log_value_json_spellings():
    want = LogValue({2: Fraction(-5, 9), 3: 2})
    assert LogValue.from_json({"terms": {"2": "-10/18", "3": 2, "5": "0/7"}}) == want
    for terms in ({"+2": "1/1"}, {" 2": "1/1"}, {"2": "1/2.0"}, {"2": " 1/2"}, {"2": "1"},
                  {"2": True}, {"2": 1.0}, {"2": "0x1/2"}, {"2": "1/00"}, {"2": "١/2"}):
        with pytest.raises(DomainError):
            LogValue.from_json({"terms": terms})


@pytest.mark.parametrize("argv", [
    ["count", "hyp.ring", "--p", "999999999999999989"],     # 18 digits, prime
    ["torus", "paper.mat", "--p", "999999999999999989"],
])
def test_huge_prime_field_exits_3_quickly(argv):
    # 8 s of trial division, then a budget error (exit 4), at the parent
    argv = [str(GOLDEN_INPUTS / a) if (GOLDEN_INPUTS / a).exists() else a for a in argv]
    assert "exceeds the trial-division cap" in assert_refused(argv)


# -- round trip ------------------------------------------------------------------

@settings(max_examples=60, derandomize=True, deadline=None)
@given(fuzz_cases())
def test_profile_json_round_trip_is_byte_identical(case):
    dset, spec = case
    try:
        h = entropy_profile(dset, spec)
    except DomainError:  # an empty set has no profile
        assume(False)
    text = json.dumps(h.to_json())
    back = Profile.from_json(json.loads(text))
    assert back == h and json.dumps(back.to_json()) == text


# -- mutated golden inputs ---------------------------------------------------------

def golden_matrix(name):
    mat = parse_matrix((GOLDEN_INPUTS / name).read_text())
    return {"labels": list(mat.labels), "rows": [list(r) for r in mat.rows]}


DOCUMENTS = {
    "profile": [golden(n) for n in ("kr5.json", "hyp3.json", "p343.json", "pair7.json")],
    "distribution": [golden("dist.json")],
    "matrix": [golden_matrix("paper.mat"), golden_matrix("diag.mat")],
}
COMMANDS = {
    "profile": [["check", "@", "--expr", "0"], ["check", "@", "--gmm"],
                ["extend", "sw", "@", "--alpha", "0"], ["extend", "ak", "@"],
                ["convolve", "@", "@"]],
    "distribution": [["extend", "copy", "@"], ["extend", "copy", "@", "--L", "x"]],
    "matrix": [["lincong", "@", "--m", "12"], ["snf", "@"], ["torus", "@", "--p", "5"]],
}

RATIONAL = re.compile(r"-?[0-9]+/[0-9]+")


def is_label_list(v):
    return (isinstance(v, list) and len(set(map(repr, v))) == len(v)
            and all(isinstance(x, str) and x and "," not in x for x in v))


def is_rational(v):
    return type(v) is int or (isinstance(v, str) and RATIONAL.fullmatch(v) is not None)


def canonical_profile(doc):
    """The profile JSON that to_json could write, up to coefficient values and extra keys
    of its objects: ground-set labels, one key per subset in ground-set order, terms whose
    keys are canonical decimals and whose coefficients are ints or "n/d" strings."""
    if not (isinstance(doc, dict) and is_label_list(doc.get("ground_set"))
            and isinstance(doc.get("entries"), dict)):
        return False
    gs = doc["ground_set"]
    keys = {",".join(c) for r in range(len(gs) + 1) for c in itertools.combinations(gs, r)}
    return set(doc["entries"]) == keys and all(
        isinstance(v, dict) and isinstance(v.get("terms"), dict)
        and all(re.fullmatch(r"-?(0|[1-9][0-9]*)", k) and is_rational(c)
                for k, c in v["terms"].items())
        for v in doc["entries"].values())


def canonical_distribution(doc):
    """Labels, a support of distinct outcomes (lists of strings) with int or "n/d"
    probabilities, and alphabets left out or given for exactly the labels, each a list
    of distinct strings."""
    if not (isinstance(doc, dict) and is_label_list(doc.get("ground_set"))
            and isinstance(doc.get("support"), list)):
        return False
    rows = doc["support"]
    if not all(isinstance(r, dict) and is_rational(r.get("prob"))
               and isinstance(r.get("outcome"), list)
               and all(isinstance(x, str) for x in r["outcome"]) for r in rows):
        return False
    if len({tuple(r["outcome"]) for r in rows}) != len(rows):
        return False
    alphabets = doc.get("alphabets", {})
    return isinstance(alphabets, dict) and (not alphabets or (
        set(alphabets) == set(doc["ground_set"])
        and all(isinstance(a, list) and all(isinstance(x, str) for x in a)
                and len(set(a)) == len(a) for a in alphabets.values())))


def canonical_matrix(doc):
    """Rows of ints (no bools), and labels left out or one label per row."""
    if not (isinstance(doc, dict) and isinstance(doc.get("rows"), list)):
        return False
    rows = doc["rows"]
    if not all(isinstance(r, list) and all(type(x) is int for x in r) for r in rows):
        return False
    return "labels" not in doc or (is_label_list(doc["labels"]) and len(doc["labels"]) == len(rows))


CANONICAL = {"profile": canonical_profile, "distribution": canonical_distribution,
             "matrix": canonical_matrix}

RESPELLINGS = [
    lambda s: ",".join(reversed(s.split(","))),
    lambda s: s + "," + s.split(",")[0],
    lambda s: " " + s,
    lambda s: s + " ",
    lambda s: "0" + s,
    lambda s: "+" + s,
    lambda s: s.swapcase(),
    lambda s: s.replace("/", " / "),
    lambda s: s.split("/")[0],
    lambda s: s.replace("/", ".0/"),
    lambda s: "",
    lambda s: ",",
    lambda s: HUGE_PRIME_KEY,
]


def retyped(v, how):
    if how == "float":
        try:
            return float(Fraction(v)) if not isinstance(v, bool) else 1.0
        except (TypeError, ValueError, ZeroDivisionError):
            return 0.5
    if how == "int":
        try:
            return int(Fraction(v))
        except (TypeError, ValueError, ZeroDivisionError):
            return 1
    if how == "str":
        return "".join(map(str, v)) if isinstance(v, list) else str(v)
    if how == "wide":
        return [f"v{i}" for i in range(40)]
    return {"null": None, "bool": True, "list": [v], "object": {"v": v}, "huge": 10**30}[how]


def containers(node):
    """Every dict and list inside node, node first."""
    if isinstance(node, (dict, list)):
        yield node
        for v in (node.values() if isinstance(node, dict) else node):
            yield from containers(v)


@st.composite
def mutated_documents(draw):
    """A golden JSON input after one to three drops, duplicates, respellings or retypings."""
    kind = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS[kind])))
    for _ in range(draw(st.integers(1, 3))):
        nodes = [c for c in containers(doc) if c]
        if not nodes:
            break
        node = draw(st.sampled_from(nodes))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        k = draw(st.sampled_from(keys))
        op = draw(st.sampled_from(["drop", "duplicate", "respell", "retype"]))
        if op == "drop":
            del node[k]
        elif op == "duplicate" and isinstance(node, list):
            node.insert(k, copy.deepcopy(node[k]))
        elif op in ("duplicate", "respell") and isinstance(node, dict):
            alias = draw(st.sampled_from(RESPELLINGS))(k)
            value = node[k] if op == "duplicate" else node.pop(k)
            node[alias] = copy.deepcopy(value)
        elif op == "respell" and isinstance(node[k], str):
            node[k] = draw(st.sampled_from(RESPELLINGS))(node[k])
        else:
            how = draw(st.sampled_from(["float", "int", "str", "null", "bool", "list",
                                        "object", "huge", "wide"]))
            node[k] = retyped(node[k], how)
    return kind, doc


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_golden_documents_are_canonical_and_read(tmp_path, kind):
    for i, doc in enumerate(DOCUMENTS[kind]):
        assert CANONICAL[kind](doc)
        path = tmp_path / f"{kind}{i}.json"
        path.write_text(json.dumps(doc))
        codes = {run_cli([str(path) if a == "@" else a for a in argv])[0]
                 for argv in COMMANDS[kind]}
        assert 0 in codes and codes <= {0, 3}, (kind, i, codes)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_documents())
def test_mutated_inputs_exit_cleanly_and_only_canonical_ones_are_read(tmp_path, case):
    kind, doc = case
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    for argv in COMMANDS[kind]:
        argv = [str(path) if a == "@" else a for a in argv]
        code, out, err, seconds = run_cli(argv)
        assert code in (0, 2, 3, 4) and seconds < 2, (argv, code, seconds, doc)
        if code:
            assert out == "" and err.startswith("defent: ") and err.count("\n") == 1, err
        else:
            assert CANONICAL[kind](doc), (argv, doc)
