import itertools
import pickle

import pytest

from defent import DomainError, ParseError, eval_formula, field, free_vars, parse_set
from defent.ringlang import (
    MAX_DEPTH,
    Add,
    And,
    Const,
    Eq0,
    Exists,
    Forall,
    Implies,
    Mul,
    Neg,
    Not,
    Or,
    Pow,
    Var,
    formula_str,
    parse_formula,
    set_str,
)
from conftest import KR_TEXT


def test_parse_hyperbola():
    d = parse_set("set Hyp(x,y) := x*y = 0")
    assert d.name == "Hyp"
    assert d.free_vars == ("x", "y")
    assert d.formula == Eq0(Mul((Var("x"), Var("y"))))


def test_parse_sqrt():
    d = parse_set("set Sq(y) := exists x. x^2 + y^2 = 0")
    assert d.free_vars == ("y",)
    assert isinstance(d.formula, Exists)


def test_parse_kr(kr_set):
    d = kr_set
    assert len(d.free_vars) == 9
    assert set(d.blocks) == {"A", "B", "C", "D"}
    assert d.blocks["D"] == ("d0", "d1", "d2")

    def gather(phi):
        if isinstance(phi, And):
            return [c for a in phi.args for c in gather(a)]
        return [phi]

    lits = gather(d.formula)
    eqs = [l for l in lits if isinstance(l, Eq0)]
    diseqs = [l for l in lits if isinstance(l, Not) and isinstance(l.arg, Eq0)]
    assert len(eqs) == 4 and len(diseqs) == 2


def test_sugar():
    d = parse_set("set S(x) := x = 3")
    assert d.formula == Eq0(Add((Var("x"), Neg(Const(3)))))
    d2 = parse_set("set S(x) := x != 0")
    assert d2.formula == Not(Eq0(Var("x")))
    d3 = parse_set("set S(x) := x^2 = 0")
    assert d3.formula == Eq0(Pow_x2())


def Pow_x2():
    from defent.ringlang import Pow

    return Pow(Var("x"), 2)


def test_implies_is_a_node():
    phi = parse_formula("x = 0 -> x*x = 0")
    from defent.ringlang import Implies

    assert isinstance(phi, Implies)


def test_free_vars_examples():
    assert free_vars(parse_formula("x = 0")) == ["x"]
    assert free_vars(parse_formula("exists x. x*y = 0")) == ["y"]
    assert free_vars(parse_formula("forall t. t^2 + 1 != 0")) == []


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_set("set A(x) :=\n x + = 0")
    assert "line 2" in str(exc.value)


def test_unbound_and_duplicate_variables():
    with pytest.raises(ParseError, match="unbound"):
        parse_set("set A(x) := x*y = 0")
    with pytest.raises(ParseError, match="duplicate"):
        parse_set("set A(x, x) := x = 0")
    with pytest.raises(ParseError, match="does not occur"):
        parse_set("set A(x, y) := x = 0")


def test_shadowing_rejected():
    with pytest.raises(ParseError, match="shadow"):
        parse_set("set A(y) := exists x. exists x. x + y = 0")
    with pytest.raises(ParseError, match="shadow"):
        parse_set("set A(y) := exists y. y = 0")


def test_blocks_must_partition():
    with pytest.raises(ParseError, match="partition"):
        parse_set("set A(x, y) blocks B=(x) := x*y = 0")
    with pytest.raises(ParseError, match="duplicate block"):
        parse_set("set A(x, y) blocks B=(x); B=(y) := x*y = 0")


def test_comments_and_whitespace():
    d = parse_set("# heading\nset A(x) := # inline\n  x = 0\n")
    assert d.free_vars == ("x",)


def test_round_trip_identity(kr_set, sqrt_set=None):
    texts = [
        KR_TEXT,
        "set Sq(y) := exists x. x^2 + y^2 = 0",
        "set T(x, y) := ~(x = 0 \\/ y = 0) /\\ x + y != 2",
        "set U(x) := forall t. t*x = 0 -> x = 0",
        "set W(x, y) := -x^2 - (x - y)*3 = y \\/ x != y",
        "set P(x) := (x^2)^3 = 1",
    ]
    for text in texts:
        d1 = parse_set(text)
        d2 = parse_set(set_str(d1))
        assert d1 == d2, text


def test_operator_precedence():
    # ^ binds tightest, then unary -, then *, then + -
    t1 = parse_formula("-x^2 = 0")
    assert t1 == parse_formula("-(x^2) = 0")
    assert parse_formula("2*x + y = 0") == parse_formula("(2*x) + y = 0")
    assert parse_formula("x + y*z^2 = 0") == parse_formula("x + (y*(z^2)) = 0")


def test_parenthesized_term_vs_formula():
    # both readings of "(" must parse
    assert free_vars(parse_formula("(x + 1)*(x - 1) = 0")) == ["x"]
    assert free_vars(parse_formula("(x = 0 /\\ y = 0)")) == ["x", "y"]


def test_eval_examples():
    F5, F7 = field(5), field(7)
    hyp = parse_formula("x*y = 0")
    assert eval_formula(hyp, {"x": 0, "y": 3}, F5)
    sq = parse_formula("exists x. x^2 + y^2 = 0")
    assert eval_formula(sq, {"y": 1}, F5)
    assert not eval_formula(sq, {"y": 1}, F7)
    with pytest.raises(DomainError, match="assignment"):
        eval_formula(hyp, {"x": 0}, F5)


def test_eval_constants_reduce_mod_p():
    phi = parse_formula("x + 7 = 2")
    assert eval_formula(phi, {"x": 0}, field(5))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_de_morgan_quantifier_duality(p, e):
    spec = field(p, e)
    body = parse_formula("x*y + z = 1")
    ex = Exists("x", body)
    fa = Forall("x", body)
    for y, z in itertools.product(spec.elements(), repeat=2):
        env = {"y": y, "z": z}
        assert eval_formula(Not(ex), env, spec) == eval_formula(Forall("x", Not(body)), env, spec)
        assert eval_formula(Not(fa), env, spec) == eval_formula(Exists("x", Not(body)), env, spec)
        assert eval_formula(Not(body), {**env, "x": y}, spec) == (
            not eval_formula(body, {**env, "x": y}, spec)
        )


def test_formula_str_examples():
    assert formula_str(parse_formula("x != 3")) == "x - 3 != 0"
    s = formula_str(parse_formula("exists x. x^2 + y^2 = 0"))
    assert s == "exists x. x^2 + y^2 = 0"


X, Y, A, B, C = Var("x"), Var("y"), Eq0(Var("a")), Eq0(Var("b")), Eq0(Var("c"))


@pytest.mark.parametrize("text, ast", [
    ("(x + 1)*(x - 1) = 0", Eq0(Mul((Add((X, Const(1))), Add((X, Neg(Const(1)))))))),
    ("(x = 0) /\\ y = 0", And((Eq0(X), Eq0(Y)))),
    ("~x = 0 /\\ y = 0", And((Not(Eq0(X)), Eq0(Y)))),  # ~ takes the atom only
    ("exists u. a = 0 /\\ b = 0", Exists("u", And((A, B)))),  # the body runs to the end
    ("a = 0 -> b = 0 -> c = 0", Implies(A, Implies(B, C))),
    ("-x^2*y = 0", Eq0(Mul((Neg(Pow(X, 2)), Y)))),
    ("a - b - c = 0", Eq0(Add((Var("a"), Neg(Var("b")), Neg(Var("c")))))),
    ("a = 0 /\\ b = 0 /\\ c = 0", And((A, B, C))),
    ("(a = 0 /\\ b = 0) /\\ c = 0", And((And((A, B)), C))),  # a group keeps its node
    ("a = 0 \\/ b = 0 /\\ c = 0 \\/ a = 0", Or((A, And((B, C)), A))),
    ("~~(x) = 0", Not(Not(Eq0(X)))),
    ("--x = y", Eq0(Add((Neg(Neg(X)), Neg(Y))))),
])
def test_grammar_pins_the_ast(text, ast):
    assert parse_formula(text) == ast
    assert parse_formula(formula_str(ast)) == ast


@pytest.mark.parametrize("text", [
    "x = 0 = 0", "x^2^3 = 0", "(x = 0) + 1 = 0", "x + (y = 0) = 0", "-(x = 0)",
    "x /\\ y = 0", "~x", "x = ~y", "(x = 0", "x = 0)", "x^0 = 0", "x^y = 0",
    "exists x. exists x. x = 0", "x = 0 ->", "",
])
def test_malformed_formulas_are_parse_errors(text):
    with pytest.raises(ParseError):
        parse_formula(text)


@pytest.mark.parametrize("n", [2000, 100_000])
def test_long_chains_and_runs_parse_in_a_loop(n):
    assert parse_formula(" /\\ ".join(["x = 0"] * n)) == And((Eq0(X),) * n)
    assert len(parse_formula(" \\/ ".join(["x = 0"] * n)).args) == n
    phi = parse_formula("~" * n + "-" * n + "x = 0")
    assert phi == parse_formula(formula_str(phi))
    assert pickle.loads(pickle.dumps(phi)) == phi and hash(phi) == hash(Not(phi.arg))
    assert eval_formula(phi, {"x": 1}, field(3)) == (n % 2 == 1)


@pytest.mark.parametrize("n", [1, 5000])
def test_repr_of_long_runs_is_the_dataclass_text(n):
    phi = parse_formula("~" * n + "-" * n + "x = 0")
    assert repr(phi) == "Not(arg=" * n + "Eq0(term=" + "Neg(arg=" * n + "Var(name='x')" + ")" * (2 * n + 1)


@pytest.mark.parametrize("text", [
    "(" * MAX_DEPTH + "x = 0" + ")" * MAX_DEPTH,          # parser recursion
    "x = 0 -> " * MAX_DEPTH + "x = 0",                     # one Implies per arrow
    "(" * MAX_DEPTH + "x" + ")^2*x" * MAX_DEPTH + " = 0",  # tree height, not parser depth
])
def test_nesting_past_the_limit_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_formula(text)
