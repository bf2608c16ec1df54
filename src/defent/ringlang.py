"""First-order language of rings: AST, parser, printer, evaluator.

Atomic formulas are polynomial equations with integer coefficients; the
connectives are ~, /\\, \\/, -> and the quantifiers exists/forall whose
variables range over the interpreting field.  A definable set is a named
formula with an ordered list of free variables and an optional partition
of those variables into blocks (used for factoring entropy profiles).

Set files use the grammar:

    set Name(v1, ..., vn) [blocks B1=(..); B2=(..) ...] := formula

    formula    := quantified | quantified "->" formula
    quantified := ("exists"|"forall") var "." formula | disj
    disj       := conj ("\\/" conj)*
    conj       := lit ("/\\" lit)*
    lit        := "~" lit | "(" formula ")" | atom
    atom       := term ("=" | "!=") term
    term       := arithmetic over + - * ^ with integer literals and
                  variables; ^ binds tightest, then unary -, then *,
                  then + and -.  Exponents are natural number literals.

"s = t" is sugar for "s - t = 0" and "s != t" for its negation; "->" is
the Implies node.  "#" starts a comment until end of line.  Quantified
variable names must be distinct from each other and from the declared
variables (shadowing is rejected at parse time).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DomainError
from .gf import FieldSpec


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        loc = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.col = col


# -- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str

@dataclass(frozen=True)
class Const:
    value: int

@dataclass(frozen=True)
class Add:
    args: tuple

@dataclass(frozen=True)
class Mul:
    args: tuple

@dataclass(frozen=True)
class Neg:
    arg: object

@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


@dataclass(frozen=True)
class Eq0:
    term: object

@dataclass(frozen=True)
class Not:
    arg: object

@dataclass(frozen=True)
class And:
    lhs: object
    rhs: object

@dataclass(frozen=True)
class Or:
    lhs: object
    rhs: object

@dataclass(frozen=True)
class Implies:
    lhs: object
    rhs: object

@dataclass(frozen=True)
class Exists:
    var: str
    body: object

@dataclass(frozen=True)
class Forall:
    var: str
    body: object


@dataclass(frozen=True)
class DefinableSet:
    name: str
    free_vars: tuple
    formula: object
    blocks: object = None  # dict block label -> tuple of variable names

    def block_map(self):
        if self.blocks is None:
            raise DomainError(f"set {self.name} declares no blocks")
        return dict(self.blocks)


def free_vars(phi) -> list:
    """Free variables in order of first occurrence."""
    out = []

    def walk(node, bound):
        if isinstance(node, (Var,)):
            if node.name not in bound and node.name not in out:
                out.append(node.name)
        elif isinstance(node, Const):
            pass
        elif isinstance(node, (Add, Mul)):
            for a in node.args:
                walk(a, bound)
        elif isinstance(node, Neg):
            walk(node.arg, bound)
        elif isinstance(node, Pow):
            walk(node.base, bound)
        elif isinstance(node, Eq0):
            walk(node.term, bound)
        elif isinstance(node, Not):
            walk(node.arg, bound)
        elif isinstance(node, (And, Or, Implies)):
            walk(node.lhs, bound)
            walk(node.rhs, bound)
        elif isinstance(node, (Exists, Forall)):
            walk(node.body, bound | {node.var})
        else:
            raise TypeError(f"not a formula node: {node!r}")

    walk(phi, frozenset())
    return out


# -- tokenizer -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<num>\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<op>:=|->|!=|/\\|\\/|[()=+\-*^~.,;])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []  # (kind, value, line, col)
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(val)
        else:
            tokens.append((kind, val, line, col))
            col += len(val)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


_KEYWORDS = {"set", "blocks", "exists", "forall"}


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0
        self.quantified = set()
        self.declared = set()

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, value):
        kind, val, line, col = self.peek()
        if val != value or kind == "eof":
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", line, col)
        return self.next()

    def name(self, what="name"):
        kind, val, line, col = self.peek()
        if kind != "name" or val in _KEYWORDS:
            raise ParseError(f"expected {what}, found {val or 'end of input'!r}", line, col)
        self.next()
        return val

    # -- set file ------------------------------------------------------------

    def parse_set(self):
        self.expect("set")
        name = self.name("set name")
        self.expect("(")
        fv = [self.name("variable")]
        while self.peek()[1] == ",":
            self.next()
            fv.append(self.name("variable"))
        self.expect(")")
        if len(set(fv)) != len(fv):
            dup = next(v for i, v in enumerate(fv) if v in fv[:i])
            raise ParseError(f"duplicate variable {dup!r} in declaration")
        self.declared = set(fv)
        blocks = None
        if self.peek()[1] == "blocks":
            self.next()
            blocks = {}
            while True:
                bname = self.name("block label")
                self.expect("=")
                self.expect("(")
                bvars = [self.name("variable")]
                while self.peek()[1] == ",":
                    self.next()
                    bvars.append(self.name("variable"))
                self.expect(")")
                if bname in blocks:
                    raise ParseError(f"duplicate block {bname!r}")
                blocks[bname] = tuple(bvars)
                if self.peek()[1] == ";":
                    self.next()
                    continue
                break
        self.expect(":=")
        phi = self.formula()
        kind, val, line, col = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {val!r} after formula", line, col)

        fvs = free_vars(phi)
        extra = [v for v in fvs if v not in self.declared]
        if extra:
            raise ParseError(f"unbound variable {extra[0]!r} (not in declaration)")
        missing = [v for v in fv if v not in set(fvs)]
        if missing:
            raise ParseError(
                f"declared variable {missing[0]!r} does not occur free in the formula"
            )
        if blocks is not None:
            flat = [v for bs in blocks.values() for v in bs]
            if sorted(flat) != sorted(fv):
                raise ParseError("blocks must partition the declared variables")
        return DefinableSet(name, tuple(fv), phi, blocks)

    # -- formulas ----------------------------------------------------------------

    def formula(self):
        lhs = self.quantified_level()
        if self.peek()[1] == "->":
            self.next()
            return Implies(lhs, self.formula())
        return lhs

    def quantified_level(self):
        kind, val, line, col = self.peek()
        if val in ("exists", "forall"):
            self.next()
            var = self.name("quantified variable")
            if var in self.quantified:
                raise ParseError(f"quantifier variable {var!r} reused (shadowing rejected)", line, col)
            if var in self.declared:
                raise ParseError(f"quantifier shadows declared variable {var!r}", line, col)
            self.quantified.add(var)
            self.expect(".")
            body = self.formula()
            return (Exists if val == "exists" else Forall)(var, body)
        return self.disj()

    def disj(self):
        out = self.conj()
        while self.peek()[1] == "\\/":
            self.next()
            out = Or(out, self.conj())
        return out

    def conj(self):
        out = self.lit()
        while self.peek()[1] == "/\\":
            self.next()
            out = And(out, self.lit())
        return out

    def lit(self):
        kind, val, _, _ = self.peek()
        if val == "~":
            self.next()
            return Not(self.lit())
        if val in ("exists", "forall"):
            return self.quantified_level()
        if val == "(":
            # could open a formula or a parenthesized term; backtrack on failure
            save = self.pos
            saved_q = set(self.quantified)
            self.next()
            try:
                inner = self.formula()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = save
                self.quantified = saved_q
        return self.atom()

    def atom(self):
        lhs = self.term()
        kind, val, line, col = self.peek()
        if val == "=":
            self.next()
            rhs = self.term()
            return Eq0(_diff(lhs, rhs))
        if val == "!=":
            self.next()
            rhs = self.term()
            return Not(Eq0(_diff(lhs, rhs)))
        raise ParseError(f"expected '=' or '!=', found {val or 'end of input'!r}", line, col)

    # -- terms --------------------------------------------------------------------

    def term(self):
        args = [self.product()]
        while True:
            val = self.peek()[1]
            if val == "+":
                self.next()
                args.append(self.product())
            elif val == "-":
                self.next()
                args.append(Neg(self.product()))
            else:
                break
        return args[0] if len(args) == 1 else Add(tuple(args))

    def product(self):
        args = [self.unary()]
        while self.peek()[1] == "*":
            self.next()
            args.append(self.unary())
        return args[0] if len(args) == 1 else Mul(tuple(args))

    def unary(self):
        if self.peek()[1] == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.primary()
        if self.peek()[1] == "^":
            self.next()
            kind, val, line, col = self.peek()
            if kind != "num":
                raise ParseError("exponent must be a natural number literal", line, col)
            self.next()
            n = int(val)
            if n < 1:
                raise ParseError("exponent must be >= 1", line, col)
            return Pow(base, n)
        return base

    def primary(self):
        kind, val, line, col = self.peek()
        if kind == "num":
            self.next()
            return Const(int(val))
        if kind == "name" and val not in _KEYWORDS:
            self.next()
            return Var(val)
        if val == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        raise ParseError(f"expected a term, found {val or 'end of input'!r}", line, col)


def _diff(lhs, rhs):
    if rhs == Const(0):
        return lhs
    if lhs == Const(0):
        return Neg(rhs)
    head = lhs.args if isinstance(lhs, Add) else (lhs,)
    return Add(head + (Neg(rhs),))


def parse_set(text: str) -> DefinableSet:
    """Parse a 'set Name(...) ... := formula' definition."""
    return _Parser(text).parse_set()


def parse_formula(text: str):
    """Parse a bare formula (no 'set' header)."""
    p = _Parser(text)
    phi = p.formula()
    kind, val, line, col = p.peek()
    if kind != "eof":
        raise ParseError(f"unexpected {val!r} after formula", line, col)
    return phi


# -- pretty printing ------------------------------------------------------------

def _term_str(t, prec=0):
    # precedence: 1 sum, 2 product, 3 unary minus, 4 power
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, Add):
        parts = [_term_str(t.args[0], 2)]
        for a in t.args[1:]:
            if isinstance(a, Neg):
                parts.append(" - " + _term_str(a.arg, 2))
            else:
                parts.append(" + " + _term_str(a, 2))
        s = "".join(parts)
        return f"({s})" if prec > 1 else s
    if isinstance(t, Mul):
        s = "*".join(_term_str(a, 3) for a in t.args)
        return f"({s})" if prec > 2 else s
    if isinstance(t, Neg):
        s = "-" + _term_str(t.arg, 3)
        return f"({s})" if prec > 3 else s
    if isinstance(t, Pow):
        s = f"{_term_str(t.base, 5)}^{t.exp}"
        return f"({s})" if prec > 4 else s
    raise TypeError(f"not a term: {t!r}")


def _formula_str(phi, prec=0):
    # precedence: 1 implies, 2 or, 3 and, 4 literal
    if isinstance(phi, Implies):
        s = f"{_formula_str(phi.lhs, 2)} -> {_formula_str(phi.rhs, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(phi, (Exists, Forall)):
        q = "exists" if isinstance(phi, Exists) else "forall"
        s = f"{q} {phi.var}. {_formula_str(phi.body, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(phi, Or):
        s = f"{_formula_str(phi.lhs, 2)} \\/ {_formula_str(phi.rhs, 3)}"
        return f"({s})" if prec > 2 else s
    if isinstance(phi, And):
        s = f"{_formula_str(phi.lhs, 3)} /\\ {_formula_str(phi.rhs, 4)}"
        return f"({s})" if prec > 3 else s
    if isinstance(phi, Not):
        if isinstance(phi.arg, Eq0):
            return f"{_term_str(phi.arg.term, 1)} != 0"
        return f"~{_formula_str(phi.arg, 4)}"
    if isinstance(phi, Eq0):
        return f"{_term_str(phi.term, 1)} = 0"
    raise TypeError(f"not a formula: {phi!r}")


def formula_str(phi) -> str:
    return _formula_str(phi)


def set_str(dset: DefinableSet) -> str:
    head = f"set {dset.name}({', '.join(dset.free_vars)})"
    if dset.blocks:
        bs = "; ".join(f"{b}=({', '.join(vs)})" for b, vs in dset.blocks.items())
        head += f" blocks {bs}"
    return f"{head} := {_formula_str(dset.formula)}"


# -- evaluation -----------------------------------------------------------------

def eval_term(t, env: dict, spec: FieldSpec) -> int:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise DomainError(f"no assignment for variable {t.name!r}") from None
    if isinstance(t, Const):
        # Z -> GF(p^e) lands in the prime subfield; index of a constant is c mod p
        return t.value % spec.p
    if isinstance(t, Add):
        out = eval_term(t.args[0], env, spec)
        for a in t.args[1:]:
            out = spec.add(out, eval_term(a, env, spec))
        return out
    if isinstance(t, Mul):
        out = eval_term(t.args[0], env, spec)
        for a in t.args[1:]:
            out = spec.mul(out, eval_term(a, env, spec))
        return out
    if isinstance(t, Neg):
        return spec.neg(eval_term(t.arg, env, spec))
    if isinstance(t, Pow):
        return spec.pow(eval_term(t.base, env, spec), t.exp)
    raise TypeError(f"not a term: {t!r}")


def eval_formula(phi, assignment: dict, spec: FieldSpec) -> bool:
    """Truth of phi over GF(spec) under the given free-variable assignment.

    Quantifiers iterate the field enumeration with short-circuit.
    """
    missing = [v for v in free_vars(phi) if v not in assignment]
    if missing:
        raise DomainError(f"no assignment for variable {missing[0]!r}")
    env = dict(assignment)

    def rec(node):
        if isinstance(node, Eq0):
            return eval_term(node.term, env, spec) == 0
        if isinstance(node, Not):
            return not rec(node.arg)
        if isinstance(node, And):
            return rec(node.lhs) and rec(node.rhs)
        if isinstance(node, Or):
            return rec(node.lhs) or rec(node.rhs)
        if isinstance(node, Implies):
            return (not rec(node.lhs)) or rec(node.rhs)
        if isinstance(node, (Exists, Forall)):
            want = isinstance(node, Exists)
            outer = env.get(node.var)  # a free variable of the same name, restored after
            result = not want
            for v in spec.elements():
                env[node.var] = v
                if rec(node.body) == want:
                    result = want
                    break
            if outer is None:
                del env[node.var]
            else:
                env[node.var] = outer
            return result
        raise TypeError(f"not a formula: {node!r}")

    return rec(phi)
