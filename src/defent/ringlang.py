"""First-order language of rings: AST, parser, printer, evaluator.

Atomic formulas are polynomial equations with integer coefficients; the
connectives are ~, /\\, \\/, -> and the quantifiers exists/forall whose
variables range over the interpreting field.  A definable set is a named
formula with an ordered list of free variables and an optional partition
of those variables into blocks (used for factoring entropy profiles).

Set files use the grammar:

    set Name(v1, ..., vn) [blocks B1=(..); B2=(..) ...] := formula

A formula is one expression over integer literals and variables with, loosest
first: "->" (right-associative); "\\/"; "/\\"; prefix "~", "exists v." and
"forall v." (a body runs to the end); "=" and "!=" between terms; "+" and
"-"; "*"; unary "-"; "^" with a literal exponent >= 1.  A chain of \\/, of /\\,
of + and -, or of * is one n-ary node ("a - b" adds Neg(b)); "=", "!=" and
"^" do not chain.  A group "( )" is a term or a formula, as the operator
around it requires, and keeps its own node.  Input nested deeper than
MAX_DEPTH levels is rejected; a run of ~ or of unary - is one level, as the
walkers here, hashing, comparison, repr and pickling all loop over such runs.

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

class _Run:
    """Neg and Not nest in runs of any length ("---x", "~~~x = 0"); hashing,
    comparing, pickling and repr walk a run in a loop, not a Python frame per node."""

    def __repr__(self):
        k, inner = unwrap(self)
        return f"{type(self).__qualname__}(arg=" * k + repr(inner) + ")" * k

    def __hash__(self):
        return hash((type(self), *unwrap(self)))

    def __eq__(self, other):
        return type(other) is type(self) and unwrap(self) == unwrap(other)

    def __reduce__(self):
        return rewrap, (type(self), *unwrap(self))


def rewrap(cls, k, inner):
    """k nested cls nodes around inner, the inverse of unwrap."""
    for _ in range(k):
        inner = cls(inner)
    return inner


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

@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Run):
    arg: object

@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


@dataclass(frozen=True)
class Eq0:
    term: object

@dataclass(frozen=True, eq=False, repr=False)
class Not(_Run):
    arg: object

@dataclass(frozen=True)
class And:
    args: tuple

@dataclass(frozen=True)
class Or:
    args: tuple

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


_CHILDREN = {
    Var: lambda n: (), Const: lambda n: (), Pow: lambda n: (n.base,), Eq0: lambda n: (n.term,),
    Add: lambda n: n.args, Mul: lambda n: n.args, And: lambda n: n.args, Or: lambda n: n.args,
    Neg: lambda n: (n.arg,), Not: lambda n: (n.arg,), Implies: lambda n: (n.lhs, n.rhs),
    Exists: lambda n: (n.body,), Forall: lambda n: (n.body,),
}


def children(node) -> tuple:
    """The subterms and subformulas directly below node."""
    if type(node) not in _CHILDREN:
        raise TypeError(f"not a formula node: {node!r}")
    return _CHILDREN[type(node)](node)


def unwrap(node):
    """(k, inner): node is a run of k Neg, or of k Not, around inner (k = 0 for other nodes)."""
    cls, k = type(node), 0
    while isinstance(node, _Run) and type(node) is cls:
        node, k = node.arg, k + 1
    return k, node


def free_vars(phi) -> list:
    """Free variables in order of first occurrence."""
    out = {}

    def walk(node, bound):
        node = unwrap(node)[1]
        if isinstance(node, Var):
            if node.name not in bound:
                out.setdefault(node.name)
        elif isinstance(node, (Exists, Forall)):
            walk(node.body, bound | {node.var})
        else:
            for c in children(node):
                walk(c, bound)

    walk(phi, frozenset())
    return list(out)


def _height(phi) -> int:
    """Levels of phi's tree, a run of ~ or of unary - counting as one."""
    best, stack = 0, [(phi, 1)]
    while stack:
        node, h = stack.pop()
        best = max(best, h)
        for c in children(node):  # a run of Neg or of Not is one level
            stack.append((c, h if type(c) is type(node) and isinstance(c, _Run) else h + 1))
    return best


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
    """(kind, value, line, column) of each token, then an eof token."""
    tokens, pos, line, bol = [], 0, 1, 0  # bol: where the current line begins
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - bol + 1)
        if m.lastgroup == "nl":
            line, bol = line + 1, m.end()
        elif m.lastgroup not in ("ws", "comment"):
            tokens.append((m.lastgroup, m.group(), line, pos - bol + 1))
        pos = m.end()
    tokens.append(("eof", "", line, pos - bol + 1))
    return tokens


_KEYWORDS = {"set", "blocks", "exists", "forall"}

MAX_DEPTH = 200  # parser nesting and tree height: at < 4 frames a level, walkers stay < 1000

_TERMS = (Var, Const, Add, Mul, Neg, Pow)
# binding power of each infix operator; "=" and tighter ones take terms
_INFIX = {"->": 1, "\\/": 2, "/\\": 3, "=": 4, "!=": 4, "+": 5, "-": 5, "*": 6}
_ATOM = 4
_NARY = {2: Or, 3: And, 5: Add, 6: Mul}


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.quantified = set()
        self.declared = set()

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        self.pos += 1
        return self.toks[self.pos - 1]

    def accept(self, value):
        """Consume the next token if its value is value."""
        found = self.peek()[1] == value
        self.pos += found
        return found

    def fail(self, wanted, tok=None):
        kind, val, line, col = tok or self.peek()
        raise ParseError(f"expected {wanted}, found {val or 'end of input'!r}", line, col)

    def expect(self, value):
        if not self.accept(value):
            self.fail(repr(value))

    def name(self, what="name"):
        tok = self.next()
        if tok[0] != "name" or tok[1] in _KEYWORDS:
            self.fail(what, tok)
        return tok[1]

    def variables(self):
        """A parenthesised, comma-separated list of variable names."""
        self.expect("(")
        out = [self.name("variable")]
        while self.accept(","):
            out.append(self.name("variable"))
        self.expect(")")
        return out

    # -- set file ------------------------------------------------------------

    def parse_set(self):
        self.expect("set")
        name = self.name("set name")
        fv = self.variables()
        if len(set(fv)) != len(fv):
            dup = next(v for i, v in enumerate(fv) if v in fv[:i])
            raise ParseError(f"duplicate variable {dup!r} in declaration")
        self.declared = set(fv)
        blocks = {} if self.accept("blocks") else None
        while blocks is not None:  # one or more "B=(..)", separated by ";"
            bname = self.name("block label")
            self.expect("=")
            bvars = tuple(self.variables())
            if bname in blocks:
                raise ParseError(f"duplicate block {bname!r}")
            blocks[bname] = bvars
            if not self.accept(";"):
                break
        self.expect(":=")
        phi = self.whole_formula()

        fvs = free_vars(phi)
        extra = [v for v in fvs if v not in self.declared]
        if extra:
            raise ParseError(f"unbound variable {extra[0]!r} (not in declaration)")
        missing = [v for v in fv if v not in set(fvs)]
        if missing:
            raise ParseError(f"declared variable {missing[0]!r} does not occur free in the formula")
        if blocks is not None:
            flat = [v for bs in blocks.values() for v in bs]
            if sorted(flat) != sorted(fv):
                raise ParseError("blocks must partition the declared variables")
        return DefinableSet(name, tuple(fv), phi, blocks)

    # -- expressions ---------------------------------------------------------

    def whole_formula(self):
        phi = self.operand(1)
        kind, val, line, col = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {val!r} after formula", line, col)
        if _height(phi) > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels")
        return phi

    def operand(self, bp):
        """expr(bp), which is a term where bp binds tighter than "=", else a formula."""
        tok = self.peek()
        node = self.expr(bp)
        term = bp > _ATOM
        if isinstance(node, _TERMS) != term:
            self.fail("a term" if term else "'=' or '!='", tok if term else None)
        return node

    def expr(self, bp):
        """The longest term or formula whose operators bind at least as tightly as bp."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", *self.peek()[2:])
        left = self.prefix(bp)
        while True:
            op = self.peek()[1]
            op_bp = _INFIX.get(op)
            # a looser operator, or one taking the other kind of operand, ends left
            if op_bp is None or op_bp < bp or isinstance(left, _TERMS) != (op_bp >= _ATOM):
                break
            self.next()
            if op == "->":
                left = Implies(left, self.operand(1))
            elif op_bp == _ATOM:
                left = Eq0(_diff(left, self.operand(_ATOM + 1)))
                left = Not(left) if op == "!=" else left
            else:
                args = [left]
                while op:  # the chain's operators all share op_bp
                    arg = self.operand(op_bp + 1)
                    args.append(Neg(arg) if op == "-" else arg)
                    op = self.next()[1] if _INFIX.get(self.peek()[1]) == op_bp else None
                left = _NARY[op_bp](tuple(args))
        self.depth -= 1
        return left

    def prefix(self, bp):
        """A run of prefix operators, read in a loop, and the operand they apply to."""
        if bp <= _ATOM and self.peek()[1] in ("~", "exists", "forall"):
            nots = 0
            while self.accept("~"):
                nots += 1
            phi = self.quantifier() if self.peek()[1] in ("exists", "forall") else self.operand(_ATOM)
            return rewrap(Not, nots, phi)
        negs = 0
        while self.accept("-"):
            negs += 1
        tok = kind, val, line, col = self.next()
        if val == "(":
            base = self.expr(1)
            self.expect(")")
        elif kind == "num":
            base = Const(int(val))
        elif kind == "name" and val not in _KEYWORDS:
            base = Var(val)
        else:
            self.fail("a term", tok)
        if isinstance(base, _TERMS) and self.accept("^"):
            kind, exp, line, col = self.next()
            if kind != "num":
                raise ParseError("exponent must be a natural number literal", line, col)
            if int(exp) < 1:
                raise ParseError("exponent must be >= 1", line, col)
            base = Pow(base, int(exp))
        if negs and not isinstance(base, _TERMS):
            self.fail("a term", tok)
        return rewrap(Neg, negs, base)

    def quantifier(self):
        kind, val, line, col = self.next()
        var = self.name("quantified variable")
        if var in self.quantified:
            raise ParseError(f"quantifier variable {var!r} reused (shadowing rejected)", line, col)
        if var in self.declared:
            raise ParseError(f"quantifier shadows declared variable {var!r}", line, col)
        self.quantified.add(var)
        self.expect(".")
        return (Exists if val == "exists" else Forall)(var, self.operand(1))


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
    return _Parser(text).whole_formula()


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
        k, inner = unwrap(t)
        s = "-" * k + _term_str(inner, 3)
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
    if isinstance(phi, (Or, And)):
        level, op = (2, " \\/ ") if isinstance(phi, Or) else (3, " /\\ ")
        s = op.join(_formula_str(a, level + 1) for a in phi.args)
        return f"({s})" if prec > level else s
    if isinstance(phi, Not):
        k, inner = unwrap(phi)
        if isinstance(inner, Eq0):
            return "~" * (k - 1) + f"{_term_str(inner.term, 1)} != 0"
        return "~" * k + _formula_str(inner, 4)
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
    if isinstance(t, (Add, Mul)):
        op = spec.add if isinstance(t, Add) else spec.mul
        out = eval_term(t.args[0], env, spec)
        for a in t.args[1:]:
            out = op(out, eval_term(a, env, spec))
        return out
    if isinstance(t, Neg):
        k, inner = unwrap(t)
        value = eval_term(inner, env, spec)
        return spec.neg(value) if k % 2 else value
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
            k, inner = unwrap(node)
            return rec(inner) != bool(k % 2)
        if isinstance(node, (And, Or)):
            return (all if isinstance(node, And) else any)(rec(a) for a in node.args)
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
