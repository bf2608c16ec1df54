"""Vectorized point enumeration for definable sets over finite fields.

A plan pass runs first.  A top-level conjunct s*v + rest = 0 (s = +-1)
defines v when v is a declared free variable occurring in no summand of
rest and rest names no variable bound anywhere in the formula; the
conjunct is dropped and v := -s*rest substituted into the other conjuncts
and the earlier definitions, until no conjunct defines a variable.  Only
the kept variables are enumerated (``max_evals`` bounds that grid), and
``collect_points_vec`` rebuilds each eliminated column from the kept ones
with the engine's own term evaluation, then restores the lexicographic
order of the declared variables by one flat-key argsort (q^n < 2^63).

Field elements stay element indices (gf's canonical encoding) end to end.
Every variable walked on the grid owns one numpy axis: the free variables
in declaration order, then each quantified variable that a quantifier
materialises (not vacuous, not decided by match counting).  A subterm is
evaluated only over the axes of the variables it mentions and broadcasting
combines the results, so a subterm free of a quantified variable is
computed once per chunk, not once per value of it.  ``exists``/``forall``
reduce the body with ``any``/``all`` over the quantified variable's axis.

Arithmetic on indices: prime fields use native ``% p`` and reduce each
fresh result in place, so an operation holds one chunk-sized array, not
two; no operation writes into its operands.  Extension fields add and
negate digit-wise and multiply through O(q) log/exp tables built from the
field's generator, in their final dtypes; when q x q ``ADD``/``MUL``
tables fit ``_TABLE_BYTES`` they are derived from those and used instead,
so the choice follows from q alone.  Tables are built per field on first
use and kept for the ``_ENGINE_CACHE`` most recently used fields.

A quantified atom that splits additively into an x-part and an x-free
part is decided by match counting: the value multiset of the x-part is
counted once per plan (one per call), and the x-free part is looked up in
it, so such a quantifier adds no axis; the engine keeps nothing per
formula.  All of this is evaluation order only: results agree with the
scalar reference evaluator (ringlang.eval_formula) on every input.

The free grid is cut into chunks, contiguous flat-index ranges made of
fixed leading axes, one sliced axis and full trailing axes, sized so that
a chunk times the quantifier axes it materialises stays within
``_CHUNK_ELEMS`` = 2^19 elements; a quantifier axis too large for that is
walked in blocks with an early exit once every row is decided.  The bound
keeps an evaluation's working memory independent of the grid's size: an
array over a chunk is at most 2 MiB at int32, the widest index dtype of
prime fields below p = 46,341.  Each chunk is a pure function of its
range and partial results are merged in chunk order, so results are
identical for any worker count.
"""

from __future__ import annotations

import functools

import numpy as np

from . import ringlang as rl
from .errors import BudgetError, DomainError
from .gf import FieldSpec

DEFAULT_MAX_EVALS = 10**9
# at most 2 MiB per chunk-sized array at int32, the widest prime-field dtype below p = 46,341
_CHUNK_ELEMS = 1 << 19
_TABLE_BYTES = 1 << 22  # int16 q x q ADD plus MUL: q <= 1024
_ENGINE_CACHE = 8
_MAX_AXES = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32  # numpy's ndim limit


@functools.lru_cache(maxsize=_ENGINE_CACHE)
def get_engine(spec: FieldSpec) -> "_Engine":
    return _Engine(spec)


def _index_dtype(bound: int):
    """Smallest signed dtype holding every value below ``bound`` (else Python ints)."""
    for dt in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dt).max:
            return dt
    return object


class _Engine:
    """Arithmetic of one field on arrays of element indices."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.e = spec.e
        self.q = spec.q
        # prime fields multiply before reducing, extension fields add digits
        self.dtype = _index_dtype(self.p * self.p if self.e == 1 else 2 * self.q)
        self.tables = self.e > 1 and 4 * self.q * self.q <= _TABLE_BYTES
        self._pows: dict[int, np.ndarray] = {}
        if self.e > 1:
            self._build_log_exp()
            self.NEG = self._digitwise(lambda d: -d, np.arange(self.q, dtype=self.dtype))

    @functools.cached_property
    def ADD(self):
        idx = np.arange(self.q, dtype=self.dtype)
        return self._digitwise(lambda d, f: d + f, idx[:, None], idx[None, :])

    @functools.cached_property
    def MUL(self):
        idx = np.arange(self.q, dtype=self.dtype)
        return self._log_mul(idx[:, None], idx[None, :])

    def _digitwise(self, op, *args):
        """Apply op to the base-p digits of index arrays, digit by digit, mod p.

        Each digit's fresh result is reduced, scaled and summed in place; a
        0-d operand gives numpy scalars, which the in-place operators rebind.
        """
        p = self.p
        out = None
        place = 1
        for _ in range(self.e):
            d = op(*(a // place for a in args))
            d %= p
            d *= place
            if out is None:
                out = d
            else:
                out += d
            place *= p
        return out

    def _build_log_exp(self):
        """EXP[k] = g^k by doubling with the multiply-by-g^m matrix over F_p.

        Digit row vectors times ``comp`` multiply by x; the matrix of the
        generator g is then sum g_i comp^i, and rows [m, 2m) of the powers
        are rows [0, m) times g^m.  LOG[0] is a sentinel 2q - 3 whose sums
        all land in the zero tail of EXP, so ``EXP[LOG a + LOG b]`` needs
        no mask for zero factors.
        """
        p, e, q = self.p, self.e, self.q
        dt = _index_dtype(e * (p - 1) ** 2)  # a digit row times a matrix, before % p
        comp = np.zeros((e, e), dtype=dt)
        comp[np.arange(e - 1), np.arange(1, e)] = 1
        comp[e - 1] = [(-c) % p for c in self.spec.modulus[:e]]
        step = np.zeros((e, e), dtype=dt)
        power = np.eye(e, dtype=dt)
        for gi in self.spec.digits(self.spec.generator()):
            step = (step + gi * power) % p
            power = power @ comp % p
        digits = np.zeros((q - 1, e), dtype=dt)
        digits[0, 0] = 1
        m = 1
        while m < q - 1:
            k = min(m, q - 1 - m)
            block = np.matmul(digits[:k], step, out=digits[m : m + k])
            block %= p
            step = step @ step % p
            m += k
        self.EXP = np.zeros(4 * q - 5, dtype=self.dtype)
        exp = self.EXP[: q - 1]
        for i in range(e - 1, -1, -1):  # Horner over the digit columns
            exp *= p
            exp += digits[:, i]
        del digits
        self.EXP[q - 1 : 2 * q - 3] = exp[: q - 2]
        self.LOG = np.full(q, -1, dtype=_index_dtype(4 * q))
        self.LOG[exp] = np.arange(q - 1, dtype=self.LOG.dtype)
        if (self.LOG[1:] < 0).any():
            raise RuntimeError(f"{self.spec!r}: generator does not span the group")
        self.LOG[0] = 2 * q - 3

    def _log_mul(self, a, b):
        return self.EXP[self.LOG[a] + self.LOG[b]]

    # -- field arithmetic on index arrays --------------------------------------

    def const(self, value: int):
        return np.asarray(value % self.p, dtype=self.dtype)

    # Prime fields reduce each fresh result in place, never an operand: on
    # numpy scalars (0-d operands) ``%=`` rebinds instead of writing.

    def add(self, a, b):
        if self.e == 1:
            r = a + b
            r %= self.p
            return r
        if self.tables:
            return self.ADD[a, b]
        return self._digitwise(lambda d, f: d + f, a, b)

    def sub(self, a, b):
        if self.e == 1:
            r = a - b
            r %= self.p
            return r
        return self.add(a, self.NEG[b])

    def neg(self, a):
        if self.e == 1:
            r = -a
            r %= self.p
            return r
        return self.NEG[a]

    def mul(self, a, b):
        if self.e == 1:
            r = a * b
            r %= self.p
            return r
        if self.tables:
            return self.MUL[a, b]
        return self._log_mul(a, b)

    def pow(self, a, n: int):
        if n == 0:
            return np.ones_like(a)
        if self.e == 1:
            result = None
            while n:
                if n & 1:
                    result = a if result is None else self.mul(result, a)
                n >>= 1
                if n:
                    a = self.mul(a, a)
            return result
        vec = self._pows.get(n)
        if vec is None:
            logs = self.LOG[1:].astype(np.int64) * n % (self.q - 1)
            vec = self._pows[n] = np.concatenate([[0], self.EXP[logs]]).astype(self.dtype)
        return vec[a]

    # -- terms -----------------------------------------------------------------

    def term(self, t, env):
        if isinstance(t, rl.Var):
            return env[t.name]
        if isinstance(t, rl.Const):
            return self.const(t.value)
        if isinstance(t, (rl.Add, rl.Neg)):
            return self.signed_sum(self.summand_values(t, env))
        if isinstance(t, rl.Mul):
            vals = sorted((self.term(a, env) for a in t.args), key=np.size)
            return functools.reduce(self.mul, vals)
        if isinstance(t, rl.Pow):
            return self.pow(self.term(t.base, env), t.exp)
        raise TypeError(f"not a term: {t!r}")

    def summand_values(self, t, env):
        """(sign, value) per summand, smallest broadcast shape first."""
        vals = [(s, self.term(u, env)) for s, u in _summands(t)]
        return sorted(vals, key=lambda sv: np.size(sv[1]))

    def signed_sum(self, vals):
        (sign, out), *rest = vals
        if sign < 0:
            out = self.neg(out)
        for sign, v in rest:
            out = self.add(out, v) if sign > 0 else self.sub(out, v)
        return out

    def is_zero(self, t, env):
        """Truth of t = 0; the largest summand is compared, not added."""
        vals = self.summand_values(t, env)
        if len(vals) == 1:
            return vals[0][1] == 0
        rest = self.signed_sum(vals[:-1])
        sign, big = vals[-1]
        return (rest if sign < 0 else self.neg(rest)) == big

    # -- additive quantifiers --------------------------------------------------

    def decision(self, node, split):
        """Truth of ``node`` per value h of its x-free part, a bool vector of length q."""
        xonly, _, negated = split
        elems = np.arange(self.q, dtype=self.dtype)
        sval = self.signed_sum([(s, self.term(u, {node.var: elems})) for s, u in xonly])
        cnt = np.bincount(np.broadcast_to(sval, (self.q,)).astype(np.int64), minlength=self.q)
        cnt = cnt[self.neg(elems)]  # x-part = -h
        if isinstance(node, rl.Exists):
            return cnt < self.q if negated else cnt >= 1
        return cnt == 0 if negated else cnt == self.q


def _summands(t):
    """(sign, summand) pairs of t through nested sums and negations, in order."""
    k, t = rl.unwrap(t)
    sign = -1 if k % 2 else 1
    if not isinstance(t, rl.Add):
        return [(sign, t)]
    return [(sign * s, u) for a in t.args for s, u in _summands(a)]


def _additive_split(node):
    """(x-only summands, x-free summands, negated) of a quantified atom, or None.

    Applies when the body is t = 0 or t != 0 and every summand of t
    involves either only the quantified variable or none of it.
    """
    body = node.body
    negated = isinstance(body, rl.Not)
    if negated:
        body = body.arg
    if not isinstance(body, rl.Eq0):
        return None
    xonly, xfree = [], []
    for sign, u in _summands(body.term):
        vs = set(rl.free_vars(u))
        if node.var not in vs:
            xfree.append((sign, u))
        elif vs == {node.var}:
            xonly.append((sign, u))
        else:
            return None
    return (tuple(xonly), tuple(xfree), negated) if xonly else None


def _subformulas(phi) -> list:
    """The subformulas of phi in preorder, a run of ~ as its inner formula."""
    out, stack = [], [phi]
    while stack:
        node = rl.unwrap(stack.pop())[1]
        out.append(node)
        if not isinstance(node, rl.Eq0):  # terms bind nothing
            stack.extend(reversed(rl.children(node)))
    return out


class _Plan:
    """A reduced set over one field, with the facts its evaluation needs.

    One loop over the formula, children first, records per quantifier node,
    keyed by ``id()`` of the nodes ``dset`` keeps alive: whether its variable
    occurs in its body, its additive split, the split's decision vector and
    its body's axis depth.  ``id()`` keys do not survive pickling, so a plan
    pickles as (set, field) and is built again where it is unpickled.
    """

    def __init__(self, dset, spec):
        self.dset, self.spec, self.eng = dset, spec, get_engine(spec)
        self.quant = {}  # id(node) -> (occurs, split, decision vector, body depth)
        bound = []  # materialised quantified variables, last occurrence first
        done = []  # (axis depth, free variable names) of each finished subformula
        for phi in reversed(_subformulas(dset.formula)):  # children before parents
            if isinstance(phi, rl.Eq0):
                done.append((0, set(rl.free_vars(phi.term))))
                continue
            parts = [done.pop() for _ in rl.children(phi)]
            if isinstance(phi, (rl.Exists, rl.Forall)):
                ((depth, free),) = parts
                occurs = phi.var in free
                split = _additive_split(phi) if occurs else None
                vec = None if split is None else self.eng.decision(phi, split)
                self.quant[id(phi)] = (occurs, split, vec, depth)
                if occurs and split is None:
                    bound.append(phi.var)
                    depth += 1
                done.append((depth, free - {phi.var}))
            else:
                done.append((max(d for d, _ in parts), set().union(*(n for _, n in parts))))
        ((self.depth, _),) = done
        names = list(dict.fromkeys(dset.free_vars + tuple(reversed(bound))))
        if len(names) > _MAX_AXES:
            raise DomainError(f"{dset.name} has {len(names)} variables that need a numpy axis "
                              f"each; enumeration handles at most {_MAX_AXES}")
        self.axes = {v: i for i, v in enumerate(names)}

    def __reduce__(self):
        return _Plan, (self.dset, self.spec)


def _axis_range(lo, hi, axis, ndim, dtype):
    shape = [1] * ndim
    shape[axis] = hi - lo
    return np.arange(lo, hi, dtype=dtype).reshape(shape)


class _Chunk:
    """One chunk's evaluation: env maps each variable to its broadcast value array."""

    def __init__(self, plan, env, rows):
        self.plan = plan
        self.eng = plan.eng
        self.env = env
        self.rows = rows

    def formula(self, phi):
        if isinstance(phi, rl.Eq0):
            return self.eng.is_zero(phi.term, self.env)
        if isinstance(phi, rl.Not):
            k, inner = rl.unwrap(phi)
            r = self.formula(inner)
            return ~r if k % 2 else r
        if isinstance(phi, (rl.And, rl.Or)):
            conj = isinstance(phi, rl.And)
            acc = self.formula(phi.args[0])
            for a in phi.args[1:]:
                if (not acc.any()) if conj else acc.all():  # every row is decided
                    break
                acc = acc & self.formula(a) if conj else acc | self.formula(a)
            return acc
        if isinstance(phi, rl.Implies):
            a = self.formula(phi.lhs)
            return ~a | self.formula(phi.rhs) if a.any() else ~a
        if isinstance(phi, (rl.Exists, rl.Forall)):
            return self.quantifier(phi)
        raise TypeError(f"not a formula: {phi!r}")

    def quantifier(self, node):
        eng = self.eng
        x, body = node.var, node.body
        occurs, split, vec, depth = self.plan.quant[id(node)]
        if not occurs:
            return self.formula(body)  # the field is nonempty
        if split is not None:
            xfree = [(s, eng.term(u, self.env)) for s, u in split[1]]
            return vec[eng.signed_sum(xfree) if xfree else 0]
        exists = isinstance(node, rl.Exists)
        axis, ndim, q = self.plan.axes[x], len(self.plan.axes), eng.q
        block = max(1, min(q, _CHUNK_ELEMS // (self.rows * q**depth)))
        outer = self.env.get(x)
        acc = None
        for lo in range(0, q, block):
            self.env[x] = _axis_range(lo, min(lo + block, q), axis, ndim, eng.dtype)
            r = self.formula(body)
            if np.ndim(r) and r.shape[axis] > 1:
                r = r.any(axis=axis, keepdims=True) if exists else r.all(axis=axis, keepdims=True)
            acc = r if acc is None else (acc | r if exists else acc & r)
            if acc.all() if exists else not acc.any():
                break
        if outer is None:
            del self.env[x]
        else:
            self.env[x] = outer
        return acc


# -- plan: eliminate defined variables ---------------------------------------------


def _subst(node, v, t):
    """node with every free occurrence of the variable v replaced by the term t."""
    if isinstance(node, rl.Var):
        return t if node.name == v else node
    if isinstance(node, rl.Const):
        return node
    if isinstance(node, (rl.Add, rl.Mul, rl.And, rl.Or)):
        return type(node)(tuple(_subst(a, v, t) for a in node.args))
    if isinstance(node, (rl.Neg, rl.Not)):
        k, inner = rl.unwrap(node)
        return rl.rewrap(type(node), k, _subst(inner, v, t))
    if isinstance(node, rl.Pow):
        return rl.Pow(_subst(node.base, v, t), node.exp)
    if isinstance(node, rl.Eq0):
        return rl.Eq0(_subst(node.term, v, t))
    if isinstance(node, rl.Implies):
        return rl.Implies(_subst(node.lhs, v, t), _subst(node.rhs, v, t))
    if isinstance(node, (rl.Exists, rl.Forall)):
        return node if node.var == v else type(node)(node.var, _subst(node.body, v, t))
    raise TypeError(f"not a formula node: {node!r}")


def _conjuncts(phi):
    """The top-level conjuncts of phi, through nested And groups."""
    if isinstance(phi, rl.And):
        return [c for a in phi.args for c in _conjuncts(a)]
    return [phi]


def _definition(phi, free, bound):
    """(v, t) when the conjunct phi is s*v + rest = 0 with v := -s*rest, else None.

    v is a free variable occurring in no summand of rest, and rest names no
    variable bound anywhere in the formula, so substituting t captures nothing.
    """
    if not isinstance(phi, rl.Eq0):
        return None
    summands = _summands(phi.term)
    for i, (sign, u) in enumerate(summands):
        if not (isinstance(u, rl.Var) and u.name in free):
            continue
        rest = summands[:i] + summands[i + 1 :]
        names = {w for _, r in rest for w in rl.free_vars(r)}
        if u.name in names or names & bound:
            continue
        args = tuple(r if s != sign else rl.Neg(r) for s, r in rest)
        t = rl.Const(0) if not args else args[0] if len(args) == 1 else rl.Add(args)
        return u.name, t
    return None


def _plan(dset):
    """(reduced set, definitions) with the defined variables eliminated.

    A top-level conjunct v = t is dropped and t substituted for v in the
    other conjuncts and earlier definitions, until none is left.  The
    reduced set keeps the other free variables in declaration order; each
    definition (v, t) gives v as a term t in those.  Its points are in
    bijection with dset's, so counts agree by construction.
    """
    free = list(dset.free_vars)
    bound = {phi.var for phi in _subformulas(dset.formula)
             if isinstance(phi, (rl.Exists, rl.Forall))}
    conj = _conjuncts(dset.formula)
    defs = []
    found = True
    while found:
        found = False
        for i, phi in enumerate(conj):
            d = _definition(phi, free, bound)
            if d is not None:
                v, t = d
                conj = [_subst(c, v, t) for c in conj[:i] + conj[i + 1 :]]
                defs = [(w, _subst(s, v, t)) for w, s in defs] + [(v, t)]
                free.remove(v)
                found = True
                break
    formula = rl.And(tuple(conj)) if len(conj) > 1 else conj[0] if conj else rl.Eq0(rl.Const(0))
    return rl.DefinableSet(dset.name, tuple(free), formula), defs


# -- chunked drivers ---------------------------------------------------------------


def _chunk_plan(plan):
    """(k, ranges): chunks are flat-index ranges over k full trailing axes."""
    n = len(plan.dset.free_vars)
    q = plan.spec.q
    if n == 0:
        return 0, [(0, 1)]
    rows = max(1, _CHUNK_ELEMS // q**plan.depth)
    k = 0
    while k < n - 1 and q ** (k + 1) <= rows:
        k += 1
    width = q**k
    step = max(1, min(q, rows // width))  # values of the sliced axis per chunk
    ranges = [
        (lo + a * width, lo + min(a + step, q) * width)
        for lo in range(0, q**n, q * width)
        for a in range(0, q, step)
    ]
    return k, ranges


def _eval_chunk(plan, k, lo, hi, collect):
    eng, free = plan.eng, plan.dset.free_vars
    n, q, ndim = len(free), plan.spec.q, len(plan.axes)
    shape = [1] * ndim
    env = {}
    j = n - 1 - k  # the sliced axis
    if j >= 0:
        width = q**k
        prefix, a = divmod(lo // width, q)
        b = a + (hi - lo) // width
        for i in range(j - 1, -1, -1):
            prefix, digit = divmod(prefix, q)
            env[free[i]] = np.asarray(digit, dtype=eng.dtype)
        env[free[j]] = _axis_range(a, b, j, ndim, eng.dtype)
        shape[j] = b - a
    for i in range(j + 1, n):
        env[free[i]] = _axis_range(0, q, i, ndim, eng.dtype)
        shape[i] = q
    rows = hi - lo
    truth = _Chunk(plan, env, rows).formula(plan.dset.formula)
    if not collect:
        return int(np.count_nonzero(truth)) * (rows // np.size(truth)), None
    sat = np.flatnonzero(np.broadcast_to(truth, shape)) + lo
    return sat.shape[0], sat


def _budget_check(dset, spec, max_evals):
    n = len(dset.free_vars)
    total = spec.q**n
    if total > max_evals:
        raise BudgetError(
            f"enumerating {dset.name} over {spec!r} needs {total} assignments "
            f"(budget {max_evals})"
        )


def _run_chunks(dset, spec, collect, jobs, max_evals):
    _budget_check(dset, spec, max_evals)
    plan = _Plan(dset, spec)  # too many variables is a domain error before any chunk runs
    k, ranges = _chunk_plan(plan)
    tasks = [(plan, k, lo, hi, collect) for lo, hi in ranges]
    if jobs > 1 and len(ranges) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:  # one batch, so one plan, per worker
            parts = list(pool.map(_eval_chunk, *zip(*tasks), chunksize=-(-len(tasks) // jobs)))
    else:
        parts = [_eval_chunk(*t) for t in tasks]
    count = sum(c for c, _ in parts)
    if not collect:
        return count, None
    sats = [s for _, s in parts if s.shape[0]]
    sat = np.concatenate(sats) if sats else np.empty(0, dtype=np.int64)
    return count, sat


def count_points_vec(dset, spec, *, jobs=1, max_evals=DEFAULT_MAX_EVALS) -> int:
    """Number of assignments of the free variables satisfying the formula."""
    count, _ = _run_chunks(_plan(dset)[0], spec, False, jobs, max_evals)
    return count


def collect_points_vec(dset, spec, *, jobs=1, max_evals=DEFAULT_MAX_EVALS) -> np.ndarray:
    """Element-index matrix of the satisfying assignments, shape (n, |X|).

    Row j holds the values of the j-th declared free variable; columns are
    in enumeration order (lexicographic in the declared variables).
    """
    reduced, defs = _plan(dset)
    n, q = len(dset.free_vars), spec.q
    if defs and q**n >= 2**63:
        raise BudgetError(f"points of {dset.name} over {spec!r} are too many to key")
    _, sat = _run_chunks(reduced, spec, True, jobs, max_evals)
    size, kept = sat.shape[0], reduced.free_vars
    eng = get_engine(spec)
    digits = np.unravel_index(sat, (q,) * len(kept)) if kept else ()
    env = {v: d.astype(eng.dtype) for v, d in zip(kept, digits)}
    del sat, digits  # int64 temporaries: free them before the rebuild allocates
    for v, t in defs:
        env[v] = np.broadcast_to(eng.term(t, env), (size,))
    order = None
    if defs:
        key = np.zeros(size, dtype=np.int64)
        for v in dset.free_vars:
            key *= q
            key += env[v]
        order = np.argsort(key)
        del key
    out = np.empty((n, size), dtype=np.int64)
    for j, v in enumerate(dset.free_vars):
        out[j] = env[v] if order is None else env[v][order]
    return out
