"""Expression trees over named real variables, with forward-mode derivatives.

The admissible node kinds are rational constants, variables, sums, products,
integer powers, rational powers of a positive base, and quotients.  That set
is closed under the differential operators we need and is enough to express
every function handled by the rest of the package: polynomials, the boundary
factors (1 + |x|^2)^(-alpha/2), and their perturbations f + eps/tau.

Evaluation comes in two flavours:

* ``evaluate`` walks the tree at a single point, checks domain
  constraints, and raises :class:`DomainViolation` on a rational power of
  a non-positive base, a vanishing quotient denominator, or a value too
  large for a float; it is the reference the tape is tested against.
* ``compile(exprs, names)`` gives one :class:`Tape`, a flat instruction
  list in which equal nodes share a slot across outputs (f_eps, 1/tau and
  the metric share one tau), cached by tree structure.  It evaluates
  values and jets at a batch of points, or values on a tensor grid,
  poisoning out-of-domain rows to nan/inf instead of raising;
  ``eval_values`` / ``eval_jet1`` / ``eval_jet2`` are its one-expression
  forms at a batch of points.

Derivatives are exact (forward-mode, value/gradient/Hessian propagated
together; Griewank and Walther, *Evaluating Derivatives*, 2008), not
finite differences.
"""

from __future__ import annotations

import builtins
import functools
import re
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainViolation, ExpressionParseError

__all__ = [
    "Expression", "Const", "Var", "Sum", "Product", "IntPow", "FracPow",
    "Quotient", "rational_pow", "free_variables",
    "evaluate", "Tape", "compile", "eval_values",
    "eval_jet1", "eval_jet2", "parse_expression", "as_fraction",
]


def as_fraction(x) -> Fraction:
    """Convert int/Fraction/float/str to an exact Fraction.

    Floats go through their repr so that 0.1 becomes 1/10, not the binary
    expansion; this keeps perturbation sizes exactly reproducible.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not np.isfinite(x):
            raise ValueError(f"non-finite constant {x!r}")
        return Fraction(repr(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational constant")


class Expression:
    """Base class; all concrete nodes are immutable."""

    __slots__ = ()

    def __add__(self, other):
        return Sum((self, _lift(other)))

    def __radd__(self, other):
        return Sum((_lift(other), self))

    def __sub__(self, other):
        return Sum((self, Product((Const(Fraction(-1)), _lift(other)))))

    def __rsub__(self, other):
        return Sum((_lift(other), Product((Const(Fraction(-1)), self))))

    def __neg__(self):
        return Product((Const(Fraction(-1)), self))

    def __mul__(self, other):
        return Product((self, _lift(other)))

    def __rmul__(self, other):
        return Product((_lift(other), self))

    def __truediv__(self, other):
        return Quotient(self, _lift(other))

    def __rtruediv__(self, other):
        return Quotient(_lift(other), self)

    def __pow__(self, exponent):
        if isinstance(exponent, int):
            return IntPow(self, exponent)
        if isinstance(exponent, Fraction):
            if exponent.denominator == 1:
                return IntPow(self, int(exponent))
            return FracPow(self, exponent)
        raise TypeError("exponent must be int or Fraction; use rational_pow")

    def __repr__(self):
        return to_infix(self)


def _lift(x) -> Expression:
    if isinstance(x, Expression):
        return x
    return Const(as_fraction(x))


class Const(Expression):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = as_fraction(value)


class Var(Expression):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = str(name)


class Sum(Expression):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)


class Product(Expression):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(factors)


class IntPow(Expression):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expression, exponent: int):
        self.base = base
        self.exponent = int(exponent)


class FracPow(Expression):
    """base ** (p/q) with q > 1; defined only where base > 0."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expression, exponent: Fraction):
        self.base = base
        self.exponent = Fraction(exponent)


class Quotient(Expression):
    __slots__ = ("num", "den")

    def __init__(self, num: Expression, den: Expression):
        self.num = num
        self.den = den


def rational_pow(base: Expression, p) -> Expression:
    p = as_fraction(p)
    if p.denominator == 1:
        return IntPow(base, int(p))
    return FracPow(base, p)


def free_variables(expr: Expression) -> tuple:
    out = set()

    def walk(e):
        if isinstance(e, Var):
            out.add(e.name)
        elif isinstance(e, Sum):
            for t in e.terms:
                walk(t)
        elif isinstance(e, Product):
            for f in e.factors:
                walk(f)
        elif isinstance(e, (IntPow, FracPow)):
            walk(e.base)
        elif isinstance(e, Quotient):
            walk(e.num)
            walk(e.den)

    walk(expr)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# strict scalar evaluation


def evaluate(expr: Expression, point: Mapping[str, float]):
    """Evaluate at one point, raising DomainViolation where undefined.

    Arithmetic follows the scalar types supplied: float coordinates give
    floats, Fraction coordinates stay exact through the polynomial nodes
    (rational powers always return floats).  A node whose value does not
    fit in a float (``u1*10^400``, ``u1^400`` at 1e3) raises
    DomainViolation naming that node.
    """
    # a child's overflow arrives here as DomainViolation already, so only
    # this node's own arithmetic is caught
    try:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            try:
                return point[expr.name]
            except KeyError:
                raise KeyError(f"no value supplied for variable "
                               f"{expr.name!r}") from None
        if isinstance(expr, Sum):
            return sum(evaluate(t, point) for t in expr.terms)
        if isinstance(expr, Product):
            acc = 1
            for f in expr.factors:
                acc *= evaluate(f, point)
            return acc
        if isinstance(expr, IntPow):
            b = evaluate(expr.base, point)
            if expr.exponent < 0 and b == 0:
                raise DomainViolation(
                    f"0 raised to {expr.exponent} in {expr!r}")
            return b ** expr.exponent
        if isinstance(expr, FracPow):
            b = evaluate(expr.base, point)
            if b <= 0:
                raise DomainViolation(
                    f"rational power base {b!r} is not positive in {expr!r}")
            return float(b) ** float(expr.exponent)
        if isinstance(expr, Quotient):
            den = evaluate(expr.den, point)
            if den == 0:
                raise DomainViolation(
                    f"quotient denominator vanished in {expr!r}")
            return evaluate(expr.num, point) / den
    except OverflowError as exc:
        raise DomainViolation(
            f"value overflowed a float ({exc}) in {expr!r}") from None
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# batched evaluation: expressions compiled to a tape
#
# Instructions are (op, a, b) with op in var/add/mul/recip/ipow/fpow and
# operands a slot (int) or a folded constant (float); sums and products are
# left-to-right chains and a quotient is num * recip(den).  Each mode runs
# as generated straight-line numpy code that deletes each local after its
# last read.  Values mode computes an array per slot; the jet modes put the
# live operand of a constant op first and compute an array of the m points
# per gradient entry j and Hessian entry (j, k) that can be nonzero, by the
# dense product and chain rules less their structurally zero terms and
# factors 1.0.  A constant entry (1.0, C * 1.0) stays a float and folds,
# equal text is computed once, (j, k) and (k, j) stay apart (their terms
# come in other orders), and each output goes back as C-contiguous (m, n)
# and (m, n, n) arrays.  A dropped term is an exact +-0 where the slots it
# reads are finite, so on a row where every slot is finite each entry has
# the bits of dense forward mode but for the sign of an exact zero; where a
# slot is inf or nan, a structurally zero entry reads 0.0, not the dense
# 0 * inf = nan (d/dx of x + 1/y is 1.0 at y = 0).

_VALUES = {"var": "xs[{a}]", "add": "{A} + {B}", "mul": "{A} * {B}",
           "recip": "1.0 / {A}", "ipow": "{A} ** ({k})",
           "fpow": "_fpow({A}, {p})"}
# the locals of generated code: values, entries, factors, columns
_LOCAL = re.compile(r"\b[dpqsvwz]\d[\d_]*\b")


def _key(x):
    # constants key on their bits: 0.0 and -0.0, or two nans, stay apart
    return x if type(x) is int else np.float64(x).tobytes()


def _reads(op, a, b):
    return [x for x in ((a, b) if op in ("add", "mul") else (a,))
            if type(x) is int] if op != "var" else []


def _fpow(x, p):
    """x ** p for an array x where x > 0, and np.nan elsewhere whatever
    x ** p gave there (a nan x may carry another sign)."""
    y, ok = x ** p, x > 0.0
    if not ok.all():
        y[~ok] = np.nan
    return y


# constant instructions fold in np.float64 where Python floats would raise
_FOLD = {"add": lambda a, b: a + b, "mul": lambda a, b: a * b,
         "recip": lambda a, _: float(1.0 / np.float64(a)),
         "ipow": lambda a, k: float(np.float64(a) ** k),
         "fpow": lambda a, p: _fpow(np.array([a]), p)[0]}


def _straight(args, lines, rets):
    """The source of ``def run(args)`` that runs the (local, expression)
    ``lines`` in order, deleting each local after its last read, and
    returns the tuple ``rets``."""
    ret, last, dead = f"    return ({rets})", {}, {}
    for i, (name, text) in enumerate(lines + [("", ret)]):
        last.update(dict.fromkeys([name, *_LOCAL.findall(text)], i))
    for x, i in last.items():
        dead.setdefault(i, []).append(x)
    src = [f"def run({args}):"]
    for i, (name, text) in enumerate(lines):
        src.append(f"    {name} = {text}")
        if i in dead:
            src.append("    del " + ", ".join(dead[i]))
    return "\n".join(src + [ret]) + "\n"


# rows per block of a long jet batch (``Tape._jets``)
_JET_ROWS = 1024

_module = functools.lru_cache(maxsize=512)(functools.partial(
    builtins.compile, filename="<expression tape>", mode="exec"))


class Tape:
    """Expressions compiled into one instruction list (see ``compile``);
    every evaluation returns one entry per output."""

    def __init__(self, exprs: Sequence[Expression], names: Sequence[str]):
        self.names = tuple(names)
        missing = set().union(*map(free_variables, exprs)) - set(self.names)
        if missing:
            raise KeyError(f"expression uses variables {sorted(missing)} "
                           f"not present in {list(self.names)}")
        self._code, self._slot = [], {}
        with np.errstate(all="ignore"):
            self.outputs = tuple(self._operand(e) for e in exprs)
        self._fns = {}

    def __len__(self):
        return len(self._code)

    def _operand(self, e):
        """The slot (int) or folded constant (float) of node e."""
        if isinstance(e, Const):
            return float(e.value)
        if isinstance(e, Var):
            return self._emit("var", self.names.index(e.name), None)
        if isinstance(e, (Sum, Product)):
            op = "add" if isinstance(e, Sum) else "mul"
            items = e.terms if isinstance(e, Sum) else e.factors
            acc = self._operand(items[0])
            for item in items[1:]:
                acc = self._emit(op, acc, self._operand(item))
            return acc
        if isinstance(e, IntPow):
            if e.exponent in (0, 1):
                return 1.0 if e.exponent == 0 else self._operand(e.base)
            return self._emit("ipow", self._operand(e.base), e.exponent)
        if isinstance(e, FracPow):
            return self._emit("fpow", self._operand(e.base),
                              float(e.exponent))
        if isinstance(e, Quotient):
            num = self._operand(e.num)
            return self._emit("mul", num,
                              self._emit("recip", self._operand(e.den), None))
        raise TypeError(f"not an expression node: {e!r}")

    def _emit(self, op, a, b):
        """Slot of the instruction (op, a, b), or its folded constant; a
        product with the constant 1.0 is its other factor, bit for bit."""
        if op != "var" and not _reads(op, a, b):
            return _FOLD[op](a, b)
        if op == "mul":
            for c, x in ((a, b), (b, a)):
                if type(c) is not int and c == 1.0:
                    return x
        key = (op, _key(a), _key(b) if op in ("add", "mul") else b)
        if key not in self._slot:
            self._slot[key] = len(self._code)
            self._code.append((op, a, b))
        return self._slot[key]

    def _values_source(self):
        """The generated source of values mode and the constants it reads.
        A slot read once is written into its reader's expression, where
        numpy may reuse the temporary array in place."""
        outs = {o for o in self.outputs if type(o) is int}
        reads = [x for ins in self._code for x in _reads(*ins)]
        inline = {x for x in reads if reads.count(x) == 1 and x not in outs}
        consts = {}

        def name(x):
            if type(x) is not int:
                return consts.setdefault(_key(x), (f"c{len(consts)}", x))[0]
            return f"({text(x)})" if x in inline else f"v{x}"

        def text(i):
            op, a, b = self._code[i]
            return _VALUES[op].format(
                a=a, k=b, p=repr(b), A=op != "var" and name(a),
                B=op in ("add", "mul") and name(b))

        lines = [(f"v{i}", text(i)) for i in range(len(self._code))
                 if i not in inline]
        rets = "".join(name(o) + ", " for o in self.outputs)
        return _straight("xs", lines, rets), dict(consts.values())

    def _jet_source(self, order: int):
        """The generated source of the jets of ``order`` (1 or 2) and the
        constants it reads.  The entries of a slot are keyed (j,) and
        (j, k); an entry is None (a structural zero), a float (that
        constant) or text: a local's name, or an expression to bind."""
        consts, lines, made, V, D = {}, [], {}, {}, {}

        def term(x, wrap=False):
            if not isinstance(x, str):
                return consts.setdefault(_key(x), (f"c{len(consts)}", x))[0]
            return f"({x})" if wrap and " " in x else x

        def times(x, y):
            if x is None or y is None or x == 1.0 or y == 1.0:
                return None if x is None or y is None else y if x == 1.0 else x
            return (f"{term(x)} * {term(y, True)}" if str in (type(x), type(y))
                    else x * y)

        def plus(*xs):
            return functools.reduce(
                lambda s, x: f"{term(s)} + {term(x)}"
                if str in (type(s), type(x)) else s + x,
                [x for x in xs if x is not None] or [None])

        def bind(x, name):
            if isinstance(x, str) and x not in made \
                    and not _LOCAL.fullmatch(x):
                made[x] = name
                lines.append((name, x))
            return made.get(x, x)

        for o, (op, a, b) in enumerate(self._code):
            if op == "var":
                V[o], D[o] = bind(f"X[:, {a}]", f"v{o}"), {(a,): 1.0}
                continue
            if op in ("add", "mul") and type(a) is not int:
                a, b = b, a
            va, A, cross = V[a], D[a], []
            if op in ("add", "mul"):
                vb, B = (V[b], D[b]) if type(b) is int else (b, {})
                V[o] = bind(f"{va} {'+*'[op == 'mul']} {term(vb)}", f"v{o}")
            if op == "add":
                d = {i: plus(A.get(i), B.get(i)) for i in A.keys() | B}
            elif op == "mul":
                d = {i: plus(times(va, B.get(i)), times(vb, A.get(i)))
                     for i in A.keys() | B}
                cross = [(1.0, A, B), (1.0, B, A)] if order == 2 else []
            elif op == "recip":
                v = V[o] = bind(f"1.0 / {va}", f"v{o}")
                s = bind(f"{v} * {v}", f"s{o}")
                f1, f2 = bind(f"-{s}", f"p{o}"), f"2.0 * {s} * {v}"
            elif op == "ipow":  # v ** 0 is 1.0 and v ** 1 is v, exactly
                V[o] = bind(f"{va} ** ({b})", f"v{o}")
                f1 = bind(f"{float(b)!r} * " + (
                    va if b == 2 else f"{va} ** ({b - 1})"), f"p{o}")
                f2 = 2.0 if b == 2 else (
                    f"{float(b * (b - 1))!r} * {va} ** ({b - 2})")
            else:
                w = bind(f"np.where({va} > 0.0, {va}, np.nan)", f"w{o}")
                V[o] = bind(f"{w} ** ({b!r})", f"v{o}")
                f1 = bind(f"{b!r} * {w} ** ({b!r} - 1.0)", f"p{o}")
                f2 = f"{b!r} * ({b!r} - 1.0) * {w} ** ({b!r} - 2.0)"
            if op not in ("add", "mul"):
                d = {i: times(f1, x) for i, x in A.items()}
                cross = [(bind(f2, f"q{o}"), A, A)] if order == 2 else []
            # the terms f g_X[j] g_Y[k] of the Hessian entries (j, k)
            for j, k in {(j, k) for _, X, Y in cross for (j, *r) in X
                         for (k, *t) in Y if not r + t}:
                d[j, k] = plus(d.get((j, k)), *(
                    times(f, times(X.get((j,)), Y.get((k,))))
                    for f, X, Y in cross))
            D[o] = {i: bind(d[i], f"d{o}_{'_'.join(map(str, i))}")
                    for i in sorted(d)}

        def column(x):  # an entry as an array of the m points
            return x if isinstance(x, str) else bind(
                f"np.full(m, {term(0.0 if x is None else x)})",
                f"z{len(made)}")

        n, rets = len(self.names), ""
        keys = ([(j,) for j in range(n)],
                [(j, k) for j in range(n) for k in range(n)])[:order]
        for o in self.outputs:
            if type(o) is not int:  # a constant output's full jet
                jet = [f"np.full(m, {term(o)})", "np.zeros((m, n))",
                       "np.zeros((m, n, n))"][:order + 1]
            else:  # the entries die once stacked, before the transposed copy
                jet = [V[o]] + ["np.ascontiguousarray({}.T){}".format(bind(
                    f"np.array([{', '.join(column(D[o].get(i)) for i in c)}])",
                    f"z{len(made)}"), shape)
                    for c, shape in zip(keys, ("", ".reshape(m, n, n)"))]
            rets += f"({', '.join(jet)}), "
        return _straight("X, m, n", lines, rets), dict(consts.values())

    def kernel(self, mode: str):
        """The generated function of a mode, ``run(xs)`` or ``run(X, m, n)``;
        callers enter ``np.errstate(all="ignore")`` around it."""
        if mode not in self._fns:
            text, scope = (self._values_source() if mode == "values"
                           else self._jet_source(int(mode[3:])))
            scope.update(np=np, _fpow=_fpow)
            exec(_module(text), scope)
            self._fns[mode] = scope["run"]
        return self._fns[mode]

    def _run(self, mode, *args):
        with np.errstate(all="ignore"):
            return self.kernel(mode)(*args)

    def values(self, points: np.ndarray) -> list:
        """Values at a batch of points: (m, n) -> one (m,) per output."""
        points = np.asarray(points, dtype=float)
        m, n = points.shape
        return [o if isinstance(o, np.ndarray) else np.full(m, float(o))
                for o in self._run("values", list(points.T))]

    def grid(self, axes: Sequence[np.ndarray]) -> list:
        """Values on the tensor grid of the 1-D ``axes``, bit for bit those
        at the stacked grid points; variable j broadcasts along axis j, so
        a result may be a read-only view when its output skips one."""
        axes = [np.asarray(a, dtype=float) for a in axes]
        if len(axes) != len(self.names):
            raise ValueError(f"{len(axes)} axes for {len(self.names)} "
                             "variable names")
        return [np.broadcast_to(o, tuple(a.size for a in axes))
                for o in self._run("values", np.ix_(*axes))]

    def jet1(self, points: np.ndarray) -> list:
        """Values and gradients: (m,), (m, n) per output; here and in
        ``jet2`` derivatives come back C-contiguous, and the value of a
        bare variable output may be a view of ``points``."""
        return self._jets("jet1", points)

    def jet2(self, points: np.ndarray) -> list:
        """Values, gradients and symmetric Hessians per output."""
        return self._jets("jet2", points)

    def _jets(self, mode, points):
        """A batch of more than two blocks of rows runs as equal blocks
        of at most ``_JET_ROWS`` rows, so the temporaries of the entries
        stay small; every row's result is the same bit for bit."""
        points = np.asarray(points, dtype=float)
        m, n = points.shape
        if m <= 2 * _JET_ROWS:
            return list(self._run(mode, points, m, n))
        runs = [self._run(mode, block, len(block), n)
                for block in np.array_split(points, -(-m // _JET_ROWS))]
        return [tuple(map(np.concatenate, zip(*outs)))
                for outs in zip(*runs)]


def _structure(e):
    """The exact tree of e (node types, fields, children in order): all a
    tape follows, for its chains follow the tree's shape."""
    return (type(e),) + tuple(
        tuple(map(_structure, v)) if isinstance(v, tuple) else
        _structure(v) if isinstance(v, Expression) else v
        for v in map(e.__getattribute__, type(e).__slots__))


_tapes: dict = {}  # the last 256 tapes by structure, least recent first


def compile(exprs: Sequence[Expression], names: Sequence[str]) -> Tape:
    """One tape for all of ``exprs`` over the variables ``names``, the
    same for trees of the same structure (two parses of one text); raises
    KeyError when an expression uses a variable not in ``names``."""
    exprs, names = tuple(exprs), tuple(names)
    key = (tuple(map(_structure, exprs)), names)
    tape = _tapes.pop(key, None)
    if tape is None:
        tape = Tape(exprs, names)
        if len(_tapes) >= 256:
            del _tapes[next(iter(_tapes))]
    _tapes[key] = tape
    return tape


def eval_values(expr: Expression, points: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Values at a batch of points; shape (m, n) -> (m,). nan where undefined."""
    return compile((expr,), names).values(points)[0]


def eval_jet1(expr: Expression, points: np.ndarray, names: Sequence[str]):
    """Values and gradients at a batch of points: (m,), (m, n)."""
    return compile((expr,), names).jet1(points)[0]


def eval_jet2(expr: Expression, points: np.ndarray, names: Sequence[str]):
    """Values, gradients and Hessians at a batch: (m,), (m,n), (m,n,n)."""
    return compile((expr,), names).jet2(points)[0]


# ---------------------------------------------------------------------------
# infix parser


_OPS = set("+-*/^(),")


def _tokenize(text: str):
    tokens = []  # (kind, value, line, col)
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < len(text) and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            # optional exponent part: e or E, optional sign, digits
            if j < len(text) and text[j] in "eE":
                k = j + 1
                if k < len(text) and text[k] in "+-":
                    k += 1
                if k < len(text) and text[k].isdigit():
                    while k < len(text) and text[k].isdigit():
                        k += 1
                    j = k
            tokens.append(("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ExpressionParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExpressionParseError(
                f"expected {value or kind}, found {tok[1]!r}", tok[2], tok[3])
        if value is not None and tok[1] != value:
            raise ExpressionParseError(
                f"expected {value!r}, found {tok[1]!r}", tok[2], tok[3])
        self.pos += 1
        return tok

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
        return e

    def expr(self) -> Expression:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> Expression:
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            rhs = self.unary()
            node = node * rhs if op == "*" else node / rhs
        return node

    def unary(self) -> Expression:
        if self.peek()[:2] == ("op", "-"):
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            tok = self.take()
            neg = False
            if self.peek()[:2] == ("op", "-"):
                self.take()
                neg = True
            etok = self.peek()
            if etok[0] != "num" or not etok[1].isdigit():
                raise ExpressionParseError(
                    "exponent after '^' must be an integer (use pow(e, p/q) "
                    "for rational exponents)", tok[2], tok[3])
            self.take()
            k = int(etok[1])
            return IntPow(base, -k if neg else k)
        return base

    def atom(self) -> Expression:
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return Const(Fraction(tok[1]))
        if tok[0] == "name":
            if tok[1] == "pow":
                self.take()
                self.take("op", "(")
                base = self.expr()
                self.take("op", ",")
                p = self.rational()
                self.take("op", ")")
                return rational_pow(base, p)
            self.take()
            return Var(tok[1])
        if tok[:2] == ("op", "("):
            self.take()
            e = self.expr()
            self.take("op", ")")
            return e
        raise ExpressionParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])

    def rational(self) -> Fraction:
        neg = False
        if self.peek()[:2] == ("op", "-"):
            self.take()
            neg = True
        tok = self.take("num")
        value = Fraction(tok[1])
        if self.peek()[:2] == ("op", "/"):
            self.take()
            dtok = self.take("num")
            value = value / Fraction(dtok[1])
        return -value if neg else value


def parse_expression(text: str) -> Expression:
    """Parse infix text with + - * / ^ and pow(e, p/q) into an Expression."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing


def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def to_infix(expr: Expression) -> str:
    # precedence: sum 1, product 2, unary 3, power 4, atom 5
    def go(e, parent_prec):
        if isinstance(e, Const):
            s = _frac_str(e.value)
            prec = 5 if e.value >= 0 and e.value.denominator == 1 else 2
        elif isinstance(e, Var):
            s, prec = e.name, 5
        elif isinstance(e, Sum):
            s = " + ".join(go(t, 1) for t in e.terms).replace("+ -", "- ")
            prec = 1
        elif isinstance(e, Product):
            s = "*".join(go(f, 2) for f in e.factors)
            prec = 2
        elif isinstance(e, IntPow):
            s = f"{go(e.base, 5)}^{e.exponent}"
            prec = 4
        elif isinstance(e, FracPow):
            s = f"pow({go(e.base, 0)}, {_frac_str(e.exponent)})"
            prec = 5
        elif isinstance(e, Quotient):
            s = f"{go(e.num, 2)}/{go(e.den, 3)}"
            prec = 2
        else:
            raise TypeError(f"not an expression node: {e!r}")
        if prec < parent_prec:
            return f"({s})"
        return s

    return go(expr, 0)
