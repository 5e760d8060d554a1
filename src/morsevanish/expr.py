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
# as generated straight-line numpy code with the float operations of the
# product and chain rules in a fixed order, deleting slots after their last
# use; jet modes put the live operand of a constant op first.  Jet
# temporaries keep the points on the last axis, values (m,), gradients
# (n, m) and Hessians (n, n, m), so every broadcast (f1 * h, the outer
# products g[:, None, :] * g[None, :, :]) runs contiguous inner loops of
# length m; each output goes back to (m, n) and (m, n, n) once, as
# C-contiguous copies, at return.  Every element sees the same float
# operations in the same order in either layout, so finite values do not
# depend on it; only the sign bit of a nan may, where both operands of a
# product are nan and numpy's loops pick one of them by layout.

_VALUES = {"var": "xs[{a}]", "add": "{A} + {B}", "mul": "{A} * {B}",
           "recip": "1.0 / {A}", "ipow": "{A} ** ({k})",
           "fpow": "_fpow({A}, {p})"}
_G = "; g{o} = f1 * g{a}"
_H = ("; h{o} = (f1 * h{a} + f2"
      " * (g{a}[:, None, :] * g{a}[None, :, :]))")
_JET1 = {
    "var": "v{o} = X[:, {a}]; g{o} = np.zeros((n, m)); g{o}[{a}] = 1.0",
    "add": "v{o} = v{a} + v{b}; g{o} = g{a} + g{b}",
    "addc": "v{o} = v{a} + {C}; g{o} = g{a}",
    "mul": "v{o} = v{a} * v{b}; g{o} = v{a} * g{b} + v{b} * g{a}",
    "mulc": "v{o} = v{a} * {C}; g{o} = g{a} * {C}",
    "recip": "v{o} = 1.0 / v{a}; f1 = -v{o} * v{o}" + _G,
    "ipow": "v{o} = v{a} ** ({k}); f1 = {K} * {D}" + _G,
    "fpow": "w = np.where(v{a} > 0.0, v{a}, np.nan); v{o} = w ** ({p}); "
            "f1 = {p} * w ** ({p} - 1.0)" + _G}
_JET2 = {
    "var": _JET1["var"] + "; h{o} = np.zeros((n, n, m))",
    "add": _JET1["add"] + "; h{o} = h{a} + h{b}",
    "addc": _JET1["addc"] + "; h{o} = h{a}",
    "mul": _JET1["mul"] + "; h{o} = (v{a} * h{b} + v{b} * h{a}"
           " + g{a}[:, None, :] * g{b}[None, :, :]"
           " + g{b}[:, None, :] * g{a}[None, :, :])",
    "mulc": _JET1["mulc"] + "; h{o} = h{a} * {C}",
    "recip": "u = 1.0 / v{a}; u2 = u * u; v{o} = u; f1 = -u2; "
             "f2 = 2.0 * u2 * u" + _G + _H,
    "ipow": _JET1["ipow"]
    + "; f2 = float({k} * ({k} - 1)) * v{a} ** ({k} - 2)" + _H,
    "fpow": _JET1["fpow"] + "; f2 = {p} * ({p} - 1.0) * w ** ({p} - 2.0)" + _H}
_BACK = {"v": "v{}", "g": "np.ascontiguousarray(g{}.T)",
         "h": "np.ascontiguousarray(h{}.transpose(2, 0, 1))"}
_MODES = {"values": (_VALUES, "v", "v{o} = "), "jet1": (_JET1, "vg", ""),
          "jet2": (_JET2, "vgh", "")}


def _key(x):
    # constants key on their bits: 0.0 and -0.0, or two nans, stay apart
    return x if type(x) is int else np.float64(x).tobytes()


def _reads(op, a, b):
    return [x for x in ((a, b) if op in ("add", "mul") else (a,))
            if type(x) is int] if op != "var" else []


def _fpow(x, p):
    """x ** p for an array x where x > 0, and np.nan elsewhere whatever
    x ** p gave there (a nan x may carry another sign)."""
    y = x ** p
    y[~(x > 0.0)] = np.nan
    return y


# constant instructions fold in np.float64 where Python floats would raise
_FOLD = {"add": lambda a, b: a + b, "mul": lambda a, b: a * b,
         "recip": lambda a, _: float(1.0 / np.float64(a)),
         "ipow": lambda a, k: float(np.float64(a) ** k),
         "fpow": lambda a, p: _fpow(np.array([a]), p)[0]}


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

    def _source(self, mode: str):
        """The generated source of one mode and the constants it reads.
        A slot read once is written into its reader's expression in values
        mode, where numpy may reuse the temporary array in place."""
        table, parts, assign = _MODES[mode]
        outs = {o for o in self.outputs if type(o) is int}
        reads = [x for ins in self._code for x in _reads(*ins)]
        inline = {x for x in reads if reads.count(x) == 1
                  and x not in outs} if mode == "values" else set()
        consts, last = {}, {}

        def name(x, line):
            if type(x) is not int:
                return consts.setdefault(_key(x), (f"c{len(consts)}", x))[0]
            if x in inline:
                return f"({text(x, line)})"
            last[x] = line
            return f"v{x}"

        def text(i, line):
            op, a, b = self._code[i]
            fill = {"o": i, "a": a, "b": b, "k": b, "p": repr(b)}
            if op == "ipow":
                # v ** 1 is v exactly, so k = 2 differentiates to 2.0 * v
                fill.update(K=repr(float(b)), D=f"v{a}" if b == 2
                            else f"v{a} ** ({b - 1})")
            if op in ("add", "mul"):
                fill.update(A=name(a, line), B=name(b, line))
                if mode != "values" and type(b) is not int:
                    op, fill["C"] = op + "c", fill["B"]
                elif mode != "values" and type(a) is not int:
                    op, fill["a"], fill["C"] = op + "c", b, fill["A"]
            elif op != "var":
                fill["A"] = name(a, line)
            return table[op].format(**fill)

        body = [(i, text(i, i)) for i in range(len(self._code))
                if i not in inline]
        lines = [f"def run({'xs' if mode == 'values' else 'X, m, n'}):"]
        for i, stmt in body:
            lines.append("    " + assign.format(o=i) + stmt)
            dead = [x for x, j in last.items() if j == i and x not in outs]
            if dead:
                lines.append("    del " + ", ".join(
                    p + str(x) for x in dead for p in parts))
        # a constant output of a jet mode comes back as its full jet
        zeros = ["np.zeros((m, n))", "np.zeros((m, n, n))"][:len(parts) - 1]
        rets = [f"({', '.join(_BACK[p].format(o) for p in parts)})"
                if type(o) is int else name(o, None) if mode == "values"
                else f"({', '.join([f'np.full(m, {name(o, None)})'] + zeros)})"
                for o in self.outputs]
        lines.append(f"    return ({''.join(x + ', ' for x in rets)})")
        return "\n".join(lines) + "\n", dict(consts.values())

    def kernel(self, mode: str):
        """The generated function of a mode, ``run(xs)`` or ``run(X, m, n)``;
        callers enter ``np.errstate(all="ignore")`` around it."""
        if mode not in self._fns:
            text, scope = self._source(mode)
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
        of at most ``_JET_ROWS`` rows, so the (n, n, rows) temporaries of
        jet2 stay small; every row's result is the same bit for bit."""
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
