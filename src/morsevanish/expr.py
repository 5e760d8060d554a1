"""Expression trees over named real variables, with forward-mode derivatives.

The admissible node kinds are rational constants, variables, sums, products,
integer powers, rational powers of a positive base, and quotients.  That set
is closed under the differential operators we need and is enough to express
every function handled by the rest of the package: polynomials, the boundary
factors (1 + |x|^2)^(-alpha/2), and their perturbations f + eps/tau.

Evaluation comes in two flavours:

* ``evaluate`` / ``differentiate`` take a single point, check domain
  constraints, and raise :class:`DomainViolation` on a rational power of a
  non-positive base, a vanishing quotient denominator, or a value too large
  for a float.
* ``eval_values`` / ``eval_jet1`` / ``eval_jet2`` evaluate a whole batch of
  points at once on numpy arrays.  Out-of-domain rows poison to nan/inf
  instead of raising, which is what the multi-start solvers want: a bad row
  is discarded, the rest of the batch keeps going.
* ``eval_grid`` evaluates values on the tensor product of per-axis
  coordinate vectors by broadcasting, with the same poisoning rules.

Derivatives are exact (forward-mode, value/gradient/Hessian propagated
together), not finite differences.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainViolation, ExpressionParseError

__all__ = [
    "Expression", "Const", "Var", "Sum", "Product", "IntPow", "FracPow",
    "Quotient", "const", "var", "rational_pow", "free_variables",
    "evaluate", "differentiate", "eval_values", "eval_grid", "eval_jet1",
    "eval_jet2", "parse_expression", "as_fraction",
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


def const(x) -> Const:
    return Const(as_fraction(x))


def var(name: str) -> Var:
    return Var(name)


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
# batched evaluation with forward-mode jets
#
# Operands during batch evaluation are plain floats (constants), numpy arrays
# of shape (m,), or _Jet1/_Jet2.  Binary ops are closed over that set via the
# dunder methods below; nan/inf propagate silently.


class _Jet1:
    __slots__ = ("v", "g")

    def __init__(self, v, g):
        self.v = v
        self.g = g

    def __add__(self, o):
        if isinstance(o, _Jet1):
            return _Jet1(self.v + o.v, self.g + o.g)
        return _Jet1(self.v + o, self.g)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _Jet1):
            return _Jet1(self.v * o.v,
                         self.v[:, None] * o.g + o.v[:, None] * self.g)
        return _Jet1(self.v * o, self.g * o)

    __rmul__ = __mul__

    def _compose(self, f0, f1):
        return _Jet1(f0, f1[:, None] * self.g)

    def _recip(self):
        u = 1.0 / self.v
        return self._compose(u, -u * u)

    def _ipow(self, k: int):
        v = self.v
        return self._compose(v ** k, float(k) * v ** (k - 1))

    def _fpow(self, p: float):
        v = np.where(self.v > 0.0, self.v, np.nan)
        return self._compose(v ** p, p * v ** (p - 1.0))


class _Jet2:
    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v = v
        self.g = g
        self.h = h

    def __add__(self, o):
        if isinstance(o, _Jet2):
            return _Jet2(self.v + o.v, self.g + o.g, self.h + o.h)
        return _Jet2(self.v + o, self.g, self.h)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _Jet2):
            v = self.v * o.v
            g = self.v[:, None] * o.g + o.v[:, None] * self.g
            h = (self.v[:, None, None] * o.h + o.v[:, None, None] * self.h
                 + self.g[:, :, None] * o.g[:, None, :]
                 + o.g[:, :, None] * self.g[:, None, :])
            return _Jet2(v, g, h)
        return _Jet2(self.v * o, self.g * o, self.h * o)

    __rmul__ = __mul__

    def _compose(self, f0, f1, f2):
        # chain rule for a scalar function applied to this jet
        g = f1[:, None] * self.g
        h = (f1[:, None, None] * self.h
             + f2[:, None, None] * (self.g[:, :, None] * self.g[:, None, :]))
        return _Jet2(f0, g, h)

    def _recip(self):
        u = 1.0 / self.v
        u2 = u * u
        return self._compose(u, -u2, 2.0 * u2 * u)

    def _ipow(self, k: int):
        v = self.v
        return self._compose(v ** k, float(k) * v ** (k - 1),
                             float(k * (k - 1)) * v ** (k - 2))

    def _fpow(self, p: float):
        v = np.where(self.v > 0.0, self.v, np.nan)
        return self._compose(v ** p, p * v ** (p - 1.0),
                             p * (p - 1.0) * v ** (p - 2.0))


# Constant subtrees are plain floats.  They divide and power in np.float64,
# which poisons to inf/nan where Python floats raise, and come back as float
# so that no numpy scalar meets a jet.


def _recip_any(x):
    if isinstance(x, (_Jet1, _Jet2)):
        return x._recip()
    if isinstance(x, float):
        return float(1.0 / np.float64(x))
    return 1.0 / x


def _ipow_any(x, k: int):
    if k == 0:
        return 1.0
    if k == 1:
        return x
    if isinstance(x, (_Jet1, _Jet2)):
        return x._ipow(k)
    if isinstance(x, float):
        return float(np.float64(x) ** k)
    return x ** k


def _fpow_any(x, p: float):
    if isinstance(x, (_Jet1, _Jet2)):
        return x._fpow(p)
    return np.where(x > 0.0, x, np.nan) ** p


def _eval_batch(expr: Expression, env: Mapping[str, object]):
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Sum):
        acc = _eval_batch(expr.terms[0], env)
        for t in expr.terms[1:]:
            acc = acc + _eval_batch(t, env)
        return acc
    if isinstance(expr, Product):
        acc = _eval_batch(expr.factors[0], env)
        for f in expr.factors[1:]:
            acc = acc * _eval_batch(f, env)
        return acc
    if isinstance(expr, IntPow):
        return _ipow_any(_eval_batch(expr.base, env), expr.exponent)
    if isinstance(expr, FracPow):
        return _fpow_any(_eval_batch(expr.base, env), float(expr.exponent))
    if isinstance(expr, Quotient):
        return _eval_batch(expr.num, env) * _recip_any(_eval_batch(expr.den, env))
    raise TypeError(f"not an expression node: {expr!r}")


@functools.lru_cache(maxsize=256)
def _free_names(expr: Expression) -> frozenset:
    # nodes define no __eq__, so the cache is keyed by object identity; it
    # holds the expression, so a cached id is never reused by another tree
    return frozenset(free_variables(expr))


def _check_names(expr, names):
    missing = _free_names(expr).difference(names)
    if missing:
        raise KeyError(f"expression uses variables {sorted(missing)} "
                       f"not present in {list(names)}")


def eval_values(expr: Expression, points: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Values at a batch of points; shape (m, n) -> (m,). nan where undefined."""
    points = np.asarray(points, dtype=float)
    m, n = points.shape
    _check_names(expr, names)
    env = {name: points[:, j] for j, name in enumerate(names)}
    with np.errstate(all="ignore"):
        out = _eval_batch(expr, env)
    if not isinstance(out, np.ndarray):
        out = np.full(m, float(out))
    return out


def eval_grid(expr: Expression, axes: Sequence[np.ndarray],
              names: Sequence[str]) -> np.ndarray:
    """Values on the tensor grid of the 1-D ``axes``; nan where undefined.

    Variable j enters as ``axes[j]`` shaped to broadcast along axis j, so
    each node is computed once per combination of the variables below it:
    ``u1^2*u2`` costs a slab over two axes, not the whole grid.  Every grid
    entry goes through the same float operations as in ``eval_values`` on
    the stacked grid points, so the two agree bit for bit.  The result has
    shape ``tuple(len(a) for a in axes)`` and may be a read-only broadcast
    view when the expression skips a variable.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    if len(axes) != len(names):
        raise ValueError(f"{len(axes)} axes for {len(names)} variable names")
    _check_names(expr, names)
    n = len(axes)
    env = {name: a.reshape((1,) * j + (-1,) + (1,) * (n - j - 1))
           for j, (name, a) in enumerate(zip(names, axes))}
    with np.errstate(all="ignore"):
        out = _eval_batch(expr, env)
    return np.broadcast_to(out, tuple(a.size for a in axes))


def eval_jet1(expr: Expression, points: np.ndarray, names: Sequence[str]):
    """Values and gradients at a batch of points: (m,), (m, n)."""
    points = np.asarray(points, dtype=float)
    m, n = points.shape
    _check_names(expr, names)
    env = {}
    for j, name in enumerate(names):
        g = np.zeros((m, n))
        g[:, j] = 1.0
        env[name] = _Jet1(points[:, j].copy(), g)
    with np.errstate(all="ignore"):
        out = _eval_batch(expr, env)
    if not isinstance(out, _Jet1):
        return np.full(m, float(out)), np.zeros((m, n))
    return out.v, out.g


def eval_jet2(expr: Expression, points: np.ndarray, names: Sequence[str]):
    """Values, gradients and Hessians at a batch: (m,), (m,n), (m,n,n).

    The Hessian is symmetric by construction of the product/chain rules.
    """
    points = np.asarray(points, dtype=float)
    m, n = points.shape
    _check_names(expr, names)
    env = {}
    for j, name in enumerate(names):
        g = np.zeros((m, n))
        g[:, j] = 1.0
        env[name] = _Jet2(points[:, j].copy(), g, np.zeros((m, n, n)))
    with np.errstate(all="ignore"):
        out = _eval_batch(expr, env)
    if not isinstance(out, _Jet2):
        return np.full(m, float(out)), np.zeros((m, n)), np.zeros((m, n, n))
    return out.v, out.g, out.h


def differentiate(expr: Expression, point: Sequence[float], names: Sequence[str]):
    """Exact value/gradient/Hessian at one point.

    Raises DomainViolation when the point is outside the domain of
    definition (detected by the strict evaluator first).
    """
    pt = {name: float(v) for name, v in zip(names, point)}
    evaluate(expr, pt)  # domain check with real errors
    v, g, h = eval_jet2(expr, np.asarray(point, float)[None, :], names)
    return float(v[0]), g[0], h[0]


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
