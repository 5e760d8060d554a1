"""Expression evaluation and forward-mode derivatives.

The derivative oracle here is central finite differences at step 1e-5,
implemented independently of the jet arithmetic under test.  The compiled
tape is also checked byte for byte against a recursive jet evaluator that
holds only the gradient and Hessian entries that can be nonzero, as the
tape's entry-wise jets do, and against the dense recursive evaluator the
tape once replaced: on every row where all of that evaluator's nodes are
finite, byte for byte up to the sign of an exact zero.
"""

import functools
import operator
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from morsevanish.critical import halton_points
from morsevanish.errors import DomainViolation, ExpressionParseError
from morsevanish.expr import (
    Const, Expression, FracPow, IntPow, Product, Quotient, Sum, Var,
    compile, eval_jet1, eval_jet2, eval_values, evaluate,
    free_variables, parse_expression, rational_pow, to_infix,
)
from morsevanish.integrator import _Field
from morsevanish.metric import metric_exprs
from morsevanish.oracle import catalog_lookup, catalog_names
from morsevanish.problem import perturbed_function


def fd_gradient(fn, x, h=1e-5):
    x = np.asarray(x, float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def fd_hessian(fn, x, h=1e-4):
    x = np.asarray(x, float)
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            H[i, j] = (fn(x + ei + ej) - fn(x + ei - ej)
                       - fn(x - ei + ej) + fn(x - ei - ej)) / (4 * h * h)
    return H


CASES = [
    ("x^2 + 3*x - 1", ["x"], [0.37]),
    ("x^4 - x^2", ["x"], [1.21]),
    ("x1^2*x2 - x2^3 + x1/(2 + x2^2)", ["x1", "x2"], [0.8, -0.6]),
    ("pow(1 + x1^2 + x2^2, -3/2)", ["x1", "x2"], [1.1, 0.4]),
    ("(u1^2 - v1^2) + 2*pow(1 + u1^2 + v1^2, 1/2)", ["u1", "v1"], [0.5, -1.2]),
    ("1/y + y^3", ["y"], [0.42]),
    ("pow(y, 5/2) - 2/(y + 1)", ["y"], [1.7]),
]


@pytest.mark.parametrize("text,names,point", CASES)
def test_gradient_matches_central_differences(text, names, point):
    f = parse_expression(text)

    def fn(x):
        return evaluate(f, dict(zip(names, x)))

    (val,), (grad,), (hess,) = eval_jet2(f, np.array([point]), names)
    assert val == pytest.approx(fn(np.asarray(point)), rel=1e-14)
    g_ref = fd_gradient(fn, point)
    scale = np.maximum(np.abs(g_ref), 1.0)
    assert np.all(np.abs(grad - g_ref) / scale < 1e-6)
    h_ref = fd_hessian(fn, point)
    hscale = np.maximum(np.abs(h_ref), 1.0)
    assert np.all(np.abs(hess - h_ref) / hscale < 1e-4)


def test_hessian_symmetric_and_exact_on_cubic():
    f = parse_expression("x1^3 + 4*x1*x2 + x2^2")
    _, (g,), (h,) = eval_jet2(f, np.array([[2.0, -1.0]]), ["x1", "x2"])
    assert np.allclose(h, h.T)
    assert np.allclose(h, [[12.0, 4.0], [4.0, 2.0]])
    assert np.allclose(g, [3 * 4.0 + 4 * (-1.0), 4 * 2.0 + 2 * (-1.0)])


def test_batch_agrees_with_scalar():
    f = parse_expression("x1^2*x2 + pow(1 + x1^2, -1/2)")
    names = ["x1", "x2"]
    rng = np.random.default_rng(7)
    X = rng.uniform(-2, 2, size=(40, 2))
    vals = eval_values(f, X, names)
    v1, g1 = eval_jet1(f, X, names)
    v2, g2, h2 = eval_jet2(f, X, names)
    for i in range(X.shape[0]):
        ref = evaluate(f, dict(zip(names, X[i])))
        assert vals[i] == pytest.approx(ref, rel=1e-14)
        assert v1[i] == pytest.approx(ref, rel=1e-14)
        assert v2[i] == pytest.approx(ref, rel=1e-14)
    assert np.allclose(g1, g2)


def test_domain_violation_rational_power():
    f = rational_pow(Var("x"), Fraction(1, 2))
    with pytest.raises(DomainViolation):
        evaluate(f, {"x": -1.0})
    with pytest.raises(DomainViolation):
        evaluate(f, {"x": 0.0})
    # batch mode poisons instead of raising
    out = eval_values(f, np.array([[-1.0], [4.0]]), ["x"])
    assert np.isnan(out[0]) and out[1] == 2.0


@pytest.mark.parametrize("text,at,node", [
    ("u1*10^400", 2.0, "u1*10^400"),
    ("u1^400", 1e3, "u1^400"),
    ("1 + u1^400", 1e3, "u1^400"),     # the overflowing node, not the root
])
def test_overflow_is_a_domain_violation(text, at, node):
    expr = parse_expression(text)
    with pytest.raises(DomainViolation, match="overflowed") as err:
        evaluate(expr, {"u1": at})
    assert str(err.value).endswith(f" in {node}")
    # the batch jets poison the overflow instead of raising
    (val,), _, _ = eval_jet2(expr, np.array([[at]]), ["u1"])
    assert val == np.inf


def test_domain_violation_quotient():
    f = parse_expression("1/x")
    with pytest.raises(DomainViolation):
        evaluate(f, {"x": 0.0})
    assert evaluate(f, {"x": 2.0}) == 0.5


def test_negative_int_power_is_sign_correct():
    f = parse_expression("x^-3")
    assert evaluate(f, {"x": -2.0}) == pytest.approx(-0.125)
    v, g = eval_jet1(f, np.array([[-2.0]]), ["x"])
    assert g[0, 0] == pytest.approx(-3.0 * (-2.0) ** -4)


def test_parser_rejects_garbage_with_position():
    with pytest.raises(ExpressionParseError) as err:
        parse_expression("x +* 2")
    assert err.value.line == 1
    assert err.value.col == 4
    with pytest.raises(ExpressionParseError):
        parse_expression("pow(x, y)")  # exponent must be rational literal
    with pytest.raises(ExpressionParseError):
        parse_expression("x ^ 1.5")  # rational exponents go through pow()


def test_parser_exact_decimals():
    f = parse_expression("0.1*x")
    # 0.1 must be the rational 1/10, not the binary float
    assert isinstance(f.factors[0], Const)
    assert f.factors[0].value == Fraction(1, 10)


def test_free_variables_sorted():
    f = parse_expression("v1 + u1*u2 - pow(1 + u1^2, 1/2)")
    assert free_variables(f) == ("u1", "u2", "v1")


def test_roundtrip_through_printer():
    texts = ["x^4 - x^2", "1/y + y^3", "pow(1 + x1^2 + x2^2, -3/2)",
             "(x1 + x2)*(x1 - x2)"]
    rng = np.random.default_rng(3)
    for text in texts:
        f = parse_expression(text)
        g = parse_expression(to_infix(f))
        names = list(free_variables(f))
        for _ in range(5):
            pt = dict(zip(names, rng.uniform(0.2, 1.5, len(names))))
            assert evaluate(f, pt) == pytest.approx(evaluate(g, pt), rel=1e-14)


def test_operator_overloads_build_expected_nodes():
    x = Var("x")
    e = (x + 1) * x ** 2 / (x - 3)
    assert isinstance(e, Quotient)
    assert isinstance(e.num.factors[1], IntPow)
    assert isinstance((x ** Fraction(3, 2)), FracPow)
    assert isinstance((x ** Fraction(4, 2)), IntPow)  # integral fractions collapse


def random_tree(rng, names, depth):
    """A seeded random expression over ``names`` using every node kind."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return Const(Fraction(int(rng.integers(-5, 6)),
                                  int(rng.integers(1, 4))))
        return Var(names[int(rng.integers(len(names)))])
    kind = int(rng.integers(5))
    sub = [random_tree(rng, names, depth - 1) for _ in range(3)]
    if kind == 0:
        return Sum(sub[:int(rng.integers(1, 4))])
    if kind == 1:
        return Product(sub[:int(rng.integers(1, 4))])
    if kind == 2:
        return IntPow(sub[0], int(rng.integers(-3, 4)))
    if kind == 3:
        # odd over even is never integral, as FracPow requires
        return FracPow(sub[0], Fraction(int(rng.choice([-3, -1, 1, 3])),
                                        int(rng.choice([2, 4]))))
    return Quotient(sub[0], sub[1])


def grid_by_points(expr, axes, names):
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return eval_values(expr, pts, names).reshape(mesh[0].shape)


class TestEvalGrid:
    # unequal lengths; the zeros make quotients and rational powers blow up
    AXES = [np.linspace(-2.0, 2.0, 5), np.linspace(-1.5, 0.5, 3),
            np.array([-1.0, 0.0, 0.25, 3.0])]
    NAMES = ["u1", "u2", "u3"]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_trees_match_stacked_points_bitwise(self, seed):
        expr = random_tree(np.random.default_rng(seed), self.NAMES, 4)
        want = grid_by_points(expr, self.AXES, self.NAMES)
        got = compile((expr,), self.NAMES).grid(self.AXES)[0]
        assert got.shape == (5, 3, 4)
        assert np.array_equal(got, want, equal_nan=True), to_infix(expr)

    @pytest.mark.parametrize("text", [
        "pow(u1^2 + u3, -3/2) / (u1 - u2^-2)",   # FracPow, Quotient, u^-k
        "7/3",                                     # constant
        "u1^-1 * u3 + pow(u3, 1/2)",               # skips u2
        "u2",
        "u1/0", "0^-1", "1/(1-1)", "u1*10^400",    # poisoned constants
    ])
    def test_listed_shapes_match_stacked_points(self, text):
        expr = parse_expression(text)
        got = compile((expr,), self.NAMES).grid(self.AXES)[0]
        want = grid_by_points(expr, self.AXES, self.NAMES)
        assert got.shape == (5, 3, 4)
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("text", ["u1/0", "0^-1", "1/(1-1)",
                                      "u1*10^400"])
    def test_constant_blowups_poison_instead_of_raising(self, text):
        expr = parse_expression(text)
        pts = np.array([[2.0, 1.0, 1.0], [-1.0, 0.5, 3.0]])
        vals = eval_values(expr, pts, self.NAMES)
        v1, g1 = eval_jet1(expr, pts, self.NAMES)
        assert np.all(np.isinf(vals)) and np.array_equal(v1, vals)
        assert g1.shape == (2, 3)
        with pytest.raises(DomainViolation):
            evaluate(expr, {"u1": 2.0, "u2": 1.0, "u3": 1.0})

    def test_random_trees_cover_every_node_kind(self):
        kinds = set()

        def walk(e):
            kinds.add(type(e).__name__ if not isinstance(e, IntPow)
                      else ("NegPow" if e.exponent < 0 else "IntPow"))
            for c in getattr(e, "terms", ()) + getattr(e, "factors", ()):
                walk(c)
            for attr in ("base", "num", "den"):
                if hasattr(e, attr):
                    walk(getattr(e, attr))

        for seed in range(40):
            walk(random_tree(np.random.default_rng(seed), self.NAMES, 4))
        assert kinds >= {"Const", "Var", "Sum", "Product", "IntPow",
                         "NegPow", "FracPow", "Quotient"}

    def test_unknown_variable_rejected_every_call(self):
        expr = parse_expression("u1 + w")
        for _ in range(2):
            with pytest.raises(KeyError, match="w"):
                compile((expr,), self.NAMES).grid(self.AXES)
            with pytest.raises(KeyError, match="w"):
                eval_values(expr, np.zeros((2, 3)), self.NAMES)
        assert eval_values(expr, np.ones((2, 2)), ["u1", "w"]).tolist() \
            == [2.0, 2.0]

    def test_axis_count_must_match_names(self):
        with pytest.raises(ValueError, match="2 axes for 3"):
            compile((parse_expression("u1"),), self.NAMES).grid(self.AXES[:2])


# ---------------------------------------------------------------------------
# the recursive jet evaluators, kept as references
#
# Operands are plain floats (constant subtrees), numpy arrays (values and
# grids) or jets; constants divide and power in np.float64.  _Jet1 and
# _Jet2 follow the tape's contract: they hold the gradient entries j and
# Hessian entries (j, k) that can be nonzero, each a float while it is an
# exact constant, and skip the terms that are structurally zero, in the
# tape's order of terms (a constant factor C comes first, as the value of
# a live factor does, and 1/u has the factor -(u * u)), so the two agree
# byte for byte, the sign bits of nans included.  _RowsJet1 and _RowsJet2
# are the dense forward mode the tape ran before, with the points first;
# ``ok`` marks the rows where every node they built is finite, and there
# the tape gives their bytes but for the sign of an exact zero.


def _times(x, y):
    """x * y of two entries, None (structurally zero) if either is."""
    return None if x is None or y is None else x * y


def _plus(*xs):
    """The left-to-right sum of the entries that are not None."""
    xs = [x for x in xs if x is not None]
    return functools.reduce(operator.add, xs) if xs else None


def _pairs(a, b):
    return {(j, k) for j in a for k in b}


class _Jet1:
    """Value v (m,) and gradient entries g: {j: float or (m,) array}."""

    __slots__ = ("v", "g")

    def __init__(self, v, g):
        self.v = v
        self.g = g

    def __add__(self, o):
        if isinstance(o, _Jet1):
            return _Jet1(self.v + o.v, {j: _plus(self.g.get(j), o.g.get(j))
                                        for j in self.g.keys() | o.g})
        return _Jet1(self.v + o, self.g)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _Jet1):
            return _Jet1(self.v * o.v, {
                j: _plus(_times(self.v, o.g.get(j)),
                         _times(o.v, self.g.get(j)))
                for j in self.g.keys() | o.g})
        return _Jet1(self.v * o, {j: o * x for j, x in self.g.items()})

    __rmul__ = __mul__

    def _compose(self, f0, f1):
        return _Jet1(f0, {j: f1 * x for j, x in self.g.items()})

    def _recip(self):
        u = 1.0 / self.v
        return self._compose(u, -(u * u))

    def _ipow(self, k):
        v = self.v
        return self._compose(v ** k, float(k) * v ** (k - 1))

    def _fpow(self, p):
        v = np.where(self.v > 0.0, self.v, np.nan)
        return self._compose(v ** p, p * v ** (p - 1.0))


class _Jet2:
    """_Jet1 with the Hessian entries h: {(j, k): float or (m,) array}."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v = v
        self.g = g
        self.h = h

    def __add__(self, o):
        if isinstance(o, _Jet2):
            return _Jet2(self.v + o.v,
                         {j: _plus(self.g.get(j), o.g.get(j))
                          for j in self.g.keys() | o.g},
                         {i: _plus(self.h.get(i), o.h.get(i))
                          for i in self.h.keys() | o.h})
        return _Jet2(self.v + o, self.g, self.h)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _Jet2):
            a, b = self, o
            g = {j: _plus(_times(a.v, b.g.get(j)), _times(b.v, a.g.get(j)))
                 for j in a.g.keys() | b.g}
            h = {(j, k): _plus(_times(a.v, b.h.get((j, k))),
                               _times(b.v, a.h.get((j, k))),
                               _times(a.g.get(j), b.g.get(k)),
                               _times(b.g.get(j), a.g.get(k)))
                 for j, k in a.h.keys() | b.h | _pairs(a.g, b.g)
                 | _pairs(b.g, a.g)}
            return _Jet2(a.v * b.v, g, h)
        return _Jet2(self.v * o, {j: o * x for j, x in self.g.items()},
                     {i: o * x for i, x in self.h.items()})

    __rmul__ = __mul__

    def _compose(self, f0, f1, f2):
        g, h = self.g, self.h
        return _Jet2(f0, {j: f1 * x for j, x in g.items()}, {
            (j, k): _plus(_times(f1, h.get((j, k))),
                          _times(f2, _times(g.get(j), g.get(k))))
            for j, k in h.keys() | _pairs(g, g)})

    def _recip(self):
        u = 1.0 / self.v
        u2 = u * u
        return self._compose(u, -u2, 2.0 * u2 * u)

    def _ipow(self, k):
        v = self.v
        return self._compose(v ** k, float(k) * v ** (k - 1),
                             float(k * (k - 1)) * v ** (k - 2))

    def _fpow(self, p):
        v = np.where(self.v > 0.0, self.v, np.nan)
        return self._compose(v ** p, p * v ** (p - 1.0),
                             p * (p - 1.0) * v ** (p - 2.0))


def _finite_rows(*arrays):
    """The rows where every entry of every (points-first) array is finite."""
    return np.logical_and.reduce([np.isfinite(a.reshape(len(a), -1)).all(1)
                                  for a in arrays])


class _RowsJet1:
    """The dense jet: v (m,), g (m, n), and the rows ``ok``."""

    __slots__ = ("v", "g", "ok")

    def __init__(self, v, g, ok=True):
        self.v = v
        self.g = g
        self.ok = ok & _finite_rows(v, g)

    def __add__(self, o):
        if isinstance(o, _RowsJet1):
            return _RowsJet1(self.v + o.v, self.g + o.g, self.ok & o.ok)
        return _RowsJet1(self.v + o, self.g, self.ok)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _RowsJet1):
            return _RowsJet1(self.v * o.v, self.v[:, None] * o.g
                             + o.v[:, None] * self.g, self.ok & o.ok)
        return _RowsJet1(self.v * o, self.g * o, self.ok)

    __rmul__ = __mul__

    def _compose(self, f0, f1):
        return _RowsJet1(f0, f1[:, None] * self.g, self.ok)

    _recip, _ipow, _fpow = _Jet1._recip, _Jet1._ipow, _Jet1._fpow


class _RowsJet2:
    """The dense jet with h (m, n, n)."""

    __slots__ = ("v", "g", "h", "ok")

    def __init__(self, v, g, h, ok=True):
        self.v = v
        self.g = g
        self.h = h
        self.ok = ok & _finite_rows(v, g, h)

    def __add__(self, o):
        if isinstance(o, _RowsJet2):
            return _RowsJet2(self.v + o.v, self.g + o.g, self.h + o.h,
                             self.ok & o.ok)
        return _RowsJet2(self.v + o, self.g, self.h, self.ok)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _RowsJet2):
            a, b = self, o
            g = a.v[:, None] * b.g + b.v[:, None] * a.g
            h = (a.v[:, None, None] * b.h + b.v[:, None, None] * a.h
                 + a.g[:, :, None] * b.g[:, None, :]
                 + b.g[:, :, None] * a.g[:, None, :])
            return _RowsJet2(a.v * b.v, g, h, a.ok & b.ok)
        return _RowsJet2(self.v * o, self.g * o, self.h * o, self.ok)

    __rmul__ = __mul__

    def _compose(self, f0, f1, f2):
        g = self.g
        h = (f1[:, None, None] * self.h
             + f2[:, None, None] * (g[:, :, None] * g[:, None, :]))
        return _RowsJet2(f0, f1[:, None] * g, h, self.ok)

    _recip, _ipow, _fpow = _Jet2._recip, _Jet2._ipow, _Jet2._fpow


_JETS = (_Jet1, _Jet2, _RowsJet1, _RowsJet2)


def _recip_any(x):
    if isinstance(x, _JETS):
        return x._recip()
    if isinstance(x, float):
        return float(1.0 / np.float64(x))
    return 1.0 / x


def _ipow_any(x, k):
    if k == 0:
        return 1.0
    if k == 1:
        return x
    if isinstance(x, _JETS):
        return x._ipow(k)
    if isinstance(x, float):
        return float(np.float64(x) ** k)
    return x ** k


def _fpow_any(x, p):
    if isinstance(x, _JETS):
        return x._fpow(p)
    return np.where(x > 0.0, x, np.nan) ** p


def _eval_batch(expr, env):
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
        return _eval_batch(expr.num, env) * _recip_any(
            _eval_batch(expr.den, env))
    raise TypeError(f"not an expression node: {expr!r}")


def ref_values(expr, points, names):
    m = len(points)
    env = {name: points[:, j] for j, name in enumerate(names)}
    with np.errstate(all="ignore"):
        out = _eval_batch(expr, env)
    return out if isinstance(out, np.ndarray) else np.full(m, float(out))


def ref_grid(expr, axes, names):
    n = len(axes)
    env = {name: a.reshape((1,) * j + (-1,) + (1,) * (n - j - 1))
           for j, (name, a) in enumerate(zip(names, axes))}
    with np.errstate(all="ignore"):
        out = _eval_batch(expr, env)
    return np.broadcast_to(out, tuple(a.size for a in axes))


def _constant_jet(c, m, n, order):
    return (np.full(m, float(c)),) + tuple(
        np.zeros((m,) + (n,) * k) for k in range(1, order + 1))


def ref_jet(expr, points, names, order):
    """The jets of _Jet1/_Jet2 at ``points`` as the tape hands them back:
    (m,), (m, n) and for order 2 (m, n, n), with 0.0 at the entries that
    are structurally zero."""
    m, n = points.shape
    jet = (_Jet1, _Jet2)[order - 1]
    env = {name: jet(points[:, j].copy(), *({j: 1.0}, {})[:order])
           for j, name in enumerate(names)}
    with np.errstate(all="ignore"):
        out = _eval_batch(expr, env)
    if not isinstance(out, jet):
        return _constant_jet(out, m, n, order)

    def stack(entries, keys):
        return np.stack([x if isinstance(x, np.ndarray) else np.full(m, x)
                         for x in (entries.get(i, 0.0) for i in keys)], 1)

    derivs = [stack(out.g, range(n))]
    if order == 2:
        derivs.append(stack(out.h, [(j, k) for j in range(n)
                                    for k in range(n)]).reshape(m, n, n))
    return (out.v, *derivs)


def dense_jet(expr, points, names, order):
    """The jets of _RowsJet1/_RowsJet2 at ``points``, and the rows where
    every node they built is finite."""
    m, n = points.shape
    jet = (_RowsJet1, _RowsJet2)[order - 1]
    env = {}
    for j, name in enumerate(names):
        g = np.zeros((m, n))
        g[:, j] = 1.0
        env[name] = jet(points[:, j].copy(),
                        *(g, np.zeros((m, n, n)))[:order])
    with np.errstate(all="ignore"):
        out = _eval_batch(expr, env)
    if not isinstance(out, jet):
        return _constant_jet(out, m, n, order), np.ones(m, dtype=bool)
    return (out.v, out.g) + ((out.h,) if order == 2 else ()), out.ok


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestTape:
    NAMES = TestEvalGrid.NAMES
    AXES = TestEvalGrid.AXES
    # every axis value of the grid, plus rows that hit nan and inf
    POINTS = np.array([[-2.0, -1.5, -1.0], [0.0, 0.0, 0.0], [1.0, 0.5, 0.25],
                       [2.0, -0.5, 3.0], [-1.0, 0.5, 0.0], [0.5, 1e-300, 7.0]])
    POISONED = ["u1/0", "0^-1", "1/(1-1)", "u1*10^400", "pow(-1, 1/2)*u2"]
    TEXTS = POISONED + ["pow(u1^2 + u3, -3/2) / (u1 - u2^-2)", "7/3", "u2",
                        "u1^-1 * u3 + pow(u3, 1/2)", "u1^0 + u2^1",
                        "2*pow(2, 1/2)*u1 + pow(3, 1/2) + u1*pow(5, 1/2)",
                        # -0.0 folds apart from 0.0; a nan constant meets
                        # the opposite-signed nan of inf - inf
                        "u1/(-1*0) + u2/0", "pow(-1, 1/2) + (u1/0 - u1/0)",
                        "(u2/0 - u2/0) * pow(-1, 1/2)"]

    def exprs(self):
        trees = [random_tree(np.random.default_rng(seed), self.NAMES, 4)
                 for seed in range(40)]
        return trees + [parse_expression(t) for t in self.TEXTS]

    def test_every_mode_matches_the_reference_bytewise(self):
        for expr in self.exprs():
            tape = compile((expr,), self.NAMES)
            why = to_infix(expr)
            assert same_bytes(tape.values(self.POINTS)[0],
                              ref_values(expr, self.POINTS, self.NAMES)), why
            assert same_bytes(tape.grid(self.AXES)[0],
                              ref_grid(expr, self.AXES, self.NAMES)), why
            for order, got in ((1, tape.jet1(self.POINTS)[0]),
                               (2, tape.jet2(self.POINTS)[0])):
                want = ref_jet(expr, self.POINTS, self.NAMES, order)
                assert all(map(same_bytes, got, want)), (order, why)

    @staticmethod
    def same_off_nan(a, b):
        """nan at the same entries, and the same bytes at every other."""
        nan = np.isnan(b)
        return np.array_equal(np.isnan(a), nan) and same_bytes(a[~nan],
                                                               b[~nan])

    def test_jets_match_the_points_first_reference_off_nan(self):
        # the dense reference on the rows where all its nodes are finite,
        # an exact zero of either sign taken as +0.0 (x + 0.0)
        rows = 0
        for expr in self.exprs():
            tape = compile((expr,), self.NAMES)
            for order, got in ((1, tape.jet1(self.POINTS)[0]),
                               (2, tape.jet2(self.POINTS)[0])):
                want, ok = dense_jet(expr, self.POINTS, self.NAMES, order)
                rows += ok.sum()
                assert all(self.same_off_nan(a[ok] + 0.0, b[ok] + 0.0)
                           for a, b in zip(got, want)), (order, to_infix(expr))
        assert rows > 200  # of 588

    @pytest.mark.parametrize("m", [1, 7])
    @pytest.mark.parametrize("texts", [
        ("u2",), ("7/3",),
        ("pow(u1^2 + u3, -3/2) / (u1 - u2^-2)", "u1*u2 + pow(u3, 1/2)")],
        ids=["bare-variable", "constant", "two-outputs"])
    def test_jets_come_back_points_first_and_contiguous(self, texts, m):
        points = np.vstack([self.POINTS, [[3.0, -2.0, 0.5]]])[:m]
        exprs = [parse_expression(t) for t in texts]
        tape = compile(exprs, self.NAMES)
        for order, jets in ((1, tape.jet1(points)), (2, tape.jet2(points))):
            assert len(jets) == len(exprs)
            for expr, got in zip(exprs, jets):
                want = ref_jet(expr, points, self.NAMES, order)
                assert len(got) == order + 1
                for k, (a, b) in enumerate(zip(got, want)):
                    assert a.dtype == np.float64
                    assert a.shape == (m,) + (3,) * k
                    # the value of a bare variable is a view of the points
                    assert np.shares_memory(a, points) \
                        if k == 0 and isinstance(expr, Var) \
                        else a.flags.c_contiguous
                    assert self.same_off_nan(a, b), (order, k, texts)

    def test_one_tape_equals_one_tape_per_output(self):
        exprs = self.exprs()
        # shared subtrees across outputs, as f_eps and tau share tau
        exprs += [Sum((exprs[5], exprs[7])), Quotient(Const(1), exprs[5])]
        joint = compile(exprs, self.NAMES)
        alone = [compile((e,), self.NAMES) for e in exprs]
        assert len(joint) < sum(map(len, alone))
        for mode, arg in (("values", self.POINTS), ("grid", self.AXES),
                          ("jet1", self.POINTS), ("jet2", self.POINTS)):
            got = getattr(joint, mode)(arg)
            want = [getattr(t, mode)(arg)[0] for t in alone]
            for g, w in zip(got, want):
                assert all(map(same_bytes, g, w)) if isinstance(g, tuple) \
                    else same_bytes(g, w), mode

    @pytest.mark.parametrize("mode", ["jet1", "jet2"])
    def test_long_batches_run_in_blocks_bit_for_bit(self, mode,
                                                    monkeypatch):
        # 2,500 rows, among them rows of inf, nan, 1e200 and signed zeros
        rng = np.random.default_rng(5)
        points = rng.normal(size=(2500, 3)) * 2.0
        points[:7] = [[np.inf] * 3, [-np.inf, 1.0, 2.0], [np.nan] * 3,
                      [1e200, -1e200, 1e200], [0.0] * 3, [-0.0] * 3,
                      [-0.0, 0.0, np.nan]]
        points[1234] = points[2499] = np.inf
        tape = compile(self.exprs()[40:], self.NAMES)
        with np.errstate(all="ignore"):
            whole = tape.kernel(mode)(points, *points.shape)
        rows, run = [], tape._run
        monkeypatch.setattr(tape, "_run", lambda mode, X, m, n: (
            rows.append(m), run(mode, X, m, n))[1])
        got = getattr(tape, mode)(points)
        assert rows == [834, 833, 833]
        blocks = [getattr(tape, mode)(b)
                  for b in np.array_split(points, 3)]
        assert rows[3:] == [834, 833, 833]
        for k, g in enumerate(got):
            per_block = [np.concatenate(x) for x in
                         zip(*(b[k] for b in blocks))]
            assert all(map(same_bytes, g, per_block)), k
            assert all(map(same_bytes, g, whole[k])), k
        # up to two blocks' worth of rows is one call
        del rows[:]
        getattr(tape, mode)(points[:2048])
        getattr(tape, mode)(points[:1025])
        assert rows == [2048, 1025]

    def test_shared_tau_costs_one_set_of_instructions(self):
        f = parse_expression("x^4 - x^2 - y^2")
        tau = parse_expression("pow(1 + x^2 + y^2, -1/2)")
        fe = Sum((f, Quotient(Const(Fraction(1, 10)), tau)))
        names = ("x", "y")
        both = compile((fe, tau), names)
        assert len(both) == len(compile((fe,), names))
        assert len(both) < (len(compile((fe,), names))
                            + len(compile((tau,), names)))
        # a second parse of the same text is hash-consed onto the same slots
        again = compile((fe, parse_expression("pow(1 + x^2 + y^2, -1/2)")),
                        names)
        assert len(again) == len(both)

    def test_constant_blowups_poison_in_every_mode(self):
        exprs = [parse_expression(t) for t in self.POISONED]
        tape = compile(exprs, self.NAMES)
        # u1/0 is nan where u1 = 0 (0 * inf), so only non-finite is asked
        for v, (v1, g1), (v2, g2, h2), grid in zip(
                tape.values(self.POINTS), tape.jet1(self.POINTS),
                tape.jet2(self.POINTS), tape.grid(self.AXES)):
            assert not np.isfinite(v).any() and not np.isfinite(grid).any()
            assert same_bytes(v1, v) and same_bytes(v2, v)
            assert g1.shape == (6, 3) and h2.shape == (6, 3, 3)

    def test_compiling_again_gives_the_same_tape(self):
        expr = parse_expression("u1*u2 + pow(u3, 1/2)")
        assert compile((expr,), self.NAMES) is compile([expr],
                                                       list(self.NAMES))
        assert isinstance(expr, Expression)
        # the cache keys on the tree: a second parse shares the tape, a
        # regrouped sum, whose chain differs, does not
        again = parse_expression("u1*u2 + pow(u3, 1/2)")
        assert compile((again,), self.NAMES) is compile((expr,), self.NAMES)
        left = parse_expression("(u1 + u2) + u3")
        right = parse_expression("u1 + (u2 + u3)")
        assert compile((left,), self.NAMES) is not compile((right,),
                                                           self.NAMES)


class TestPooledGrid:
    """Grid mode writes every slot into scratch registers that the tape
    keeps, in place where an operand dies; its bytes are those of values
    mode at the stacked points, and of the independent reference."""

    NAMES = TestEvalGrid.NAMES
    AXES = TestEvalGrid.AXES  # u1 + u2 and u2 are <= 0 on part of the grid
    TEXTS = {
        # add, mul, recip, ipow and fpow, and a dying operand of the
        # output's shape taken in place
        "every op": "u1*u2 + 1/(u3 - 2) + pow(u1^2 + 1, 1/2) * u3",
        "ipow 2 and 3": "u1^2 + u2^3 - (u1*u3 + u2)^2 * (u1 + u3)^3",
        # an ipow of -1 is numpy's np.reciprocal, a quotient np.divide
        "recip": "1/u2 + (u1 + u3)^-1 - u3/(u1 - 1)",
        "constant output": "7/3",
        "skips u2": "u1*u3 + pow(u3 + 2, 1/2) / u1",
    }
    # fpow at integral exponents too, which the parser never builds
    POWERS = [Fraction(1, 2), Fraction(-1, 2), Fraction(-1), Fraction(-3, 2),
              Fraction(2)]

    def exprs(self):
        yield from (parse_expression(t) for t in self.TEXTS.values())
        for p in self.POWERS:
            for base in ("u1 + u2", "u1^2 + 1"):  # partly <= 0, and > 0
                yield Sum((FracPow(parse_expression(base), p),
                           parse_expression("u3")))

    def test_grid_bytes_equal_values_mode(self):
        for expr in self.exprs():
            tape = compile((expr,), self.NAMES)
            got = tape.grid(self.AXES)[0]
            why = to_infix(expr)
            assert same_bytes(got, grid_by_points(expr, self.AXES,
                                                  self.NAMES)), why
            assert same_bytes(got, ref_grid(expr, self.AXES, self.NAMES)), why

    def test_fpow_writes_nan_where_the_base_is_not_positive(self):
        for p in self.POWERS:
            expr = FracPow(parse_expression("u1 + u2"), p)
            got = compile((expr,), self.NAMES).grid(self.AXES)[0]
            base = self.AXES[0][:, None, None] + self.AXES[1][None, :, None]
            assert np.array_equal(np.isnan(got),
                                  np.broadcast_to(base <= 0, got.shape)), p
            assert (base <= 0).any() and (base > 0).any()

    def test_fast_paths_are_numpys_own(self):
        # numpy's a ** 2, a ** -1 and a ** 0.5 call np.square,
        # np.reciprocal and np.sqrt, and so does the tape
        tape = compile((parse_expression(
            "u1^2 + u2^-1 + pow(u3, 1/2) + u1^3"),), self.NAMES)
        text = tape._values_source(grid=True)[0]
        for call in ("np.square(", "np.reciprocal(", "np.power("):
            assert call in text, call
        seen = []

        class Spy(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *args, **kwargs):
                seen.append(ufunc.__name__)
                args = [np.asarray(a) for a in args]
                return getattr(ufunc, method)(*args, **kwargs)

        x = np.array([0.5, 2.0]).view(Spy)
        for k, name in ((2, "square"), (-1, "reciprocal"), (0.5, "sqrt"),
                        (3, "power"), (-2, "power"), (-0.5, "power")):
            del seen[:]
            x ** k
            assert seen == [name], k

    def test_block_shapes_change_without_stale_scratch(self):
        expr = parse_expression(self.TEXTS["every op"])
        tape = compile((expr,), self.NAMES)
        big = [np.linspace(-3.0, 3.0, 9), np.linspace(-2.0, 1.0, 5),
               np.linspace(-1.0, 4.0, 7)]
        small = [a[:2] for a in self.AXES]
        # a smaller block cuts the registers shorter, a larger one
        # allocates them anew
        for axes in (self.AXES, small, self.AXES, big, small, self.AXES):
            assert same_bytes(tape.grid(axes)[0],
                              grid_by_points(expr, axes, self.NAMES)), [
                a.size for a in axes]

    def test_a_warm_tape_allocates_no_block(self):
        expr = parse_expression(self.TEXTS["every op"])
        tape = compile((expr,), self.NAMES)
        axes = [np.linspace(-2.0, 2.0, 40), np.linspace(-1.0, 0.5, 50),
                np.linspace(-1.0, 3.0, 60)]
        first = tape.grid(axes)[0].copy()
        tracemalloc.start()
        try:
            again = tape.grid(axes)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of float64 is 960,000 bytes; a ufunc that broadcasts
        # still allocates its iterator's buffers, 8,192 elements an operand
        assert peak < 8 * again.size // 2, peak
        assert same_bytes(again, first)
        # the result is a view of the scratch, which the next call reuses
        assert not again.flags.writeable
        assert np.shares_memory(again, tape.grid(axes)[0])


class TestStructure:
    """The jets compute only the entries that can be nonzero."""

    def test_a_sum_of_squares_computes_no_off_diagonal_entry(self):
        names = ["x1", "x2", "x3", "x4"]
        tape = compile((parse_expression("x1^2 + x2^2 + x3^2 + x4^2"),),
                       names)
        text, consts = tape._jet_source(2)
        binds = dict(re.findall(r"^    (\w+) = (.+)$", text, re.M))
        assert all(j == k for j, k in (  # Hessian entries, d<slot>_<j>_<k>
            x.split("_")[1:] for x in binds if x.count("_") == 2))
        # the off-diagonal columns of the returned Hessian are one column
        # of the constant 0.0
        cols = re.findall(r"np\.array\(\[([^\]]*)\]", text)[1].split(", ")
        off = {c for i, c in enumerate(cols) if i // 4 != i % 4}
        (zero,) = off
        assert consts[binds[zero][len("np.full(m, "):-1]] == 0.0
        points = np.random.default_rng(1).normal(size=(5, 4))
        points[0] = [np.inf, np.nan, 0.0, -0.0]
        (_, _, h), = tape.jet2(points)
        mask = ~np.eye(4, dtype=bool)
        assert same_bytes(h[:, mask], np.zeros((5, 12)))  # +0.0, never nan
        assert same_bytes(h[:, ~mask], np.full((5, 4), 2.0))

    def test_jet1_computes_no_hessian_entry(self):
        expr = parse_expression("x1*x2*x1 + x2^3*x1 + 1/(x1*x2)")
        text, _ = compile((expr,), ["x1", "x2"])._jet_source(1)
        assert re.findall(r"\bd\d+_\d+\b", text)
        assert not re.findall(r"\bd\d+_\d+_\d+\b", text)

    def test_a_tape_without_variables_has_empty_jets(self):
        tape = compile((Const(Fraction(7, 3)),), [])
        v, g, h = tape.jet2(np.zeros((4, 0)))[0]
        assert v.tolist() == [7 / 3] * 4
        assert g.shape == (4, 0) and h.shape == (4, 0, 0)
        assert tape.jet1(np.zeros((4, 0)))[0][1].shape == (4, 0)

    def test_a_pole_in_y_leaves_the_x_entries(self):
        expr = parse_expression("x + 1/y")
        at = np.array([[2.0, 0.0]])
        (v, g, h), = compile((expr,), ["x", "y"]).jet2(at)
        (_, g1), = compile((expr,), ["x", "y"]).jet1(at)
        assert v[0] == np.inf and g[0, 0] == 1.0 and g1[0, 0] == 1.0
        assert h[0].tolist()[0] == [0.0, 0.0] and h[0, 1, 1] == np.inf
        # the dense forward mode gave nan: 1.0 + 0 * -inf
        (_, dense_g, _), ok = dense_jet(expr, at, ["x", "y"], 2)
        assert np.isnan(dense_g[0, 0]) and not ok[0]

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_tapes_match_the_dense_reference(self, name):
        # f_eps, as Newton solves it, and the flow field's outputs, at the
        # first 64 Halton starts of the entry's box
        entry = catalog_lookup(name)
        problem = entry.make()
        names = problem.variables
        lo, hi = np.array(problem.domain.box).T
        points = lo + halton_points(64, len(names), skip=20) * (hi - lo)
        field = (problem.f, Quotient(Const(1), problem.tau)) \
            + metric_exprs(problem.metric, problem.tau)
        assert compile(field, names) is _Field(problem, entry.eps).tape
        for exprs in ((perturbed_function(problem, entry.eps),), field):
            tape = compile(exprs, names)
            for order, jets in ((1, tape.jet1(points)),
                                (2, tape.jet2(points))):
                for expr, got in zip(exprs, jets):
                    want, ok = dense_jet(expr, points, names, order)
                    assert ok.all(), (name, order, to_infix(expr))
                    assert all(same_bytes(a + 0.0, b + 0.0)
                               for a, b in zip(got, want)), \
                        (name, order, to_infix(expr))
