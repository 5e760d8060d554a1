"""Expression evaluation and forward-mode derivatives.

The derivative oracle here is central finite differences at step 1e-5,
implemented independently of the jet arithmetic under test.
"""

from fractions import Fraction

import numpy as np
import pytest

from morsevanish.errors import DomainViolation, ExpressionParseError
from morsevanish.expr import (
    Const, FracPow, IntPow, Product, Quotient, Sum, Var,
    differentiate, eval_grid, eval_jet1, eval_jet2, eval_values, evaluate,
    free_variables, parse_expression, rational_pow, to_infix, var,
)


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

    val, grad, hess = differentiate(f, point, names)
    assert val == pytest.approx(fn(np.asarray(point)), rel=1e-14)
    g_ref = fd_gradient(fn, point)
    scale = np.maximum(np.abs(g_ref), 1.0)
    assert np.all(np.abs(grad - g_ref) / scale < 1e-6)
    h_ref = fd_hessian(fn, point)
    hscale = np.maximum(np.abs(h_ref), 1.0)
    assert np.all(np.abs(hess - h_ref) / hscale < 1e-4)


def test_hessian_symmetric_and_exact_on_cubic():
    f = parse_expression("x1^3 + 4*x1*x2 + x2^2")
    _, g, h = differentiate(f, [2.0, -1.0], ["x1", "x2"])
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
    f = rational_pow(var("x"), Fraction(1, 2))
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
    with pytest.raises(DomainViolation, match="overflowed"):
        differentiate(expr, [at], ["u1"])


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
    x = var("x")
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
        got = eval_grid(expr, self.AXES, self.NAMES)
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
        got = eval_grid(expr, self.AXES, self.NAMES)
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
                eval_grid(expr, self.AXES, self.NAMES)
            with pytest.raises(KeyError, match="w"):
                eval_values(expr, np.zeros((2, 3)), self.NAMES)
        assert eval_values(expr, np.ones((2, 2)), ["u1", "w"]).tolist() \
            == [2.0, 2.0]

    def test_axis_count_must_match_names(self):
        with pytest.raises(ValueError, match="2 axes for 3"):
            eval_grid(parse_expression("u1"), self.AXES[:2], self.NAMES)
