import math
from fractions import Fraction

import numpy as np
import pytest

from morsevanish.errors import ConfigError
from morsevanish.expr import evaluate, parse_expression
from morsevanish.metric import MetricSpec
from morsevanish.problem import (DomainModel, ProblemSpec, WindowSpec,
                                 perturbed_function)

INF = float("inf")


def make_problem(f="x^2", tau="pow(1 + x^2, -1)", domain=None, window=None):
    return ProblemSpec(
        name="toy",
        variables=("x",),
        domain=domain or DomainModel.full_space(1),
        f=parse_expression(f),
        tau=parse_expression(tau),
        metric=MetricSpec("euclidean"),
        window=window or WindowSpec.finite_action(1.0, 10.0, 0.25),
    )


class TestDomainModel:
    def test_full_space(self):
        d = DomainModel.full_space(2)
        assert d.dimension == 2
        assert d.intervals == ((-INF, INF), (-INF, INF))
        assert d.contains([100.0, -5.0])
        assert d.box == ((-3.0, 3.0), (-3.0, 3.0))

    def test_from_intervals_margins(self):
        d = DomainModel.from_intervals([(0.0, 1.0)])
        (blo, bhi), = d.box
        assert 0.0 < blo < bhi < 1.0
        assert not d.contains([0.0])
        assert not d.contains([1.0])
        assert d.contains([0.5])

    def test_half_line(self):
        d = DomainModel.from_intervals([(0.0, INF)])
        assert d.intervals == ((0.0, INF),)
        assert d.contains([7.0])
        assert not d.contains([-1.0])
        blo, bhi = d.box[0]
        assert blo > 0 and math.isfinite(bhi)

    def test_bad_interval(self):
        with pytest.raises(ConfigError):
            DomainModel.from_intervals([(2.0, 1.0)])

    def test_box_outside_domain(self):
        with pytest.raises(ConfigError):
            DomainModel(((0.0, 1.0),), ((-0.5, 0.5),))

    def test_clamp_interior(self):
        d = DomainModel.from_intervals([(0.0, 1.0)])
        X = np.array([[-3.0], [0.5], [2.0]])
        Y = d.clamp_to_interior(X)
        assert np.all((Y > 0.0) & (Y < 1.0))
        assert Y[1, 0] == 0.5


class TestWindowSpec:
    def test_finite_action(self):
        w = WindowSpec.finite_action(2.0, 8.0, 0.5)
        assert (w.a, w.b) == (-2.0, 2.0)
        assert w.status(0.0) == "inside"
        assert w.status(2.0) == "above"
        assert w.status(-2.5) == "below"

    @pytest.mark.parametrize("args", [
        (1.0, -1.0, 1.0, 2.0, 0.1),   # a >= b
        (-1.0, 1.0, 0.0, 2.0, 0.1),   # lam not positive
        (-1.0, 1.0, 3.0, 2.0, 0.1),   # lam >= Lam
        (-1.0, 1.0, 1.0, 2.0, 0.0),   # sigma not positive
    ])
    def test_rejects(self, args):
        with pytest.raises(ConfigError):
            WindowSpec(*args)


class TestProblemSpec:
    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            ProblemSpec("bad", ("x", "y"), DomainModel.full_space(1),
                        parse_expression("x"), parse_expression("1"),
                        MetricSpec("euclidean"),
                        WindowSpec.finite_action(1, 10, 0.1))

    def test_undeclared_variable(self):
        with pytest.raises(ConfigError):
            make_problem(f="x + q")

    def test_repeated_variable_names(self):
        with pytest.raises(ConfigError, match="repeated"):
            ProblemSpec("twice", ("x", "x"), DomainModel.full_space(2),
                        parse_expression("x^2"), parse_expression("1"),
                        MetricSpec("euclidean"),
                        WindowSpec.finite_action(1, 10, 0.1))

    @pytest.mark.parametrize("entries, match", [
        ((("1",),), "not 2x2"),
        ((("1", "0", "0"),) * 3, "not 2x2"),
        ((("1 + w^2", "0"), ("0", "1")), "undeclared variables"),
    ], ids=["too-small", "too-large", "undeclared-variable"])
    def test_custom_metric_fits_the_variables(self, entries, match):
        metric = MetricSpec("custom", tuple(
            tuple(map(parse_expression, row)) for row in entries))
        with pytest.raises(ConfigError, match=match):
            ProblemSpec("plane", ("x", "y"), DomainModel.full_space(2),
                        parse_expression("x^2 + y^2"), parse_expression("1"),
                        metric, WindowSpec.finite_action(1, 10, 0.1))


class TestPerturbedFunction:
    def test_eps_zero_is_f(self):
        p = make_problem()
        assert perturbed_function(p, 0.0) is p.f

    def test_exact_value(self):
        # f + eps/tau with f = x^2, tau = (1+x^2)^-1 is x^2 + eps(1+x^2)
        p = make_problem()
        fe = perturbed_function(p, 0.1)
        got = evaluate(fe, {"x": Fraction(2)})
        assert got == Fraction(4) + Fraction(1, 10) * Fraction(5)

    def test_monotone_in_eps(self):
        p = make_problem()
        vals = [evaluate(perturbed_function(p, e), {"x": 1.0})
                for e in (0.0, 0.05, 0.1)]
        assert vals[0] < vals[1] < vals[2]
