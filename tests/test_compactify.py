import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from morsevanish.compactify import (AlgebraicProblem, build_tau,
                                    real_variables, realify)
from morsevanish.errors import AlphaTooSmall, ConfigError, ZeroPolynomial
from morsevanish.expr import compile, eval_values, evaluate

Z2 = AlgebraicProblem(1, (((2,), 1, 0),), name="z^2")
Z3 = AlgebraicProblem(1, (((3,), 1, 0),), name="z^3")
# x + x^2 y on C^2
XXY = AlgebraicProblem(2, (((1, 0), 1, 0), ((2, 1), 1, 0)), name="x + x^2 y")


class TestAlgebraicProblem:
    def test_degree(self):
        assert Z2.degree == 2
        assert XXY.degree == 3
        assert Z3.degree == 3

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            AlgebraicProblem(1, (((2,), 1, 0), ((2,), -1, 0)))
        with pytest.raises(ZeroPolynomial):
            AlgebraicProblem(1, ())

    def test_merges_duplicates(self):
        p = AlgebraicProblem(1, (((1,), 1, 0), ((1,), Fraction(1, 2), 1)))
        assert p.terms == (((1,), Fraction(3, 2), Fraction(1)),)

    def test_bad_exponents(self):
        with pytest.raises(ConfigError):
            AlgebraicProblem(1, (((1, 2), 1, 0),))
        with pytest.raises(ConfigError):
            AlgebraicProblem(1, (((-1,), 1, 0),))

    def test_evaluate_complex(self):
        assert XXY.evaluate_complex([1 + 1j, 2j]) == (1 + 1j) + (1 + 1j) ** 2 * 2j


class TestBuildTau:
    def test_default_alpha_is_degree(self):
        assert Z3.resolved_alpha == 3

    def test_alpha_too_small(self):
        low = AlgebraicProblem(1, (((2,), 1, 0),), alpha=1)
        with pytest.raises(AlphaTooSmall):
            build_tau(low)

    def test_value_and_monotonicity(self):
        # at |x|^2 = 3 the base is 4, so tau = 4^(-alpha/2) = 2^-alpha
        vals = []
        for alpha in (2, 3, 4):
            p = AlgebraicProblem(1, (((2,), 1, 0),), alpha=alpha)
            tau = build_tau(p)
            v = eval_values(tau, np.array([[1.0, np.sqrt(2.0)]]), real_variables(1))[0]
            assert v == pytest.approx(2.0 ** -alpha)
            vals.append(v)
        assert vals[0] > vals[1] > vals[2]


class TestRealify:
    def test_z2_expansion_exact(self):
        p = realify(Z2)
        # Re((u + iv)^2) = u^2 - v^2
        for u, v in [(Fraction(1, 3), Fraction(2)), (Fraction(-5, 7), Fraction(1, 2))]:
            assert evaluate(p.f, {"u1": u, "v1": v}) == u * u - v * v

    def test_assembled_problem(self):
        p = realify(XXY)
        assert p.variables == ("u1", "v1", "u2", "v2")
        assert p.metric.kind == "kahler-cone"
        assert p.domain.intervals == ((-math.inf, math.inf),) * 4

    @pytest.mark.parametrize("alg", [Z2, Z3, XXY])
    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2])
    def test_matches_complex_arithmetic(self, alg, theta):
        # oracle: evaluate F directly over C and rotate by e^{i theta}
        p = realify(alg, theta=theta)
        rng = np.random.default_rng(11)
        X = rng.uniform(-2, 2, size=(8, 2 * alg.n))
        got = eval_values(p.f, X, p.variables)
        for row, g in zip(X, got):
            z = [complex(row[2 * k], row[2 * k + 1]) for k in range(alg.n)]
            want = (np.exp(1j * theta) * alg.evaluate_complex(z)).real
            assert g == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_theta_zero_is_exact_rational(self):
        p = realify(XXY)
        # Re(x + x^2 y) = u1 + u1^2 u2 - v1^2 u2 - 2 u1 v1 v2
        pt = {"u1": Fraction(1, 2), "v1": Fraction(3), "u2": Fraction(-2), "v2": Fraction(1, 5)}
        want = (pt["u1"] + pt["u1"] ** 2 * pt["u2"] - pt["v1"] ** 2 * pt["u2"]
                - 2 * pt["u1"] * pt["v1"] * pt["v2"])
        assert evaluate(p.f, pt) == want

    @pytest.mark.parametrize("alg", [Z2, Z3, XXY])
    def test_tau_f_stays_bounded(self, alg):
        # each term c z^k with k <= alpha has |c| |z|^k tau <= |c|, so the
        # sum of |c| bounds tau*f on all of R^{2n}; one degree less of
        # decay is refused
        p = realify(alg)
        m = 2 * alg.n
        dirs = np.vstack([np.eye(m), -np.eye(m), np.ones((1, m)) / math.sqrt(m)])
        radii = 10.0 ** np.arange(7)
        X = (radii[:, None, None] * dirs).reshape(-1, m)
        tau, f = compile((p.tau, p.f), p.variables).values(X)
        bound = sum(abs(complex(re, im)) for _, re, im in alg.terms)
        assert np.all(np.abs(tau * f) <= bound * (1 + 1e-12))
        with pytest.raises(AlphaTooSmall):
            build_tau(dataclasses.replace(alg, alpha=alg.degree - 1))
