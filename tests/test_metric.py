import numpy as np
import pytest

from morsevanish.errors import ConfigError, NotPositiveDefinite
from morsevanish.expr import parse_expression
from morsevanish.metric import MetricSpec, apply_inverse_batch, metric_batch
from morsevanish.compactify import AlgebraicProblem, realify

X1 = ("x",)
TAU1 = parse_expression("pow(1 + x^2, -1)")


def fd_tau_grad(tau, names, x, h=1e-6):
    from morsevanish.expr import eval_values
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (eval_values(tau, xp[None], names)[0]
                - eval_values(tau, xm[None], names)[0]) / (2 * h)
    return g


class TestMetricAt:
    def test_euclidean_identity(self):
        G = metric_batch(MetricSpec("euclidean"), TAU1, X1, [[0.7]],
                         certify=True)[0]
        assert np.array_equal(G, np.eye(1))

    def test_cone_euclidean_values(self):
        spec = MetricSpec("cone-euclidean")
        for x, want in ((0.0, 1.0), (1.0, 2.0)):
            G = metric_batch(spec, TAU1, X1, [[x]], certify=True)[0]
            assert G[0, 0] == pytest.approx(want)

    def test_kahler_cone_identity_at_origin(self):
        # tau = 1 and dtau = 0 at the origin, so only the Id/tau block is left
        tau = parse_expression("pow(1 + u1^2 + v1^2, -1)")
        G = metric_batch(MetricSpec("kahler-cone"), tau, ("u1", "v1"),
                         [[0.0, 0.0]], certify=True)[0]
        assert np.allclose(G, np.eye(2), atol=1e-14)

    def test_kahler_cone_against_direct_assembly(self):
        # rebuild the matrix from finite-difference dtau and compare
        tau = parse_expression("pow(1 + u1^2 + v1^2 + u2^2 + v2^2, -3/2)")
        names = ("u1", "v1", "u2", "v2")
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=4)
            from morsevanish.expr import eval_values
            tv = eval_values(tau, x[None], names)[0]
            a = fd_tau_grad(tau, names, x) / tv
            b = np.array([a[1], -a[0], a[3], -a[2]])
            want = (np.outer(a, a) + np.outer(b, b) + np.eye(4)) / tv
            got = metric_batch(MetricSpec("kahler-cone"), tau, names, [x],
                               certify=True)[0]
            assert np.allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_kahler_cone_needs_even_dimension(self):
        with pytest.raises(ConfigError):
            metric_batch(MetricSpec("kahler-cone"), TAU1, X1, [[0.5]],
                         certify=True)

    def test_custom_matrix(self):
        spec = MetricSpec("custom", ((parse_expression("1 + x^2"),),))
        G = metric_batch(spec, TAU1, X1, [[2.0]], certify=True)[0]
        assert G[0, 0] == pytest.approx(5.0)

    def test_rejects_indefinite(self):
        spec = MetricSpec("custom", ((parse_expression("x"),),))
        with pytest.raises(NotPositiveDefinite):
            metric_batch(spec, TAU1, X1, [[-1.0]], certify=True)

    def test_rejects_asymmetric(self):
        e = parse_expression
        spec = MetricSpec("custom", ((e("1"), e("x")), (e("0"), e("1"))))
        with pytest.raises(NotPositiveDefinite):
            metric_batch(spec, TAU1, ("x", "y"), [[0.5, 0.0]], certify=True)

    def test_custom_needs_matrix(self):
        with pytest.raises(ConfigError):
            MetricSpec("custom")
        with pytest.raises(ConfigError):
            MetricSpec("euclidean", ((parse_expression("1"),),))
        with pytest.raises(ConfigError):
            MetricSpec("riemann")


class TestGradients:
    def test_cone_gradient_closed_form(self):
        # f = x^2: df = 2 at x = 1, g = Id / tau = 2, so the gradient is 1
        w = apply_inverse_batch(MetricSpec("cone-euclidean"), TAU1, X1,
                                np.array([[1.0]]), np.array([[2.0]]))
        assert w[0] == pytest.approx([1.0])

    def test_apply_inverse_matches_solve(self):
        alg = AlgebraicProblem(1, (((2,), 1, 0),))
        p = realify(alg)
        rng = np.random.default_rng(7)
        X = rng.uniform(-2, 2, size=(6, 2))
        df = rng.standard_normal((6, 2))
        w = apply_inverse_batch(p.metric, p.tau, p.variables, X, df)
        G = metric_batch(p.metric, p.tau, p.variables, X)
        assert np.allclose(np.einsum("kij,kj->ki", G, w), df, atol=1e-10)

    @pytest.mark.parametrize("alg", [
        AlgebraicProblem(1, (((3,), 1, 0),)),
        AlgebraicProblem(2, (((1, 0), 1, 0), ((2, 1), 1, 0)))],
        ids=["z^3", "x_plus_x2y"])
    def test_kahler_closed_form_matches_solve(self, alg):
        p = realify(alg)
        n = len(p.variables)
        rng = np.random.default_rng(11)
        X = rng.uniform(-2, 2, size=(2000, n))
        df = rng.standard_normal((2000, n))
        w = apply_inverse_batch(p.metric, p.tau, p.variables, X, df)
        G = metric_batch(p.metric, p.tau, p.variables, X)
        want = np.linalg.solve(G, df[..., None])[..., 0]
        err = np.linalg.norm(w - want, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))

    def test_cone_batch_shortcut_matches_dense(self):
        spec = MetricSpec("cone-euclidean")
        X = np.linspace(-2, 2, 9)[:, None]
        df = np.cos(X)
        w = apply_inverse_batch(spec, TAU1, X1, X, df)
        G = metric_batch(spec, TAU1, X1, X)
        assert np.allclose(G[:, 0, 0] * w[:, 0], df[:, 0], atol=1e-12)

    def test_batch_certify_flag(self):
        spec = MetricSpec("custom", ((parse_expression("x"),),))
        X = np.array([[1.0], [-1.0]])
        metric_batch(spec, TAU1, X1, X)  # no certificate requested: fine
        with pytest.raises(NotPositiveDefinite):
            metric_batch(spec, TAU1, X1, X, certify=True)
