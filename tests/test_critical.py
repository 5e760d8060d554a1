"""Solver tests against hand-derived critical point data.

The closed forms used below come from differentiating the fixtures by hand:

* Re(z^2) + eps(1+r^2): the only critical point is the origin with value
  eps and Hessian diag(2+2eps, -2+2eps).
* Re(z^3) + eps(1+r^2)^(3/2): origin (local min, value eps) plus three
  saddles at radius eps/sqrt(1-eps^2), all with value eps/sqrt(1-eps^2).
* Re(z^4) + eps(1+r^2)^2: origin plus four diagonal saddles at
  (+-a, +-a), a^2 = eps/(2(1-eps)), value eps/(1-eps).
* y + eps/y on (0, inf): minimum at sqrt(eps) with value 2 sqrt(eps).
* -(1/y1 + 1/y2) + eps/(y1 y2) on the open quadrant: saddle at (eps, eps)
  with value -1/eps and off-diagonal Hessian eps^-3.
"""

import math

import numpy as np
import pytest

from morsevanish import critical
from morsevanish.compactify import AlgebraicProblem, realify
from morsevanish.critical import (default_starts, find_critical_points,
                                  halton_points, morse_index, morsify,
                                  sweep_epsilon, sweep_theta)
from morsevanish.errors import (DegenerateCriticalPoint, MorsificationFailed,
                                SolverBudgetExceeded)
from morsevanish.expr import eval_jet1, eval_jet2, parse_expression
from morsevanish.metric import MetricSpec
from morsevanish.oracle import catalog_lookup, catalog_names
from morsevanish.problem import (DomainModel, ProblemSpec, WindowSpec,
                                 perturbed_function)

Z2 = realify(AlgebraicProblem(1, (((2,), 1, 0),), name="z^2"))
Z3 = realify(AlgebraicProblem(1, (((3,), 1, 0),), name="z^3"))
Z4 = realify(AlgebraicProblem(1, (((4,), 1, 0),), name="z^4"))


def ray_problem(f, tau, metric="euclidean", lam=1.0):
    return ProblemSpec("ray", ("y",), DomainModel.from_intervals([(0.0, math.inf)]),
                       parse_expression(f), parse_expression(tau),
                       MetricSpec(metric), WindowSpec.finite_action(lam, 10 * lam, 0.25))


class TestHalton:
    def test_unit_box_and_determinism(self):
        A = halton_points(64, 3)
        B = halton_points(64, 3)
        assert A.shape == (64, 3)
        assert np.array_equal(A, B)
        assert np.all((A >= 0) & (A < 1))
        assert np.allclose(A.mean(axis=0), 0.5, atol=0.08)

    def test_default_starts_cap(self):
        assert default_starts(1) == 17
        assert default_starts(2) == 289
        assert default_starts(4) == 4096


class TestFixtureZ2:
    def test_single_point(self):
        cs = find_critical_points(Z2, 0.1)
        assert len(cs.points) == 1
        (p,) = cs.points
        assert np.linalg.norm(p.location) < 1e-8
        assert p.value == pytest.approx(0.1, abs=1e-10)
        assert p.index == 1
        assert p.window_status == "inside"
        assert not p.degenerate and not p.drifting
        assert p.certified
        # the metric is the identity at the origin, so the pencil
        # eigenvalues are the plain Hessian's
        assert p.eigenvalues == pytest.approx([-1.8, 2.2], abs=1e-8)

    def test_certificate_contains_truth(self):
        (p,) = find_critical_points(Z2, 0.1).points
        assert np.linalg.norm(p.location) <= p.certificate_radius

    def test_unstable_frame_shape(self):
        (p,) = find_critical_points(Z2, 0.1).points
        U = p.frame[:, :p.index]
        assert U.shape == (2, 1)
        # the unstable direction of u^2 - v^2 + eps r^2 is the v axis,
        # oriented so the first meaningful component is positive
        assert abs(U[0, 0]) < 1e-8
        assert U[1, 0] > 0


class TestFixtureZ3:
    def test_catalogued_points(self):
        eps = 0.1
        s = math.sqrt(1 - eps * eps)
        cs = find_critical_points(Z3, eps)
        assert len(cs.points) == 4
        mins = cs.of_index(0)
        saddles = cs.of_index(1)
        assert len(mins) == 1 and len(saddles) == 3
        assert np.linalg.norm(mins[0].location) < 1e-8
        assert mins[0].value == pytest.approx(eps, abs=1e-10)
        want = {(-eps / s, 0.0),
                (eps / (2 * s), math.sqrt(3) * eps / (2 * s)),
                (eps / (2 * s), -math.sqrt(3) * eps / (2 * s))}
        got = {tuple(np.round(p.location, 8)) for p in saddles}
        assert got == {tuple(np.round(w, 8)) for w in want}
        for p in saddles:
            assert p.value == pytest.approx(eps / s, rel=1e-9)


class TestFixtureZ4:
    def test_catalogued_points(self):
        eps = 0.1
        a = math.sqrt(eps / (2 * (1 - eps)))
        cs = find_critical_points(Z4, eps)
        assert len(cs.points) == 5
        saddles = cs.of_index(1)
        assert len(saddles) == 4
        want = {(sx * a, sy * a) for sx in (-1, 1) for sy in (-1, 1)}
        got = {tuple(np.round(p.location, 8)) for p in saddles}
        assert got == {tuple(np.round(w, 8)) for w in want}
        for p in saddles:
            assert p.value == pytest.approx(eps / (1 - eps), rel=1e-9)


class TestRayDomains:
    def test_linear_y(self):
        prob = ray_problem("y", "y")
        cs = find_critical_points(prob, 0.04)
        assert len(cs.points) == 1
        (p,) = cs.points
        assert p.location[0] == pytest.approx(0.2, abs=1e-10)
        assert p.value == pytest.approx(0.4, abs=1e-10)
        assert p.index == 0

    def test_corner_saddle(self):
        prob = ProblemSpec(
            "corner", ("y1", "y2"),
            DomainModel.from_intervals([(0.0, math.inf), (0.0, math.inf)]),
            parse_expression("-1/y1 - 1/y2"),
            parse_expression("y1 * y2"),
            MetricSpec("euclidean"),
            WindowSpec.finite_action(1.0, 10.0, 0.25))
        eps = 0.1
        cs = find_critical_points(prob, eps)
        inside_box = [p for p in cs.points
                      if np.all(np.abs(p.location) < 2.0)]
        assert len(inside_box) == 1
        p = inside_box[0]
        assert p.location == pytest.approx([eps, eps], abs=1e-9)
        assert p.value == pytest.approx(-1 / eps, rel=1e-9)
        assert p.index == 1
        assert p.window_status == "below"
        assert p.eigenvalues == pytest.approx([-(eps ** -3), eps ** -3], rel=1e-6)


class TestMorseIndex:
    @pytest.mark.parametrize("kind", ["euclidean", "cone-euclidean", "kahler-cone"])
    def test_metric_invariance(self, kind):
        import dataclasses
        prob = dataclasses.replace(Z2, metric=MetricSpec(kind))
        assert morse_index(prob, 0.1, [0.0, 0.0]) == 1

    def test_degenerate_raises(self):
        prob = ProblemSpec("quartic", ("x",), DomainModel.full_space(1),
                           parse_expression("x^4"),
                           parse_expression("pow(1 + x^2, -2)"),
                           MetricSpec("euclidean"),
                           WindowSpec.finite_action(1, 10, 0.25))
        with pytest.raises(DegenerateCriticalPoint):
            morse_index(prob, 0.0, [0.0])


def _rotate_repeated_block(monkeypatch, lo, hi):
    """Make np.linalg.eigh return a rotated basis for eigenvalues lo:hi."""
    real_eigh = np.linalg.eigh
    Q = np.linalg.qr(np.random.default_rng(5).normal(size=(hi - lo,) * 2))[0]

    def rotated(A):
        w, Y = real_eigh(A)
        Y = Y.copy()
        Y[:, lo:hi] = Y[:, lo:hi] @ Q
        return w, Y
    monkeypatch.setattr(np.linalg, "eigh", rotated)


class TestEigenframe:
    def test_axis_eigenspace_gives_scaled_axes(self, monkeypatch):
        # pencil eigenvalues -4, -2, -2, -2; the -2 block is spanned by
        # x2..x4, so the frame is the G-normalized identity whatever basis
        # the solver returns inside that block
        G = np.diag([1.0, 2.0, 0.5, 1.0])
        H = G @ np.diag([-4.0, -2.0, -2.0, -2.0])
        _rotate_repeated_block(monkeypatch, 1, 4)
        w, V = critical.oriented_pencil_eigs(H, G)
        assert w == pytest.approx([-4.0, -2.0, -2.0, -2.0])
        assert np.allclose(V, np.diag(1.0 / np.sqrt(np.diag(G))),
                           atol=1e-12)

    def test_rotated_eigenspace_frame_ignores_the_solver_basis(
            self, monkeypatch):
        # a G-orthonormal eigenbasis in general position, so no axis lies
        # in the repeated eigenspace of 1
        rng = np.random.default_rng(9)
        M = rng.normal(size=(4, 4))
        G = M @ M.T + 4.0 * np.eye(4)
        R = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        E = np.linalg.inv(np.linalg.cholesky(G)).T @ R
        H = G @ E @ np.diag([-3.0, 1.0, 1.0, 5.0]) @ E.T @ G
        w, V = critical.oriented_pencil_eigs(H, G)
        _rotate_repeated_block(monkeypatch, 1, 3)
        w_rot, V_rot = critical.oriented_pencil_eigs(H, G)
        assert np.array_equal(w, w_rot)
        assert np.allclose(V_rot, V, atol=1e-9)
        assert np.allclose(V.T @ G @ V, np.eye(4), atol=1e-9)
        assert np.allclose(H @ V, G @ V @ np.diag(w), atol=1e-9)


class TestSolverEdges:
    def test_no_critical_points_raises(self):
        prob = ProblemSpec("slope", ("x",), DomainModel.full_space(1),
                           parse_expression("x"),
                           parse_expression("pow(1 + x^2, -1/2)"),
                           MetricSpec("euclidean"),
                           WindowSpec.finite_action(1, 10, 0.25))
        with pytest.raises(SolverBudgetExceeded):
            find_critical_points(prob, 0.0, n_starts=50)
        cs = find_critical_points(prob, 0.0, n_starts=50, allow_empty=True)
        assert cs.points == ()

    def test_dedup_many_starts(self):
        prob = ProblemSpec("bowl", ("x",), DomainModel.full_space(1),
                           parse_expression("x^2"),
                           parse_expression("pow(1 + x^2, -1)"),
                           MetricSpec("euclidean"),
                           WindowSpec.finite_action(1, 10, 0.25))
        cs = find_critical_points(prob, 0.05, n_starts=400)
        assert len(cs.points) == 1
        assert cs.n_converged > 300

    def test_double_well_unperturbed(self):
        prob = ProblemSpec("well", ("x",), DomainModel.full_space(1),
                           parse_expression("x^4 - x^2"),
                           parse_expression("pow(1 + x^2, -2)"),
                           MetricSpec("euclidean"),
                           WindowSpec.finite_action(1, 10, 0.25))
        cs = find_critical_points(prob, 0.0)
        assert [p.index for p in cs.points] == [0, 0, 1]
        xs = sorted(p.location[0] for p in cs.points)
        r = 1 / math.sqrt(2)
        assert xs == pytest.approx([-r, 0.0, r], abs=1e-9)


class TestMorsify:
    def quartic(self):
        return ProblemSpec("quartic", ("x",), DomainModel.full_space(1),
                           parse_expression("x^4"),
                           parse_expression("pow(1 + x^2, -2)"),
                           MetricSpec("euclidean"),
                           WindowSpec.finite_action(1, 10, 0.25))

    def test_leaves_clean_problem_alone(self):
        assert morsify(Z2, 0.1) is Z2

    def test_splits_degenerate_minimum(self):
        tilted = morsify(self.quartic(), 0.0)
        cs = find_critical_points(tilted, 0.0)
        assert cs.inside_window()
        assert all(not p.degenerate for p in cs.inside_window())
        assert tilted.notes


class TestSweeps:
    GRID = (0.4, 0.2, 0.1, 0.05, 0.025)

    def test_z2_bounded_chain(self):
        rep = sweep_epsilon(Z2, self.GRID)
        kinds = {ch.kind for ch in rep.chains}
        assert kinds == {"bounded"}
        assert rep.lambda_est == 1.0
        assert rep.verdict == "separated"
        assert rep.eps0 == 0.4

    def test_inverse_y_divergent_chain(self):
        # f_eps = -1/y + eps/(2 y^2) has its only critical point at y = eps
        # with value -1/(2 eps)
        prob = ray_problem("-1/y", "2 * y^2")
        rep = sweep_epsilon(prob, self.GRID)
        div = [ch for ch in rep.chains if ch.kind == "divergent"]
        assert len(div) == 1
        ch = div[0]
        assert ch.exponent == pytest.approx(1.0, abs=0.05)
        assert ch.coefficient == pytest.approx(0.5, rel=0.2)
        assert rep.lambda_est == 1.0
        # 1/(2 eps) clears 2*lambda only once eps < 1/4
        assert rep.eps0 == 0.2
        assert dict(rep.separation)[0.4] is False

    def test_corner_window_estimation(self):
        prob = ProblemSpec(
            "corner", ("y1", "y2"),
            DomainModel.from_intervals([(0.0, math.inf), (0.0, math.inf)]),
            parse_expression("-1/y1 - 1/y2"),
            parse_expression("y1 * y2"),
            MetricSpec("euclidean"),
            WindowSpec.finite_action(1.0, 10.0, 0.25))
        rep = sweep_epsilon(prob, self.GRID, n_starts=600)
        div = [ch for ch in rep.chains if ch.kind == "divergent"]
        assert div, "the -1/eps value family must register as divergent"
        assert any(ch.exponent == pytest.approx(1.0, abs=0.1) for ch in div)

    def test_sweep_theta_uniform_window(self):
        alg = AlgebraicProblem(1, (((2,), 1, 0),), name="z^2")
        rep = sweep_theta(alg, (0.0, math.pi / 4, math.pi / 2), (0.4, 0.2, 0.1))
        assert rep.experimental
        assert rep.uniform_ok
        assert rep.uniform_lambda == 1.0
        assert all(s.verdict == "separated" for s in rep.sweeps)


# ---------------------------------------------------------------------------
# the Newton loop: row independence, and agreement with the batch-wide loop
# it replaced


def _stall_rule_newton(fe, names, domain, X0, tol, max_iter):
    """The earlier Newton loop, kept as a reference: one line search for
    the whole batch (it stops only once every row has improved) and a
    stall rule (6 iterations in a row without a 0.1% gain kill a row).

    Returns (X, done, dead, gnorm, stalled_at), where stalled_at holds the
    iteration at which the stall rule killed each row, or -1.
    """
    X = domain.clamp_to_interior(np.array(X0, dtype=float))
    m, n = X.shape
    alive = np.ones(m, dtype=bool)
    done = np.zeros(m, dtype=bool)
    gnorm = np.full(m, np.inf)
    stall = np.zeros(m, dtype=np.int8)
    stalled_at = np.full(m, -1)
    leash = 50.0 * max(hi - lo for lo, hi in domain.box)
    center = np.array([(lo + hi) / 2 for lo, hi in domain.box])
    for it in range(max_iter):
        idx = np.flatnonzero(alive & ~done)
        if idx.size == 0:
            break
        _, g, H = eval_jet2(fe, X[idx], names)
        gn = np.linalg.norm(g, axis=1)
        bad = ~np.isfinite(gn)
        alive[idx[bad]] = False
        hit = ~bad & (gn < tol)
        done[idx[hit]] = True
        gnorm[idx] = np.where(np.isfinite(gn), gn, np.inf)
        rows = idx[~bad & ~hit]
        if rows.size == 0:
            continue
        gw, Hw = g[~bad & ~hit], H[~bad & ~hit]
        try:
            step = np.linalg.solve(Hw, gw[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.empty_like(gw)
            for r in range(len(rows)):
                try:
                    step[r] = np.linalg.solve(Hw[r], gw[r])
                except np.linalg.LinAlgError:
                    mu = 1e-8 * (1.0 + float(np.abs(Hw[r]).max()))
                    step[r] = np.linalg.solve(Hw[r] + mu * np.eye(n), gw[r])
        nan_step = ~np.isfinite(step).all(axis=1)
        step[nan_step] = gw[nan_step]
        base_gn = gnorm[rows]
        best_X = best_gn = None
        t = 1.0
        for _ in range(5):
            cand = domain.clamp_to_interior(X[rows] - t * step)
            _, gc = eval_jet1(fe, cand, names)
            cn = np.linalg.norm(gc, axis=1)
            cn = np.where(np.isfinite(cn), cn, np.inf)
            if best_gn is None:
                best_X, best_gn = cand, cn
            else:
                better = cn < best_gn
                best_X[better] = cand[better]
                best_gn[better] = cn[better]
            if np.all(best_gn < base_gn):
                break
            t *= 0.5
        X[rows] = best_X
        stall[rows] = np.where(best_gn < 0.999 * base_gn, 0, stall[rows] + 1)
        stalled = rows[alive[rows] & (stall[rows] >= 6)]
        stalled_at[stalled] = it
        alive[stalled] = False
        far = np.linalg.norm(X[rows] - center, axis=1) > leash
        alive[rows[far]] = False
    return X, done, ~alive, gnorm, stalled_at


def _x3_plus_x():
    """x^3 + x has no critical point, and its Hessian 6x is singular at
    the start x = 0, so that batch takes the row-by-row solve."""
    dom = DomainModel.full_space(1)
    X0 = np.linspace(-2.0, 2.0, 9)[:, None]
    return parse_expression("x^3 + x"), ("x",), dom, X0


def _flagship_starts():
    spec = catalog_lookup("x_plus_x2y").problem()
    lo, hi = (np.array(b) for b in zip(*spec.domain.box))
    X0 = lo + halton_points(96, 4) * (hi - lo)
    return perturbed_function(spec, 0.1), spec.variables, spec.domain, X0


class TestNewtonRows:
    @pytest.mark.parametrize("make,singular", [(_x3_plus_x, 4),
                                               (_flagship_starts, None)],
                             ids=["x3-plus-x-singular", "x-plus-x2y"])
    def test_rows_do_not_depend_on_the_batch(self, make, singular):
        fe, names, dom, X0 = make()
        full = critical._newton_batch(fe, names, dom, X0, 1e-10, 80)
        assert full[2].any(), "some rows must retire"

        perm = np.random.default_rng(0).permutation(len(X0))
        parts = [np.array(p) for p in np.array_split(perm, 3)]
        parts += [np.array([r]) for r in perm[:8]]
        if singular is not None:
            assert not eval_jet2(fe, X0[[singular]], names)[2].any()
            parts.append(np.array([singular]))
        for rows in parts:
            sub = critical._newton_batch(fe, names, dom, X0[rows], 1e-10, 80)
            for a, b in zip(full, sub):
                assert np.array_equal(a[rows], b)

    def test_flagship_batch_converges_and_retires(self):
        _, done, dead, gnorm = critical._newton_batch(*_flagship_starts(),
                                                      1e-10, 80)
        assert done.any() and dead.any()
        assert not (done & dead).any()
        assert np.all(gnorm[done] < 1e-10)


_REGRESSION = sorted(
    {(name, eps) for name in catalog_names()
     for eps in (catalog_lookup(name).eps, catalog_lookup(name).eps / 2)}
    | {("x_plus_x2y", eps) for eps in (0.4, 0.2, 0.1, 0.05)})


@pytest.mark.parametrize("name,eps", _REGRESSION,
                         ids=[f"{n}@{e:g}" for n, e in _REGRESSION])
def test_matches_the_stall_rule_solver(name, eps, monkeypatch):
    spec = catalog_lookup(name).problem()
    # 1024 starts in R^4, as in the euler_4d benchmark: at the default 4096
    # the reference loop alone takes about a second per solve
    starts = 1024 if spec.domain.dimension == 4 else None
    new = find_critical_points(spec, eps, n_starts=starts, allow_empty=True)

    calls = []

    def reference(fe, names, domain, X0, tol, max_iter):
        *out, stalled_at = _stall_rule_newton(fe, names, domain, X0, tol,
                                              max_iter)
        calls.append((fe, names, domain, X0, tol, stalled_at))
        return tuple(out)

    with monkeypatch.context() as m:
        m.setattr(critical, "_newton_batch", reference)
        old = find_critical_points(spec, eps, n_starts=starts,
                                   allow_empty=True)

    assert len(new.points) == len(old.points)
    for p, q in zip(old.points, new.points):
        assert q.index == p.index
        assert q.window_status == p.window_status
        radius = max(p.certificate_radius, q.certificate_radius)
        assert np.linalg.norm(q.location - p.location) <= radius
        assert q.value == pytest.approx(p.value, abs=1e-9)

    # a row the stall rule killed at iteration k has stopped by then: it is
    # retired, or its own line search has already converged it
    (fe, names, domain, X0, tol, stalled_at), = calls
    for k in np.unique(stalled_at[stalled_at >= 0]):
        rows = np.flatnonzero(stalled_at == k)
        _, done, dead, _ = critical._newton_batch(fe, names, domain,
                                                  X0[rows], tol, int(k) + 1)
        working = ~done & ~dead
        assert not working.any(), f"rows {rows[working]} outlive the stall rule"


class TestRayDomainSteps:
    def test_linear_y_converges_every_start(self):
        # a full Newton step toward the end of (0, inf) is capped at half
        # the way there, so no start lands next to y = 0 (|grad| ~ 1e17)
        # and retires before converging
        spec = catalog_lookup("linear_y").problem()
        cs = find_critical_points(spec, 0.1)
        assert (cs.n_converged, cs.n_starts) == (17, 17)
        (p,) = cs.points
        assert p.location[0] == pytest.approx(math.sqrt(0.1), abs=1e-9)

    def test_cap_is_one_on_full_space(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 3))
        step = 1e6 * rng.normal(size=(50, 3))
        cap = critical._step_cap(DomainModel.full_space(3), X, step)
        assert np.array_equal(cap, np.ones(50))

    def test_cap_keeps_half_the_distance_to_an_end(self):
        dom = DomainModel.from_intervals([(0.0, math.inf), (-1.0, 1.0)])
        X = np.array([[2.0, 0.0], [2.0, 0.5], [2.0, 0.0]])
        step = np.array([[8.0, 0.0], [-1.0, -2.0], [-1.0, 0.0]])
        cap = critical._step_cap(dom, X, step)
        # 2 - t 8 >= 1 gives 1/8; 0.5 + 2 t <= 0.75 gives 1/8; away from 0
        assert cap.tolist() == [0.125, 0.125, 1.0]
