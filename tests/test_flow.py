"""Flow integration and counting tests on hand-solved landscapes.

Reference data used below:

* double well x^4 - x^2: saddle at 0 (value 0), minima at +-1/sqrt(2)
  (value -1/4), so the saddle-to-minimum energy is 2 (0 - (-1/4)) = 1/2.
* product square x^4 - x^2 + y^4 - y^2: one index-2 point at the origin,
  four index-1 points (+-m, 0), (0, +-m) with m = 1/sqrt(2), four minima
  (+-m, +-m); the index-2 boundary hits every saddle exactly once.
* Re(z^2) + eps (1 + r^2): a single index-1 point whose two unstable
  flowlines both leave the window downward, so its boundary is empty.
* Re(z^3) + eps (1 + r^2)^(3/2): each of the three saddles sends exactly
  one flowline into the minimum at the origin and the other one out of
  the window.
* x^4 - x^2 - y^2: a maximum at the origin between two saddles (+-m, 0),
  and no minima; the maximum's boundary is one flowline into each saddle.
* twin peaks x^2 - x^4 - y^2 - z^2 in R^3: two maxima (+-m, 0, 0) and an
  index-2 point at the origin, each maximum sending one flowline into it,
  so H_3 = Z and nothing else.
* the same two landscapes in R^4, x1^4 - x1^2 + x2^2 + x3^2 + x4^2 and
  its negation: a double well with H_0 = Z, and twin peaks with H_4 = Z.
"""

import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest

import morsevanish.flow as flow_module
import morsevanish.integrator as integrator_module
from morsevanish.compactify import AlgebraicProblem, realify
from morsevanish.critical import CriticalPoint, find_critical_points
from morsevanish.errors import (BudgetExceeded, ConfigError, CountingRefused,
                                DeltaFloor, MissingCount, NotConverged,
                                StepCollapse)
from morsevanish.expr import eval_jet1, parse_expression
from morsevanish.flow import (_flip_count, continuation_trajectories,
                              count_boundaries, count_boundary, count_plan,
                              energy, integrate_flow)
from morsevanish.integrator import (ARRIVED, BUDGET, COLLAPSE, EXIT_ABOVE,
                                    EXIT_BELOW, NEVER, RTOL, RUNNING, S_TAIL,
                                    STEP_FLOOR, _DP_A, _DP_B4, _DP_B5, _DP_C,
                                    _Field, _integrate, _Leg, _near_passes,
                                    _ramp, _RowResult, _TargetSet)
from morsevanish.homology import (HomologyResult, continuation_chain_map,
                                  euler_characteristic, homology,
                                  verify_d_squared, window_complex)
from morsevanish.metric import MetricSpec, apply_inverse_batch
from morsevanish.oracle import (catalog_lookup, catalog_names,
                                pair_euler_characteristic,
                                sublevel_pair_homology)
from morsevanish.problem import (DomainModel, ProblemSpec, WindowSpec,
                                 dual_problem, perturbed_function)


def make_problem(name, variables, f, tau, lam=1.0):
    return ProblemSpec(name, variables,
                       DomainModel.full_space(len(variables)),
                       parse_expression(f), parse_expression(tau),
                       MetricSpec("euclidean"),
                       WindowSpec.finite_action(lam, 10 * lam, 0.25))


DW = make_problem("double-well", ("x",), "x^4 - x^2", "pow(1 + x^2, -1/2)")
SQ = make_problem("square", ("x", "y"), "x^4 - x^2 + y^4 - y^2",
                  "pow(1 + x^2 + y^2, -1)")
SQ3 = make_problem("square3", ("x", "y", "z"), "x^4 - x^2 + y^4 - y^2 + z^2",
                   "pow(1 + x^2 + y^2 + z^2, -1)")
SLIDE = make_problem("slide", ("x",), "x", "pow(1 + x^2, -1/2)")
Z2 = realify(AlgebraicProblem(1, (((2,), 1, 0),), name="z^2"))
Z3 = realify(AlgebraicProblem(1, (((3,), 1, 0),), name="z^3"))

M = 1.0 / math.sqrt(2.0)


def dw_points():
    pts = find_critical_points(DW, 0.0).inside_window()
    saddle = next(p for p in pts if p.index == 1)
    minima = sorted((p for p in pts if p.index == 0),
                    key=lambda p: p.location[0])
    return saddle, minima


class TestGamma:
    def test_ramp_endpoints_and_clamp(self):
        gamma, slope = _ramp(np.array([-5.0, -1.0, 0.0, 1.0, 7.0]))
        assert gamma == pytest.approx([0.0, 0.0, 0.5, 1.0, 1.0])
        assert slope == pytest.approx([0.0, 0.0, 0.75, 0.0, 0.0])

    def test_monotone_and_consistent_with_slope(self):
        s = np.linspace(-1.2, 1.2, 241)
        g = _ramp(s)[0]
        assert np.all(np.diff(g) >= 0)
        mid = 0.5 * (s[:-1] + s[1:])
        fd = np.diff(g) / np.diff(s)
        assert fd == pytest.approx(_ramp(mid)[1], abs=1e-4)


class TestIntegrate:
    def test_interior_start_reaches_minimum(self):
        saddle, minima = dw_points()
        rec = integrate_flow(DW, 0.0, [0.4], targets=[saddle] + minima)
        assert rec.termination == "converged-to"
        assert rec.target_id == 2          # the right minimum in the list
        assert rec.end[0] == pytest.approx(M, abs=1e-5)
        # E_top from the launch value f(0.4) down to -1/4
        f0 = 0.4 ** 4 - 0.4 ** 2
        assert rec.E_top == pytest.approx(2 * (f0 + 0.25), abs=1e-9)
        assert rec.energy_ok

    def test_start_at_critical_point_is_stationary(self):
        saddle, minima = dw_points()
        rec = integrate_flow(DW, 0.0, minima[0].location,
                             targets=[saddle] + minima)
        assert rec.termination == "converged-to"
        assert rec.target_id == 1
        assert rec.E_top == 0.0
        assert abs(rec.E_an) < 1e-9

    def test_exit_below_window(self):
        rec = integrate_flow(SLIDE, 0.5, [0.0])
        assert rec.termination == "exited-below"
        assert rec.f_min <= -1.25
        assert rec.target_id is None
        assert not rec.energy_ok           # no finite E_top without limits

    def test_budget_raises(self, monkeypatch):
        monkeypatch.setattr(flow_module, "BOUNDARY_BUDGET", 3)
        with pytest.raises(BudgetExceeded,
                           match="did not terminate in 3 steps"):
            integrate_flow(SLIDE, 0.5, [0.0])

    def test_step_collapse_raises(self, monkeypatch):
        # no step of the slide flow is as long as 1
        monkeypatch.setattr(integrator_module, "STEP_FLOOR", 1.0)
        with pytest.raises(StepCollapse,
                           match=r"integrator step fell below 1\.0 at s="):
            integrate_flow(SLIDE, 0.5, [0.0])

    def test_outside_domain_raises(self):
        ray = ProblemSpec("ray", ("y",),
                          DomainModel.from_intervals([(0.0, math.inf)]),
                          parse_expression("y"), parse_expression("y"),
                          MetricSpec("euclidean"),
                          WindowSpec.finite_action(1.0, 10.0, 0.25))
        with pytest.raises(ConfigError):
            integrate_flow(ray, 0.1, [-1.0])


class TestEnergyQuadrature:
    def setup_method(self):
        saddle, minima = dw_points()
        self.rec = integrate_flow(DW, 0.0, [0.4], targets=minima)

    def test_solution_matches_value_drop(self):
        e_an, e_top = energy(self.rec, DW, 0.0)
        assert e_top == pytest.approx(self.rec.E_top)
        assert e_an == pytest.approx(e_top, abs=2e-3)

    def test_wiggled_path_costs_more(self):
        samples = self.rec.samples.copy()
        s = samples[:, 0]
        bump = 0.05 * np.sin(3.0 * s) * np.sin(
            np.pi * np.arange(len(s)) / (len(s) - 1))
        samples[:, 1] += bump
        wiggled = dataclasses.replace(self.rec, samples=samples)
        e_sol, e_top = energy(self.rec, DW, 0.0)
        e_wig, _ = energy(wiggled, DW, 0.0,
                          endpoint_values=(0.4 ** 4 - 0.4 ** 2, -0.25))
        assert e_wig > e_top + 1e-3
        assert e_wig > e_sol + 1e-3

    def test_endpoint_override(self):
        _, e_top = energy(self.rec, DW, 0.0, endpoint_values=(0.0, -0.25))
        assert e_top == pytest.approx(0.5)

    def test_needs_samples(self):
        bare = dataclasses.replace(self.rec, samples=None)
        with pytest.raises(NotConverged):
            energy(bare, DW, 0.0)


class TestFlipCount:
    def test_simple_crossing(self):
        assert _flip_count([-1, -1, 1, 1]) == [1]
        assert _flip_count([1, 1, -1]) == [-1]

    def test_arrival_is_transparent(self):
        assert _flip_count([-1, 0, 1]) == [1]

    def test_never_breaks_adjacency(self):
        assert _flip_count([-1, NEVER, 1]) == []

    def test_double_cross_cancels(self):
        flips = _flip_count([-1, 1, -1])
        assert flips == [1, -1] and sum(flips) == 0


class TestCountBoundary:
    def test_double_well_saddle(self):
        saddle, minima = dw_points()
        res = count_boundary(DW, 0.0, saddle, minima)
        # +e_u points right, so the right minimum receives +1
        assert res.counts == {0: -1, 1: 1}
        assert res.method == "endpoints"
        assert all(r.termination == "converged-to" for r in res.trajectories)
        assert all(r.energy_ok for r in res.trajectories)
        assert res.trajectories[0].E_top == pytest.approx(0.5, abs=1e-9)

    def test_z2_boundary_is_empty(self):
        (saddle,) = find_critical_points(Z2, 0.3).inside_window()
        res = count_boundary(Z2, 0.3, saddle, [])
        assert res.counts == {}
        assert [r.termination for r in res.trajectories] == \
            ["exited-below", "exited-below"]

    def test_z3_saddles_each_send_one_line_down(self):
        pts = find_critical_points(Z3, 0.3).inside_window()
        minimum = next(p for p in pts if p.index == 0)
        for saddle in (p for p in pts if p.index == 1):
            res = count_boundary(Z3, 0.3, saddle, [minimum])
            assert abs(res.counts[0]) == 1
            terms = sorted(r.termination for r in res.trajectories)
            assert terms == ["converged-to", "exited-below"]
            arrived = next(r for r in res.trajectories
                           if r.termination == "converged-to")
            assert arrived.energy_ok

    def test_z3_counts_stable_under_launch_radius(self, monkeypatch):
        pts = find_critical_points(Z3, 0.3).inside_window()
        minimum = next(p for p in pts if p.index == 0)
        saddles = [p for p in pts if p.index == 1]
        seen = []
        for r in (1e-4, 1e-5, 1e-6):
            monkeypatch.setattr(flow_module, "R_LAUNCH", r)
            seen.append([count_boundary(Z3, 0.3, s, [minimum]).counts[0]
                         for s in saddles])
        assert seen[0] == seen[1] == seen[2]

    def test_square_index2_hits_every_saddle_once(self):
        pts = find_critical_points(SQ, 0.0).inside_window()
        top = next(p for p in pts if p.index == 2)
        lower = [p for p in pts if p.index < 2]
        res = count_boundary(SQ, 0.0, top, lower)
        assert res.method == "dual"
        saddle_counts = [res.counts[i] for i, p in enumerate(lower)
                         if p.index == 1]
        min_counts = [res.counts[i] for i, p in enumerate(lower)
                      if p.index == 0]
        assert sorted(abs(c) for c in saddle_counts) == [1, 1, 1, 1]
        assert min_counts == [0, 0, 0, 0]

    def test_square_saddles_split_adjacent_minima(self):
        pts = find_critical_points(SQ, 0.0).inside_window()
        minima = [p for p in pts if p.index == 0]
        for saddle in (p for p in pts if p.index == 1):
            res = count_boundary(SQ, 0.0, saddle, minima)
            hits = {i: c for i, c in res.counts.items() if c != 0}
            assert sorted(hits.values()) == [-1, 1]
            for i in hits:
                gap = np.abs(minima[i].location - saddle.location)
                assert gap.min() < 0.05      # shares an axis coordinate

    def test_high_index_unsupported(self):
        # index 2 in R^3 is neither index 1 nor the top degree
        pts = find_critical_points(SQ3, 0.0).inside_window()
        (source,) = [p for p in pts if p.index == 2]
        targets = [p for p in pts if p.index < 2]
        with pytest.raises(CountingRefused, match="Euler characteristic"):
            count_boundary(SQ3, 0.0, source, targets)

    def test_top_index_in_r3_is_counted(self):
        cup = make_problem("cup3", ("x", "y", "z"),
                           "-(x^2 + y^2 + z^2)", "pow(1 + x^2 + y^2 + z^2, -1)")
        (peak,) = find_critical_points(cup, 0.0).inside_window()
        assert peak.index == 3
        res = count_boundary(cup, 0.0, peak, [])
        assert (res.counts, res.trajectories, res.method, res.warnings) == \
            ({}, (), "dual", ())

    def test_middle_index_in_r4_is_refused(self):
        # the refusal goes by index alone: index 2 in R^4 is neither
        # index 1 nor the top degree, whatever else the problem holds
        quad4 = make_problem("bowl4", ("x1", "x2", "x3", "x4"),
                             "x1^2 + x2^2 + x3^2 + x4^2",
                             "pow(1 + x1^2 + x2^2 + x3^2 + x4^2, -1)")
        fake = CriticalPoint(np.zeros(4), 0.0, 2, np.ones(4), np.eye(4),
                             0.0, 1e-8, False, "inside", 1.0, False)
        with pytest.raises(CountingRefused, match="index 2"):
            count_boundary(quad4, 0.0, fake, [])
        with pytest.raises(CountingRefused, match="index 0 and 1"):
            continuation_trajectories(quad4, 0.0, 0.0, [fake], [])


class TestContinuation:
    def test_index2_source_is_refused(self):
        hat = make_problem("hat", ("x", "y"), "x^4 - x^2 - y^2",
                           "pow(1 + x^2 + y^2, -1/2)")
        pts = find_critical_points(hat, 0.05).inside_window()
        (peak,) = [p for p in pts if p.index == 2]
        with pytest.raises(CountingRefused, match="index 0 and 1"):
            continuation_trajectories(hat, 0.05, 0.025, [peak], pts)

    def test_z2_constant_family_is_identity(self):
        sources = find_critical_points(Z2, 0.4).inside_window()
        targets = find_critical_points(Z2, 0.1).inside_window()
        res = continuation_trajectories(Z2, 0.4, 0.1, sources, targets)
        assert res.counts == {(0, 0): 1}
        assert res.halvings == 0
        assert res.delta == pytest.approx(0.5)

    def test_double_well_matches_points_bijectively(self):
        sources = find_critical_points(DW, 0.05).inside_window()
        targets = find_critical_points(DW, 0.01).inside_window()
        res = continuation_trajectories(DW, 0.05, 0.01, sources, targets)
        pairing = {}
        for (si, ti), c in res.counts.items():
            assert c == 1
            pairing[si] = ti
        assert len(pairing) == 3
        for si, ti in pairing.items():
            assert sources[si].index == targets[ti].index
            assert np.linalg.norm(sources[si].location
                                  - targets[ti].location) < 0.1

    def test_moving_minimum_follows(self):
        ray = ProblemSpec("ray", ("y",),
                          DomainModel.from_intervals([(0.0, math.inf)]),
                          parse_expression("y"), parse_expression("y"),
                          MetricSpec("euclidean"),
                          WindowSpec.finite_action(1.0, 10.0, 0.25))
        sources = find_critical_points(ray, 0.09).inside_window()
        targets = find_critical_points(ray, 0.04).inside_window()
        res = continuation_trajectories(ray, 0.09, 0.04, sources, targets)
        assert res.counts == {(0, 0): 1}
        assert targets[0].location[0] == pytest.approx(0.2, abs=1e-6)

    def test_confinement_survives_halving(self):
        sources = find_critical_points(DW, 0.05).inside_window()
        targets = find_critical_points(DW, 0.01).inside_window()
        for delta in (0.5, 0.25):
            res = continuation_trajectories(DW, 0.05, 0.01, sources,
                                            targets, delta)
            assert res.halvings == 0

    def test_window_escape_raises_delta_floor(self, monkeypatch):
        monkeypatch.setattr(flow_module, "DELTA_FLOOR", 1e-3)
        sources = find_critical_points(Z2, 0.4).inside_window()
        targets = find_critical_points(Z2, 0.1).inside_window()
        with pytest.raises(DeltaFloor):
            continuation_trajectories(Z2, 0.4, 3.0, sources, targets)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_is_refused_before_integrating(self, delta,
                                                            monkeypatch):
        sources = find_critical_points(DW, 0.05).inside_window()
        targets = find_critical_points(DW, 0.01).inside_window()
        # refused before any integration: from nan or inf, halving never
        # goes below the floor
        monkeypatch.setattr(flow_module, "_integrate", None)
        with pytest.raises(ConfigError, match="delta must be finite"):
            continuation_trajectories(DW, 0.05, 0.01, sources, targets,
                                      delta)


class TestCustomMetric:
    def test_custom_matrix_equal_to_the_cone_metric_flows_like_it(self):
        # g = Id / tau written out as a 1 x 1 matrix of expressions: the
        # custom branch solves with it where the cone one multiplies by tau
        cone = dataclasses.replace(DW, metric=MetricSpec("cone-euclidean"))
        custom = dataclasses.replace(DW, metric=MetricSpec(
            "custom", ((parse_expression("pow(1 + x^2, 1/2)"),),)))
        X = np.linspace(-1.5, 1.5, 7)[:, None]
        _, df = eval_jet1(perturbed_function(DW, 0.05), X, DW.variables)
        grads = [apply_inverse_batch(p.metric, p.tau, p.variables, X, df)
                 for p in (custom, cone)]
        assert grads[0] == pytest.approx(grads[1], rel=1e-12, abs=1e-15)
        a = window_complex(cone, 0.05, seed=0)
        b = window_complex(custom, 0.05, seed=0)
        assert [b.rank(k) for k in range(b.top + 1)] == [2, 1]
        assert b.boundaries == a.boundaries
        assert sorted(b.boundary(1)) == [[-1], [1]]


# ---------------------------------------------------------------------------
# batching: one flow batch per counting job, FSAL


def assert_same_bits(a, b):
    """Two _RowResults or TrajectoryRecords, field by field, bit for bit."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if va is None or vb is None:
            assert va is vb, f.name
            continue
        va, vb = np.asarray(va), np.asarray(vb)
        assert va.dtype == vb.dtype and va.shape == vb.shape, f.name
        assert va.tobytes() == vb.tobytes(), f.name


def flow_batch(field, X0, targets, max_steps, record=False):
    """The row results of one leg integrated alone."""
    (rows,) = _integrate([_Leg(field, X0, targets, max_steps, record)])
    return rows


class CountingField(_Field):
    """A copy of a _Field that counts its evaluations, the calls of its
    tape's jet1 kernel; the integrator makes one per stage for all rows on
    one problem, with the kernel of its first leg's tape."""

    def __init__(self, field):
        vars(self).update(vars(field))
        self.calls = 0
        jet1 = field.tape.kernel("jet1")

        def counted(*args):
            self.calls += 1
            return jet1(*args)

        class Tape:
            def kernel(_, mode):
                assert mode == "jet1"
                return counted

        self.tape = Tape()


def flow_batch_7_plus_1(field, X0, targets, max_steps, record=False):
    """The integrator before FSAL: seven stages per attempted step plus
    one more evaluation at the accepted points.  Returns the rows, the
    loop iterations and the iterations that accepted some row."""
    w = field.problem.window
    lo_cut, hi_cut = w.a - w.sigma, w.b + w.sigma
    m, n = X0.shape
    nt = len(targets)
    X = np.array(X0, dtype=float)
    E = np.zeros(m)
    S = np.full(m, field.ramp_start)
    s_max = field.ramp_end + S_TAIL
    status = np.full(m, RUNNING)
    target_of = np.full(m, -1)
    steps = np.zeros(m, dtype=int)
    near_min = np.full((m, nt), np.inf)
    near_side = np.full((m, nt), NEVER, dtype=np.int8)
    inside = np.zeros((m, nt), dtype=bool)
    paths = [[] for _ in range(m)] if record else []
    drift0, F0, _ = field.eval(S, X)
    f_max = F0.copy()
    f_min = F0.copy()
    f_end = F0.copy()
    h = 1e-3 * (1.0 + np.linalg.norm(X, axis=1)) \
        / (1.0 + np.linalg.norm(drift0, axis=1))
    if record:
        for r in range(m):
            paths[r].append(np.concatenate([[S[r]], X[r], [F0[r]]]))
    guard = 0
    accepting = 0
    while np.any(status == RUNNING) and guard < 60 * max_steps:
        guard += 1
        rows = np.flatnonzero(status == RUNNING)
        Xa, Sa, ha = X[rows], S[rows], h[rows]
        K = np.zeros((7, len(rows), n + 1))
        for i in range(7):
            xi = Xa.copy()
            for j in range(i):
                xi = xi + (ha * _DP_A[i][j])[:, None] * K[j, :, :n]
            d, _, er = field.eval(Sa + _DP_C[i] * ha, xi)
            K[i, :, :n] = d
            K[i, :, n] = er
        Y0 = np.concatenate([Xa, E[rows, None]], axis=1)
        Y5 = Y0.copy()
        Y4 = Y0.copy()
        for i in range(7):
            Y5 = Y5 + (ha * _DP_B5[i])[:, None] * K[i]
            Y4 = Y4 + (ha * _DP_B4[i])[:, None] * K[i]
        scale = RTOL * (1.0 + np.abs(Y5).max(axis=1))
        err = np.abs(Y5 - Y4).max(axis=1) / scale
        err = np.where(np.isfinite(err), err, np.inf)
        accept = err <= 1.0
        acc = rows[accept]
        if acc.size:
            accepting += 1
            X[acc] = Y5[accept, :n]
            E[acc] = Y5[accept, n]
            S[acc] = Sa[accept] + ha[accept]
            steps[acc] += 1
            _, Fv, _ = field.eval(S[acc], X[acc])
            f_max[acc] = np.maximum(f_max[acc], Fv)
            f_min[acc] = np.minimum(f_min[acc], Fv)
            f_end[acc] = Fv
            if record:
                for pos, r in enumerate(acc):
                    paths[r].append(np.concatenate([[S[r]], X[r],
                                                    [Fv[pos]]]))
            status[acc[Fv < lo_cut]] = EXIT_BELOW
            status[acc[Fv > hi_cut]] = EXIT_ABOVE
            if nt:
                live = acc[status[acc] == RUNNING]
                if live.size:
                    D = np.linalg.norm(
                        X[live][:, None, :] - targets.Q[None, :, :], axis=2)
                    for pos, r in enumerate(live):
                        for t in range(nt):
                            d = D[pos, t]
                            if inside[r, t]:
                                near_min[r, t] = min(near_min[r, t], d)
                                if d > targets.r_near[t]:
                                    inside[r, t] = False
                                    cu = targets.unstable_coords(t, X[r])
                                    near_side[r, t] = (
                                        0 if len(cu) == 0
                                        else (1 if cu[0] > 0 else -1))
                            elif d < targets.r_near[t]:
                                inside[r, t] = True
                                near_min[r, t] = min(near_min[r, t], d)
                            if (S[r] >= field.ramp_end
                                    and d < targets.r_arrive[t]
                                    and targets.stable_dominant(t, X[r])):
                                status[r] = ARRIVED
                                target_of[r] = t
                                near_side[r, t] = 0
                                break
            over = (steps[acc] >= max_steps) | (S[acc] > s_max)
            status[acc[over & (status[acc] == RUNNING)]] = BUDGET
        grow = 0.9 * np.maximum(err, 1e-16) ** -0.2
        h[rows] = ha * np.clip(grow, 0.2, 5.0)
        collapse = (h[rows] < STEP_FLOOR) & (status[rows] == RUNNING)
        status[rows[collapse]] = COLLAPSE
    status[status == RUNNING] = BUDGET
    out = [_RowResult(
        status=int(status[r]), target=int(target_of[r]), s_end=float(S[r]),
        x_end=X[r].copy(), e_aug=float(E[r]), f_max=float(f_max[r]),
        f_min=float(f_min[r]), f_start=float(F0[r]), f_end=float(f_end[r]),
        steps=int(steps[r]), near_min=near_min[r].copy(),
        near_side=near_side[r].copy(),
        samples=np.array(paths[r]) if record else None) for r in range(m)]
    return out, guard, accepting


def endpoint_starts(points, r=1e-4):
    return np.concatenate([np.stack([p.location + r * p.frame[:, 0],
                                     p.location - r * p.frame[:, 0]])
                           for p in points])


def z3_case():
    pts = find_critical_points(Z3, 0.3).inside_window()
    field = _Field(Z3, 0.3)
    starts = endpoint_starts([p for p in pts if p.index == 1])
    return field, starts, _TargetSet([p for p in pts if p.index == 0])


def dw_eps_path_case():
    sources = find_critical_points(DW, 0.05).inside_window()
    targets = find_critical_points(DW, 0.01).inside_window()
    field = _Field(DW, 0.05, 0.01, 0.5)
    offsets = np.array([-0.02, -1e-4, 0.0, 1e-4, 0.02])
    starts = np.concatenate([p.location[None, :] + offsets[:, None]
                             for p in sources])
    return field, starts, _TargetSet(targets)


def square_absorbers_case():
    pts = find_critical_points(SQ, 0.0).inside_window()
    top = next(p for p in pts if p.index == 2)
    field = _Field(SQ, 0.0)
    phis = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    e1, e2 = top.frame[:, 0], top.frame[:, 1]
    starts = np.stack([top.location + 1e-4 * (math.cos(a) * e1
                                              + math.sin(a) * e2)
                       for a in phis])
    # minima absorb rows that miss the saddles
    return field, starts, _TargetSet([p for p in pts if p.index < 2])


def ladder_starts(points, offsets=(1e-4, 1e-2)):
    """p +- r frame_p[:, 0] for each r: the rows launched at 1e-2 keep
    some row accepting in every iteration, as the call count check asks."""
    r = np.array(offsets)
    return np.concatenate([p.location + np.outer(side * r, p.frame[:, 0])
                           for p in points for side in (1, -1)])


def square_custom_metric_case():
    # a 2 x 2 custom metric with off-diagonal entries: the solve branch
    entries = (("1 + x^2", "x*y/2"), ("x*y/2", "1 + y^2"))
    spec = dataclasses.replace(SQ, metric=MetricSpec("custom", tuple(
        tuple(map(parse_expression, row)) for row in entries)))
    pts = find_critical_points(spec, 0.05).inside_window()
    starts = ladder_starts([p for p in pts if p.index == 1])
    return (_Field(spec, 0.05), starts,
            _TargetSet([p for p in pts if p.index == 0]))


def twin_peaks_dual_case():
    # the top-degree launches in R^3, index 1 of -f_eps, from the index-2
    # point toward the two maxima, in the cone metric
    spec = dataclasses.replace(TWIN, metric=MetricSpec("cone-euclidean"))
    pts = find_critical_points(spec, 0.1).inside_window()
    sinks = [flow_module._as_sink(p, 3) for p in pts if p.index == 3]
    launchers = [flow_module._as_sink(p, 3) for p in pts if p.index == 2]
    return (_Field(dual_problem(spec), -0.1), ladder_starts(launchers),
            _TargetSet(sinks))


CASES = {"z3-kahler-cone": z3_case, "double-well-eps-path": dw_eps_path_case,
         "square-absorbers": square_absorbers_case,
         "square-custom-metric": square_custom_metric_case,
         "twin-peaks-r3-dual-cone": twin_peaks_dual_case}


class TestFlowBatch:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stacked_rows_equal_rows_run_alone(self, case):
        field, starts, tset = CASES[case]()
        rows = flow_batch(field, starts, tset, 60000, record=True)
        for x0, row in zip(starts, rows):
            (alone,) = flow_batch(field, x0[None, :], tset, 60000,
                                  record=True)
            assert_same_bits(row, alone)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fsal_matches_the_7_plus_1_loop(self, case):
        field, starts, tset = CASES[case]()
        new, old = CountingField(field), CountingField(field)
        rows = flow_batch(new, starts, tset, 60000, record=True)
        want, iters, accepting = flow_batch_7_plus_1(
            old, starts, tset, 60000, record=True)
        for row, ref in zip(rows, want):
            assert_same_bits(row, ref)
        # one launch evaluation, then 6 per attempted step against 7 plus
        # one after each accepting step
        assert new.calls == 1 + 6 * iters
        assert old.calls == 1 + 7 * iters + accepting
        assert accepting == iters
        assert new.calls - 1 <= 6 / 8 * (old.calls - 1)

    def test_near_passes_match_the_row_loop(self):
        # crowded targets with overlapping balls, so a row can arrive at
        # one target while it enters, leaves or sits in the balls of others
        arrived = left = 0
        for seed in range(30):
            got, want = self._near_pass_case(np.random.default_rng(seed))
            for k in want:
                assert want[k].tobytes() == got[k].tobytes(), (seed, k)
            arrived += int((want["status"] == ARRIVED).sum())
            left += int(np.isin(want["near_side"], (-1, 1)).sum())
        assert arrived > 30 and left > 30
        # every row outside every ball and in none before, where the
        # update returns early; every row outside, some leaving a ball;
        # far rows mixed with near ones
        for far, was_out, seeds in ((1.0, True, range(30, 40)),
                                    (1.0, False, range(40, 50)),
                                    (0.5, False, range(50, 80))):
            for seed in seeds:
                got, want = self._near_pass_case(np.random.default_rng(seed),
                                                 far, was_out)
                for k in want:
                    assert want[k].tobytes() == got[k].tobytes(), (seed, k)

    def test_target_balls_nest_on_catalog_points(self):
        # the invariant the near-pass cases above draw under
        seen = 0
        for name in catalog_names():
            e = catalog_lookup(name)
            tset = _TargetSet(
                find_critical_points(e.problem(), e.eps).inside_window())
            assert np.all(tset.r_arrive <= 1e-4), name
            assert np.all(tset.r_near >= 20 * tset.r_arrive), name
            seen += len(tset)
        assert seen > 9

    @staticmethod
    def _near_pass_case(rng, far=0.0, was_out=False):
        """A random update and its row-loop reference; a share ``far`` of
        the rows sits well outside every ball, in none before if
        ``was_out``."""
        n, nt, m = 2, 4, 40
        targets = [CriticalPoint(
            location=rng.normal(scale=0.05, size=n), value=0.0,
            index=int(rng.integers(0, n + 1)), eigenvalues=np.zeros(n),
            frame=np.linalg.qr(rng.normal(size=(n, n)))[0], grad_norm=0.0,
            certificate_radius=float("nan"), degenerate=False,
            window_status="inside", tau_value=1.0, drifting=False)
            for _ in range(nt)]
        tset = _TargetSet(targets)
        tset.r_near = rng.uniform(0.03, 0.1, nt)
        tset.r_arrive = rng.uniform(0.01, 0.04, nt)
        X = tset.Q[rng.integers(nt, size=m)] + rng.normal(scale=0.05,
                                                          size=(m, n))
        live = np.sort(rng.choice(m + 5, size=m, replace=False))
        want = dict(
            inside=rng.random((m + 5, nt)) < 0.5,
            near_min=np.where(rng.random((m + 5, nt)) < 0.5, np.inf,
                              rng.random((m + 5, nt))),
            near_side=np.full((m + 5, nt), NEVER, dtype=np.int8),
            status=np.full(m + 5, RUNNING), target_of=np.full(m + 5, -1))
        past = rng.random(m) < 0.7
        away = rng.random(m) < far
        X[away] += 1.0
        if was_out:
            want["inside"][live[away]] = False
        # r_arrive <= r_near, as in every _TargetSet: a row can then not
        # leave a ball inside an arrival radius
        tset.r_arrive = np.minimum(tset.r_arrive, tset.r_near)
        got = {k: v.copy() for k, v in want.items()}
        arrived = _near_passes(tset, live, X, past, got["inside"],
                               got["near_min"], got["near_side"])
        for pos, t in arrived.items():
            got["status"][live[pos]] = ARRIVED
            got["target_of"][live[pos]] = t
        # the per-row, per-target loop the vectorised update replaced
        D = np.linalg.norm(X[:, None, :] - tset.Q[None, :, :], axis=2)
        inside, near_min, near_side = (want["inside"], want["near_min"],
                                       want["near_side"])
        for pos, r in enumerate(live):
            for t in range(nt):
                d = D[pos, t]
                if inside[r, t]:
                    near_min[r, t] = min(near_min[r, t], d)
                    if d > tset.r_near[t]:
                        inside[r, t] = False
                        cu = tset.unstable_coords(t, X[pos])
                        near_side[r, t] = (
                            0 if len(cu) == 0 else (1 if cu[0] > 0 else -1))
                elif d < tset.r_near[t]:
                    inside[r, t] = True
                    near_min[r, t] = min(near_min[r, t], d)
                if (past[pos] and d < tset.r_arrive[t]
                        and tset.stable_dominant(t, X[pos])):
                    want["status"][r] = ARRIVED
                    want["target_of"][r] = t
                    near_side[r, t] = 0
                    break
        return got, want


def recorded(legs):
    """The legs, recording their samples."""
    return [dataclasses.replace(leg, record=True) for leg in legs]


class FirstBatch(Exception):
    pass


def first_batch(*args, **kw):
    """The legs of the first batch of ``continuation_trajectories``, with
    the plans ``alongside`` ahead of the ladder, recording their samples;
    nothing is integrated."""
    def stop(legs):
        raise FirstBatch(legs)

    with mock.patch.object(flow_module, "_integrate", stop), \
            pytest.raises(FirstBatch) as got:
        continuation_trajectories(*args, **kw)
    return recorded(got.value.args[0])


def counts_and_ladder(problem, e_from, e_to, delta=0.5):
    """The counting legs of both complexes of continue e_from -> e_to and
    its first ladder at delta, as the CLI batches them."""
    pts = {e: find_critical_points(problem, e).inside_window()
           for e in (e_from, e_to)}
    plans = [count_plan(problem, e, [q for q in p if q.index == 1], p)
             for e, p in pts.items()]
    return first_batch(problem, e_from, e_to, pts[e_from], pts[e_to],
                       delta=delta, alongside=plans)


def square_merged_legs():
    # the forward legs of the saddles and the dual legs of the maximum, at
    # two eps: the forward tape then carries one eps per row
    legs = []
    for e in (0.05, 0.1):
        pts = find_critical_points(SQ, e).inside_window()
        legs += recorded(count_plan(SQ, e, [p for p in pts if p.index > 0],
                                    pts)[0])
    return legs


def mixed_legs():
    # on x^4 - x^2 - y^2 in the window (-1, 1/2), mirrored to (-1/2, 1)
    # for the dual problem: the saddles' forward launches exit below, the
    # dual launches arrive at the maximum; with them an eps-path ladder,
    # two legs with no targets, and a leg with a budget of three steps.
    # Of the rows with no targets, the first starts above b + sigma and
    # exits on its first step; of the dual ones, one falls through the gap
    # between the two lower cuts and one starts between the two upper
    # cuts, so the dual leg's own cuts decide how they end.
    spec = dataclasses.replace(SADDLE2, window=WindowSpec(-1.0, 0.5, 1.0,
                                                          10.0, 0.25))
    pts = find_critical_points(spec, 0.05).inside_window()
    top = [p for p in pts if p.index == 2]
    saddles = [p for p in pts if p.index == 1]
    # the ladder goes first, so a table read off the first leg would give
    # the other legs its later ramp end and S cap
    later = find_critical_points(spec, 0.1).inside_window()
    legs = first_batch(spec, 0.05, 0.1, saddles[:1], later)
    legs += recorded(count_plan(spec, 0.05, top + saddles, pts)[0])
    field, none = _Field(spec, 0.05), _TargetSet([])
    dual = _Field(dual_problem(spec), -0.05)
    return legs + [
        _Leg(field, np.array([[2.0, 0.0], [0.0, 0.05], [0.3, -0.1]]), none,
             40000, True),
        _Leg(dual, np.array([[1.2, 0.0], [0.0, 1.0]]), none, 40000, True),
        _Leg(field, ladder_starts(saddles), _TargetSet(saddles), 3, True)]


def first_step_legs():
    # every row ends on its first step: above b + sigma forward and under
    # the dual problem, or out of a budget of one step
    field = _Field(SADDLE2, 0.05)
    dual = _Field(dual_problem(SADDLE2), -0.05)
    none = _TargetSet([])
    return [_Leg(field, np.array([[2.0, 0.0], [-2.0, 0.5]]), none, 40000),
            _Leg(dual, np.array([[0.0, 3.0], [0.5, -3.0]]), none, 40000),
            _Leg(field, np.array([[0.1, 0.1]]), none, 1)]


MERGED = {"double-well-counts-and-ladder": functools.partial(
              counts_and_ladder, DW, 0.25, 0.125),
          "z3-kahler-counts-and-ladder": functools.partial(
              counts_and_ladder, Z3, 0.1, 0.08),
          "square-forward-and-dual": square_merged_legs,
          "saddle2-mixed-legs": mixed_legs,
          "saddle2-all-rows-end-on-the-first-step": first_step_legs}

# continues at delta 0.41, where delta (1 / delta) rounds to just below 1,
# so the ramp's ends 1 / delta are not exact multiples of 1 / delta
END_VALUES = {
    "double-well-counts-and-ladder-delta-0.41": functools.partial(
        counts_and_ladder, DW, 0.25, 0.125, 0.41),
    "z3-kahler-counts-and-ladder-delta-0.41": functools.partial(
        counts_and_ladder, Z3, 0.1, 0.08, 0.41),
    "square-forward-and-dual": square_merged_legs,
    "saddle2-mixed-legs": mixed_legs}


class TestMergedLegs:
    @pytest.mark.parametrize("case", sorted(MERGED))
    def test_merged_rows_equal_lone_rows(self, case):
        legs = MERGED[case]()
        merged = _integrate(legs)
        for leg, rows in zip(legs, merged):
            (alone,) = _integrate([leg])
            assert len(rows) == len(alone) == len(leg.X0)
            for row, ref in zip(rows, alone):
                assert_same_bits(row, ref)

    @pytest.mark.parametrize("case", sorted(END_VALUES))
    def test_end_values_are_F_on_the_values_kernel(self, case):
        # f_start and f_end, which the energy corrections read, are F =
        # vf + eps(s) vr at the start row and at x_end, bit for bit, with
        # vf and vr from the values kernel and eps(s) from the field at
        # the row's start and end times; they are the first and last F of
        # the samples too
        assert 0.41 * (1 / 0.41) != 1.0
        legs = END_VALUES[case]()
        arrived = 0
        for leg, rows in zip(legs, _integrate(legs)):
            field = leg.field
            ends = ((np.full(len(rows), field.ramp_start), leg.X0,
                     [row.f_start for row in rows]),
                    ([row.s_end for row in rows],
                     [row.x_end for row in rows],
                     [row.f_end for row in rows]))
            for S, X, got in ends:
                vf, vr = field.tape.values(np.asarray(X, dtype=float))[:2]
                want = vf + field._eps(np.asarray(S))[0] * vr
                assert np.array(got).tobytes() == want.tobytes()
            for row in rows:
                assert row.samples[[0, -1], -1].tobytes() == np.array(
                    [row.f_start, row.f_end]).tobytes()
                arrived += row.status == ARRIVED
        assert arrived

    def test_mixed_batch_reaches_every_ending(self):
        legs = _integrate(mixed_legs())
        assert {row.status for leg in legs for row in leg} == {
            ARRIVED, EXIT_BELOW, EXIT_ABOVE, BUDGET}
        *_, free, dual, short = legs
        assert (free[0].status, free[0].steps) == (EXIT_ABOVE, 1)
        assert [row.status for row in dual] == [EXIT_BELOW, BUDGET]
        assert dual[1].s_end > S_TAIL
        assert {(row.status, row.steps) for row in short} == {(BUDGET, 3)}
        legs = _integrate(first_step_legs())
        assert [[(row.status, row.steps) for row in leg] for leg in legs] \
            == [[(EXIT_ABOVE, 1)] * 2, [(EXIT_ABOVE, 1)] * 2, [(BUDGET, 1)]]

    def test_one_jet1_call_per_problem_and_stage(self):
        # the counting legs at both eps and the ladder are on one problem,
        # so the batch makes one jet1 call per stage however many legs run,
        # on the tape of the first
        legs = counts_and_ladder(DW, 0.25, 0.125)
        alone = []
        for leg in legs:
            field = CountingField(leg.field)
            flow_batch(field, leg.X0, leg.targets, leg.max_steps)
            alone.append(field.calls)
        fields = [CountingField(leg.field) for leg in legs]
        _integrate([dataclasses.replace(leg, field=field)
                    for leg, field in zip(legs, fields)])
        # one launch call, then six per step until the last leg is done
        assert fields[0].calls == 1 + max(calls - 1 for calls in alone)
        assert [field.calls for field in fields[1:]] == [0] * (len(legs) - 1)
        assert fields[0].calls < sum(alone)

    def test_rows_end_at_their_own_legs_attempt_cap(self, monkeypatch):
        # one attempt per budgeted step, and a tolerance at round-off so
        # that rows reject steps: every row runs out of attempts before
        # its leg's budget of accepted steps, at that leg's cap however
        # the legs are ordered in the batch
        monkeypatch.setattr(integrator_module, "ATTEMPTS", 1)
        monkeypatch.setattr(integrator_module, "RTOL", 1e-16)
        X0 = np.array([[-0.9], [0.5]])
        short, long = (_Leg(_Field(DW, 0.1), X0, _TargetSet([]), budget)
                       for budget in (10, 40))
        alone = {}
        for leg in (short, long):
            field = CountingField(leg.field)
            rows = flow_batch(field, leg.X0, leg.targets, leg.max_steps)
            # the launch evaluation, then six per attempt
            assert field.calls == 1 + 6 * leg.max_steps
            assert all(row.status == BUDGET and row.steps < leg.max_steps
                       for row in rows)
            alone[leg.max_steps] = rows
        assert min(row.steps for row in alone[40]) > short.max_steps
        for legs in ([short, long], [long, short]):
            for leg, rows in zip(legs, _integrate(legs)):
                for row, ref in zip(rows, alone[leg.max_steps]):
                    assert_same_bits(row, ref)


class TestBatchedCounting:
    def test_count_boundaries_equals_one_source_at_a_time(self):
        pts = find_critical_points(Z3, 0.3).inside_window()
        saddles = [p for p in pts if p.index == 1]
        minimum = [p for p in pts if p.index == 0]
        together = count_boundaries(Z3, 0.3, saddles, minimum)
        for saddle, res in zip(saddles, together):
            alone = count_boundary(Z3, 0.3, saddle, minimum)
            assert (res.counts, res.method, res.warnings) == \
                (alone.counts, alone.method, alone.warnings)
            for a, b in zip(res.trajectories, alone.trajectories):
                assert_same_bits(a, b)

    def test_mixed_indices_share_one_target_list(self):
        pts = find_critical_points(SQ, 0.0).inside_window()
        sources = [p for p in pts if p.index == 2] + \
            [p for p in pts if p.index == 1][:2]
        targets = [p for p in pts if p.index < 2]
        together = count_boundaries(SQ, 0.0, sources, targets)
        for p, res in zip(sources, together):
            alone = count_boundary(SQ, 0.0, p, targets)
            assert res.counts == alone.counts
            assert res.method == alone.method
            assert len(res.trajectories) == len(alone.trajectories)

    @pytest.mark.parametrize("k", [1, 2])
    def test_only_lower_index_targets_count_or_absorb(self, k):
        # all window points as targets, the sources among them, count as
        # the lower-index ones alone do, keyed by their positions among
        # all the points
        pts = find_critical_points(SQ, 0.05).inside_window()
        sources = [p for p in pts if p.index == k]
        below = [j for j, q in enumerate(pts) if q.index < k]
        mixed = count_boundaries(SQ, 0.05, sources, pts)
        alone = count_boundaries(SQ, 0.05, sources, [pts[j] for j in below])
        for res, ref in zip(mixed, alone):
            assert res.counts == {below[t]: c for t, c in ref.counts.items()}
            assert (res.method, res.warnings) == (ref.method, ref.warnings)
            assert len(res.trajectories) == len(ref.trajectories) > 0
            for rec, want in zip(res.trajectories, ref.trajectories):
                if want.target_id is not None:
                    want = dataclasses.replace(
                        want, target_id=below[want.target_id])
                assert_same_bits(rec, want)

    def test_forward_and_dual_legs_share_one_batch(self, monkeypatch):
        pts = find_critical_points(SQ, 0.05).inside_window()
        tops = [p for p in pts if p.index == 2]
        saddles = [p for p in pts if p.index == 1]
        targets = [p for p in pts if p.index < 2]
        batches = []
        integrate = flow_module._integrate

        def spied(legs):
            batches.append(len(legs))
            return integrate(legs)

        monkeypatch.setattr(flow_module, "_integrate", spied)
        together = count_boundaries(SQ, 0.05, tops + saddles, targets)
        assert batches == [2]
        alone = (count_boundaries(SQ, 0.05, tops, targets)
                 + count_boundaries(SQ, 0.05, saddles, targets))
        assert batches == [2, 1, 1]
        assert [r.method for r in together] == ["dual"] + ["endpoints"] * 4
        for res, ref in zip(together, alone):
            assert (res.counts, res.method, res.warnings) == \
                (ref.counts, ref.method, ref.warnings)
            assert len(res.trajectories) == len(ref.trajectories) > 0
            for a, b in zip(res.trajectories, ref.trajectories):
                assert_same_bits(a, b)

    def test_continuation_on_all_sources_equals_one_at_a_time(self):
        sources = find_critical_points(DW, 0.05).inside_window()
        targets = find_critical_points(DW, 0.01).inside_window()
        res = continuation_trajectories(DW, 0.05, 0.01, sources, targets)
        assert len(res.trajectories) == len(sources)
        for si, p in enumerate(sources):
            alone = continuation_trajectories(DW, 0.05, 0.01, [p], targets)
            assert (alone.delta, alone.halvings) == (res.delta, res.halvings)
            assert {t: c for (s, t), c in res.counts.items() if s == si} \
                == {t: c for (_, t), c in alone.counts.items()}
            (rec,) = alone.trajectories
            assert_same_bits(res.trajectories[si], rec)


# ---------------------------------------------------------------------------
# top degree by duality: launches from the index-(n-1) points, reversed flow


SADDLE2 = make_problem("saddle2", ("x", "y"), "x^4 - x^2 - y^2",
                       "pow(1 + x^2 + y^2, -1/2)")
INDEX2 = make_problem("index2-scan", ("x", "y"), "x^4 - x^2 - y^2",
                      "pow(1 + x^2 + y^2, -1)")
TWIN = make_problem("twin-peaks", ("x", "y", "z"), "x^2 - x^4 - y^2 - z^2",
                    "pow(1 + x^2 + y^2 + z^2, -1/2)")

# d_2 of window_complex(spec, eps, seed=0) as counted by the 72-point
# circle scan with bisection (version 0.2.0), recorded before that scan
# gave way to the dual launches
PINNED_D2 = [(SQ, 0.05, [[-1], [1], [-1], [1]]),
             (SADDLE2, 0.05, [[-1], [1]]),
             (INDEX2, 0.1, [[-1], [1]]),
             (INDEX2, 0.05, [[-1], [1]])]
PINNED_IDS = [f"{spec.name}-{eps}" for spec, eps, _ in PINNED_D2]


def top_degree_case(spec, eps):
    pts = find_critical_points(spec, eps).inside_window()
    n = spec.domain.dimension
    tops = [p for p in pts if p.index == n]
    below = [p for p in pts if p.index < n]
    return tops, below


class TestTopDegree:
    @pytest.mark.parametrize("spec,eps,d2", PINNED_D2, ids=PINNED_IDS)
    def test_dual_launches_reproduce_the_circle_scan(self, spec, eps, d2):
        cx = window_complex(spec, eps, seed=0)
        assert cx.boundary(2) == d2
        assert verify_d_squared(cx)

    @pytest.mark.parametrize("spec,eps,d2", PINNED_D2, ids=PINNED_IDS)
    def test_reversed_runs_report_the_forward_energy(self, spec, eps, d2):
        tops, below = top_degree_case(spec, eps)
        results = count_boundaries(spec, eps, tops, below)
        arrivals = 0
        for p, res in zip(tops, results):
            assert res.method == "dual" and res.warnings == ()
            for rec in res.trajectories:
                q = below[rec.target_id]
                assert q.index == 1
                assert rec.termination == "converged-to"
                assert rec.energy_ok
                assert rec.E_top == 2 * (p.value - q.value)
                # the value range is that of f_eps along the flowline
                assert q.value - 1e-9 < rec.f_min <= rec.f_max \
                    < p.value + 1e-9
                arrivals += 1
        assert arrivals == sum(abs(c) for res in results
                               for c in res.counts.values()) > 0

    @pytest.mark.parametrize("eps", [0.05, 0.1])
    def test_twin_peaks_in_r3_match_the_oracle(self, eps):
        cx = window_complex(TWIN, eps, seed=0)
        assert [cx.rank(k) for k in range(cx.top + 1)] == [0, 0, 1, 2]
        assert all(abs(c) == 1 for c in cx.boundary(3)[0])
        assert verify_d_squared(cx)
        h = homology(cx)
        assert h.same_as(HomologyResult({3: (1, ())}))
        w = TWIN.window
        oracle = sublevel_pair_homology(TWIN, eps, w.lam, w.Lam,
                                        resolution=16)
        assert h.same_as(oracle)

    def test_unfinished_launch_warns_every_top_source(self, monkeypatch):
        tops, below = top_degree_case(TWIN, 0.1)
        assert len(tops) == 2
        monkeypatch.setattr(flow_module, "BOUNDARY_BUDGET", 3)
        for res in count_boundaries(TWIN, 0.1, tops, below):
            assert all(c == 0 for c in res.counts.values())
            assert len(res.warnings) == 2
            assert all("ended with budget" in w for w in res.warnings)
        with pytest.raises(MissingCount, match="reversed launch"):
            window_complex(TWIN, 0.1, seed=0)

    def test_energy_violation_warns_its_source(self, monkeypatch):
        monkeypatch.setattr(flow_module, "ENERGY_RTOL", 0.0)
        tops, below = top_degree_case(SADDLE2, 0.05)
        (res,) = count_boundaries(SADDLE2, 0.05, tops, below)
        assert sorted(abs(c) for c in res.counts.values()) == [1, 1]
        assert len(res.warnings) == 2
        assert all("energy identity violated" in w for w in res.warnings)
        with pytest.raises(MissingCount, match="energy identity"):
            window_complex(SADDLE2, 0.05, seed=0)


# ---------------------------------------------------------------------------
# R^4: index 1 and the top degree by the same launches as in the plane


R4 = ("x1", "x2", "x3", "x4")
R4_TAU = "pow(1 + x1^2 + x2^2 + x3^2 + x4^2, -1/2)"
DW4 = make_problem("double-well4", R4, "x1^4 - x1^2 + x2^2 + x3^2 + x4^2",
                   R4_TAU)
TWIN4 = make_problem("twin-peaks4", R4, "x1^2 - x1^4 - x2^2 - x3^2 - x4^2",
                     R4_TAU)


def oracle_chi_16(spec, eps):
    w = spec.window
    return pair_euler_characteristic(spec, eps, w.lam, w.Lam, resolution=16)


class TestFourDimensions:
    def test_double_well(self):
        cx = window_complex(DW4, 0.05, seed=0)
        assert [cx.rank(k) for k in range(cx.top + 1)] == [2, 1]
        # +e_u points along +x1, so the right minimum receives +1
        assert cx.boundary(1) == [[-1], [1]]
        assert homology(cx).same_as(HomologyResult({0: (1, ())}))
        assert euler_characteristic(cx.points()) == \
            oracle_chi_16(DW4, 0.05) == 1
        # the dual side is the twin peaks, counted from their index-3 point:
        # rank H_k of (f, -eps) is rank H_(4-k) of (-f, +eps)
        primal = homology(window_complex(DW4, -0.05))
        dual = homology(window_complex(dual_problem(DW4), 0.05))
        assert all(primal.betti(k) == dual.betti(4 - k) for k in range(5))
        cx_hi = window_complex(DW4, 0.1, seed=0)
        res = continuation_trajectories(DW4, 0.1, 0.05, cx_hi.points(),
                                        cx.points())
        assert continuation_chain_map(cx_hi, cx, res).isomorphism

    def test_twin_peaks(self):
        cx = window_complex(TWIN4, 0.05, seed=0)
        assert [cx.rank(k) for k in range(cx.top + 1)] == [0, 0, 0, 1, 2]
        # each entry is the module docstring's sigma sgn det(frame_p)
        # sgn det(frame_q), n = 4, with sigma the side of q's stable
        # direction on which p lies; the maxima's repeated eigenvalue on
        # x2..x4 gets the axes as its frame, so d_4 does not move with eps
        (q,) = cx.generators[3]
        e_s = q.frame[:, 3]
        want = [int(np.sign(e_s @ (p.location - q.location))
                    * np.sign(np.linalg.det(p.frame))
                    * np.sign(np.linalg.det(q.frame)))
                for p in cx.generators[4]]
        assert cx.boundary(4) == [want]
        assert sorted(map(abs, want)) == [1, 1]
        assert window_complex(TWIN4, 0.1, seed=0).boundary(4) == [want]
        assert verify_d_squared(cx)
        assert homology(cx).same_as(HomologyResult({4: (1, ())}))
        assert euler_characteristic(cx.points()) == \
            oracle_chi_16(TWIN4, 0.05) == 1
