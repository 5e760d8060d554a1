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
import math

import numpy as np
import pytest

import morsevanish.flow as flow_module
from morsevanish.compactify import AlgebraicProblem, realify
from morsevanish.critical import CriticalPoint, find_critical_points
from morsevanish.errors import (BudgetExceeded, ConfigError, CountingRefused,
                                DeltaFloor, MissingCount, NotConverged,
                                StepCollapse)
from morsevanish.expr import parse_expression
from morsevanish.flow import (ARRIVED, BUDGET, COLLAPSE, EXIT_ABOVE,
                              EXIT_BELOW, NEVER, RTOL, RUNNING, S_TAIL,
                              STEP_FLOOR, _DP_A, _DP_B4, _DP_B5, _DP_C,
                              _Field, _flip_count, _flow_batch, _RowResult,
                              _TargetSet, continuation_trajectories,
                              count_boundaries, count_boundary, energy,
                              gamma_profile, gamma_slope, integrate_flow)
from morsevanish.homology import (HomologyResult, continuation_chain_map,
                                  duality_ranks, euler_characteristic,
                                  homology, verify_d_squared, window_complex)
from morsevanish.metric import MetricSpec
from morsevanish.oracle import (pair_euler_characteristic,
                                sublevel_pair_homology)
from morsevanish.problem import DomainModel, ProblemSpec, WindowSpec


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
        s = np.array([-5.0, -1.0, 0.0, 1.0, 7.0])
        assert gamma_profile(s) == pytest.approx([0.0, 0.0, 0.5, 1.0, 1.0])
        assert gamma_slope(s) == pytest.approx([0.0, 0.0, 0.75, 0.0, 0.0])

    def test_monotone_and_consistent_with_slope(self):
        s = np.linspace(-1.2, 1.2, 241)
        g = gamma_profile(s)
        assert np.all(np.diff(g) >= 0)
        mid = 0.5 * (s[:-1] + s[1:])
        fd = np.diff(g) / np.diff(s)
        assert fd == pytest.approx(gamma_slope(mid), abs=1e-4)


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

    def test_budget_raises(self):
        with pytest.raises(BudgetExceeded):
            integrate_flow(SLIDE, 0.5, [0.0], budget=3)

    def test_step_collapse_raises(self, monkeypatch):
        # no step of the slide flow is as long as 1
        monkeypatch.setattr(flow_module, "STEP_FLOOR", 1.0)
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

    def test_csv_round_trip(self):
        _, minima = dw_points()
        rec = integrate_flow(DW, 0.0, [0.4], targets=minima)
        text = rec.to_csv()
        lines = text.splitlines()
        assert lines[0] == "s,x1,f"
        assert len(lines) == len(rec.samples) + 1
        assert float(lines[1].split(",")[1]) == pytest.approx(0.4)

    def test_csv_needs_recording(self):
        _, minima = dw_points()
        rec = integrate_flow(DW, 0.0, [0.4], targets=minima,
                             record_path=False)
        assert rec.samples is None
        with pytest.raises(NotConverged):
            rec.to_csv()


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

    def test_z3_counts_stable_under_launch_radius(self):
        pts = find_critical_points(Z3, 0.3).inside_window()
        minimum = next(p for p in pts if p.index == 0)
        saddles = [p for p in pts if p.index == 1]
        seen = []
        for r in (1e-4, 1e-5, 1e-6):
            seen.append([count_boundary(Z3, 0.3, s, [minimum],
                                        r_launch=r).counts[0]
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

    def test_window_escape_raises_delta_floor(self):
        sources = find_critical_points(Z2, 0.4).inside_window()
        targets = find_critical_points(Z2, 0.1).inside_window()
        with pytest.raises(DeltaFloor):
            continuation_trajectories(Z2, 0.4, 3.0, sources, targets,
                                      delta_floor=1e-3)


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


class CountingField:
    """A _Field that counts its evaluations."""

    def __init__(self, field):
        self.field = field
        self.problem = field.problem
        self.ramp_start, self.ramp_end = field.ramp_start, field.ramp_end
        self.calls = 0

    def eval(self, S, X):
        self.calls += 1
        return self.field.eval(S, X)


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
        f_min=float(f_min[r]), steps=int(steps[r]),
        near_min=near_min[r].copy(), near_side=near_side[r].copy(),
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


CASES = {"z3-kahler-cone": z3_case, "double-well-eps-path": dw_eps_path_case,
         "square-absorbers": square_absorbers_case}


class TestFlowBatch:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stacked_rows_equal_rows_run_alone(self, case):
        field, starts, tset = CASES[case]()
        rows = _flow_batch(field, starts, tset, 60000, record=True)
        for x0, row in zip(starts, rows):
            (alone,) = _flow_batch(field, x0[None, :], tset, 60000,
                                   record=True)
            assert_same_bits(row, alone)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fsal_matches_the_7_plus_1_loop(self, case):
        field, starts, tset = CASES[case]()
        new, old = CountingField(field), CountingField(field)
        rows = _flow_batch(new, starts, tset, 60000, record=True)
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

    @staticmethod
    def _near_pass_case(rng):
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
        got = {k: v.copy() for k, v in want.items()}
        flow_module._near_passes(tset, live, X, past, **got)
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

    def test_unfinished_launch_warns_every_top_source(self):
        tops, below = top_degree_case(TWIN, 0.1)
        assert len(tops) == 2
        for res in count_boundaries(TWIN, 0.1, tops, below, budget=3):
            assert all(c == 0 for c in res.counts.values())
            assert len(res.warnings) == 2
            assert all("ended with budget" in w for w in res.warnings)
        with pytest.raises(MissingCount, match="reversed launch"):
            window_complex(TWIN, 0.1, seed=0, budget=3)
        loose = window_complex(TWIN, 0.1, seed=0, budget=3, strict=False)
        assert len(loose.notes) == 4

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
        # the dual side is the twin peaks, counted from their index-3 point
        assert duality_ranks(DW4, 0.05).ok
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
