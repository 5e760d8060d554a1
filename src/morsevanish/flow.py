"""Negative gradient flows: integration, energies, and trajectory counting.

The flow equation is x'(s) = -grad_g F(x(s), s) with F(x, s) =
f + eps(s)/tau.  Either eps is fixed (the autonomous flow of f_eps), or it
runs delta-slowly between two values, eps(s) = eps_from + gamma(delta s)
(eps_to - eps_from).  The ramp gamma is the clamped C^1 smoothstep on
[-1, 1], so integration starts at s = -1/delta with exactly f_{eps_from}
and the field is autonomous again from s = +1/delta on.

Alongside the position the integrator carries one extra state,

    e'(s) = 2 |grad F|_g^2 - 2 (dF/ds)(x(s), s),

which along exact solutions equals the analytic energy rate, so e must land
on 2 (F_start(x_start) - F_end(x_end)).  The topological energy of a
connecting trajectory is 2 (F_start(p) - F_end(q)) from the limiting
critical values; |E_an - E_top| small is the energy identity check.

Counting conventions: every critical point's eigenframe is oriented by
making each column's first meaningful component positive, and its unstable
directions come first; the unstable manifold of an index-k point is
oriented by its first k frame columns.  A flowline from p (index k) to q
(index k - 1) counts +1 when the orientation of W^u(p) along it agrees
with its velocity followed by the orientation of W^u(q) carried along it,
and -1 otherwise.  Trajectories that leave the window count zero.  Only
index-1 points are launched from, both branches of their one-dimensional
unstable manifold at p +- r e_u:

* Index 1: the launchers are the sources.  A minimum's W^u is a point, so
  a flowline along +e_u carries +1 and one along -e_u carries -1.
* Top degree, index n >= 2, is index 1 of the dual problem: in the complex
  of -f_eps the indices become n - k and the boundary is the transpose
  (Schwarz, *Morse Homology*, 1993; Banyaga & Hurtubise, *Lectures on
  Morse Homology*, 2004).  The index-(n-1) targets q are the launchers,
  as index-1 points of -f_eps whose unstable direction e_s is their last
  frame column, with the window mirrored to (-b, -a) so that its exits
  swap; the index-n sources are the sinks a branch may reach.  W^u(p) is
  open in R^n and oriented by sgn det(frame_p).  Near q the forward
  flowline arriving from side sigma moves along -sigma e_s, and W^u(q) is
  oriented by frame_q[:, :n-1], so a branch from side sigma that reaches
  p counts
      sgn det(frame_p) sgn det[-sigma e_s, frame_q[:, :n-1]]
          = sigma (-1)^n sgn det(frame_p) sgn det(frame_q),
  which in the plane is sigma sgn det(frame_p) sgn det(frame_q).  (For
  n = 1 the same formula gives the index-1 rule above.)
* Index k with 2 <= k < n is refused with CountingRefused, in any
  dimension: neither W^u(p) nor W^s(q) is one-dimensional there, so no
  index-1 launch finds the flowlines; the Euler characteristic route
  covers those problems.

Continuation counts index-preserving flowlines of a delta-slow path.  At
a saddle the signed count is read off side flips of near passes along an
offset ladder: the ladder parameter sweeps across the stable manifold of q
and a pass switching from the -e_u(q) side to the +e_u(q) side counts +1.

How the work is batched: the integrator is Dormand-Prince 5(4), whose last
stage sits at the accepted point (first same as last, FSAL), so each row
keeps its stage 1 from the previous step and an attempted step costs six
field evaluations.  A counting job integrates in at most two batches:
``count_boundaries`` stacks the launches of all its index-1 sources in one
forward batch and those of the index-(n-1) targets of all its top-degree
sources in one reversed batch; ``continuation_trajectories`` stacks the
offset ladders of all its sources.  Every row's result is independent of
what else shares its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .critical import CriticalPoint
from .errors import (BudgetExceeded, ConfigError, CountingRefused, DeltaFloor,
                     NotConverged, StepCollapse)
from .expr import Const, Quotient, compile
from .metric import apply_inverse, metric_batch, metric_exprs
from .problem import ProblemSpec, dual_problem

__all__ = ["TrajectoryRecord", "integrate_flow",
           "energy", "count_boundary", "count_boundaries",
           "BoundaryCountResult",
           "continuation_trajectories", "ContinuationResult"]

ENERGY_RTOL = 1e-6
STEP_FLOOR = 1e-14
RTOL = 1e-9
# flow time a row may run past the end of the ramp before it is out of budget
S_TAIL = 400.0
# counting defaults: launch offset from a critical point, and the step
# budgets of a boundary (or single flow) row and of a continuation row
R_LAUNCH = 1e-4
BOUNDARY_BUDGET = 40000
CONTINUATION_BUDGET = 60000
# continuation gives up once halving takes delta below this
DELTA_FLOOR = 1e-6

_trapezoid = getattr(np, "trapezoid", None) or getattr(np, "trapz")


def _ramp(s):
    """gamma and d gamma / ds at s: the C^1 smoothstep clamped to 0 for
    s <= -1 and to 1 for s >= +1, from one clamped u = (s + 1) / 2 (the
    max/min pair clamps like np.clip: u is never -0.0, nan stays nan)."""
    u = np.minimum(np.maximum((np.asarray(s, dtype=float) + 1.0) / 2.0, 0.0),
                   1.0)
    return u * u * (3.0 - 2.0 * u), 3.0 * u * (1.0 - u)


class _Field:
    """The batched right side -grad_g F of F(x, s) = f + eps(s)/tau, with
    value and energy-rate bookkeeping, from one jet1 call of one tape
    (f, 1/tau and the metric inputs) per batch.

    eps(s) = eps + gamma(delta s) (eps_to - eps); without ``eps_to`` the
    field is the autonomous one of f_eps.
    """

    def __init__(self, problem: ProblemSpec, eps: float,
                 eps_to: Optional[float] = None, delta: float = 1.0):
        self.problem = problem
        self.eps, self.delta = float(eps), delta
        self.eps_to = None if eps_to is None else float(eps_to)
        self._tape = compile((problem.f, Quotient(Const(1), problem.tau))
                             + metric_exprs(problem.metric, problem.tau),
                             problem.variables)
        # the flow times between which eps moves; 0.0 - 0.0 is +0.0
        self.ramp_end = 0.0 if eps_to is None else 1.0 / delta
        self.ramp_start = 0.0 - self.ramp_end

    def _eps(self, S):
        """eps at the flow times S, and delta gamma'(delta S) with it; a
        float and None when eps is fixed."""
        if self.eps_to is None:
            return self.eps, None
        t, slope = _ramp(self.delta * np.asarray(S, dtype=float))
        return self.eps + t * (self.eps_to - self.eps), self.delta * slope

    def values_at(self, S, X: np.ndarray) -> np.ndarray:
        vf, vr = self._tape.values(X)[:2]
        return vf + self._eps(S)[0] * vr

    def start_value(self, x: np.ndarray) -> float:
        S = np.full(1, self.ramp_start - 1.0)
        return float(self.values_at(S, x[None, :])[0])

    def end_values(self, X: np.ndarray) -> np.ndarray:
        return self.values_at(np.full(len(X), self.ramp_end + 1.0), X)

    def eval(self, S: np.ndarray, X: np.ndarray):
        """Returns (drift, F values, energy rate) for a batch of rows."""
        jets = self._tape.jet1(X)
        (vf, gf), (vr, gr) = jets[:2]
        e, ramp = self._eps(S)
        vals = vf + e * vr
        grads = gf + (e if ramp is None else e[:, None]) * gr
        w = apply_inverse(self.problem.metric, jets[2:], grads)
        erate = 2.0 * np.einsum("ij,ij->i", grads, w)
        if ramp is not None:
            erate = erate - 2.0 * (((self.eps_to - self.eps) * ramp) * vr)
        return -w, vals, erate


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
              -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
# the weights of stages 0..6 in the input of stage i (row i, zero padded),
# then in the 5th and the 4th order solution (rows 7 and 8)
_DP_W = np.array([np.pad(a, (0, 7 - len(a))) for a in _DP_A]
                 + [_DP_B5, _DP_B4])

# row status codes
RUNNING, ARRIVED, EXIT_BELOW, EXIT_ABOVE, BUDGET, COLLAPSE = 0, 1, 2, 3, 4, 5
_STATUS_NAMES = {ARRIVED: "converged-to", EXIT_BELOW: "exited-below",
                 EXIT_ABOVE: "exited-above", BUDGET: "budget",
                 COLLAPSE: "step-collapse"}

NEVER = 9  # near-pass side value for "never came near this target"


class _TargetSet:
    """Per-target geometry used for arrival and near-pass classification."""

    def __init__(self, targets: Sequence[CriticalPoint]):
        self.points = list(targets)
        self.Q = (np.array([p.location for p in self.points])
                  if self.points else np.zeros((0, 0)))
        self.Vinv = [np.linalg.inv(p.frame) for p in self.points]
        self.k = [p.index for p in self.points]
        self.r_arrive = np.array([
            min(max(p.certificate_radius if p.certified else 0.0, 1e-6), 1e-4)
            for p in self.points])
        # near-pass ball: big enough to classify flybys, small enough to
        # keep distinct targets separated
        m = len(self.points)
        self.r_near = np.zeros(m)
        for i, p in enumerate(self.points):
            sep = min((float(np.linalg.norm(self.Q[i] - self.Q[j]))
                       for j in range(m) if j != i), default=math.inf)
            r = min(0.15 * (1.0 + float(np.linalg.norm(p.location))),
                    0.3 * sep)
            self.r_near[i] = max(r, 20.0 * self.r_arrive[i])

    def __len__(self):
        return len(self.points)

    def unstable_coords(self, i: int, x: np.ndarray) -> np.ndarray:
        c = self.Vinv[i] @ (x - self.Q[i])
        return c[:self.k[i]]

    def stable_dominant(self, i: int, x: np.ndarray) -> bool:
        """Unstable components small next to stable ones: rules out the
        near-misses that shoot past a saddle inside the arrival ball."""
        c = self.Vinv[i] @ (x - self.Q[i])
        k = self.k[i]
        if k == 0:
            return True
        cu = float(np.linalg.norm(c[:k]))
        cs = float(np.linalg.norm(c[k:])) if k < len(c) else 0.0
        return cu <= max(0.5 * cs, 0.05 * self.r_arrive[i])


@dataclass
class _RowResult:
    status: int
    target: int          # index into the target set, -1 if none
    s_end: float
    x_end: np.ndarray
    e_aug: float
    f_max: float
    f_min: float
    steps: int
    near_min: np.ndarray     # per-target closest approach while inside
    near_side: np.ndarray    # per-target side at last ball exit, 0 arrived
    samples: Optional[np.ndarray]


def _near_passes(targets: _TargetSet, live: np.ndarray, Xl: np.ndarray,
                 past_ramp: np.ndarray, inside: np.ndarray,
                 near_min: np.ndarray, near_side: np.ndarray,
                 status: np.ndarray, target_of: np.ndarray) -> None:
    """Near passes and arrivals of the rows ``live`` (now at Xl) after an
    accepted step, updated in place over (rows, targets) arrays; frame
    coordinates are computed only where a row leaves a ball or may arrive."""
    # np.linalg.norm(diff, axis=2) without its argument checks
    diff = Xl[:, None, :] - targets.Q[None, :, :]
    D = np.sqrt(np.add.reduce(diff * diff, axis=2))
    was_in = inside[live]
    # a row stays in a ball up to its rim but enters only strictly inside
    now_in = D < targets.r_near
    # no row was or is in a ball, so none arrives either (r_arrive <=
    # r_near) and nothing changes
    if not (now_in.any() or was_in.any()):
        return
    np.less_equal(D, targets.r_near, out=now_in, where=was_in)
    arrive = np.logical_and(D < targets.r_arrive, past_ramp[:, None])
    track = was_in | now_in
    done = set()
    # pairs come row by row in target order, so once a row arrives its
    # later targets are skipped and keep their state
    for p, t in zip(*np.nonzero(arrive | (was_in > now_in))):
        if p in done:
            continue
        r = live[p]
        if not arrive[p, t]:
            cu = targets.unstable_coords(t, Xl[p])
            near_side[r, t] = 0 if len(cu) == 0 else (1 if cu[0] > 0 else -1)
        elif targets.stable_dominant(t, Xl[p]):
            done.add(p)
            status[r], target_of[r], near_side[r, t] = ARRIVED, t, 0
            now_in[p, t + 1:] = was_in[p, t + 1:]
            track[p, t + 1:] = False
    near = near_min[live]
    np.minimum(near, D, out=near, where=track)
    inside[live] = now_in
    near_min[live] = near


def _flow_batch(field: _Field, X0: np.ndarray, targets: _TargetSet,
                max_steps: int, record: bool = False) -> List[_RowResult]:
    """Integrate every row until it terminates; returns per-row results.

    Near-pass sides are tracked from launch on (the classification frames
    belong to the end-of-path function, but adjacent family members getting
    the same spurious label cancels in flip counting).  Arrival only fires
    after the ramp, once the field actually is the end function.  Value
    exits terminate a row at a - sigma (below) or b + sigma (above) at any
    time.

    Each element of a stage input, Y5 and Y4 gets the floating-point
    operations of the textbook loop in its order: the products (h w_j) K_j
    and the chain ((Y0 + p_0) + p_1) + ...  The chain is one
    ``np.add.reduce`` over the first axis of the stacked (Y0, p_0, ...):
    numpy reduces an outer axis by adding whole (rows, n + 1) slices one
    after another, never pairwise, while that slice has two or more
    elements, which the energy column guarantees even for one row in R^1.
    """
    w = field.problem.window
    lo_cut, hi_cut = w.a - w.sigma, w.b + w.sigma
    m, n = X0.shape
    nt = len(targets)

    X = np.array(X0, dtype=float)
    # the integrated state (x, e) of each row, one array so that a step
    # reads and writes it whole
    Y = np.concatenate([X, np.zeros((m, 1))], axis=1)
    S = np.full(m, field.ramp_start)
    s_max = field.ramp_end + S_TAIL
    status = np.full(m, RUNNING)
    target_of = np.full(m, -1)
    steps = np.zeros(m, dtype=int)
    near_min = np.full((m, nt), np.inf)
    near_side = np.full((m, nt), NEVER, dtype=np.int8)
    inside = np.zeros((m, nt), dtype=bool)
    paths: List[List[np.ndarray]] = [[] for _ in range(m)] if record else []

    # stage 1 (drift and energy rate) of the next step at each row's (S, X)
    drift0, F0, erate0 = field.eval(S, X)
    K1 = np.concatenate([drift0, erate0[:, None]], axis=1)
    f_max = F0.copy()
    f_min = F0.copy()
    h = 1e-3 * (1.0 + np.linalg.norm(X, axis=1)) \
        / (1.0 + np.linalg.norm(drift0, axis=1))
    if record:
        for r in range(m):
            paths[r].append(np.concatenate([[S[r]], X[r], [F0[r]]]))

    # an autonomous field ignores the flow time, so its stages need none
    timed = field.ramp_start < field.ramp_end
    guard = 0
    while guard < 60 * max_steps:
        rows = np.flatnonzero(status == RUNNING)
        if not rows.size:
            break
        guard += 1
        Sa, ha = S[rows], h[rows]
        kk = len(rows)

        # P[0] is the start (X, e) of the step and P[j + 1] the weighted
        # stage j, so a stage input, Y5 and Y4 are each one sum over P's
        # first axis (see the docstring)
        hW = _DP_W[:, :, None] * ha
        Si = Sa + _DP_C[:, None] * ha if timed else [Sa] * 7
        P = np.empty((8, kk, n + 1))
        P[0] = Y[rows]
        K = np.empty((7, kk, n + 1))
        K[0] = K1[rows]
        for i in range(1, 7):
            np.multiply(hW[i, :i, :, None], K[:i], out=P[1:i + 1])
            xi = np.add.reduce(P[:i + 1], axis=0)
            d, F7, er = field.eval(Si[i], xi[:, :n])
            K[i, :, :n] = d
            K[i, :, n] = er

        np.multiply(hW[7, :, :, None], K, out=P[1:])
        Y5 = np.add.reduce(P, axis=0)
        np.multiply(hW[8, :, :, None], K, out=P[1:])
        Y4 = np.add.reduce(P, axis=0)

        scale = RTOL * (1.0 + np.abs(Y5).max(axis=1))
        err = np.abs(Y5 - Y4).max(axis=1) / scale
        err = np.where(np.isfinite(err), err, np.inf)
        accept = err <= 1.0

        acc = rows[accept]
        if acc.size:
            Y[acc] = Y5[accept]
            S[acc] = Sa[accept] + ha[accept]
            steps[acc] += 1

            # _DP_A[6] == _DP_B5[:6] and _DP_C[6] == 1: stage 7 was
            # evaluated at the accepted point (a finite error means every
            # stage is finite, so the zero weights add exact zeros)
            K1[acc] = K[6, accept]
            Fv = F7[accept]
            f_max[acc] = np.maximum(f_max[acc], Fv)
            f_min[acc] = np.minimum(f_min[acc], Fv)
            if record:
                for pos, r in enumerate(acc):
                    paths[r].append(np.concatenate([[S[r]], Y[r, :n],
                                                    [Fv[pos]]]))

            status[acc[Fv < lo_cut]] = EXIT_BELOW
            status[acc[Fv > hi_cut]] = EXIT_ABOVE

            live = acc[status[acc] == RUNNING] if nt else acc[:0]
            if live.size:
                _near_passes(targets, live, Y[live, :n],
                             S[live] >= field.ramp_end, inside, near_min,
                             near_side, status, target_of)

            over = (steps[acc] >= max_steps) | (S[acc] > s_max)
            status[acc[over & (status[acc] == RUNNING)]] = BUDGET

        grow = 0.9 * np.maximum(err, 1e-16) ** -0.2
        # grow is never nan or -0.0, so min/max clip it as np.clip does
        ha = ha * np.minimum(np.maximum(grow, 0.2), 5.0)
        h[rows] = ha
        collapse = (ha < STEP_FLOOR) & (status[rows] == RUNNING)
        status[rows[collapse]] = COLLAPSE

    status[status == RUNNING] = BUDGET

    out = []
    for r in range(m):
        out.append(_RowResult(
            status=int(status[r]), target=int(target_of[r]),
            s_end=float(S[r]), x_end=Y[r, :n].copy(), e_aug=float(Y[r, n]),
            f_max=float(f_max[r]), f_min=float(f_min[r]),
            steps=int(steps[r]),
            near_min=near_min[r].copy(), near_side=near_side[r].copy(),
            samples=np.array(paths[r]) if record else None))
    return out


@dataclass(frozen=True)
class TrajectoryRecord:
    start: np.ndarray
    termination: str
    target_id: Optional[int]
    sign: int
    E_an: float
    E_top: float
    f_max: float
    f_min: float
    steps: int
    s_end: float
    end: np.ndarray
    samples: Optional[np.ndarray] = None   # rows of (s, x..., F)

    @property
    def energy_ok(self) -> bool:
        if not (math.isfinite(self.E_an) and math.isfinite(self.E_top)):
            return False
        return abs(self.E_an - self.E_top) < ENERGY_RTOL * (1.0 + abs(self.E_top))


def _make_record(row: _RowResult, field: _Field, start: np.ndarray,
                 start_value: Optional[float],
                 targets: _TargetSet, sign: int = 1) -> TrajectoryRecord:
    """Assemble the public record.

    start_value, when given, is the critical value the trajectory limits to
    backwards; the launch offset correction 2 (start_value - F(start)) and
    the arrival ball correction 2 (F(end) - q.value) are folded into E_an
    so it is comparable with E_top between critical values.
    """
    term = _STATUS_NAMES[row.status]
    target_id = row.target if row.status == ARRIVED else None

    x0_val = field.start_value(np.asarray(start, dtype=float))
    E_an = row.e_aug
    if start_value is not None:
        E_an += 2.0 * (start_value - x0_val)
    E_top = float("nan")
    if row.status == ARRIVED:
        q = targets.points[row.target]
        end_val = float(field.end_values(row.x_end[None, :])[0])
        E_an += 2.0 * (end_val - q.value)
        base = start_value if start_value is not None else x0_val
        E_top = 2.0 * (base - q.value)
    return TrajectoryRecord(
        start=np.array(start, dtype=float), termination=term,
        target_id=target_id, sign=sign,
        E_an=E_an, E_top=E_top, f_max=row.f_max, f_min=row.f_min,
        steps=row.steps, s_end=row.s_end, end=row.x_end,
        samples=row.samples)


def integrate_flow(problem: ProblemSpec, eps: float, start,
                   targets: Sequence[CriticalPoint] = (),
                   budget: int = BOUNDARY_BUDGET) -> TrajectoryRecord:
    """One flowline from an interior start until arrival at a target,
    window exit past the sigma margin, or exhaustion; exhaustion raises
    BudgetExceeded and a collapsed step size raises StepCollapse."""
    x0 = np.asarray(start, dtype=float)
    if not problem.domain.contains(x0):
        raise ConfigError(
            f"flow start {x0.tolist()} is not inside the domain")
    field = _Field(problem, eps)
    tset = _TargetSet(targets)
    (row,) = _flow_batch(field, x0[None, :], tset, budget, record=True)
    start_value = None
    for i, p in enumerate(tset.points):
        if np.linalg.norm(x0 - p.location) <= tset.r_arrive[i]:
            start_value = p.value
            break
    rec = _make_record(row, field, x0, start_value, tset)
    if row.status == BUDGET:
        raise BudgetExceeded(
            f"flow from {x0.tolist()} did not terminate in {budget} steps "
            f"(reached s={row.s_end:.4g}, f range "
            f"[{row.f_min:.4g}, {row.f_max:.4g}])")
    if row.status == COLLAPSE:
        raise StepCollapse(
            f"integrator step fell below {STEP_FLOOR} at s={row.s_end:.4g}")
    return rec


def energy(trajectory: TrajectoryRecord, problem: ProblemSpec, eps: float,
           endpoint_values: Optional[Tuple[float, float]] = None
           ) -> Tuple[float, float]:
    """(E_an, E_top) for a stored path by direct quadrature of
    |x'|_g^2 + |grad F|_g^2 - 2 dF/ds over the sample times.

    Works for arbitrary recorded paths, not only flow solutions; on a
    non-solution path E_an strictly exceeds E_top.  E_top needs converged
    endpoints or explicitly supplied endpoint critical values.
    """
    field = _Field(problem, eps)
    if trajectory.samples is None or len(trajectory.samples) < 3:
        raise NotConverged("no stored samples to integrate the energy over")
    Spts = trajectory.samples[:, 0]
    Xpts = trajectory.samples[:, 1:-1]

    drift, _, erate = field.eval(Spts, Xpts)
    G = metric_batch(problem.metric, problem.tau, problem.variables, Xpts)
    grad_sq = np.einsum("ij,ijk,ik->i", drift, G, drift)
    two_dFds = 2.0 * grad_sq - erate

    vel = np.gradient(Xpts, Spts, axis=0)
    vel_sq = np.einsum("ij,ijk,ik->i", vel, G, vel)

    E_an = float(_trapezoid(vel_sq + grad_sq - two_dFds, Spts))

    if endpoint_values is not None:
        v0, v1 = endpoint_values
        E_top = 2.0 * (float(v0) - float(v1))
    elif math.isfinite(trajectory.E_top):
        E_top = trajectory.E_top
    else:
        raise NotConverged(
            "E_top needs converged endpoints or explicit endpoint values")
    return E_an, E_top


def _flip_count(sides: Sequence[int]) -> List[int]:
    """Signed stable-manifold crossings along a ladder of near-pass sides.

    Entries are -1/+1 (side at last ball exit), 0 (arrived at the target,
    transparent), NEVER (no near pass, breaks adjacency).  A -1 -> +1 step
    between consecutive near entries is a crossing counted +1, the reverse
    one -1.
    """
    out = []
    prev = None
    for side in sides:
        if side == NEVER:
            prev = None
        elif side != 0:
            if prev is not None and side != prev:
                out.append(1 if side > prev else -1)
            prev = side
    return out


@dataclass(frozen=True)
class BoundaryCountResult:
    counts: Dict[int, int]            # position in `targets` -> signed count
    trajectories: Tuple[TrajectoryRecord, ...]
    method: str
    warnings: Tuple[str, ...] = ()


def _branches(field: _Field, launchers: Sequence[CriticalPoint],
              tset: _TargetSet, r_launch: float, budget: int):
    """Both branches of the one-dimensional unstable manifold of every
    index-1 launcher, integrated in one batch.  Returns (launcher
    position, side, start, row) in launcher order, side +1 first, from the
    start p + side r_launch frame_p[:, 0]."""
    launches = [(i, side, p.location + side * r_launch * p.frame[:, 0])
                for i, p in enumerate(launchers) for side in (1, -1)]
    if not launches:
        return []
    rows = _flow_batch(field, np.stack([x0 for _, _, x0 in launches]), tset,
                       budget)
    return [(i, side, x0, row) for (i, side, x0), row in zip(launches, rows)]


def _as_sink(p: CriticalPoint, n: int) -> CriticalPoint:
    """p as a critical point of -f_eps: value and index mirrored, frame
    columns reversed so that the unstable directions come first again."""
    return replace(p, value=-p.value, index=n - p.index,
                   eigenvalues=-p.eigenvalues[::-1], frame=p.frame[:, ::-1])


def _sgn_det(p: CriticalPoint) -> int:
    return 1 if np.linalg.det(p.frame) > 0 else -1


def count_boundaries(problem: ProblemSpec, eps: float,
                     sources: Sequence[CriticalPoint],
                     targets: Sequence[CriticalPoint], *,
                     r_launch: float = R_LAUNCH,
                     budget: int = BOUNDARY_BUDGET
                     ) -> List[BoundaryCountResult]:
    """Signed counts of flowlines from each source, of index k, into the
    index-(k-1) members of the shared ``targets``, autonomous field at the
    given eps; each result's counts are keyed by position in ``targets``.

    k = 1 launches the two unstable branches; lower-index points in
    ``targets`` absorb (arrival there ends a row early, but only the
    index-(k-1) entries are counted).  Top degree k = n >= 2 is index 1
    of the dual problem: the index-(n-1) targets launch under the flow of
    -f_eps.  Window exits count zero.  All index-1 launches run in one
    batch and all top-degree launches in another.  Sources of index
    2 <= k < n raise CountingRefused.
    """
    n = problem.domain.dimension
    middle = [p.index for p in sources if 1 < p.index < n]
    if middle:
        raise CountingRefused(
            f"a source of index {middle[0]} is not counted, only index 1 "
            f"and the top index {n} are; use the Euler characteristic "
            "route for this problem")
    counts = [{j: 0 for j in range(len(targets))} for _ in sources]
    recs: List[List[TrajectoryRecord]] = [[] for _ in sources]
    warnings: List[List[str]] = [[] for _ in sources]
    ones = [s for s, p in enumerate(sources) if p.index == 1]
    if ones:
        field = _Field(problem, eps)
        tset = _TargetSet(targets)
        for i, side, x0, row in _branches(field, [sources[s] for s in ones],
                                          tset, r_launch, budget):
            s = ones[i]
            rec = _make_record(row, field, x0, sources[s].value, tset, side)
            recs[s].append(rec)
            if row.status == ARRIVED and targets[row.target].index == 0:
                counts[s][row.target] += side
                if not rec.energy_ok:
                    warnings[s].append(
                        f"energy identity violated on launch {side:+d}: "
                        f"E_an={rec.E_an!r} E_top={rec.E_top!r}")
            elif row.status in (BUDGET, COLLAPSE):
                warnings[s].append(
                    f"launch {side:+d} ended with {rec.termination}")
    tops = [s for s, p in enumerate(sources) if p.index > 1]
    if tops:
        # -f_eps = (-f) + (-eps) / tau; its sinks are the top sources
        field = _Field(dual_problem(problem), -eps)
        sinks = _TargetSet([_as_sink(sources[s], n) for s in tops])
        launch_from = [j for j, q in enumerate(targets) if q.index == n - 1]
        for i, side, x0, row in _branches(
                field, [_as_sink(targets[j], n) for j in launch_from],
                sinks, r_launch, budget):
            j = launch_from[i]
            q = targets[j]
            if row.status in (BUDGET, COLLAPSE):
                for s in tops:
                    warnings[s].append(
                        f"reversed launch {side:+d} from target {j} ended "
                        f"with {_STATUS_NAMES[row.status]}")
            if row.status != ARRIVED:
                continue
            s = tops[row.target]
            sgn = side * (-1) ** n * _sgn_det(sources[s]) * _sgn_det(q)
            counts[s][j] += sgn
            # E_an and E_top come out as the forward flowline's energy;
            # the value range is turned back into f_eps values too
            rec = _make_record(row, field, x0, -q.value, sinks, sgn)
            recs[s].append(replace(rec, target_id=j, f_max=-rec.f_min,
                                   f_min=-rec.f_max))
            if not rec.energy_ok:
                warnings[s].append(
                    f"energy identity violated on the reversed launch "
                    f"{side:+d} from target {j}: E_an={rec.E_an!r} "
                    f"E_top={rec.E_top!r}")
    methods = {0: "none", 1: "endpoints"}
    return [BoundaryCountResult(c, tuple(r), methods.get(p.index, "dual"),
                                tuple(w))
            for p, c, r, w in zip(sources, counts, recs, warnings)]


def count_boundary(problem: ProblemSpec, eps: float, source: CriticalPoint,
                   targets: Sequence[CriticalPoint],
                   **count) -> BoundaryCountResult:
    """``count_boundaries`` for one source."""
    (res,) = count_boundaries(problem, eps, [source], targets, **count)
    return res


@dataclass(frozen=True)
class ContinuationResult:
    counts: Dict[Tuple[int, int], int]   # (source pos, target pos) -> count
    delta: float
    halvings: int
    trajectories: Tuple[TrajectoryRecord, ...]
    # no continuation path warns at present; chain_map_from_counts reads it
    warnings: Tuple[str, ...] = ()


_REACH = 0.3  # widest continuation launch offset


def _family_parameters(k: int) -> np.ndarray:
    """Offsets along the oriented unstable direction, clustered near zero."""
    if k == 0:
        return np.array([0.0])
    ladder = np.geomspace(R_LAUNCH, _REACH, 14)
    return np.concatenate([-ladder[::-1], [0.0], ladder])


def continuation_trajectories(problem: ProblemSpec, eps_from: float,
                              eps_to: float,
                              sources: Sequence[CriticalPoint],
                              targets: Sequence[CriticalPoint],
                              delta: float = 0.5) -> ContinuationResult:
    """Signed index-preserving arrival counts for the delta-slow path from
    f_{eps_from} to f_{eps_to}, halving delta from the given value until
    the runs are confined.  A delta that is not finite and positive raises
    ConfigError before any integration.

    Confinement means no trajectory climbs above b + sigma, and the
    zero-offset launch of every source either settles at a same-index
    window target or at least passes near one before washing out; failing
    that below DELTA_FLOOR raises DeltaFloor.  Counts at saddles come from
    side flips across the launch ladder, so an identity path reports the
    identity matrix without needing exact center arrivals.  Sources must
    have index 0 or 1: a source of higher index raises CountingRefused,
    because no signed count over a higher-dimensional unstable manifold is
    implemented.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ConfigError(f"delta must be finite and positive, got {delta!r}")
    if any(p.index > 1 for p in sources):
        raise CountingRefused("continuation counting handles sources of "
                              "index 0 and 1 only")
    if not sources:
        return ContinuationResult({}, delta, 0, ())

    w = problem.window
    tset = _TargetSet(targets)
    ladders = []
    for p in sources:
        pars = _family_parameters(p.index)
        e_u = p.frame[:, 0] if p.index else np.zeros(len(p.location))
        ladders.append(p.location[None, :] + pars[:, None] * e_u[None, :])
    halvings = 0
    while True:
        field = _Field(problem, eps_from, eps_to, delta)
        batch = iter(_flow_batch(field, np.concatenate(ladders), tset,
                                 CONTINUATION_BUDGET))
        counts: Dict[Tuple[int, int], int] = {}
        recs: List[TrajectoryRecord] = []
        violated = False

        for si, (p, starts) in enumerate(zip(sources, ladders)):
            k = p.index
            rows = [next(batch) for _ in starts]
            center = rows[len(starts) // 2]
            if any(r.status == EXIT_ABOVE or r.f_max > w.b + w.sigma
                   for r in rows):
                violated = True
                break

            center_ok = (center.status == ARRIVED
                         and targets[center.target].index == k)
            if not center_ok:
                came_near = any(
                    math.isfinite(center.near_min[t])
                    for t in range(len(targets))
                    if targets[t].index == k)
                if k == 0 or not came_near:
                    violated = True
                    break

            if k == 0:
                q = center.target
                counts[(si, q)] = counts.get((si, q), 0) + 1
            else:
                for t in range(len(targets)):
                    if targets[t].index != k:
                        continue
                    sides = [int(r.near_side[t]) for r in rows]
                    for sgn in _flip_count(sides):
                        counts[(si, t)] = counts.get((si, t), 0) + sgn
            recs.append(_make_record(center, field, p.location, p.value,
                                     tset, sign=1))

        if not violated:
            return ContinuationResult(counts, delta, halvings, tuple(recs))
        delta *= 0.5
        halvings += 1
        if delta < DELTA_FLOOR:
            raise DeltaFloor(
                f"confinement still violated at delta={delta * 2:.3g}; the "
                f"parameter path likely leaves the window")
