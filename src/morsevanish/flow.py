"""Negative gradient flows: integration, energies, and trajectory counting.

The flow equation is x'(s) = -grad_g F(x(s), s) where F is either a fixed
f_eps (autonomous case) or a slow interpolation between two parameter values
driven by t = gamma(delta * s).  The ramp gamma is the clamped C^1 smoothstep
on [-1, 1], so integration starts at s = -1/delta with exactly the initial
function and the field is autonomous again from s = +1/delta on.

Alongside the position the integrator carries one extra state,

    e'(s) = 2 |grad F|_g^2 - 2 (dF/ds)(x(s), s),

which along exact solutions equals the analytic energy rate, so e must land
on 2 (F_start(x_start) - F_end(x_end)).  The topological energy of a
connecting trajectory is 2 (F_start(p) - F_end(q)) from the limiting
critical values; |E_an - E_top| small is the energy identity check.

Counting conventions (ambient dimension n <= 3): every critical point's
eigenframe is oriented by making each column's first meaningful component
positive, and its unstable directions come first; the unstable manifold of
an index-k point is oriented by its first k frame columns.  A flowline from
p (index k) to q (index k - 1) counts +1 when the orientation of W^u(p)
along it agrees with its velocity followed by the orientation of W^u(q)
carried along it, and -1 otherwise.  Trajectories that leave the window
count zero.

* Index 1: launches at p +- r e_u.  A minimum's W^u is a point, so a
  flowline along +e_u carries +1 and one along -e_u carries -1.
* Top degree, index n >= 2, by Morse duality: in the complex of -f_eps the
  indices become n - k and the boundary is the transpose (Schwarz, *Morse
  Homology*, 1993; Banyaga & Hurtubise, *Lectures on Morse Homology*,
  2004).  The flowlines into an index-(n-1) point q are the two branches
  of its one-dimensional stable manifold, tangent at q to its last frame
  column e_s.  So each q launches at q + sigma r e_s (sigma = +-1) under
  the flow of -f_eps, with the window mirrored to (-b, -a) so that its
  exits swap, and the index-n points are the sinks that branch may reach.
  W^u(p) is open in R^n and oriented by sgn det(frame_p).  Near q the
  forward flowline arriving from side sigma moves along -sigma e_s, and
  W^u(q) is oriented by frame_q[:, :n-1], so a branch from side sigma that
  reaches p counts
      sgn det(frame_p) sgn det[-sigma e_s, frame_q[:, :n-1]]
          = sigma (-1)^n sgn det(frame_p) sgn det(frame_q),
  which in the plane is sigma sgn det(frame_p) sgn det(frame_q).  (For
  n = 1 the same formula gives the index-1 rule above.)
* Index k with 2 <= k < n (index 2 in R^3) is refused: neither W^u(p) nor
  W^s(q) is one-dimensional there, so no endpoint launch finds the
  flowlines; the Euler characteristic route covers those problems.

Continuation counts index-preserving flowlines of a delta-slow path.  At
a saddle the signed count is read off side flips of near passes along an
offset ladder: the ladder parameter sweeps across the stable manifold of q
and a pass switching from the -e_u(q) side to the +e_u(q) side counts +1.

How the work is batched: the integrator is Dormand-Prince 5(4), whose last
stage sits at the accepted point (first same as last, FSAL), so each row
keeps its stage 1 from the previous step and an attempted step costs six
field evaluations.  A counting job integrates in at most two batches:
``count_boundaries`` stacks the endpoint launches of all its index-1
sources in one forward batch and the dual launches of all its top-degree
sources in one reversed batch; ``continuation_trajectories`` stacks the
offset ladders of all its sources.  Every row's result is independent of
what else shares its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .critical import CriticalPoint
from .errors import (BudgetExceeded, ConfigError, DeltaFloor, NotConverged,
                     StepCollapse)
from .expr import Const, Expression, Quotient, compile
from .metric import apply_inverse, metric_batch, metric_exprs
from .problem import ProblemSpec, perturbed_function

__all__ = ["ContinuationSchedule", "TrajectoryRecord", "integrate_flow",
           "energy", "count_boundary", "count_boundaries",
           "BoundaryCountResult",
           "continuation_trajectories", "ContinuationResult",
           "gamma_profile", "gamma_slope"]

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

_trapezoid = getattr(np, "trapezoid", None) or getattr(np, "trapz")


def gamma_profile(s):
    """Clamped smoothstep: 0 for s <= -1, 1 for s >= +1, C^1 in between."""
    u = np.clip((np.asarray(s, dtype=float) + 1.0) / 2.0, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def gamma_slope(s):
    """d gamma / ds; vanishes outside [-1, 1]."""
    u = np.clip((np.asarray(s, dtype=float) + 1.0) / 2.0, 0.0, 1.0)
    return 3.0 * u * (1.0 - u)


@dataclass(frozen=True)
class ContinuationSchedule:
    """A straight path in parameter space traversed delta-slowly.

    The flowing function is F(x, s) = sum_i w_i(t) comp_i(x) with
    t = gamma(delta * s).  Constant weights make the field autonomous.
    """

    components: Tuple[Expression, ...]
    weight_path: Callable[[np.ndarray], np.ndarray]     # t (m,) -> (m, k)
    dweight_path: Callable[[np.ndarray], np.ndarray]
    delta: float
    label: str
    autonomous: bool = False

    @property
    def ramp_start(self) -> float:
        return 0.0 if self.autonomous else -1.0 / self.delta

    @property
    def ramp_end(self) -> float:
        return 0.0 if self.autonomous else 1.0 / self.delta

    def with_delta(self, delta: float) -> "ContinuationSchedule":
        return replace(self, delta=delta)

    @staticmethod
    def static(problem: ProblemSpec, eps: float) -> "ContinuationSchedule":
        fe = perturbed_function(problem, eps)

        def w(t):
            return np.ones((len(t), 1))

        def dw(t):
            return np.zeros((len(t), 1))

        return ContinuationSchedule((fe,), w, dw, delta=1.0,
                                    label=f"eps={eps:g}", autonomous=True)

    @staticmethod
    def eps_path(problem: ProblemSpec, eps_from: float, eps_to: float,
                 delta: float = 0.5) -> "ContinuationSchedule":
        comps = (problem.f, Quotient(Const(Fraction(1)), problem.tau))
        e0, e1 = float(eps_from), float(eps_to)

        def w(t):
            return np.stack([np.ones_like(t), e0 + t * (e1 - e0)], axis=1)

        def dw(t):
            return np.stack([np.zeros_like(t), np.full_like(t, e1 - e0)],
                            axis=1)

        return ContinuationSchedule(comps, w, dw, delta,
                                    label=f"eps:{e0:g}->{e1:g}")

    def values_at(self, S, X: np.ndarray, names) -> np.ndarray:
        t = gamma_profile(self.delta * np.asarray(S, dtype=float))
        W = self.weight_path(np.atleast_1d(t))
        out = np.zeros(len(X))
        for i, v in enumerate(compile(self.components, names).values(X)):
            out += W[:, i] * v
        return out

    def end_values(self, X: np.ndarray, names) -> np.ndarray:
        S = np.full(len(X), self.ramp_end + 1.0)
        return self.values_at(S, X, names)

    def start_value(self, x: np.ndarray, names) -> float:
        S = np.full(1, self.ramp_start - 1.0)
        return float(self.values_at(S, x[None, :], names)[0])


class _Field:
    """Batched right side -grad_g F with value and energy-rate bookkeeping,
    one jet1 call of one tape (components and metric inputs) per batch."""

    def __init__(self, problem: ProblemSpec, schedule: ContinuationSchedule):
        self.problem = problem
        self.schedule = schedule
        self.names = problem.variables
        self._tape = compile(schedule.components + metric_exprs(
            problem.metric, problem.tau), self.names)

    def eval(self, S: np.ndarray, X: np.ndarray):
        """Returns (drift, F values, energy rate) for a batch of rows."""
        sch = self.schedule
        k = len(sch.components)
        jets = self._tape.jet1(X)
        # constant weights: one row of them broadcasts against the batch
        t = np.zeros(1) if sch.autonomous else gamma_profile(sch.delta * S)
        W = sch.weight_path(t)
        vals = np.zeros(len(X))
        grads = np.zeros_like(X)
        for i, (v, g) in enumerate(jets[:k]):
            vals += W[:, i] * v
            grads += W[:, i, None] * g
        w = apply_inverse(self.problem.metric, jets[k:], grads)
        erate = 2.0 * np.einsum("ij,ij->i", grads, w)
        if not sch.autonomous:
            ramp = (sch.delta * gamma_slope(sch.delta * S))[:, None]
            dW = sch.dweight_path(t) * ramp
            erate = erate - 2.0 * sum(dW[:, i] * jets[i][0]
                                      for i in range(k))
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
    D = np.linalg.norm(Xl[:, None, :] - targets.Q[None, :, :], axis=2)
    was_in = inside[live]
    # a row stays in a ball up to its rim but enters only strictly inside
    now_in = D < targets.r_near
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
    """
    problem, sched = field.problem, field.schedule
    w = problem.window
    lo_cut, hi_cut = w.a - w.sigma, w.b + w.sigma
    m, n = X0.shape
    nt = len(targets)

    X = np.array(X0, dtype=float)
    E = np.zeros(m)
    S = np.full(m, sched.ramp_start)
    s_max = sched.ramp_end + S_TAIL
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

    guard = 0
    while np.any(status == RUNNING) and guard < 60 * max_steps:
        guard += 1
        rows = np.flatnonzero(status == RUNNING)
        Xa, Sa, ha = X[rows], S[rows], h[rows]
        kk = len(rows)

        K = np.empty((7, kk, n + 1))
        K[0] = K1[rows]
        for i in range(1, 7):
            xi = Xa
            hA = ha[:, None] * _DP_A[i]
            for j in range(i):
                xi = xi + hA[:, j, None] * K[j, :, :n]
            d, F7, er = field.eval(Sa + _DP_C[i] * ha, xi)
            K[i, :, :n] = d
            K[i, :, n] = er

        Y0 = np.concatenate([Xa, E[rows, None]], axis=1)
        Y5 = Y0.copy()
        Y4 = Y0.copy()
        hB5, hB4 = ha[:, None] * _DP_B5, ha[:, None] * _DP_B4
        for i in range(7):
            Y5 = Y5 + hB5[:, i, None] * K[i]
            Y4 = Y4 + hB4[:, i, None] * K[i]

        scale = RTOL * (1.0 + np.abs(Y5).max(axis=1))
        err = np.abs(Y5 - Y4).max(axis=1) / scale
        err = np.where(np.isfinite(err), err, np.inf)
        accept = err <= 1.0

        acc = rows[accept]
        if acc.size:
            X[acc] = Y5[accept, :n]
            E[acc] = Y5[accept, n]
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
                    paths[r].append(np.concatenate([[S[r]], X[r],
                                                    [Fv[pos]]]))

            status[acc[Fv < lo_cut]] = EXIT_BELOW
            status[acc[Fv > hi_cut]] = EXIT_ABOVE

            live = acc[status[acc] == RUNNING] if nt else acc[:0]
            if live.size:
                _near_passes(targets, live, X[live],
                             S[live] >= sched.ramp_end, inside, near_min,
                             near_side, status, target_of)

            over = (steps[acc] >= max_steps) | (S[acc] > s_max)
            status[acc[over & (status[acc] == RUNNING)]] = BUDGET

        grow = 0.9 * np.maximum(err, 1e-16) ** -0.2
        h[rows] = ha * np.clip(grow, 0.2, 5.0)
        collapse = (h[rows] < STEP_FLOOR) & (status[rows] == RUNNING)
        status[rows[collapse]] = COLLAPSE

    status[status == RUNNING] = BUDGET

    out = []
    for r in range(m):
        out.append(_RowResult(
            status=int(status[r]), target=int(target_of[r]),
            s_end=float(S[r]), x_end=X[r].copy(), e_aug=float(E[r]),
            f_max=float(f_max[r]), f_min=float(f_min[r]),
            steps=int(steps[r]),
            near_min=near_min[r].copy(), near_side=near_side[r].copy(),
            samples=np.array(paths[r]) if record else None))
    return out


@dataclass(frozen=True)
class TrajectoryRecord:
    start: np.ndarray
    start_id: Optional[int]
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

    def to_csv(self) -> str:
        if self.samples is None:
            raise NotConverged(
                "this trajectory was integrated without path recording")
        n = self.samples.shape[1] - 2
        head = ",".join(["s"] + [f"x{i + 1}" for i in range(n)] + ["f"])
        rows = [",".join(repr(float(v)) for v in row)
                for row in self.samples]
        return "\n".join([head] + rows)


def _make_record(row: _RowResult, field: _Field, start: np.ndarray,
                 start_id, start_value: Optional[float],
                 targets: _TargetSet, sign: int = 1) -> TrajectoryRecord:
    """Assemble the public record.

    start_value, when given, is the critical value the trajectory limits to
    backwards; the launch offset correction 2 (start_value - F(start)) and
    the arrival ball correction 2 (F(end) - q.value) are folded into E_an
    so it is comparable with E_top between critical values.
    """
    sched = field.schedule
    names = field.names
    term = _STATUS_NAMES[row.status]
    target_id = row.target if row.status == ARRIVED else None

    x0_val = sched.start_value(np.asarray(start, dtype=float), names)
    E_an = row.e_aug
    if start_value is not None:
        E_an += 2.0 * (start_value - x0_val)
    E_top = float("nan")
    if row.status == ARRIVED:
        q = targets.points[row.target]
        end_val = float(sched.end_values(row.x_end[None, :], names)[0])
        E_an += 2.0 * (end_val - q.value)
        base = start_value if start_value is not None else x0_val
        E_top = 2.0 * (base - q.value)
    return TrajectoryRecord(
        start=np.array(start, dtype=float), start_id=start_id,
        termination=term, target_id=target_id, sign=sign,
        E_an=E_an, E_top=E_top, f_max=row.f_max, f_min=row.f_min,
        steps=row.steps, s_end=row.s_end, end=row.x_end,
        samples=row.samples)


def _as_schedule(problem: ProblemSpec, eps_or_schedule) -> ContinuationSchedule:
    if isinstance(eps_or_schedule, ContinuationSchedule):
        return eps_or_schedule
    return ContinuationSchedule.static(problem, float(eps_or_schedule))


def integrate_flow(problem: ProblemSpec, eps_or_schedule, start,
                   targets: Sequence[CriticalPoint] = (),
                   budget: int = BOUNDARY_BUDGET,
                   record_path: bool = True) -> TrajectoryRecord:
    """One flowline from an interior start until arrival at a target,
    window exit past the sigma margin, or exhaustion; exhaustion raises
    BudgetExceeded and a collapsed step size raises StepCollapse."""
    x0 = np.asarray(start, dtype=float)
    if not problem.domain.contains(x0):
        raise ConfigError(
            f"flow start {x0.tolist()} is not inside the domain")
    sched = _as_schedule(problem, eps_or_schedule)
    field = _Field(problem, sched)
    tset = _TargetSet(targets)
    (row,) = _flow_batch(field, x0[None, :], tset, budget,
                         record=record_path)
    start_value = None
    for i, p in enumerate(tset.points):
        if np.linalg.norm(x0 - p.location) <= tset.r_arrive[i]:
            start_value = p.value
            break
    rec = _make_record(row, field, x0, None, start_value, tset)
    if row.status == BUDGET:
        raise BudgetExceeded(
            f"flow from {x0.tolist()} did not terminate in {budget} steps "
            f"(reached s={row.s_end:.4g}, f range "
            f"[{row.f_min:.4g}, {row.f_max:.4g}])")
    if row.status == COLLAPSE:
        raise StepCollapse(
            f"integrator step fell below {STEP_FLOOR} at s={row.s_end:.4g}")
    return rec


def energy(trajectory: TrajectoryRecord, problem: ProblemSpec,
           eps_or_schedule,
           endpoint_values: Optional[Tuple[float, float]] = None
           ) -> Tuple[float, float]:
    """(E_an, E_top) for a stored path by direct quadrature of
    |x'|_g^2 + |grad F|_g^2 - 2 dF/ds over the sample times.

    Works for arbitrary recorded paths, not only flow solutions; on a
    non-solution path E_an strictly exceeds E_top.  E_top needs converged
    endpoints or explicitly supplied endpoint critical values.
    """
    sched = _as_schedule(problem, eps_or_schedule)
    field = _Field(problem, sched)
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


def _endpoints(p: CriticalPoint, column: int, r_launch: float) -> np.ndarray:
    """The starts p + r_launch e and p - r_launch e, e = frame_p[:, column]."""
    e = p.frame[:, column]
    return np.stack([p.location + r_launch * e, p.location - r_launch * e])


def _endpoint_count(source: CriticalPoint, targets: Sequence[CriticalPoint],
                    tset: _TargetSet, field: _Field, starts: np.ndarray,
                    rows: List[_RowResult]) -> BoundaryCountResult:
    counts: Dict[int, int] = {j: 0 for j in range(len(targets))}
    warnings: List[str] = []
    recs = []
    for sgn, x0, row in zip((1, -1), starts, rows):
        rec = _make_record(row, field, x0, None, source.value, tset,
                           sign=sgn)
        recs.append(rec)
        if row.status == ARRIVED and targets[row.target].index == 0:
            counts[row.target] += sgn
            if not rec.energy_ok:
                warnings.append(
                    f"energy identity violated on launch {sgn:+d}: "
                    f"E_an={rec.E_an!r} E_top={rec.E_top!r}")
        elif row.status in (BUDGET, COLLAPSE):
            warnings.append(
                f"launch {sgn:+d} ended with {rec.termination}")
    return BoundaryCountResult(counts, tuple(recs), "endpoints",
                               tuple(warnings))


def _as_sink(p: CriticalPoint, n: int) -> CriticalPoint:
    """p as a critical point of -f_eps: value and index mirrored, frame
    columns reversed so that the unstable directions come first again."""
    return replace(p, value=-p.value, index=n - p.index,
                   eigenvalues=-p.eigenvalues[::-1], frame=p.frame[:, ::-1])


def _sgn_det(p: CriticalPoint) -> int:
    return 1 if np.linalg.det(p.frame) > 0 else -1


def _dual_counts(problem: ProblemSpec, eps: float,
                 sources: Sequence[CriticalPoint],
                 targets: Sequence[CriticalPoint], r_launch: float,
                 budget: int) -> List[BoundaryCountResult]:
    """Counts for top-degree sources: both branches of the stable manifold
    of every index-(n-1) target, integrated in one batch under the flow of
    -f_eps with the window mirrored, and signed as the module docstring
    derives."""
    n = problem.domain.dimension
    w = problem.window
    mirrored = replace(problem, f=-problem.f,
                       window=replace(w, a=-w.b, b=-w.a))
    # -f_eps = (-f) + (-eps) / tau
    field = _Field(mirrored, ContinuationSchedule.static(mirrored, -eps))
    sinks = _TargetSet([_as_sink(p, n) for p in sources])
    launch_from = [j for j, q in enumerate(targets) if q.index == n - 1]
    starts = [_endpoints(targets[j], n - 1, r_launch) for j in launch_from]
    rows = iter(_flow_batch(field, np.concatenate(starts), sinks, budget)
                if starts else ())
    counts = [{j: 0 for j in range(len(targets))} for _ in sources]
    recs: List[List[TrajectoryRecord]] = [[] for _ in sources]
    warnings: List[List[str]] = [[] for _ in sources]
    for j, pair in zip(launch_from, starts):
        q = targets[j]
        for side, x0 in zip((1, -1), pair):
            row = next(rows)
            if row.status in (BUDGET, COLLAPSE):
                for msgs in warnings:
                    msgs.append(f"reversed launch {side:+d} from target {j} "
                                f"ended with {_STATUS_NAMES[row.status]}")
            if row.status != ARRIVED:
                continue
            s = row.target
            sgn = side * (-1) ** n * _sgn_det(sources[s]) * _sgn_det(q)
            counts[s][j] += sgn
            # E_an and E_top come out as the forward flowline's energy;
            # the value range is turned back into f_eps values too
            rec = _make_record(row, field, x0, None, -q.value, sinks, sgn)
            rec = replace(rec, target_id=j, f_max=-rec.f_min,
                          f_min=-rec.f_max)
            recs[s].append(rec)
            if not rec.energy_ok:
                warnings[s].append(
                    f"energy identity violated on the reversed launch "
                    f"{side:+d} from target {j}: E_an={rec.E_an!r} "
                    f"E_top={rec.E_top!r}")
    return [BoundaryCountResult(c, tuple(r), "dual", tuple(w))
            for c, r, w in zip(counts, recs, warnings)]


def count_boundaries(problem: ProblemSpec, eps: float,
                     sources: Sequence[CriticalPoint],
                     targets: Sequence[CriticalPoint], *,
                     r_launch: float = R_LAUNCH,
                     budget: int = BOUNDARY_BUDGET
                     ) -> List[BoundaryCountResult]:
    """Signed counts of flowlines from each source, of index k, into the
    index-(k-1) members of the shared ``targets``, autonomous field at the
    given eps; each result's counts are keyed by position in ``targets``.

    k = 1 launches the two unstable endpoints; lower-index points in
    ``targets`` absorb (arrival there ends a row early, but only the
    index-(k-1) entries are counted).  Top degree k = n >= 2 launches from
    the index-(n-1) targets under the reversed flow.  Window exits count
    zero.  All index-1 launches run in one batch and all top-degree
    launches in another.  Sources of index 2 <= k < n raise ConfigError.
    """
    n = problem.domain.dimension
    if n > 3:
        raise ConfigError(
            "trajectory counting is limited to ambient dimension <= 3")
    middle = [p.index for p in sources if 1 < p.index < n]
    if middle:
        raise ConfigError(
            f"a source of index {middle[0]} is not counted, only index 1 "
            f"and the top index {n} are; use the Euler characteristic "
            "route for this problem")
    out: List[Optional[BoundaryCountResult]] = [
        BoundaryCountResult({j: 0 for j in range(len(targets))}, (), "none")
        if p.index == 0 else None
        for p in sources]
    ones = [s for s, p in enumerate(sources) if p.index == 1]
    if ones:
        field = _Field(problem, ContinuationSchedule.static(problem, eps))
        tset = _TargetSet(targets)
        starts = [_endpoints(sources[s], 0, r_launch) for s in ones]
        rows = _flow_batch(field, np.concatenate(starts), tset, budget)
        for i, s in enumerate(ones):
            out[s] = _endpoint_count(sources[s], targets, tset, field,
                                     starts[i], rows[2 * i:2 * i + 2])
    tops = [s for s, p in enumerate(sources) if p.index > 1]
    if tops:
        for s, res in zip(tops, _dual_counts(
                problem, eps, [sources[s] for s in tops], targets,
                r_launch, budget)):
            out[s] = res
    return out


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
    confined: bool
    halvings: int
    excursion_high: float
    excursion_low: float
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


def continuation_trajectories(problem: ProblemSpec,
                              schedule: ContinuationSchedule,
                              sources: Sequence[CriticalPoint],
                              targets: Sequence[CriticalPoint],
                              delta_floor: float = 1e-6
                              ) -> ContinuationResult:
    """Signed index-preserving arrival counts for the delta-slow
    interpolation, halving delta from the schedule's value until the runs
    are confined.

    Confinement means no trajectory climbs above b + sigma, and the
    zero-offset launch of every source either settles at a same-index
    window target or at least passes near one before washing out; failing
    that at delta_floor raises DeltaFloor.  Counts at saddles come from
    side flips across the launch ladder, so an identity path reports the
    identity matrix without needing exact center arrivals.  Sources must
    have index 0 or 1: an index-2 source raises ConfigError, because no
    signed count over a two-dimensional unstable manifold is implemented.
    """
    if problem.domain.dimension > 3:
        raise ConfigError(
            "trajectory counting is limited to ambient dimension <= 3")
    if any(p.index > 1 for p in sources):
        raise ConfigError("continuation counting handles sources of index "
                          "0 and 1 only")
    if not sources:
        return ContinuationResult({}, schedule.delta, True, 0,
                                  -math.inf, math.inf, ())

    w = problem.window
    tset = _TargetSet(targets)
    ladders = []
    for p in sources:
        pars = _family_parameters(p.index)
        e_u = p.frame[:, 0] if p.index else np.zeros(len(p.location))
        ladders.append(p.location[None, :] + pars[:, None] * e_u[None, :])
    delta = schedule.delta
    halvings = 0
    while True:
        field = _Field(problem, schedule.with_delta(delta))
        batch = iter(_flow_batch(field, np.concatenate(ladders), tset,
                                 CONTINUATION_BUDGET))
        counts: Dict[Tuple[int, int], int] = {}
        recs: List[TrajectoryRecord] = []
        hi_exc = -math.inf
        lo_exc = math.inf
        violated = False

        for si, (p, starts) in enumerate(zip(sources, ladders)):
            k = p.index
            rows = [next(batch) for _ in starts]
            center = rows[len(starts) // 2]
            hi_exc = max(hi_exc, max(r.f_max for r in rows))
            lo_exc = min(lo_exc, min(r.f_min for r in rows))
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
            recs.append(_make_record(center, field, p.location, si,
                                     p.value, tset, sign=1))

        if not violated:
            return ContinuationResult(counts, delta, True, halvings,
                                      hi_exc, lo_exc, tuple(recs))
        delta *= 0.5
        halvings += 1
        if delta < delta_floor:
            raise DeltaFloor(
                f"confinement still violated at delta={delta * 2:.3g}; the "
                f"parameter path likely leaves the window")
