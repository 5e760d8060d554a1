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

How the work is batched: ``integrator._integrate`` runs *legs*, each one
field with its start rows, targets and step budget, all in one
Dormand-Prince loop (see that module).  ``count_boundaries`` is the one
counting routine: the launches of all index-1 sources make one leg and
those of the index-(n-1) targets of all top-degree sources, under the
dual problem, another.  Its split form ``count_plan`` returns those legs
with the function that reads their rows, and
``continuation_trajectories``, whose ladder stacks the offset ladders of
all sources in one leg, integrates the plans it is given ``alongside`` in
its first batch; so the ``continue`` command integrates the missing
counts of both its complexes and its first ladder in one batch.  Every
row's result is bit for bit independent of what else shares its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .critical import CriticalPoint
from .errors import (BudgetExceeded, ConfigError, CountingRefused, DeltaFloor,
                     NotConverged, StepCollapse)
from . import integrator
from .integrator import (ARRIVED, BUDGET, COLLAPSE, EXIT_ABOVE, NEVER,
                         _STATUS_NAMES, _Field, _integrate, _Leg, _RowResult,
                         _TargetSet)
from .metric import metric_batch
from .problem import ProblemSpec, dual_problem

__all__ = ["TrajectoryRecord", "integrate_flow",
           "energy", "count_boundary", "count_boundaries", "count_plan",
           "BoundaryCountResult", "check_delta",
           "continuation_trajectories", "ContinuationResult"]

ENERGY_RTOL = 1e-6
# counting constants, read when a count runs: launch offset from a
# critical point, and the step budgets of a boundary (or single flow) row
# and of a continuation row
R_LAUNCH = 1e-4
BOUNDARY_BUDGET = 40000
CONTINUATION_BUDGET = 60000
# continuation gives up once halving takes delta below this
DELTA_FLOOR = 1e-6


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
                   targets: Sequence[CriticalPoint] = ()
                   ) -> TrajectoryRecord:
    """One flowline from an interior start until arrival at a target,
    window exit past the sigma margin, or exhaustion of BOUNDARY_BUDGET
    steps; exhaustion raises BudgetExceeded and a collapsed step size
    raises StepCollapse."""
    x0 = np.asarray(start, dtype=float)
    if not problem.domain.contains(x0):
        raise ConfigError(
            f"flow start {x0.tolist()} is not inside the domain")
    field = _Field(problem, eps)
    tset = _TargetSet(targets)
    ((row,),) = _integrate([_Leg(field, x0[None, :], tset, BOUNDARY_BUDGET,
                                 record=True)])
    start_value = None
    for i, p in enumerate(tset.points):
        if np.linalg.norm(x0 - p.location) <= tset.r_arrive[i]:
            start_value = p.value
            break
    rec = _make_record(row, field, x0, start_value, tset)
    if row.status == BUDGET:
        raise BudgetExceeded(
            f"flow from {x0.tolist()} did not terminate in "
            f"{BOUNDARY_BUDGET} steps (reached s={row.s_end:.4g}, f range "
            f"[{row.f_min:.4g}, {row.f_max:.4g}])")
    if row.status == COLLAPSE:
        raise StepCollapse(
            f"integrator step fell below {integrator.STEP_FLOOR} at "
            f"s={row.s_end:.4g}")
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

    E_an = float(np.trapezoid(vel_sq + grad_sq - two_dFds, Spts))

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


def _launches(launchers: Sequence[CriticalPoint]):
    """(launcher position, side, start) for both branches of the
    one-dimensional unstable manifold of every index-1 launcher, in
    launcher order, side +1 first, from p + side R_LAUNCH frame_p[:, 0]."""
    return [(i, side, p.location + side * R_LAUNCH * p.frame[:, 0])
            for i, p in enumerate(launchers) for side in (1, -1)]


def _as_sink(p: CriticalPoint, n: int) -> CriticalPoint:
    """p as a critical point of -f_eps: value and index mirrored, frame
    columns reversed so that the unstable directions come first again."""
    return replace(p, value=-p.value, index=n - p.index,
                   eigenvalues=-p.eigenvalues[::-1], frame=p.frame[:, ::-1])


def _sgn_det(p: CriticalPoint) -> int:
    return 1 if np.linalg.det(p.frame) > 0 else -1


def count_plan(problem: ProblemSpec, eps: float,
               sources: Sequence[CriticalPoint],
               targets: Sequence[CriticalPoint]):
    """``count_boundaries`` in two halves: the legs to integrate, the
    index-1 launches in one and the top-degree launches in another, and
    a function that reads their rows into the results."""
    n = problem.domain.dimension
    middle = [p.index for p in sources if 1 < p.index < n]
    if middle:
        raise CountingRefused(
            f"a source of index {middle[0]} is not counted, only index 1 "
            f"and the top index {n} are; use the Euler characteristic "
            "route for this problem")
    ones = [s for s, p in enumerate(sources) if p.index == 1]
    tops = [s for s, p in enumerate(sources) if p.index > 1]
    legs, ahead, back = [], [], []
    if ones:
        field = _Field(problem, eps)
        # only the index-0 targets absorb a forward launch
        zeros = [j for j, q in enumerate(targets) if q.index == 0]
        tset = _TargetSet([targets[j] for j in zeros])
        ahead = _launches([sources[s] for s in ones])
        legs.append(_Leg(field, np.stack([x0 for _, _, x0 in ahead]), tset,
                         BOUNDARY_BUDGET))
    if tops:
        # -f_eps = (-f) + (-eps) / tau; its sinks are the top sources
        dual = _Field(dual_problem(problem), -eps)
        sinks = _TargetSet([_as_sink(sources[s], n) for s in tops])
        launch_from = [j for j, q in enumerate(targets) if q.index == n - 1]
        back = _launches([_as_sink(targets[j], n) for j in launch_from])
        if back:
            legs.append(_Leg(dual, np.stack([x0 for _, _, x0 in back]),
                             sinks, BOUNDARY_BUDGET))

    def read(rows) -> List[BoundaryCountResult]:
        counts = [{j: 0 for j, q in enumerate(targets) if q.index < p.index}
                  for p in sources]
        recs: List[List[TrajectoryRecord]] = [[] for _ in sources]
        warnings: List[List[str]] = [[] for _ in sources]
        rows = iter(rows)
        for (i, side, x0), row in zip(ahead, next(rows) if ahead else ()):
            s = ones[i]
            rec = _make_record(row, field, x0, sources[s].value, tset, side)
            if row.status == ARRIVED:
                rec = replace(rec, target_id=zeros[row.target])
                counts[s][rec.target_id] += side
                if not rec.energy_ok:
                    warnings[s].append(
                        f"energy identity violated on launch {side:+d}: "
                        f"E_an={rec.E_an!r} E_top={rec.E_top!r}")
            elif row.status in (BUDGET, COLLAPSE):
                warnings[s].append(
                    f"launch {side:+d} ended with {rec.termination}")
            recs[s].append(rec)
        for (i, side, x0), row in zip(back, next(rows) if back else ()):
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
            rec = _make_record(row, dual, x0, -q.value, sinks, sgn)
            recs[s].append(replace(rec, target_id=j, f_max=-rec.f_min,
                                   f_min=-rec.f_max))
            if not rec.energy_ok:
                warnings[s].append(
                    f"energy identity violated on the reversed launch "
                    f"{side:+d} from target {j}: E_an={rec.E_an!r} "
                    f"E_top={rec.E_top!r}")
        methods = {0: "none", 1: "endpoints"}
        return [BoundaryCountResult(c, tuple(r),
                                    methods.get(p.index, "dual"), tuple(w))
                for p, c, r, w in zip(sources, counts, recs, warnings)]

    return legs, read


def count_boundaries(problem: ProblemSpec, eps: float,
                     sources: Sequence[CriticalPoint],
                     targets: Sequence[CriticalPoint]
                     ) -> List[BoundaryCountResult]:
    """Signed counts of flowlines from each source, of index k, into the
    index-(k-1) members of the shared ``targets``, autonomous field at the
    given eps, launched at R_LAUNCH with BOUNDARY_BUDGET steps a row.
    Each result's counts hold the positions in ``targets`` of every
    target of index below k, zeros included, and its trajectory records
    name their targets by those positions too; the other targets are
    neither counted nor absorbing, so all window points may be passed as
    ``targets``.

    k = 1 launches the two unstable branches; the index-0 targets absorb
    (arrival there ends a row).  Top degree k = n >= 2 is index 1 of the
    dual problem: the index-(n-1) targets launch under the flow of
    -f_eps, and the top sources absorb.  Window exits count zero.  The
    index-1 launches and the top-degree launches are two legs of one
    batch (``count_plan`` hands them out to share a larger one).  Sources
    of index 2 <= k < n raise CountingRefused before any integration.
    """
    legs, read = count_plan(problem, eps, sources, targets)
    return read(_integrate(legs) if legs else [])


def count_boundary(problem: ProblemSpec, eps: float, source: CriticalPoint,
                   targets: Sequence[CriticalPoint]) -> BoundaryCountResult:
    """``count_boundaries`` for one source."""
    (res,) = count_boundaries(problem, eps, [source], targets)
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


def check_delta(delta: float) -> None:
    """Raise ConfigError unless delta, the start of a continuation's
    halving, is finite and positive (from nan or inf halving never
    reaches the floor)."""
    if not (math.isfinite(delta) and delta > 0):
        raise ConfigError(f"delta must be finite and positive, got {delta!r}")


def continuation_trajectories(problem: ProblemSpec, eps_from: float,
                              eps_to: float,
                              sources: Sequence[CriticalPoint],
                              targets: Sequence[CriticalPoint],
                              delta: float = 0.5,
                              alongside: Iterable = ()) -> ContinuationResult:
    """Signed index-preserving arrival counts for the delta-slow path from
    f_{eps_from} to f_{eps_to}, halving delta from the given value until
    the runs are confined.  A delta that is not finite and positive raises
    ConfigError before any integration.  One leg holds the offset ladders
    of all sources, and each halving integrates it again.  The counting
    plans ``alongside``, (legs, read) pairs as ``count_plan`` returns
    them, share the first batch, ahead of the ladder, and each read is
    called on its legs' rows right after that batch; what it returns is
    dropped.

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
    check_delta(delta)
    if any(p.index > 1 for p in sources):
        raise CountingRefused("continuation counting handles sources of "
                              "index 0 and 1 only")
    w = problem.window
    tset = _TargetSet(targets)
    ladders = []
    for p in sources:
        pars = _family_parameters(p.index)
        e_u = p.frame[:, 0] if p.index else np.zeros(len(p.location))
        ladders.append(p.location[None, :] + pars[:, None] * e_u[None, :])
    plans = list(alongside)
    halvings = 0
    while True:
        field = _Field(problem, eps_from, eps_to, delta)
        legs = [leg for plan, _ in plans for leg in plan]
        if sources:
            legs.append(_Leg(field, np.concatenate(ladders), tset,
                             CONTINUATION_BUDGET))
        got = iter(_integrate(legs) if legs else ())
        for plan, read in plans:
            read([next(got) for _ in plan])
        plans = []
        if not sources:
            return ContinuationResult({}, delta, 0, ())
        batch = iter(next(got))
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
