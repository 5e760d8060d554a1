"""The Dormand-Prince integrator behind ``flow``: legs in one loop.

The right side is -grad_g F of F(x, s) = f + eps(s)/tau, with eps fixed or
on the delta-slow ramp of the ``flow`` docstring, and each row carries the
energy state e besides x.  Dormand-Prince 5(4) keeps its last stage, which
sits at the accepted point (first same as last, FSAL), as the next step's
first, so an attempted step costs six field evaluations.  That cost is
mostly per step, not per row, so ``_integrate`` runs *legs*, each one
field (problem, eps, and eps_to and delta on a path) with its start rows,
targets and step budget, in one loop.  The running rows stay packed, with
their legs' window cuts, budgets, S caps, ramp ends and eps in per-row
tables, so a step makes its numpy calls once per batch: a jet1 kernel
call per problem and stage, all under one np.errstate, and masked updates
for exits, budget stops and the arrival gate; only near passes go leg by
leg.  Every row's result is bit for bit what it is when its leg runs alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .critical import CriticalPoint
from .expr import Const, Quotient, compile
from .metric import apply_inverse, metric_exprs
from .problem import ProblemSpec

STEP_FLOOR = 1e-14
RTOL = 1e-9
# step attempts, accepted or rejected, a row may make per step of its
# leg's budget before it ends BUDGET
ATTEMPTS = 60
# flow time a row may run past the end of the ramp before it is out of budget
S_TAIL = 400.0


def _ramp(s):
    """gamma and d gamma / ds at s: the C^1 smoothstep clamped to 0 for
    s <= -1 and to 1 for s >= +1, from one clamped u = (s + 1) / 2 (the
    max/min pair clamps like np.clip: u is never -0.0, nan stays nan)."""
    u = np.minimum(np.maximum((np.asarray(s, dtype=float) + 1.0) / 2.0, 0.0),
                   1.0)
    return u * u * (3.0 - 2.0 * u), 3.0 * u * (1.0 - u)


def _rates(metric, jet1, X: np.ndarray, e, corr, path, out: np.ndarray):
    """Writes the drift and energy rate at the rows X for F = f + e/tau to
    out[:, :-1] and out[:, -1] from one call of a tape's jet1 kernel, and
    returns the values of f and 1/tau; e is one float or one per row.  On
    an eps path corr is the rows' (eps_to - eps) delta gamma'(delta s),
    which enters the energy rate at the rows of the mask ``path``."""
    jets = jet1(X, *X.shape)
    (vf, gf), (vr, gr) = jets[:2]
    grads = gf + (e[:, None] if isinstance(e, np.ndarray) else e) * gr
    w = apply_inverse(metric, jets[2:], grads)
    np.negative(w, out=out[:, :-1])
    erate = out[:, -1]
    np.multiply(2.0, np.einsum("ij,ij->i", grads, w), out=erate)
    if corr is not None:
        np.subtract(erate, 2.0 * (corr * vr), out=erate, where=path)
    return vf, vr


class _Field:
    """The right side -grad_g F of F(x, s) = f + eps(s)/tau, with value and
    energy-rate bookkeeping, from the problem's one tape.

    eps(s) = eps + gamma(delta s) (eps_to - eps); without ``eps_to`` the
    field is the autonomous one of f_eps.
    """

    def __init__(self, problem: ProblemSpec, eps: float,
                 eps_to: Optional[float] = None, delta: float = 1.0):
        self.problem = problem
        self.eps, self.delta = float(eps), delta
        self.eps_to = None if eps_to is None else float(eps_to)
        self.tape = compile((problem.f, Quotient(Const(1), problem.tau))
                            + metric_exprs(problem.metric, problem.tau),
                            problem.variables)
        # the flow times between which eps moves; 0.0 - 0.0 is +0.0
        self.ramp_end = 0.0 if eps_to is None else 1.0 / delta
        self.ramp_start = 0.0 - self.ramp_end

    def _eps(self, S):
        """eps at the flow times S, and (eps_to - eps) delta gamma'(delta
        S) with it; a float and None when eps is fixed."""
        if self.eps_to is None:
            return self.eps, None
        t, slope = _ramp(self.delta * np.asarray(S, dtype=float))
        deps = self.eps_to - self.eps
        return self.eps + t * deps, deps * (self.delta * slope)

    def values_at(self, S, X: np.ndarray) -> np.ndarray:
        vf, vr = self.tape.values(X)[:2]
        return vf + self._eps(S)[0] * vr

    def start_value(self, x: np.ndarray) -> float:
        S = np.full(1, self.ramp_start - 1.0)
        return float(self.values_at(S, x[None, :])[0])

    def end_values(self, X: np.ndarray) -> np.ndarray:
        return self.values_at(np.full(len(X), self.ramp_end + 1.0), X)

    def eval(self, S: np.ndarray, X: np.ndarray):
        """Returns (drift, F values, energy rate) for a batch of rows."""
        e, corr = self._eps(S)
        out = np.empty((len(X), X.shape[1] + 1))
        with np.errstate(all="ignore"):
            vf, vr = _rates(self.problem.metric, self.tape.kernel("jet1"), X,
                            e, corr, True, out)
        return out[:, :-1], vf + e * vr, out[:, -1]


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
                 near_min: np.ndarray, near_side: np.ndarray) -> Dict[int, int]:
    """Near passes and arrivals of the rows ``live`` (now at Xl) after an
    accepted step, updated in place over (rows, targets) arrays, frame
    coordinates computed only where a row leaves a ball or may arrive;
    returns {position in live: target} of the rows that arrive."""
    # np.linalg.norm(diff, axis=2) without its argument checks
    diff = Xl[:, None, :] - targets.Q[None, :, :]
    D = np.sqrt(np.add.reduce(diff * diff, axis=2))
    was_in = inside[live]
    # a row stays in a ball up to its rim but enters only strictly inside
    now_in = D < targets.r_near
    # no row was or is in a ball, so none arrives either (r_arrive <=
    # r_near) and nothing changes
    if not (np.count_nonzero(now_in) or np.count_nonzero(was_in)):
        return {}
    np.less_equal(D, targets.r_near, out=now_in, where=was_in)
    arrive = np.logical_and(D < targets.r_arrive, past_ramp[:, None])
    track = was_in | now_in
    done: Dict[int, int] = {}
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
            done[p], near_side[r, t] = t, 0
            now_in[p, t + 1:] = was_in[p, t + 1:]
            track[p, t + 1:] = False
    near = near_min[live]
    np.minimum(near, D, out=near, where=track)
    inside[live] = now_in
    near_min[live] = near
    return done


@dataclass
class _Leg:
    """One integration job: start rows under one field, the targets they
    may arrive at or pass near, and their step budget; ``record`` keeps
    each row's accepted points as its samples."""
    field: _Field
    X0: np.ndarray
    targets: _TargetSet
    max_steps: int
    record: bool = False


def _integrate(legs: Sequence[_Leg]) -> List[List[_RowResult]]:
    """Integrate every row of every leg until it terminates; returns the
    row results of each leg, in leg order.  The legs must share the
    dimension of their problems.

    Near-pass sides are tracked from launch on (the classification frames
    belong to the end-of-path function, but adjacent family members getting
    the same spurious label cancels in flip counting).  Arrival only fires
    after the ramp, once the field actually is the end function.  Value
    exits terminate a row at a - sigma (below) or b + sigma (above) at any
    time.  Rows that terminate leave the packed set at the next step.

    Each element of a stage input, Y5 and Y4 gets the floating-point
    operations of the textbook loop in its order: the products (h w_j) K_j
    and the chain ((Y0 + p_0) + p_1) + ...  The chain is one
    ``np.add.reduce`` over the first axis of the stacked (Y0, p_0, ...):
    numpy reduces an outer axis by adding whole (rows, n + 1) slices one
    after another, never pairwise, while that slice has two or more
    elements, which the energy column guarantees even for one row in R^1.
    """
    # the legs on one problem sit next to each other in the batch and
    # share the tape of the first
    by_problem: Dict[ProblemSpec, List[int]] = {}
    for j, leg in enumerate(legs):
        by_problem.setdefault(leg.field.problem, []).append(j)
    order = [j for js in by_problem.values() for j in js]
    runs = [legs[j] for j in order]
    fields = [leg.field for leg in runs]
    sizes = [len(leg.X0) for leg in runs]
    starts = np.cumsum([0] + sizes).tolist()
    m = starts[-1]
    out: List[List[_RowResult]] = [[] for _ in legs]
    if not m:
        return out
    # per problem: legs runs[k0:k1], the first's kernel, one eps if fixed
    groups = []
    for js in by_problem.values():
        k0 = groups[-1][1] if groups else 0
        f, fs = fields[k0], fields[k0:k0 + len(js)]
        one = {(g.eps.hex(), g.eps_to) for g in fs} == {(f.eps.hex(), None)}
        groups.append((k0, k0 + len(js), f.problem.metric,
                       f.tape.kernel("jet1"), f.eps if one else None))
    # the stage times are read only where eps is given per row
    timed = any(g[4] is None for g in groups)
    X = np.concatenate([np.asarray(leg.X0, dtype=float) for leg in runs])
    n = X.shape[1]

    # the running rows, packed in batch order: the float rows of ``real``
    # and the integer rows of ``count`` (named where they are unpacked,
    # their legs' tables among them, the attempt cap too), the state
    # (x, e) in one array so that a step reads and writes it whole, and
    # K1, the next step's stage 1
    real = np.repeat(np.array([
        (f.ramp_start, 0.0, 0.0, 0.0, w.a - w.sigma, w.b + w.sigma,
         f.ramp_end + S_TAIL, f.ramp_end, f.eps)
        + ((f.delta, f.eps_to - f.eps) if f.eps_to is not None
           else (0.0, 0.0))
        for f, w in ((f, f.problem.window) for f in fields)]).T,
        sizes, axis=1)
    count = np.repeat(np.array([
        (0, k, 0, -1, 0, RUNNING, leg.max_steps, ATTEMPTS * leg.max_steps)
        for k, leg in enumerate(runs)]).T, sizes, axis=1)
    count[0] = np.arange(m)
    count[2] = count[0] - np.repeat(starts[:-1], sizes)
    on_path = np.repeat([f.eps_to is not None for f in fields], sizes)
    Y = np.concatenate([X, np.zeros((m, 1))], axis=1)
    K1 = np.empty((m, n + 1))
    S, h, f_max, f_min, lo, hi, s_cap, ramp_end, eps0, delta, deps = real
    idx, leg_of, local, target, steps, st, budget, cap = count

    near = [(np.zeros(shape, dtype=bool), np.full(shape, np.inf),
             np.full(shape, NEVER, dtype=np.int8)) for shape in (
                 (size, len(leg.targets)) for leg, size in zip(runs, sizes))]
    near_legs = [k for k, leg in enumerate(runs) if len(leg.targets)]
    paths = {r: [] for k, leg in enumerate(runs) if leg.record
             for r in range(starts[k], starts[k + 1])}
    rows_out: List[Optional[_RowResult]] = [None] * m

    def eps_at(St):
        """``_Field._eps`` of the running rows at St (rows on the last axis)."""
        t, slope = _ramp(delta * St)
        return (np.where(on_path, eps0 + t * deps, eps0),
                deps * (delta * slope))

    def plan(bounds):
        """(rows, metric, kernel, eps) of each problem with running rows."""
        return [(slice(bounds[k0], bounds[k1]), metric, jet1, fixed)
                for k0, k1, metric, jet1, fixed in groups
                if bounds[k0] < bounds[k1]]

    def stage(i, Xi, Ki, Fi=None):
        """_rates at the points Xi into Ki, eps from E[i] and C[i]."""
        for rs, metric, jet1, fixed in running:
            e, c, p = (fixed, None, None) if fixed is not None \
                else (E[i, rs], C[i, rs], on_path[rs])
            vf, vr = _rates(metric, jet1, Xi[rs], e, c, p, Ki[rs])
            if Fi is not None:
                Fi[rs] = vf + e * vr

    bounds = starts
    running = plan(bounds)
    with np.errstate(all="ignore"):
        # stage 1 (drift and energy rate) of the first step at (S, X)
        E, C = eps_at(S[None]) if timed else (None, None)
        stage(0, X, K1, f_max)
        f_min[:] = f_max
        h[:] = 1e-3 * (1.0 + np.linalg.norm(X, axis=1)) \
            / (1.0 + np.linalg.norm(K1[:, :n], axis=1))
        for r, path in paths.items():
            path.append(np.concatenate([[S[r]], X[r], [f_max[r]]]))

        it = 0
        cap_min = int(cap.min())
        while True:
            it += 1
            if it > cap_min:
                st[(st == RUNNING) & (cap < it)] = BUDGET
            if np.count_nonzero(st):
                for pos in st.nonzero()[0]:
                    r, j = idx[pos], local[pos]
                    _, near_min, near_side = near[leg_of[pos]]
                    rows_out[r] = _RowResult(
                        status=int(st[pos]), target=int(target[pos]),
                        s_end=float(S[pos]), x_end=Y[pos, :n].copy(),
                        e_aug=float(Y[pos, n]), f_max=float(f_max[pos]),
                        f_min=float(f_min[pos]), steps=int(steps[pos]),
                        near_min=near_min[j].copy(),
                        near_side=near_side[j].copy(),
                        samples=np.array(paths[r]) if r in paths else None)
                keep = st == RUNNING
                real, count, Y, K1, on_path = (real[:, keep], count[:, keep],
                                               Y[keep], K1[keep], on_path[keep])
                S, h, f_max, f_min, lo, hi, s_cap, ramp_end, eps0, delta, \
                    deps = real
                idx, leg_of, local, target, steps, st, budget, cap = count
                if not idx.size:
                    break
                bounds = np.searchsorted(idx, starts).tolist()
                running = plan(bounds)

            # eps at stages 2..7, worked out once per step
            E, C = eps_at(S + _DP_C[1:, None] * h) if timed else (None, None)

            # P[0] is the start (X, e) of the step and P[j + 1] the
            # weighted stage j, so a stage input, Y5 and Y4 are each one
            # sum over P's first axis (see the docstring)
            hW = _DP_W[:, :, None] * h
            P = np.empty((8,) + Y.shape)
            P[0] = Y
            K = np.empty((7,) + Y.shape)
            K[0] = K1
            F7 = np.empty(len(Y))
            for i in range(1, 7):
                np.multiply(hW[i, :i, :, None], K[:i], out=P[1:i + 1])
                xi = np.add.reduce(P[:i + 1], axis=0)
                # _DP_A[6] == _DP_B5[:6] and _DP_C[6] == 1: stage 7 sits
                # at the accepted point, where F is read
                stage(i - 1, xi[:, :n], K[i], F7 if i == 6 else None)

            np.multiply(hW[7, :, :, None], K, out=P[1:])
            Y5 = np.add.reduce(P, axis=0)
            np.multiply(hW[8, :, :, None], K, out=P[1:])
            Y4 = np.add.reduce(P, axis=0)

            scale = RTOL * (1.0 + np.abs(Y5).max(axis=1))
            err = np.abs(Y5 - Y4).max(axis=1) / scale
            err = np.where(np.isfinite(err), err, np.inf)
            accept = err <= 1.0

            # a finite error means every stage is finite, so the zero
            # weights of stage 7 add exact zeros and it is the next K1
            np.copyto(Y, Y5, where=accept[:, None])
            np.copyto(K1, K[6], where=accept[:, None])
            np.add(S, h, out=S, where=accept)
            steps += accept
            np.maximum(f_max, F7, out=f_max, where=accept)
            np.minimum(f_min, F7, out=f_min, where=accept)
            for pos in accept.nonzero()[0] if paths else ():
                if idx[pos] in paths:
                    paths[idx[pos]].append(np.concatenate(
                        [[S[pos]], Y[pos, :n], [F7[pos]]]))

            st[accept & (F7 < lo)] = EXIT_BELOW
            st[accept & (F7 > hi)] = EXIT_ABOVE
            alive = accept & (st == RUNNING)
            for k in near_legs:
                live = alive[bounds[k]:bounds[k + 1]].nonzero()[0] + bounds[k]
                if live.size:
                    for p, t in _near_passes(
                            runs[k].targets, local[live], Y[live, :n],
                            S[live] >= ramp_end[live], *near[k]).items():
                        st[live[p]], target[live[p]] = ARRIVED, t
            over = (steps >= budget) | (S > s_cap)
            st[accept & over & (st == RUNNING)] = BUDGET

            grow = 0.9 * np.maximum(err, 1e-16) ** -0.2
            # grow is never nan or -0.0, so min/max clip it as np.clip does
            h *= np.minimum(np.maximum(grow, 0.2), 5.0)
            st[(h < STEP_FLOOR) & (st == RUNNING)] = COLLAPSE

    for k, j in enumerate(order):
        out[j] = rows_out[starts[k]:starts[k + 1]]
    return out
