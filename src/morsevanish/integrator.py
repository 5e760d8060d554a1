"""The Dormand-Prince integrator behind ``flow``: legs in one loop.

The right side is -grad_g F of F(x, s) = f + eps(s)/tau, with eps fixed or
on the delta-slow ramp of the ``flow`` docstring, and each row carries the
energy state e besides x.  Dormand-Prince 5(4) keeps its last stage, which
sits at the accepted point (first same as last, FSAL), as the next step's
first, so an attempted step costs six field evaluations.  That cost is
mostly per step of the loop, not per row, so ``_integrate`` runs *legs*,
each one field (problem, eps, and eps_to and delta on a path) with its
start rows, targets and step budget, all in one loop: every stage makes
one jet1 call per problem over the running rows of all legs on it, and
the eps of an eps path at a step's stage times is worked out once per
step.  Every row's result is bit for bit what it is when its leg runs
alone.
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
# flow time a row may run past the end of the ramp before it is out of budget
S_TAIL = 400.0


def _ramp(s):
    """gamma and d gamma / ds at s: the C^1 smoothstep clamped to 0 for
    s <= -1 and to 1 for s >= +1, from one clamped u = (s + 1) / 2 (the
    max/min pair clamps like np.clip: u is never -0.0, nan stays nan)."""
    u = np.minimum(np.maximum((np.asarray(s, dtype=float) + 1.0) / 2.0, 0.0),
                   1.0)
    return u * u * (3.0 - 2.0 * u), 3.0 * u * (1.0 - u)


def _rates(metric, tape, X: np.ndarray, e, corr=None, path=None):
    """(drift, F values, energy rate) at the rows X for F = f + e/tau, from
    one jet1 call; e is one float or one value per row.  On an eps path
    corr is the rows' (eps_to - eps) delta gamma'(delta s), which enters
    the energy rate only at the rows of the mask ``path`` when one is
    given."""
    jets = tape.jet1(X)
    (vf, gf), (vr, gr) = jets[:2]
    vals = vf + e * vr
    grads = gf + (e[:, None] if isinstance(e, np.ndarray) else e) * gr
    w = apply_inverse(metric, jets[2:], grads)
    erate = 2.0 * np.einsum("ij,ij->i", grads, w)
    if corr is not None:
        np.subtract(erate, 2.0 * (corr * vr), out=erate,
                    where=True if path is None else path)
    return -w, vals, erate


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
        """eps at the flow times S, and delta gamma'(delta S) with it; a
        float and None when eps is fixed."""
        if self.eps_to is None:
            return self.eps, None
        t, slope = _ramp(self.delta * np.asarray(S, dtype=float))
        return self.eps + t * (self.eps_to - self.eps), self.delta * slope

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
        e, ramp = self._eps(S)
        return _rates(self.problem.metric, self.tape, X, e,
                      None if ramp is None else (self.eps_to - self.eps) * ramp)


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


class _Group:
    """The legs on one problem, rows [lo, hi) of a batch, the tape of the
    first, and the eps of their fields: one float (``fixed``) when they
    all run at one fixed eps, else one per row, on a ramp at the rows of
    an eps path (``path``)."""

    def __init__(self, legs: Sequence[_Leg], lo: int):
        fields = [leg.field for leg in legs]
        sizes = [len(leg.X0) for leg in legs]
        self.metric, self.tape = fields[0].problem.metric, fields[0].tape
        self.lo, self.hi = lo, lo + sum(sizes)
        self.path = np.repeat([f.eps_to is not None for f in fields], sizes)
        self.eps = np.repeat([f.eps for f in fields], sizes)
        ramped = [f if f.eps_to is not None else None for f in fields]
        self.delta = np.repeat([f.delta if f else 0.0 for f in ramped], sizes)
        self.deps = np.repeat([f.eps_to - f.eps if f else 0.0
                               for f in ramped], sizes)
        one = not self.path.any() and len({f.eps.hex() for f in fields}) == 1
        self.fixed = fields[0].eps if one else None

    def eps_at(self, rows, St):
        """(eps, ramp term, its row mask), the last three arguments of
        _rates, for the group's ``rows`` of the batch at their flow times
        St (rows on the last axis); rows off a path keep their eps."""
        if self.fixed is not None:
            return self.fixed, None, None
        sel = rows - self.lo
        e, d, de = self.eps[sel], self.delta[sel], self.deps[sel]
        t, slope = _ramp(d * St)
        p = self.path[sel]
        return np.where(p, e + t * de, e), de * (d * slope), p


def _integrate(legs: Sequence[_Leg]) -> List[List[_RowResult]]:
    """Integrate every row of every leg until it terminates; returns the
    row results of each leg, in leg order.

    Near-pass sides are tracked from launch on (the classification frames
    belong to the end-of-path function, but adjacent family members getting
    the same spurious label cancels in flip counting).  Arrival only fires
    after the ramp, once the field actually is the end function.  Value
    exits terminate a row at a - sigma (below) or b + sigma (above) at any
    time.  Targets, window cuts, step budgets and the cap of 60 attempts
    per budgeted step stay per leg, and each stage makes one jet1 call per
    problem over the running rows of all legs on it, so every row comes
    out bit for bit as it does when its leg runs alone.  The legs must
    share the dimension of their problems.

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
    sizes = [len(leg.X0) for leg in runs]
    starts = np.cumsum([0] + sizes)
    m = int(starts[-1])
    out: List[List[_RowResult]] = [[] for _ in legs]
    if not m:
        return out
    groups = []
    for js in by_problem.values():
        groups.append(_Group([legs[j] for j in js],
                             groups[-1].hi if groups else 0))
    group_starts = np.array([g.lo for g in groups] + [m])
    # the stage times are read only where eps is given per row
    timed = any(g.fixed is None for g in groups)
    X = np.concatenate([np.asarray(leg.X0, dtype=float) for leg in runs])
    n = X.shape[1]

    # the integrated state (x, e) of each row, one array so that a step
    # reads and writes it whole
    Y = np.concatenate([X, np.zeros((m, 1))], axis=1)
    S = np.repeat([leg.field.ramp_start for leg in runs], sizes)
    status = np.full(m, RUNNING)
    target_of = np.full(m, -1)
    steps = np.zeros(m, dtype=int)
    # a row may attempt 60 steps per step of its budget
    cap = np.repeat([60 * leg.max_steps for leg in runs], sizes)
    near = [(np.full((size, len(leg.targets)), np.inf),
             np.full((size, len(leg.targets)), NEVER, dtype=np.int8),
             np.zeros((size, len(leg.targets)), dtype=bool))
            for leg, size in zip(runs, sizes)]
    paths = [[[] for _ in range(size)] if leg.record else None
             for leg, size in zip(runs, sizes)]

    # stage 1 (drift and energy rate) of the next step at each row's (S, X)
    K1 = np.empty((m, n + 1))
    F0 = np.empty(m)
    for g in groups:
        d, F0[g.lo:g.hi], K1[g.lo:g.hi, n] = _rates(
            g.metric, g.tape, X[g.lo:g.hi],
            *g.eps_at(np.arange(g.lo, g.hi), S[g.lo:g.hi]))
        K1[g.lo:g.hi, :n] = d
    f_max = F0.copy()
    f_min = F0.copy()
    h = 1e-3 * (1.0 + np.linalg.norm(X, axis=1)) \
        / (1.0 + np.linalg.norm(K1[:, :n], axis=1))
    for k, leg in enumerate(runs):
        if leg.record:
            for r in range(starts[k], starts[k + 1]):
                paths[k][r - starts[k]].append(
                    np.concatenate([[S[r]], X[r], [F0[r]]]))

    it = 0
    cap_min = int(cap.min())
    while True:
        it += 1
        if it > cap_min:
            status[(status == RUNNING) & (cap < it)] = BUDGET
        rows = np.flatnonzero(status == RUNNING)
        if not rows.size:
            break
        Sa, ha = S[rows], h[rows]
        kk = len(rows)

        # each group's running rows [p0, p1) of ``rows`` and their eps at
        # stages 1..6, worked out once per step
        bounds = np.searchsorted(rows, group_starts)
        Si = Sa + _DP_C[:, None] * ha if timed else None
        plan = []
        for g, p0, p1 in zip(groups, bounds[:-1], bounds[1:]):
            if p0 == p1:
                continue
            if g.fixed is None:
                E, corr, mask = g.eps_at(rows[p0:p1], Si[1:, p0:p1])
                stages = [(E[i], corr[i], mask) for i in range(6)]
            else:
                stages = [(g.fixed, None, None)] * 6
            plan.append((g, p0, p1, stages))

        # P[0] is the start (X, e) of the step and P[j + 1] the weighted
        # stage j, so a stage input, Y5 and Y4 are each one sum over P's
        # first axis (see the docstring)
        hW = _DP_W[:, :, None] * ha
        P = np.empty((8, kk, n + 1))
        P[0] = Y[rows]
        K = np.empty((7, kk, n + 1))
        K[0] = K1[rows]
        F7 = np.empty(kk)
        for i in range(1, 7):
            np.multiply(hW[i, :i, :, None], K[:i], out=P[1:i + 1])
            xi = np.add.reduce(P[:i + 1], axis=0)
            for g, p0, p1, stages in plan:
                d, F, K[i, p0:p1, n] = _rates(
                    g.metric, g.tape, xi[p0:p1, :n], *stages[i - 1])
                K[i, p0:p1, :n] = d
                if i == 6:
                    F7[p0:p1] = F

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

            cuts = np.searchsorted(acc, starts)
            for k, leg in enumerate(runs):
                a0, a1 = cuts[k], cuts[k + 1]
                if a0 == a1:
                    continue
                lo, hi = starts[k], starts[k + 1]
                accL, FvL = acc[a0:a1], Fv[a0:a1]
                if leg.record:
                    for pos, r in enumerate(accL):
                        paths[k][r - lo].append(np.concatenate(
                            [[S[r]], Y[r, :n], [FvL[pos]]]))

                w = leg.field.problem.window
                status[accL[FvL < w.a - w.sigma]] = EXIT_BELOW
                status[accL[FvL > w.b + w.sigma]] = EXIT_ABOVE

                live = accL[status[accL] == RUNNING] if len(leg.targets) \
                    else accL[:0]
                if live.size:
                    near_min, near_side, inside = near[k]
                    _near_passes(leg.targets, live - lo, Y[live, :n],
                                 S[live] >= leg.field.ramp_end, inside,
                                 near_min, near_side, status[lo:hi],
                                 target_of[lo:hi])

                over = (steps[accL] >= leg.max_steps) \
                    | (S[accL] > leg.field.ramp_end + S_TAIL)
                status[accL[over & (status[accL] == RUNNING)]] = BUDGET

        grow = 0.9 * np.maximum(err, 1e-16) ** -0.2
        # grow is never nan or -0.0, so min/max clip it as np.clip does
        ha = ha * np.minimum(np.maximum(grow, 0.2), 5.0)
        h[rows] = ha
        collapse = (ha < STEP_FLOOR) & (status[rows] == RUNNING)
        status[rows[collapse]] = COLLAPSE

    for k, leg in enumerate(runs):
        near_min, near_side, _ = near[k]
        lo = starts[k]
        out[order[k]] = [_RowResult(
            status=int(status[r]), target=int(target_of[r]),
            s_end=float(S[r]), x_end=Y[r, :n].copy(), e_aug=float(Y[r, n]),
            f_max=float(f_max[r]), f_min=float(f_min[r]),
            steps=int(steps[r]),
            near_min=near_min[r - lo].copy(),
            near_side=near_side[r - lo].copy(),
            samples=np.array(paths[k][r - lo]) if leg.record else None)
            for r in range(lo, starts[k + 1])]
    return out
