"""Critical points of f_eps: search, certification, and sweeps over eps.

The solver runs damped Newton from a batch of low-discrepancy starts, then
certifies each surviving point with a Newton-Kantorovich test so that the
reported locations come with a radius inside which the true critical point
is pinned down.  Every start runs on its own: its step length comes from
its own backtracking line search, it is done the moment its gradient norm
drops below the tolerance, and it retires (counted in ``n_dead``) once six
iterations pass without halving its best gradient norm.  A start's
iterates therefore never depend on which other starts share the batch, and
starts that go nowhere stop costing work early.  Downstream stages lean on
three facts established here:

* the Morse index is read off the metric Hessian pencil H v = w G v, whose
  signature matches the plain Hessian's, so the index never depends on the
  metric choice;
* each point carries a G-orthonormal eigenframe with a fixed orientation
  (first meaningful component positive), which is what the flow counting
  uses to sign its ends;
* sweeps classify critical values into bounded and divergent families as
  eps drops, and estimate the action window from the gap between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, MorsificationFailed
from .expr import (Const, Expression, Product, Sum, Tape, Var, as_fraction,
                   compile, eval_values)
from .metric import metric_batch
from .problem import ProblemSpec, perturbed_function

__all__ = ["CriticalPoint", "CriticalSet", "canonical_key",
           "find_critical_points",
           "certify_root", "morsify", "halton_points",
           "default_starts", "oriented_pencil_eigs", "sweep_epsilon",
           "sweep_theta", "SweepReport", "ValueChain", "ThetaSweepReport"]

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

DEGENERACY_RTOL = 1e-6
DRIFT_TAU = 1e-6


def default_starts(n: int) -> int:
    """17 per axis up to a cap that keeps 4D batches tractable."""
    return min(17 ** n, 4096)


def halton_points(m: int, n: int, skip: int = 20) -> np.ndarray:
    """The Halton sequence in [0,1)^n, one prime base per axis, from
    index ``skip`` on."""
    if n > len(_PRIMES):
        raise ValueError(f"halton_points supports up to {len(_PRIMES)} axes")
    if skip < 0:
        # a negative index never enters the digit loop: every point is 0
        raise ValueError(f"halton_points needs skip >= 0, got {skip}")
    idx = np.arange(skip, skip + m, dtype=np.int64)
    out = np.empty((m, n))
    for j in range(n):
        b = _PRIMES[j]
        i = idx.copy()
        r = np.zeros(m)
        f = 1.0
        while np.any(i > 0):
            f /= b
            r += f * (i % b)
            i //= b
        out[:, j] = r
    return out


def _axis_basis(B: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The G-orthonormal basis of span(B) that the coordinate axes give.

    B's columns are G-orthonormal.  Each axis in turn is G-projected onto
    their span (B B^T G e_i), which does not depend on which basis B is,
    and G-orthogonalized against the vectors already taken; one whose
    remainder is below DEGENERACY_RTOL of its own G-length is skipped.
    A projection within DEGENERACY_RTOL of its axis is the axis exactly,
    so an eigenspace spanned by axes gets the (G-normalized) identity
    with no rounding left off the axes.
    """
    out: List[np.ndarray] = []
    axes = np.eye(len(G))
    for i in range(len(G)):
        v = B @ (B.T @ G[:, i])
        if np.linalg.norm(v - axes[i]) <= DEGENERACY_RTOL:
            v = axes[i]
        for q in out:
            v = v - q * (q @ G @ v)
        norm = math.sqrt(max(float(v @ G @ v), 0.0))
        if norm > DEGENERACY_RTOL * math.sqrt(G[i, i]):
            out.append(v / norm)
            if len(out) == B.shape[1]:
                break
    return np.stack(out, axis=1)


def oriented_pencil_eigs(H: np.ndarray, G: np.ndarray):
    """Eigenpairs of H v = w G v with a G-orthonormal, oriented basis.

    Columns of the returned V are ordered by ascending eigenvalue and
    flipped so the first component above noise level is positive; this
    pins down the orientation conventions used when counting flow lines.
    Inside a repeated eigenvalue (neighbours closer than DEGENERACY_RTOL
    of the largest magnitude) the solver's basis is arbitrary, so
    ``_axis_basis`` replaces it.
    """
    L = np.linalg.cholesky(G)
    Linv = np.linalg.inv(L)
    A = Linv @ H @ Linv.T
    w, Y = np.linalg.eigh(0.5 * (A + A.T))
    V = Linv.T @ Y
    scale = max(1.0, float(np.max(np.abs(w))))
    cuts = np.flatnonzero(np.diff(w) >= DEGENERACY_RTOL * scale) + 1
    for block in np.split(np.arange(len(w)), cuts):
        if len(block) > 1:
            V[:, block] = _axis_basis(V[:, block], G)
    for k in range(V.shape[1]):
        col = V[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-9 * np.linalg.norm(col))
        if nz.size and col[nz[0]] < 0:
            V[:, k] = -col
    return w, V


@dataclass(frozen=True)
class CriticalPoint:
    location: np.ndarray
    value: float
    index: int
    eigenvalues: np.ndarray      # of the metric Hessian pencil, ascending
    frame: np.ndarray            # G-orthonormal eigenvectors as columns
    grad_norm: float
    certificate_radius: float    # nan when the Kantorovich test failed
    degenerate: bool
    window_status: str
    tau_value: float
    drifting: bool               # tau below DRIFT_TAU: escaping toward an end

    @property
    def certified(self) -> bool:
        return math.isfinite(self.certificate_radius)

    @property
    def in_window(self) -> bool:
        """Whether the point is a generator of the window complex."""
        return self.window_status == "inside" and not self.drifting

    def summary(self) -> dict:
        return {
            "location": [float(v) for v in self.location],
            "value": self.value,
            "index": self.index,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "grad_norm": self.grad_norm,
            "certificate_radius": self.certificate_radius,
            "degenerate": self.degenerate,
            "window_status": self.window_status,
            "tau": self.tau_value,
            "drifting": self.drifting,
        }

    def record(self) -> dict:
        """The summary plus the frame: everything ``from_record`` needs."""
        return {**self.summary(), "frame": self.frame.tolist()}

    @classmethod
    def from_record(cls, rec: dict) -> CriticalPoint:
        """The point a ``record()`` describes; a float field may also be
        one of the strings "inf", "-inf" and "nan"."""
        return cls(np.array(rec["location"], dtype=float),
                   float(rec["value"]), int(rec["index"]),
                   np.array(rec["eigenvalues"], dtype=float),
                   np.array(rec["frame"], dtype=float),
                   float(rec["grad_norm"]), float(rec["certificate_radius"]),
                   bool(rec["degenerate"]), str(rec["window_status"]),
                   float(rec["tau"]), bool(rec["drifting"]))


@dataclass(frozen=True)
class CriticalSet:
    problem: str
    eps: float
    points: Tuple[CriticalPoint, ...]
    n_starts: int
    n_converged: int
    n_dead: int

    def inside_window(self) -> Tuple[CriticalPoint, ...]:
        return tuple(p for p in self.points if p.in_window)


_RETIRE_AFTER = 6      # iterations a Newton row gets to halve its best |grad|
_TRIES = 5             # step lengths 1, 1/2, ..., 1/16 of the capped step
_RESIDUAL_TOL = 1e-10  # |grad| below which a Newton row has converged
_MAX_ITER = 80         # Newton iterations per solve


def _newton_steps(g: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Newton steps H^-1 g, row by row where a Hessian is singular.

    A singular row is shifted by a tiny multiple of the identity; a row
    whose step is still not finite falls back to the gradient itself.
    """
    n = g.shape[1]
    try:
        step = np.linalg.solve(H, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.empty_like(g)
        for r in range(len(g)):
            try:
                step[r] = np.linalg.solve(H[r], g[r])
            except np.linalg.LinAlgError:
                mu = 1e-8 * (1.0 + float(np.abs(H[r]).max()))
                step[r] = np.linalg.solve(H[r] + mu * np.eye(n), g[r])
    nan_step = ~np.isfinite(step).all(axis=1)
    step[nan_step] = g[nan_step]
    return step


def _step_cap(domain, x: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Per-row full step length along -step: 1, or half the distance to a
    finite domain end when that is shorter (fraction to the boundary)."""
    cap = np.ones(len(x))
    for i, (lo, hi) in enumerate(domain.intervals):
        move = -step[:, i]
        if math.isfinite(lo):
            down = move < 0
            cap[down] = np.minimum(cap[down],
                                   0.5 * (x[down, i] - lo) / -move[down])
        if math.isfinite(hi):
            up = move > 0
            cap[up] = np.minimum(cap[up], 0.5 * (hi - x[up, i]) / move[up])
    return cap


def _backtrack(tape: Tape, domain, x: np.ndarray, step: np.ndarray,
               base_gn: np.ndarray):
    """Per-row backtracking along -step: the accepted points and their |grad|.

    Each row's first try is its full step, capped by `_step_cap`; each
    further try halves it.  Each try evaluates only the rows that have not
    yet beaten their own base_gn.  A row stops at its first improving step
    length; a row that never improves keeps the best of its tries (the
    first one if every try is non-finite).
    """
    best_X = np.empty_like(x)
    best_gn = np.full(len(x), np.inf)
    todo = np.arange(len(x))
    t = _step_cap(domain, x, step)
    for k in range(_TRIES):
        cand = domain.clamp_to_interior(x[todo] - t[todo, None] * step[todo])
        (_, gc), = tape.jet1(cand)
        cn = np.linalg.norm(gc, axis=1)
        cn = np.where(np.isfinite(cn), cn, np.inf)
        take = (cn < best_gn[todo]) | (k == 0)
        best_X[todo[take]] = cand[take]
        best_gn[todo[take]] = cn[take]
        todo = todo[~(cn < base_gn[todo])]
        if todo.size == 0:
            break
        t *= 0.5
    return best_X, best_gn


def _newton_batch(fe: Expression, names, domain, X0: np.ndarray,
                  tol: float, max_iter: int):
    """Damped Newton on the gradient; each row runs on its own.

    An iteration evaluates one Hessian per working row, takes the Newton
    step and backtracks per row (`_backtrack`).  A row is done as soon as
    its accepted point has |grad| < tol: the jet1 gradient found there is
    bit for bit the one the next Hessian evaluation would give.  A row that
    is not done retires when _RETIRE_AFTER iterations pass without halving
    its best |grad| (which starts at its first norm), when its gradient is
    not finite, or when it strays beyond the leash.  No row's iterates
    depend on which other rows share the batch.

    Returns (X, done mask, retired mask, |grad| at X).
    """
    tape = compile((fe,), names)
    X = domain.clamp_to_interior(np.array(X0, dtype=float))
    m = len(X)
    alive = np.ones(m, dtype=bool)
    done = np.zeros(m, dtype=bool)
    gnorm = np.full(m, np.inf)
    best = None                        # |grad| at each row's last halving
    age = np.zeros(m, dtype=np.int64)  # iterations since that halving
    leash = 50.0 * max(hi - lo for lo, hi in domain.box)
    center = np.array([(lo + hi) / 2 for lo, hi in domain.box])

    for _ in range(max_iter):
        idx = np.flatnonzero(alive & ~done)
        if idx.size == 0:
            break
        (_, g, H), = tape.jet2(X[idx])
        gn = np.linalg.norm(g, axis=1)
        bad = ~np.isfinite(gn)
        alive[idx[bad]] = False
        hit = ~bad & (gn < tol)
        done[idx[hit]] = True
        gnorm[idx] = np.where(bad, np.inf, gn)
        if best is None:
            best = gnorm.copy()

        work = ~bad & ~hit
        rows = idx[work]
        if rows.size == 0:
            continue
        step = _newton_steps(g[work], H[work])
        X[rows], gnorm[rows] = _backtrack(tape, domain, X[rows], step,
                                          gnorm[rows])
        done[rows[gnorm[rows] < tol]] = True
        halved = gnorm[rows] < 0.5 * best[rows]
        best[rows[halved]] = gnorm[rows[halved]]
        age[rows] = np.where(halved, 0, age[rows] + 1)
        rows = rows[~done[rows]]
        far = np.linalg.norm(X[rows] - center, axis=1) > leash
        alive[rows[(age[rows] >= _RETIRE_AFTER) | far]] = False

    return X, done, ~alive, gnorm


def certify_root(tape: Tape, x: np.ndarray, g: np.ndarray,
                 H: np.ndarray) -> float:
    """Newton-Kantorovich radius around x for the gradient g and Hessian
    H at x of the expression in ``tape`` (``compile((f_eps,), names)``),
    or nan if the test fails.

    With beta = |H^-1|, eta = |H^-1 g| and L a sampled Lipschitz bound for
    the Hessian, h = beta*L*eta <= 1/2 certifies a unique root within
    rho = (1 - sqrt(1 - 2h)) / (beta*L) of x.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    try:
        Hinv = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        return float("nan")
    beta = float(np.linalg.norm(Hinv, 2))
    eta = float(np.linalg.norm(Hinv @ g, 2))
    h = 1e-4 * (1.0 + float(np.linalg.norm(x)))
    probes = np.vstack([x + h * np.eye(n), x - h * np.eye(n)])
    (_, _, Hs), = tape.jet2(probes)
    if not np.isfinite(Hs).all():
        return float("nan")
    L = 0.0
    for i in range(n):
        L = max(L, float(np.linalg.norm(Hs[i] - Hs[n + i], 2)) / (2 * h))
    L *= 2.0  # sampled slopes underestimate the true Lipschitz constant
    hk = beta * L * eta
    if not math.isfinite(hk) or hk > 0.5:
        return float("nan")
    if L * beta < 1e-300:
        rho = eta
    else:
        rho = (1.0 - math.sqrt(max(0.0, 1.0 - 2.0 * hk))) / (beta * L)
        if hk == 0.0:
            rho = eta
    rho = max(rho, 1e-13)
    return min(rho, 1e-2 * (1.0 + float(np.linalg.norm(x))))


def _collapse(X: np.ndarray, gnorm: np.ndarray, tol: float):
    """Group converged iterates landing on the same point; keep best rep.

    Rows are taken by ascending |grad| (a stable sort), and a row is a
    representative exactly when no earlier representative lies within tol
    of it.  So each round takes the first row left as a representative and
    drops, in one array operation, every row left within tol of it.
    """
    left = np.argsort(gnorm, kind="stable")
    reps: List[int] = []
    while left.size:
        i = int(left[0])
        reps.append(i)
        left = left[np.linalg.norm(X[left] - X[i], axis=1) > tol]
    return reps


def canonical_key(p: CriticalPoint):
    """The order of found points, and of a complex's generators in each
    degree: by value, then by coordinates, both rounded."""
    return (round(p.value, 12), tuple(np.round(p.location, 9)))


def find_critical_points(problem: ProblemSpec, eps: float,
                         n_starts: Optional[int] = None, seed: int = 0,
                         extra_starts: Optional[np.ndarray] = None
                         ) -> CriticalSet:
    """Locate, deduplicate and certify the critical points of f_eps.  When
    no start converges the set is empty.

    The starts are Halton points from index 20 + 97*seed on; a seed that
    is negative or puts the last index past int64 raises ConfigError.
    """
    n = problem.domain.dimension
    m = default_starts(n) if n_starts is None else int(n_starts)
    skip = 20 + 97 * seed
    if seed < 0 or skip + m > np.iinfo(np.int64).max:
        raise ConfigError(f"seed must be >= 0 and keep 20 + 97*seed + {m} "
                          f"within int64, got {seed}")
    lo = np.array([b[0] for b in problem.domain.box])
    hi = np.array([b[1] for b in problem.domain.box])
    U = halton_points(m, n, skip=skip)
    X0 = lo + U * (hi - lo)
    if extra_starts is not None and len(extra_starts):
        X0 = np.vstack([X0, np.atleast_2d(np.asarray(extra_starts, dtype=float))])

    names = problem.variables
    fe = perturbed_function(problem, eps)
    tape = compile((fe,), names)  # the one Newton compiles too
    X, done, dead, gnorm = _newton_batch(fe, names, problem.domain, X0,
                                         _RESIDUAL_TOL, _MAX_ITER)
    hits = np.flatnonzero(done)
    if hits.size == 0:
        return CriticalSet(problem.name, eps, (), len(X0), 0, int(dead.sum()))

    span = float(np.max(hi - lo))
    rep_rows = [hits[j] for j in _collapse(X[hits], gnorm[hits], 1e-7 * (1 + span))]

    # certify representatives, then merge any whose balls overlap
    (v, g, H), = tape.jet2(X[rep_rows])
    at = {i: k for k, i in enumerate(rep_rows)}
    radii = {i: certify_root(tape, X[i], g[k], H[k]) for i, k in at.items()}
    merged: List[int] = []
    for i in sorted(rep_rows, key=lambda r: gnorm[r]):
        ri = radii[i] if math.isfinite(radii[i]) else 1e-7 * (1 + span)
        dup = False
        for j in merged:
            rj = radii[j] if math.isfinite(radii[j]) else 1e-7 * (1 + span)
            if np.linalg.norm(X[i] - X[j]) < 10.0 * max(ri, rj):
                dup = True
                break
        if not dup:
            merged.append(i)

    Gs = metric_batch(problem.metric, problem.tau, names, X[merged],
                      certify=True)
    taus = eval_values(problem.tau, X[merged], names)
    points = []
    for i, G, tau_v in zip(merged, Gs, taus.tolist()):
        x = X[i]
        val = float(v[at[i]])
        w, V = oriented_pencil_eigs(H[at[i]], G)
        scale = max(1.0, float(np.max(np.abs(w))))
        degenerate = float(np.min(np.abs(w))) < DEGENERACY_RTOL * scale
        points.append(CriticalPoint(
            location=x.copy(),
            value=val,
            index=int(np.sum(w < 0)),
            eigenvalues=w,
            frame=V,
            grad_norm=float(gnorm[i]),
            certificate_radius=radii[i],
            degenerate=degenerate,
            window_status=problem.window.status(val),
            tau_value=tau_v,
            drifting=tau_v < DRIFT_TAU,
        ))
    points.sort(key=canonical_key)
    return CriticalSet(problem.name, eps, tuple(points), len(X0),
                       int(done.sum()), int(dead.sum()))


_TILT = 1e-6        # size of morsify's first tilt; each retry doubles it
_TILT_ATTEMPTS = 8


def morsify(problem: ProblemSpec, eps: float) -> ProblemSpec:
    """Tilt f by a small random linear term until every window critical
    point is nondegenerate.  Returns the tilted problem; raises
    MorsificationFailed when the attempt budget runs out."""
    rng = np.random.default_rng(0)
    names = problem.variables
    base = find_critical_points(problem, eps)
    if all(not p.degenerate for p in base.inside_window()):
        return problem
    for k in range(_TILT_ATTEMPTS):
        c = rng.standard_normal(len(names))
        c *= _TILT * (2.0 ** k) / np.linalg.norm(c)
        tilt = tuple(Product((Const(as_fraction(float(ci))), Var(nm)))
                     for ci, nm in zip(c, names))
        tilted = problem.with_f(Sum((problem.f,) + tilt),
                                note=f"tilted by {_TILT * 2.0 ** k:.2g} "
                                     "to split degeneracy")
        cs = find_critical_points(tilted, eps)
        if cs.points and all(not p.degenerate for p in cs.inside_window()):
            return tilted
    raise MorsificationFailed(
        f"degenerate critical points survived {_TILT_ATTEMPTS} random tilts")


# ---------------------------------------------------------------------------
# sweeps over eps (and over theta for realified polynomials)


@dataclass
class ValueChain:
    """One critical point tracked across the eps grid."""
    ident: int
    entries: List[Tuple[float, float, Tuple[float, ...]]]  # (eps, value, location)
    kind: str = "short"
    exponent: float = float("nan")
    coefficient: float = float("nan")

    def values(self):
        return [v for _, v, _ in self.entries]


@dataclass(frozen=True)
class SweepReport:
    problem: str
    eps_grid: Tuple[float, ...]
    rows: Tuple[dict, ...]            # one per eps, with point summaries
    chains: Tuple[ValueChain, ...]
    lambda_est: float
    Lambda_est: float
    sigma_est: float
    eps0: float                       # nan when no admissible eps exists
    separation: Tuple[Tuple[float, bool], ...]
    verdict: str


def _fit_divergence(entries) -> Tuple[float, float]:
    """Least-squares fit |v| ~ c * eps^-k on the small-eps tail."""
    tail = sorted(entries)[:max(3, len(entries) // 2)]
    xs = np.log([e for e, _, _ in tail])
    ys = np.log([abs(v) + 1e-300 for _, v, _ in tail])
    k, logc = np.polyfit(xs, ys, 1)
    return float(-k), float(math.exp(logc))


def _classify_chain(ch: ValueChain) -> None:
    """Divergent means |v| keeps climbing as eps drops and has cleared the
    value seen at the top of the grid by a wide factor; everything else on
    a 3+ point chain counts as bounded.  Slowly divergent values need a
    deep enough grid to show themselves."""
    if len(ch.entries) < 3:
        ch.kind = "short"
        return
    vs = [abs(v) for _, v, _ in sorted(ch.entries)]   # ascending eps
    if vs[0] > 5.0 * max(1.0, vs[-1]) and vs[0] >= 0.9 * max(vs):
        ch.kind = "divergent"
        ch.exponent, ch.coefficient = _fit_divergence(ch.entries)
    else:
        ch.kind = "bounded"


def sweep_epsilon(problem: ProblemSpec, eps_grid: Sequence[float],
                  n_starts: Optional[int] = None, seed: int = 0) -> SweepReport:
    """Track critical values over a descending eps grid and split them into
    a bounded family and a divergent family, then place the action window
    in the gap.

    The returned eps0 is the largest grid value from which the separation
    holds all the way down; nan means the grid never separates.
    """
    grid = sorted({float(e) for e in eps_grid}, reverse=True)
    if not grid or grid[-1] <= 0:
        raise ValueError("eps grid must be positive")

    span = max(hi - lo for lo, hi in problem.domain.box)
    chains: List[ValueChain] = []
    open_chain: Dict[int, ValueChain] = {}   # index into previous point list
    rows = []
    prev_pts: List[CriticalPoint] = []

    for eps in grid:
        extra = np.array([p.location for p in prev_pts]) if prev_pts else None
        cs = find_critical_points(problem, eps, n_starts=n_starts, seed=seed,
                                  extra_starts=extra)
        pts = list(cs.points)
        rows.append({
            "eps": eps,
            "points": [p.summary() for p in pts],
            "n_converged": cs.n_converged,
        })

        next_open: Dict[int, ValueChain] = {}
        used = set()
        if prev_pts:
            pairs = sorted(
                (np.linalg.norm(p.location - q.location), i, j)
                for i, p in enumerate(prev_pts) for j, q in enumerate(pts))
            for dist, i, j in pairs:
                if i in open_chain and j not in used and dist < 0.5 * span:
                    vi = open_chain[i].entries[-1][1]
                    vj = pts[j].value
                    if abs(vi - vj) <= 0.25 * (1.0 + max(abs(vi), abs(vj))) or \
                       abs(vj) > abs(vi):
                        ch = open_chain.pop(i)
                        ch.entries.append((eps, vj, tuple(pts[j].location)))
                        next_open[j] = ch
                        used.add(j)
        for j, q in enumerate(pts):
            if j not in used:
                ch = ValueChain(len(chains), [(eps, q.value, tuple(q.location))])
                chains.append(ch)
                next_open[j] = ch
        open_chain = next_open
        prev_pts = pts

    for ch in chains:
        _classify_chain(ch)

    bounded = [ch for ch in chains if ch.kind == "bounded"]
    divergent = [ch for ch in chains if ch.kind == "divergent"]
    sup_b = max((abs(v) for ch in bounded for v in ch.values()), default=0.0)
    lambda_est = max(1.0, 1.25 * sup_b)

    def inf_d(eps):
        vals = [abs(v) for ch in divergent for e, v, _ in ch.entries if e == eps]
        return min(vals) if vals else float("inf")

    separation = tuple((eps, inf_d(eps) > 2.0 * lambda_est) for eps in grid)
    eps0 = float("nan")
    for k, (eps, ok) in enumerate(separation):
        if all(o for _, o in separation[k:]):
            eps0 = eps
            break
    if divergent and math.isfinite(eps0):
        gap_floor = min(inf_d(e) for e in grid if e <= eps0)
        Lambda_est = max(2.0 * lambda_est, math.sqrt(lambda_est * gap_floor))
    else:
        Lambda_est = 10.0 * lambda_est
    verdict = "separated" if math.isfinite(eps0) else "no-separation"
    return SweepReport(problem.name, tuple(grid), tuple(rows), tuple(chains),
                       lambda_est, Lambda_est, 0.25 * lambda_est, eps0,
                       separation, verdict)


@dataclass(frozen=True)
class ThetaSweepReport:
    """Per-angle sweeps of the rotated real parts of one polynomial.

    Experimental: the verdict only reports whether a single window worked
    for every sampled angle on this grid, nothing stronger.
    """
    thetas: Tuple[float, ...]
    sweeps: Tuple[SweepReport, ...]
    uniform_lambda: float
    uniform_eps0: float
    uniform_ok: bool
    verdict: str
    experimental: bool = True


def sweep_theta(alg_problem, thetas: Sequence[float],
                eps_grid: Sequence[float], seed: int = 0) -> ThetaSweepReport:
    from .compactify import realify

    sweeps = []
    for th in thetas:
        sweeps.append(sweep_epsilon(realify(alg_problem, theta=float(th)),
                                    eps_grid, seed=seed))
    lam = max(s.lambda_est for s in sweeps)
    eps0s = [s.eps0 for s in sweeps]
    if all(math.isfinite(e) for e in eps0s):
        eps0 = min(eps0s)
        ok = True
        for s in sweeps:
            for eps, good in s.separation:
                if eps <= eps0 and not good:
                    ok = False
        # re-test the shared window against each sweep's divergent floor
        for s in sweeps:
            div = [c for c in s.chains if c.kind == "divergent"]
            floor = min((abs(v) for c in div for e, v, _ in c.entries
                         if e <= eps0), default=float("inf"))
            if floor <= 2.0 * lam:
                ok = False
    else:
        eps0, ok = float("nan"), False
    verdict = ("uniform window holds on sampled angles" if ok
               else "no uniform window on sampled angles")
    return ThetaSweepReport(tuple(float(t) for t in thetas), tuple(sweeps),
                            lam, eps0, ok, verdict)
