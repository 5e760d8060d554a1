"""Command line driver: configs in, deterministic artifacts out.

Every stage writes one JSON artifact under <out>/<config-hash>/ with
sorted keys and shortest round-trip float strings, so two runs with the
same config and seed produce byte-identical files.  Nothing
time-dependent goes into stage artifacts; timestamps live only in the
run manifest that `report` assembles at the end.  Non-finite floats are
serialized as the strings "inf", "-inf" and "nan" because bare JSON has
no spelling for them.

A content-addressed cache (location overridable through the
MORSEVANISH_CACHE environment variable) is keyed by (package version,
artifact schema, config hash, stage, parameters); stages that need
critical points fetch them from the cache instead of searching again.
A cache entry that fails its own digest is treated as a miss and
recomputed.  Cache entries and artifacts are written to a temporary
file and renamed into place, so an interrupted write leaves the old
file or none, never a partial one.

Exit codes: 0 success, 1 configuration problem or usage error, 2 solver
failure or a "fail" verdict from compare.
"""

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .compactify import AlgebraicProblem, realify
from .critical import (CriticalPoint, find_critical_points, sweep_epsilon,
                       sweep_theta)
from .errors import (ConfigError, ConfigParse, CorruptCache, CountingRefused,
                     ExpressionParseError, MorsevanishError, UnknownEntry)
from .expr import parse_expression
from .flow import (BOUNDARY_BUDGET, R_LAUNCH, check_delta,
                   continuation_trajectories, count_boundaries, count_plan)
from .homology import (MorseComplex, boundary_sources, complex_from_counts,
                       continuation_chain_map, euler_characteristic,
                       generator_order, homology, require_nondegenerate)
from .intlinalg import HomologyResult
from .metric import MetricSpec
from .oracle import (EXACT_MAX_DIM, catalog_lookup, pair_euler_characteristic,
                     sublevel_pair_homology)
from .problem import (BOX_REACH, DEFAULT_WINDOW, DomainModel, ProblemSpec,
                      WindowSpec)

SCHEMA = 1


# ---------------------------------------------------------------- json

def _canon(obj):
    """Make an object JSON-safe and deterministic."""
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_canon(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isfinite(v):
            return v
        if math.isnan(v):
            return "nan"
        return "inf" if v > 0 else "-inf"
    return obj


def canonical_dumps(obj) -> str:
    return json.dumps(_canon(obj), sort_keys=True)


def _write_atomic(path: Path, text: str) -> Path:
    """Write text to a sibling temp file, then rename it over path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def dump_json(path: Path, obj) -> Path:
    return _write_atomic(
        path, json.dumps(_canon(obj), sort_keys=True, indent=2) + "\n")


def dump_csv(path: Path, header: Sequence[str], rows) -> Path:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return _write_atomic(path, buf.getvalue())


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(canonical_dumps(cfg).encode()).hexdigest()[:12]


# -------------------------------------------------------------- config

_KNOWN_KEYS = {"name", "dimension", "domain", "variables", "f", "tau",
               "window", "metric", "polynomial", "eps", "grid", "catalog",
               "box_halfwidth"}
_DEFAULT_NAMES = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParse(f"config is not valid JSON: {exc.msg}",
                          exc.lineno, exc.colno)
    if not isinstance(cfg, dict):
        raise ConfigError("the config root must be a JSON object")
    unknown = sorted(set(cfg) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; "
                          f"allowed: {sorted(_KNOWN_KEYS)}")
    return cfg


def _number(v, what: str) -> float:
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {v!r}")


def _positive(v, what: str) -> float:
    x = _number(v, what)
    if not (math.isfinite(x) and x > 0):
        raise ConfigError(f"{what} must be finite and positive, got {v!r}")
    return x


def _integer(v, what: str, least: int) -> int:
    """v itself if it is a JSON integer of at least ``least``."""
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise ConfigError(f"{what} must be an integer >= {least}, got {v!r}")
    return v


def _window_from(cfg: dict) -> WindowSpec:
    w = cfg.get("window")
    if w is None:
        return DEFAULT_WINDOW
    if not isinstance(w, dict):
        raise ConfigError("window must be an object")
    lam = _number(w.get("lambda", DEFAULT_WINDOW.lam), "window.lambda")
    Lam = _number(w.get("Lambda", DEFAULT_WINDOW.Lam * lam), "window.Lambda")
    sigma = _number(w.get("sigma", DEFAULT_WINDOW.sigma * lam), "window.sigma")
    ends = [_number(w[k], f"window.{k}") for k in ("a", "b") if k in w]
    if len(ends) == 1:
        raise ConfigError(f"window.{'b' if 'a' in w else 'a'} is missing")
    if ends:
        return WindowSpec(*ends, lam, Lam, sigma)
    return WindowSpec.finite_action(lam, Lam, sigma)


def _box_halfwidth(cfg: dict) -> float:
    return _number(cfg.get("box_halfwidth", BOX_REACH), "box_halfwidth")


def _metric_from(cfg: dict) -> MetricSpec:
    m = cfg.get("metric", "euclidean")
    if isinstance(m, str):
        m = {"kind": m}
    if not isinstance(m, dict):
        raise ConfigError("metric must be a kind string or an object")
    kind = m.get("kind", "euclidean")
    if kind == "custom":
        rows = m.get("matrix")
        if not rows or not isinstance(rows, list) or not all(
                isinstance(row, list) for row in rows):
            raise ConfigError("a custom metric needs a matrix of "
                              "expression strings")
        matrix = tuple(tuple(parse_expression(str(e)) for e in row)
                       for row in rows)
        return MetricSpec("custom", matrix)
    return MetricSpec(kind)


def _domain_from(cfg: dict, n: int) -> DomainModel:
    dom = cfg.get("domain", "real_line")
    if dom == "real_line":
        return DomainModel.full_space(n, _box_halfwidth(cfg))
    if "box_halfwidth" in cfg:
        raise ConfigError("box_halfwidth applies to real_line domains; an "
                          "interval domain takes its box from the intervals")
    if not isinstance(dom, list) or len(dom) != n:
        raise ConfigError('domain must be "real_line" or a list of '
                          f"{n} {{min, max}} objects")
    intervals = []
    for i, iv in enumerate(dom):
        if not isinstance(iv, dict) or "min" not in iv or "max" not in iv:
            raise ConfigError(f"domain axis {i} needs min and max")
        intervals.append((_number(iv["min"], f"domain[{i}].min"),
                          _number(iv["max"], f"domain[{i}].max")))
    return DomainModel.from_intervals(intervals)


def _fraction(v, what: str) -> Fraction:
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{what} must be a rational like \"1/2\", got {v!r}")


def problem_from_config(cfg: dict, fallback_name: str
                        ) -> Tuple[ProblemSpec, Optional[AlgebraicProblem]]:
    """Build the problem a config describes.

    Either a `polynomial` block (realified to R^{2n}) or explicit
    `f`/`tau` expressions; the algebraic problem is returned alongside
    when there is one, since theta sweeps need it.
    """
    name = cfg.get("name", fallback_name)
    if "polynomial" in cfg:
        if "f" in cfg or "tau" in cfg:
            raise ConfigError("give either a polynomial or f/tau, not both")
        fixed = sorted({"variables", "domain", "metric"} & set(cfg))
        if fixed:
            raise ConfigError(
                f"a realified polynomial lives on full space with the "
                f"Kahler cone metric and fixed variable names; drop "
                f"{fixed} from polynomial configs")
        poly = cfg["polynomial"]
        if not isinstance(poly, dict) or not isinstance(
                poly.get("terms"), list) or not poly["terms"]:
            raise ConfigError("polynomial needs a non-empty terms list")
        if "dimension" not in cfg:
            raise ConfigError("polynomial configs must state the number "
                              "of complex variables as dimension")
        n = _integer(cfg["dimension"], "dimension", 1)
        terms = []
        for i, t in enumerate(poly["terms"]):
            if not isinstance(t, dict) or "monomial" not in t:
                raise ConfigError(f"polynomial term {i} must be an object "
                                  "with a monomial")
            if not isinstance(t["monomial"], list):
                raise ConfigError(f"term {i} monomial must be a list of "
                                  "exponents")
            mono = tuple(_integer(e, f"term {i} exponent", 0)
                         for e in t["monomial"])
            terms.append((mono, _fraction(t.get("re", 0), f"term {i} re"),
                          _fraction(t.get("im", 0), f"term {i} im")))
        alpha = poly.get("alpha")
        alg = AlgebraicProblem(
            n, tuple(terms), name=name,
            alpha=None if alpha is None else _integer(alpha, "alpha", 1))
        spec = realify(alg, theta=_number(poly.get("theta", 0.0), "theta"),
                       window=_window_from(cfg),
                       box_halfwidth=_box_halfwidth(cfg))
        return spec, alg

    for key in ("dimension", "f", "tau"):
        if key not in cfg:
            raise ConfigError(f"config is missing {key!r}")
    n = _integer(cfg["dimension"], "dimension", 1)
    names = cfg.get("variables")
    if names is None:
        names = _DEFAULT_NAMES.get(n) or tuple(f"x{i + 1}" for i in range(n))
    elif not isinstance(names, list):
        raise ConfigError(f"variables must be a list of names, got {names!r}")
    spec = ProblemSpec(name, tuple(map(str, names)), _domain_from(cfg, n),
                       parse_expression(str(cfg["f"])),
                       parse_expression(str(cfg["tau"])),
                       _metric_from(cfg), _window_from(cfg))
    return spec, None


def _parse_grid(spec: Optional[str]) -> Tuple[float, ...]:
    """Grid specs: "2^-3..2^-12" walks exponents, or a comma list."""
    if not spec:
        raise ConfigError("no eps grid given: pass --grid or put "
                          '"grid" in the config')
    if not isinstance(spec, str):
        raise ConfigError(f"grid must be a string, got {spec!r}")
    spec = spec.strip()
    if ".." in spec:
        lo, _, hi = spec.partition("..")

        def scaled(side: str):
            base, _, expo = side.partition("^")
            try:
                return float(base), int(expo)
            except ValueError:
                raise ConfigError(f"grid bound {side!r} is not "
                                  "base^exponent")
        b1, e1 = scaled(lo)
        b2, e2 = scaled(hi)
        if b1 != b2:
            raise ConfigError("grid range must keep one base on both sides")
        step = 1 if e2 >= e1 else -1
        try:
            grid = tuple(b1 ** e for e in range(e1, e2 + step, step))
        except (OverflowError, ZeroDivisionError):
            # 0^-1, or a power past the float range: infinite either way
            grid = (math.inf,)
    else:
        try:
            grid = tuple(float(v) for v in spec.split(","))
        except ValueError:
            raise ConfigError(f"cannot parse grid {spec!r}")
    if not all(math.isfinite(e) and e > 0 for e in grid):
        raise ConfigError(f"grid {spec!r} holds a value that is not finite "
                          "and positive")
    return grid


# --------------------------------------------------------------- cache

class ArtifactCache:
    """Content-addressed JSON store with a digest check on read."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def key(self, config_hash: str, stage: str, params: dict) -> str:
        # version and schema keep payloads written by other code unreachable
        blob = canonical_dumps({"version": __version__, "schema": SCHEMA,
                                "config": config_hash, "stage": stage,
                                "params": params})
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str):
        p = self._path(key)
        if not p.exists():
            return None
        try:
            wrapper = json.loads(p.read_text())
            payload = wrapper["payload"]
            # parsed JSON is canonical already (_canon is the identity on it)
            digest = hashlib.sha256(
                json.dumps(payload, sort_keys=True).encode()).hexdigest()
            if digest != wrapper["sha256"]:
                raise CorruptCache(f"cache entry {key[:12]} failed its "
                                   "digest check")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CorruptCache(f"cache entry {key[:12]} is unreadable: {exc}")
        return payload

    def store(self, key: str, payload):
        payload = _canon(payload)
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()
        _write_atomic(self._path(key),
                      json.dumps({"sha256": digest, "payload": payload},
                                 sort_keys=True))
        return payload

    def has(self, key: str) -> bool:
        """Whether an entry is stored under key (it may be corrupt)."""
        return self._path(key).exists()

    def fetch(self, key: str, compute):
        """Payload plus a hit flag; corrupt entries recompute silently."""
        try:
            got = self.load(key)
        except CorruptCache as exc:
            print(f"note: {exc}; recomputing", file=sys.stderr)
            got = None
        if got is not None:
            return got, True
        return self.store(key, compute()), False


def cache_root(out: Path) -> Path:
    env = os.environ.get("MORSEVANISH_CACHE")
    return Path(env) if env else out / "cache"


# ------------------------------------------------------------- context

@dataclass
class RunContext:
    args: argparse.Namespace
    cfg: dict
    cfg_hash: str
    problem: ProblemSpec
    alg: Optional[AlgebraicProblem]
    out_dir: Path
    cache: ArtifactCache

    @property
    def seed(self) -> int:
        return self.args.seed

    def stage_path(self, stage: str, suffix: str = ".json") -> Path:
        return self.out_dir / self.cfg_hash / f"{stage}{suffix}"

    def eps(self) -> float:
        if self.args.eps is not None:
            return _positive(self.args.eps, "--eps")
        if "eps" in self.cfg:
            return _positive(self.cfg["eps"], "eps")
        raise ConfigError('no eps given: pass --eps or put "eps" in '
                          "the config")


def _context(args) -> RunContext:
    if not args.config:
        raise ConfigError("this command needs --config")
    cfg = load_config(args.config)
    spec, alg = problem_from_config(cfg, Path(args.config).stem)
    out = Path(args.out)
    return RunContext(args, cfg, config_digest(cfg), spec, alg, out,
                      ArtifactCache(cache_root(out)))


# -------------------------------------------------- critical point stage

def _crit_payload(ctx: RunContext, eps: float):
    key = ctx.cache.key(ctx.cfg_hash, "crit", {"eps": eps, "seed": ctx.seed})

    def compute():
        cs = find_critical_points(ctx.problem, eps, seed=ctx.seed)
        return {"problem": cs.problem, "eps": eps, "seed": ctx.seed,
                "n_starts": cs.n_starts, "n_converged": cs.n_converged,
                "n_dead": cs.n_dead,
                "points": [p.record() for p in cs.points]}
    return ctx.cache.fetch(key, compute)


def _window_points(ctx: RunContext, eps: float) -> List[CriticalPoint]:
    payload, _ = _crit_payload(ctx, eps)
    pts = map(CriticalPoint.from_record, payload["points"])
    return [p for p in pts if p.in_window]


def cmd_crit(args) -> int:
    ctx = _context(args)
    eps = ctx.eps()
    payload, hit = _crit_payload(ctx, eps)
    report = {"schema": SCHEMA, "command": "crit", **payload}
    path = dump_json(ctx.stage_path("crit"), report)
    inside = sum(CriticalPoint.from_record(r).in_window
                 for r in payload["points"])
    cached = " (cached)" if hit else ""
    print(f"{len(payload['points'])} critical points, {inside} in the "
          f"window{cached} -> {path}")
    return 0


# ------------------------------------------------------- sweep stages

def cmd_sweep_eps(args) -> int:
    ctx = _context(args)
    grid = _parse_grid(args.grid or ctx.cfg.get("grid"))
    rep = sweep_epsilon(ctx.problem, grid, seed=ctx.seed)
    payload = {
        "schema": SCHEMA, "command": "sweep-eps",
        "problem": rep.problem, "eps_grid": list(rep.eps_grid),
        "rows": list(rep.rows),
        "chains": [{"ident": c.ident, "kind": c.kind,
                    "exponent": c.exponent, "coefficient": c.coefficient,
                    "entries": [[e, v, list(loc)] for e, v, loc in c.entries]}
                   for c in rep.chains],
        "lambda": rep.lambda_est, "Lambda": rep.Lambda_est,
        "sigma": rep.sigma_est, "eps0": rep.eps0,
        "separation": [[e, ok] for e, ok in rep.separation],
        "verdict": rep.verdict,
    }
    path = dump_json(ctx.stage_path("sweep-eps"), payload)
    rows = [[c.ident, c.kind, e, v, ";".join(repr(x) for x in loc)]
            for c in rep.chains for e, v, loc in c.entries]
    csv_path = dump_csv(ctx.stage_path("sweep-eps", ".csv"),
                        ["chain", "kind", "eps", "value", "location"], rows)
    print(f"verdict {rep.verdict}, eps0 = {rep.eps0:g}, lambda = "
          f"{rep.lambda_est:g} -> {path}, {csv_path}")
    return 0


def cmd_sweep_theta(args) -> int:
    ctx = _context(args)
    if ctx.alg is None:
        raise ConfigError("sweep-theta needs a polynomial config")
    grid = _parse_grid(args.grid or ctx.cfg.get("grid"))
    n = int(args.thetas)
    if n < 1:
        raise ConfigError("--thetas must be positive")
    thetas = [k * math.pi / n for k in range(n)]
    rep = sweep_theta(ctx.alg, thetas, grid, seed=ctx.seed)
    payload = {
        "schema": SCHEMA, "command": "sweep-theta",
        "experimental": rep.experimental,
        "thetas": list(rep.thetas),
        "sweeps": [{"theta": th, "lambda": s.lambda_est,
                    "Lambda": s.Lambda_est, "eps0": s.eps0,
                    "verdict": s.verdict}
                   for th, s in zip(rep.thetas, rep.sweeps)],
        "uniform_lambda": rep.uniform_lambda,
        "uniform_eps0": rep.uniform_eps0,
        "uniform_ok": rep.uniform_ok,
        "verdict": rep.verdict,
    }
    path = dump_json(ctx.stage_path("sweep-theta"), payload)
    print(f"{n} angles, verdict {rep.verdict} (experimental) -> {path}")
    return 0


# ------------------------------------------------ flow and complex stages

def _flow_key(ctx: RunContext, eps: float) -> str:
    # the counting defaults are part of the key, so a change to one of
    # them cannot resurrect stale entries
    params = {"eps": eps, "seed": ctx.seed, "r_launch": R_LAUNCH,
              "budget": BOUNDARY_BUDGET}
    return ctx.cache.key(ctx.cfg_hash, "flow", params)


def _flow_payload(ctx: RunContext, eps: float, counted=None):
    """The flow payload at eps and a cache-hit flag.  A miss stores
    ``counted``, the results of ``count_boundaries`` on the boundary
    sources of the window points with all of them as targets, or counts
    them first when it is None."""
    def compute():
        pts = _window_points(ctx, eps)
        at = boundary_sources(pts)
        results = counted
        if results is None:
            results = count_boundaries(ctx.problem, eps,
                                       [pts[i] for i in at], pts)
        sources = []
        traj = []
        for i, res in zip(at, results):
            sources.append({
                "source": i, "index": pts[i].index, "method": res.method,
                "counts": sorted(res.counts.items()),
                "warnings": list(res.warnings),
            })
            for rec in res.trajectories:
                target = -1 if rec.target_id is None else rec.target_id
                traj.append([i, rec.termination, target, rec.sign,
                             rec.E_an, rec.E_top, rec.f_max, rec.f_min,
                             rec.steps, rec.s_end])
        return {"problem": ctx.problem.name, "eps": eps, "seed": ctx.seed,
                "sources": sources, "trajectories": traj}
    return ctx.cache.fetch(_flow_key(ctx, eps), compute)


def cmd_flow(args) -> int:
    ctx = _context(args)
    eps = ctx.eps()
    payload, hit = _flow_payload(ctx, eps)
    report = {"schema": SCHEMA, "command": "flow",
              **{k: v for k, v in payload.items() if k != "trajectories"}}
    path = dump_json(ctx.stage_path("flow"), report)
    csv_path = dump_csv(
        ctx.stage_path("flow", ".csv"),
        ["source", "termination", "target", "sign", "E_an", "E_top",
         "f_max", "f_min", "steps", "s_end"],
        payload["trajectories"])
    hits = sum(1 for row in payload["trajectories"] if row[2] != -1)
    cached = " (cached)" if hit else ""
    print(f"{len(payload['sources'])} sources, {hits} arriving "
          f"flowlines{cached} -> {path}, {csv_path}")
    return 0


def _flow_plan(ctx: RunContext, eps: float, pts: List[CriticalPoint],
               flows: list, k: int):
    """The legs that count the flow payload at eps on the window points
    ``pts``, and a read of their rows that stores the payload and keeps
    it in flows[k] (see ``flow.count_plan``)."""
    legs, read = count_plan(ctx.problem, eps,
                            [pts[i] for i in boundary_sources(pts)], pts)

    def store(rows):
        flows[k], _ = _flow_payload(ctx, eps, read(rows))
    return legs, store


def _window_complex(ctx: RunContext, eps: float, pts=None,
                    flow=None) -> MorseComplex:
    """The window complex, assembled from the window points ``pts`` and
    the flow payload ``flow``; one not given is read from the cache, and
    the flow payload is counted first if it is not cached yet."""
    if pts is None:
        pts = _window_points(ctx, eps)
    require_nondegenerate(pts, eps)
    if flow is None:
        flow, _ = _flow_payload(ctx, eps)
    return complex_from_counts(ctx.problem, eps, pts, (
        (s["source"], dict(s["counts"]), s["warnings"])
        for s in flow["sources"]))


def cmd_complex(args) -> int:
    ctx = _context(args)
    eps = ctx.eps()
    cx = _window_complex(ctx, eps)
    ranks = [cx.rank(k) for k in range(cx.top + 1)]
    report = {
        "schema": SCHEMA, "command": "complex",
        "problem": cx.problem, "eps": eps, "seed": ctx.seed,
        "window": [cx.window[0], cx.window[1]], "ranks": ranks,
        "generators": [[p.record() for p in grp]
                       for grp in cx.generators],
        "boundaries": [cx.boundary(k) for k in range(1, cx.top + 1)],
    }
    path = dump_json(ctx.stage_path("complex"), report)
    print(f"ranks {ranks} -> {path}")
    return 0


# ------------------------------------------------------ homology stages

def cmd_homology(args) -> int:
    ctx = _context(args)
    eps = ctx.eps()
    cx = _window_complex(ctx, eps)
    h = homology(cx)  # raises unless d.d = 0
    report = {"schema": SCHEMA, "command": "homology",
              "problem": cx.problem, "eps": eps,
              "groups": h.summary(), "euler": h.euler}
    path = dump_json(ctx.stage_path("homology"), report)
    print(f"{h.describe()} -> {path}")
    return 0


def _levels(ctx: RunContext) -> Tuple[float, float]:
    """lambda and Lambda of the sublevel pair: the flags, else the
    problem's."""
    w, lam, Lam = ctx.problem.window, ctx.args.lam, ctx.args.Lam
    return (w.lam if lam is None else lam, w.Lam if Lam is None else Lam)


def _oracle_payload(ctx: RunContext, eps: float):
    n = len(ctx.problem.variables)
    lam, Lam = _levels(ctx)
    res = 32 if ctx.args.res is None else ctx.args.res
    params = {"eps": eps, "lambda": lam, "Lambda": Lam, "res": res}
    key = ctx.cache.key(ctx.cfg_hash, "oracle", params)

    def compute():
        if n <= EXACT_MAX_DIM:
            h = sublevel_pair_homology(ctx.problem, eps, lam, Lam,
                                       resolution=res)
            return {"method": "cubical", "groups": h.summary(),
                    "euler": h.euler}
        chi = pair_euler_characteristic(ctx.problem, eps, lam, Lam,
                                        resolution=res)
        return {"method": "cell-count", "groups": None, "euler": chi}

    payload, hit = ctx.cache.fetch(key, compute)
    return {**payload, "lambda": lam, "Lambda": Lam, "resolution": res}, hit


def cmd_oracle(args) -> int:
    ctx = _context(args)
    eps = ctx.eps()
    payload, hit = _oracle_payload(ctx, eps)
    report = {"schema": SCHEMA, "command": "oracle",
              "problem": ctx.problem.name, "eps": eps, **payload}
    path = dump_json(ctx.stage_path("oracle"), report)
    cached = " (cached)" if hit else ""
    if payload["groups"] is None:
        print(f"euler = {payload['euler']} (cell count){cached} -> {path}")
    else:
        h = HomologyResult.from_summary(payload["groups"])
        print(f"{h.describe()}{cached} -> {path}")
    return 0


# ------------------------------------------------------- compare stage

def _group_table(*summaries):
    """Degree-keyed rows out of homology summary dicts (None allowed)."""
    hs = [None if s is None else HomologyResult.from_summary(s)
          for s in summaries]
    degrees = sorted({k for h in hs if h for k in h.groups})
    return [(k, [h and h.group_name(k) for h in hs]) for k in degrees]


def cmd_compare(args) -> int:
    entry = None
    name = args.catalog
    if args.config:
        ctx = _context(args)
        if name is None:
            name = ctx.cfg.get("catalog")
        if name is not None:
            entry = catalog_lookup(name)
    else:
        if name is None:
            raise ConfigError("compare needs --config or --catalog")
        entry = catalog_lookup(name)
        cfg = {"catalog": name}
        out = Path(args.out)
        ctx = RunContext(args, cfg, config_digest(cfg), entry.problem(),
                         None, out, ArtifactCache(cache_root(out)))
    if entry is not None and args.eps is None and "eps" not in ctx.cfg:
        eps = entry.eps
    else:
        eps = ctx.eps()

    # the pair sees critical values in [b, Lambda) that the window drops,
    # and one between a and -lambda lies below the window but not in the
    # pair's sub level set, or the other way round
    w = ctx.problem.window
    lam, Lam = _levels(ctx)
    crit, _ = _crit_payload(ctx, eps)
    values = sorted(float(r["value"]) for r in crit["points"])
    gap = [v for v in values if w.b <= v < Lam]
    if gap:
        raise ConfigError(
            f"critical value {gap[0]:.6g} of f_eps lies in [b, Lambda) = "
            f"[{w.b:g}, {Lam:g}), where the oracle's pair sees it and the "
            "window does not; lower --Lambda to it or widen the window")
    split = [v for v in values if (v <= w.a) != (v <= -lam)]
    if split:
        raise ConfigError(
            f"critical value {split[0]:.6g} of f_eps lies between the "
            f"window end a = {w.a:g} and the oracle's level -lambda = "
            f"{-lam:g}, so one counts it below and the other does not; set "
            f"--lambda to -a = {-w.a:g}")

    oracle_payload, _ = _oracle_payload(ctx, eps)
    catalog_summary = entry.expected.summary() if entry else None

    try:
        cx = _window_complex(ctx, eps)
        morse_summary = homology(cx).summary()
        morse_points = cx.points()
    except CountingRefused:
        # a window point's index has no counting route; the Euler count
        # of the window points still cross-checks the oracle
        morse_summary = None
        morse_points = _window_points(ctx, eps)

    rows = []
    ok = True
    for k, (m, o, c) in _group_table(morse_summary,
                                     oracle_payload["groups"],
                                     catalog_summary):
        agree = all(x == y for x in (m, o, c) for y in (m, o, c)
                    if x is not None and y is not None)
        ok = ok and agree
        rows.append({"degree": k, "morse": m, "oracle": o, "catalog": c,
                     "ok": agree})

    chi_morse = euler_characteristic(morse_points)
    chi_oracle = int(oracle_payload["euler"])
    euler_ok = chi_morse == chi_oracle
    ok = ok and euler_ok
    report = {
        "schema": SCHEMA, "command": "compare",
        "problem": ctx.problem.name, "eps": eps,
        "catalog_entry": entry.name if entry else None,
        "oracle_method": oracle_payload["method"],
        "rows": rows,
        "euler": {"morse": chi_morse, "oracle": chi_oracle,
                  "ok": euler_ok},
        "ok": ok, "verdict": "pass" if ok else "fail",
    }
    path = dump_json(ctx.stage_path("compare"), report)
    for row in rows:
        print(f"  H_{row['degree']}: morse={row['morse'] or '-':<10} "
              f"oracle={row['oracle'] or '-':<10} "
              f"catalog={row['catalog'] or '-':<10} "
              f"{'ok' if row['ok'] else 'MISMATCH'}")
    print(f"  euler: morse={chi_morse} oracle={chi_oracle} "
          f"{'ok' if euler_ok else 'MISMATCH'}")
    print(f"{report['verdict']} -> {path}")
    return 0 if ok else 2


# ---------------------------------------------------- continuation stage

def cmd_continue(args) -> int:
    ctx = _context(args)
    e_from = _positive(args.eps_from, "--eps-from")
    e_to = _positive(args.eps_to, "--eps-to")
    delta = float(args.delta)
    check_delta(delta)
    ends = (e_from, e_to)
    pts = [_window_points(ctx, e) for e in ends]
    for e, p in zip(ends, pts):
        require_nondegenerate(p, e)
    # the flow counts of both complexes that are not cached yet share the
    # batch of the first ladder; a halving reruns the ladder alone
    flows = [None, None]
    res = continuation_trajectories(
        ctx.problem, e_from, e_to, generator_order(pts[0]),
        generator_order(pts[1]), delta,
        alongside=[_flow_plan(ctx, e, p, flows, k)
                   for k, (e, p) in enumerate(zip(ends, pts))
                   if not ctx.cache.has(_flow_key(ctx, e))])
    cx_a, cx_b = (_window_complex(ctx, e, p, f)
                  for e, p, f in zip(ends, pts, flows))
    ind = continuation_chain_map(cx_a, cx_b, res)
    report = {
        "schema": SCHEMA, "command": "continue",
        "problem": ctx.problem.name,
        "eps_from": e_from, "eps_to": e_to,
        "delta": res.delta, "halvings": res.halvings,
        "matrices": [list(m) for m in ind.chain.matrices],
        "induced": [list(m) for m in ind.matrices],
        "isomorphism": ind.isomorphism,
        "failures": list(ind.failures),
        "source_homology": ind.source_homology.summary(),
        "target_homology": ind.target_homology.summary(),
        "notes": list(ind.chain.notes),
    }
    path = dump_json(ctx.stage_path("continue"), report)
    verdict = "isomorphism" if ind.isomorphism else "NOT an isomorphism"
    print(f"eps {e_from:g} -> {e_to:g}: {verdict} -> {path}")
    return 0


# -------------------------------------------------------- manifest stage

def cmd_report(args) -> int:
    ctx = _context(args)
    run_dir = ctx.out_dir / ctx.cfg_hash
    if not run_dir.is_dir():
        raise ConfigError(f"no artifacts under {run_dir}; run some stages "
                          "first")
    stages: Dict[str, dict] = {}
    summary: Dict[str, str] = {}
    for f in sorted(run_dir.iterdir()):
        if f.name == "manifest.json" or f.suffix not in (".json", ".csv"):
            continue
        digest = hashlib.sha256(f.read_bytes()).hexdigest()
        written = datetime.fromtimestamp(f.stat().st_mtime,
                                         timezone.utc).isoformat()
        stages[f.name] = {"path": str(f), "sha256": digest,
                          "written_at": written}
        if f.name == "compare.json":
            summary["compare"] = json.loads(f.read_text())["verdict"]
        elif f.suffix == ".json":
            summary[f.stem] = "ok"
    # what the run produced: replaying a stage with the same config and
    # seed rewrites its artifact byte for byte, so the digests are stable
    # identifiers and only the written_at timestamps move
    manifest = {"schema": SCHEMA, "config_hash": ctx.cfg_hash,
                "tool_version": __version__,
                "stages": stages, "summary": summary}
    path = dump_json(run_dir / "manifest.json", manifest)
    print(f"{len(stages)} artifacts, summary {summary} -> {path}")
    return 0


# ----------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like other bad input; exit 2 is kept for
    mathematical failures."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="morsevanish",
        description="Finite-action Morse homology with a cubical "
                    "cross-check.")
    p.add_argument("--version", action="version",
                   version=f"morsevanish {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    def common(sp, seed=True):
        sp.add_argument("--config", help="problem definition (JSON)")
        sp.add_argument("--out", default="runs",
                        help="artifact directory (default: runs)")
        if seed:  # no flag on a stage whose output does not depend on it
            sp.add_argument("--seed", type=int, default=0)
        return sp

    def with_eps(sp):
        sp.add_argument("--eps", type=float,
                        help="perturbation strength (falls back to the "
                             "config)")
        return sp

    with_eps(common(sub.add_parser(
        "crit", help="find and certify critical points of f_eps")))
    sp = common(sub.add_parser(
        "sweep-eps", help="track critical values over an eps grid and "
                          "place the action window"))
    sp.add_argument("--grid", help='eps grid, e.g. "2^-3..2^-12" or '
                                   '"0.4,0.2,0.1"')
    sp = common(sub.add_parser(
        "sweep-theta", help="window sweeps across rotated real parts "
                            "(experimental)"))
    sp.add_argument("--grid")
    sp.add_argument("--thetas", type=int, default=8,
                    help="number of angles evenly spaced in [0, pi)")
    with_eps(common(sub.add_parser(
        "flow", help="count boundary flowlines between window critical "
                     "points")))
    with_eps(common(sub.add_parser(
        "complex", help="assemble the window Morse complex")))
    with_eps(common(sub.add_parser(
        "homology", help="homology of the window Morse complex")))
    def with_levels(sp):
        sp.add_argument("--lambda", dest="lam", type=float,
                        help="window depth (default: the problem's)")
        sp.add_argument("--Lambda", dest="Lam", type=float,
                        help="upper sublevel cutoff (default: the "
                             "problem's)")
        sp.add_argument("--res", type=int, help="grid cells per axis "
                                                "(default 32)")
        return sp

    with_levels(with_eps(common(sub.add_parser(
        "oracle", help="cubical relative homology of the sublevel pair"),
        seed=False)))
    sp = with_levels(with_eps(common(sub.add_parser(
        "compare", help="Morse homology against the oracle and catalog"))))
    sp.add_argument("--catalog", help="named catalog entry to compare "
                                      "against (may replace --config)")
    sp = common(sub.add_parser(
        "continue", help="continuation chain map between two eps values"))
    sp.add_argument("--eps-from", dest="eps_from", type=float, required=True)
    sp.add_argument("--eps-to", dest="eps_to", type=float, required=True)
    sp.add_argument("--delta", type=float, default=0.5,
                    help="starting continuation step (halved on "
                         "confinement failures)")
    common(sub.add_parser(
        "report", help="assemble the run manifest from existing artifacts"),
        seed=False)
    return p


_COMMANDS = {
    "crit": cmd_crit,
    "sweep-eps": cmd_sweep_eps,
    "sweep-theta": cmd_sweep_theta,
    "flow": cmd_flow,
    "complex": cmd_complex,
    "homology": cmd_homology,
    "oracle": cmd_oracle,
    "compare": cmd_compare,
    "continue": cmd_continue,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ExpressionParseError, UnknownEntry) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MorsevanishError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
