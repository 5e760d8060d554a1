"""The benchmark's workloads: the two BENCHMARK.json lists, and
``index2_scan`` and ``oracle_3d``, which are run by hand (see
``predictions.json`` for why).

Each workload is a closed loop with one client in one process: ``build``
makes its problems (the work ``setup_s`` times, after interpreter start and
import) and ``run_pass`` runs one pass and checks every answer exactly.
The seed goes to the CLI ``--seed`` and to the library ``seed=`` arguments;
it is the only input that varies between runs.

Why each workload exists, and which layers it should load, is written in
``predictions.json`` next to this file.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from pathlib import Path

# Layer functions are called through their modules, never through names
# bound here, so the traced run (which rebinds module attributes) sees them.
from morsevanish import cli, critical, homology, oracle
from morsevanish.expr import parse_expression
from morsevanish.homology import HomologyResult
from morsevanish.metric import MetricSpec
from morsevanish.problem import DomainModel, ProblemSpec, WindowSpec


class Pass:
    """Every planned operation of one pass, each checked, failed and timed.

    An operation that raises fails together with every planned operation
    after it, so ``attempted`` is the same for every pass of a workload.
    ``op_s`` splits the pass's time at each check: an operation's share
    runs from the check before it (or the start) to its own check, and
    ``rest`` holds what follows the last check, so the shares add up to
    the pass.
    """

    def __init__(self, planned):
        self.planned = list(planned)
        self.done = []
        self.failures = {}
        self.answers = {}
        self.op_s = {}
        self._t = time.perf_counter()

    def lap(self, op):
        now = time.perf_counter()
        self.op_s[op] = now - self._t
        self._t = now

    def check(self, op, ok, detail):
        self.lap(op)
        self.done.append(op)
        if not ok:
            self.failures[op] = detail

    def abort(self, exc):
        reason = f"raised {type(exc).__name__}: {exc}"
        for op in self.planned:
            if op not in self.done:
                self.failures[op] = reason
                reason = "not reached"

    @property
    def ok(self):
        return not self.failures


def _z_in(k):
    return HomologyResult({k: (1, ())})


# ------------------------------------------------------------ index2_scan

_I2_EPS = 0.1


def _index2_problem():
    # window (-1, 1) with Lambda = 10: one maximum at 0.1 and two saddles
    # at -0.1025 sit inside it
    return ProblemSpec("index2-scan", ("x", "y"), DomainModel.full_space(2),
                       parse_expression("x^4 - x^2 - y^2"),
                       parse_expression("pow(1 + x^2 + y^2, -1)"),
                       MetricSpec("euclidean"),
                       WindowSpec.finite_action(1.0, 10.0, 0.25))


def _index2_build(seed, workdir):
    return {"spec": _index2_problem(), "seed": seed}


def _index2_pass(state, p, tracer):
    cx = homology.window_complex(state["spec"], _I2_EPS, seed=state["seed"])
    ranks = [cx.rank(k) for k in range(cx.top + 1)]
    d2 = homology.verify_d_squared(cx)
    p.check("window_complex", bool(d2) and ranks == [0, 2, 1],
            f"ranks {ranks}, {d2.describe()}")
    h = homology.homology(cx)
    p.check("homology", h.same_as(_z_in(1)), h.describe())
    p.answers = {"ranks": ranks,
                 "boundaries": [cx.boundary(k) for k in range(1, cx.top + 1)],
                 "homology": h.summary()}


# -------------------------------------------------------------- oracle_3d

_O3_EPS, _O3_LAM, _O3_LAMBDA, _O3_RES = 0.1, 0.5, 10.0, 24


def _oracle3_problem():
    return ProblemSpec("saddle-3d", ("x", "y", "z"),
                       DomainModel.full_space(3, 4.0),
                       parse_expression("x^2 + y^2 - z^2 + z^4/4"),
                       parse_expression("pow(1 + x^2 + y^2 + z^2, -1/2)"),
                       MetricSpec("euclidean"),
                       WindowSpec.finite_action(_O3_LAM, _O3_LAMBDA, 0.25))


def _oracle3_build(seed, workdir):
    return {"spec": _oracle3_problem(), "seed": seed}


def _oracle3_pass(state, p, tracer):
    spec = state["spec"]
    h = oracle.sublevel_pair_homology(spec, _O3_EPS, _O3_LAM, _O3_LAMBDA,
                                      resolution=_O3_RES)
    p.check("oracle", h.same_as(_z_in(1)), h.describe())
    cx = homology.window_complex(spec, _O3_EPS, seed=state["seed"])
    hm = homology.homology(cx)
    d2 = homology.verify_d_squared(cx)
    p.check("morse_side", bool(d2) and hm.same_as(h),
            f"morse {hm.describe()} against oracle {h.describe()}, "
            f"{d2.describe()}")
    p.answers = {"oracle": h.summary(), "morse": hm.summary()}


# --------------------------------------------------------------- euler_4d

# Sized so a pass takes a few seconds, and a run holds a dozen or more
# repetitions of each operation: on a small shared machine the fastest of
# many short repetitions is far steadier than the fastest of a few long
# ones.  1024 Newton starts per solve (the library default in R^4 is 4096)
# and a 48^4 grid.
_E4_GRID = (0.4, 0.2, 0.1, 0.05)
_E4_STARTS = 1024
_E4_RES = 48


def _euler4_build(seed, workdir):
    entry = oracle.catalog_lookup("x_plus_x2y")
    return {"entry": entry, "spec": entry.problem(), "seed": seed}


def _euler4_pass(state, p, tracer):
    entry, spec, seed = state["entry"], state["spec"], state["seed"]
    rep = critical.sweep_epsilon(spec, _E4_GRID, n_starts=_E4_STARTS,
                                 seed=seed)
    p.check("sweep", rep.verdict == "separated", rep.verdict)
    cs = critical.find_critical_points(spec, entry.eps, n_starts=_E4_STARTS,
                                       seed=seed)
    pts = cs.inside_window()
    chi_morse = homology.euler_characteristic(pts)
    p.check("find", chi_morse == 1, f"chi_morse {chi_morse}")
    chi_oracle = oracle.pair_euler_characteristic(
        spec, entry.eps, entry.lam, entry.Lam, resolution=_E4_RES)
    p.check("euler", chi_oracle == chi_morse == 1,
            f"chi_oracle {chi_oracle}, chi_morse {chi_morse}")
    p.answers = {"verdict": rep.verdict, "chi_morse": chi_morse,
                 "chi_oracle": chi_oracle}


# ------------------------------------------------------------ cli_catalog

_CONFIGS = {
    "double_well": {"name": "double_well", "dimension": 1,
                    "domain": "real_line", "f": "x^4 - x^2",
                    "tau": "pow(1 + x^2, -1/2)", "eps": 0.25},
}
# Only the double-well ladders: continue on z^3 and z^4 (0.1 -> 0.08) took
# half of a pass, so a run held three or four passes, too few for the
# fastest repetition of each command to be steady on a small shared machine.
_CONTINUES = (("double_well", 0.25, 0.125), ("double_well", 0.125, 0.0625))


def _catalog_build(seed, workdir):
    names = oracle.catalog_names()
    # built for set-up timing only: each CLI command builds its own again
    problems = [oracle.catalog_lookup(n).problem() for n in names]
    problems += [cli.problem_from_config(cfg, key)[0]
                 for key, cfg in _CONFIGS.items()]
    return {"names": names, "problems": problems, "seed": seed,
            "workdir": Path(workdir), "passes": 0}


def _catalog_ops(names):
    return ([f"compare:{n}" for n in names]
            + [f"continue:{c}:{a:g}->{b:g}" for c, a, b in _CONTINUES]
            + [f"warm:{n}" for n in names])


def _cli(tracer, argv, out, seed):
    """One in-process CLI command; its chatter is kept off stdout."""
    with tracer.span("cli." + argv[0]), \
            contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv) + ["--out", str(out), "--seed", str(seed)])


def _artifact_bytes(out):
    return sum(f.stat().st_size for f in out.rglob("*")
               if f.is_file() and "cache" not in f.relative_to(out).parts)


def _catalog_pass(state, p, tracer):
    state["passes"] += 1
    seed = state["seed"]
    # a fresh output directory and cache per pass keeps the cold pass cold
    out = state["workdir"] / f"pass-{os.getpid()}-{state['passes']}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    state["cleanup"] = out
    os.environ["MORSEVANISH_CACHE"] = str(out / "cache")
    digests = {}

    def compare_path(name):
        return out / cli.config_digest({"catalog": name}) / "compare.json"

    cold = {}
    for name in state["names"]:
        rc = _cli(tracer, ["compare", "--catalog", name], out, seed)
        blob = compare_path(name).read_bytes()
        verdict = json.loads(blob)["verdict"]
        cold[name] = blob
        digests[f"compare:{name}"] = hashlib.sha256(blob).hexdigest()
        p.check(f"compare:{name}", rc == 0 and verdict == "pass",
                f"exit {rc}, verdict {verdict}")

    for key, cfg in _CONFIGS.items():
        (out / f"{key}.json").write_text(json.dumps(cfg))
    for key, a, b in _CONTINUES:
        rc = _cli(tracer, ["continue", "--config", str(out / f"{key}.json"),
                           "--eps-from", repr(a), "--eps-to", repr(b)],
                  out, seed)
        blob = (out / cli.config_digest(_CONFIGS[key])
                / "continue.json").read_bytes()
        iso = json.loads(blob)["isomorphism"]
        op = f"continue:{key}:{a:g}->{b:g}"
        digests[op] = hashlib.sha256(blob).hexdigest()
        p.check(op, rc == 0 and iso is True, f"exit {rc}, isomorphism {iso}")

    with tracer.span("cli.warm_pass"):
        for name in state["names"]:
            rc = _cli(tracer, ["compare", "--catalog", name], out, seed)
            same = compare_path(name).read_bytes() == cold[name]
            p.check(f"warm:{name}", rc == 0 and same,
                    f"exit {rc}, artifact byte-identical {same}")
    tracer.count("cli.artifact_bytes", _artifact_bytes(out))
    p.answers = digests


def _catalog_cleanup(state):
    out = state.pop("cleanup", None)
    if out is not None:
        shutil.rmtree(out, ignore_errors=True)
    os.environ.pop("MORSEVANISH_CACHE", None)


class Workload:
    def __init__(self, name, build, run_pass, ops, cleanup=None):
        self.name = name
        self.build = build
        self.run_pass = run_pass
        self.ops = ops
        self.cleanup = cleanup or (lambda state: None)


WORKLOADS = {w.name: w for w in (
    Workload("cli_catalog", _catalog_build, _catalog_pass,
             lambda state: _catalog_ops(state["names"]), _catalog_cleanup),
    Workload("index2_scan", _index2_build, _index2_pass,
             lambda state: ["window_complex", "homology"]),
    Workload("oracle_3d", _oracle3_build, _oracle3_pass,
             lambda state: ["oracle", "morse_side"]),
    Workload("euler_4d", _euler4_build, _euler4_pass,
             lambda state: ["sweep", "find", "euler"]),
)}


def run_pass(workload, state, tracer):
    """One timed-by-the-caller pass; failures are recorded, never raised."""
    p = Pass(workload.ops(state))
    try:
        workload.run_pass(state, p, tracer)
    except Exception as exc:  # a raising operation is a failed operation
        p.abort(exc)
    p.lap("rest")
    return p
