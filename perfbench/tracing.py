"""Spans around calls into morsevanish's public functions, taken from outside.

``from .x import f`` gives every importing module its own binding of ``f``,
so a traced function is wrapped in each module namespace that holds it (its
own module included); methods are wrapped on their class.  Each span keeps
its name, start, end and parent in memory until the run ends; ``reduce``
turns them into self time per span name and per layer.  Nothing in the
package is edited: ``restore`` puts every original back and ``leftovers``
proves it.
"""

import contextlib
import functools
import importlib
import math
import sys
import time
from collections import defaultdict

PACKAGE = "morsevanish"
LAYERS = ("expr", "metric", "critical", "flow", "homology", "intlinalg",
          "oracle", "cli", "compactify")


def _rows(args, kwargs, pos, key):
    x = args[pos] if len(args) > pos else kwargs[key]
    return len(x)


def _count_points(kind):
    def count(c, caller, args, kwargs, result):
        c[f"expr.{kind}_points"] += _rows(args, kwargs, 1, "points")
    return count


def _count_apply_inverse(c, caller, args, kwargs, result):
    if caller == f"{PACKAGE}.flow":
        # _Field.eval is flow's only caller: one call per field evaluation
        c["flow.field_evals"] += 1
        c["flow.field_rows"] += _rows(args, kwargs, 3, "X")


def _count_find(c, caller, args, kwargs, result):
    c["critical.newton_starts"] += result.n_starts
    c["critical.converged"] += result.n_converged
    c["critical.points"] += len(result.points)


def _count_boundary(c, caller, args, kwargs, result):
    c["flow.warnings"] += len(result.warnings)


def _count_continuation(c, caller, args, kwargs, result):
    c["flow.halvings"] += result.halvings
    c["flow.warnings"] += len(result.warnings)


def _count_window_complex(c, caller, args, kwargs, result):
    c["homology.generators"] += len(result.points())


def _count_snf(c, caller, args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    c["intlinalg.snf_entries"] += len(A) * (len(A[0]) if len(A) else 0)


def _count_reduce(c, caller, args, kwargs, result):
    dims = args[0] if args else kwargs["dims"]
    c["intlinalg.cells_in"] += sum(dims.values())
    c["intlinalg.cells_out"] += sum(result.dims.values())


def _count_build_pair(c, caller, args, kwargs, result):
    c["oracle.grid_cells"] += math.prod(result.resolution)


def _count_fetch(c, caller, args, kwargs, result):
    c["cli.cache_hits" if result[1] else "cli.cache_misses"] += 1


# (module, attribute, span name, counter hook).  Span names are
# "<layer>.<what>"; the layer is the module that does the work.
TARGETS = (
    ("expr", "eval_values", "expr.values", _count_points("values")),
    ("expr", "eval_jet1", "expr.jet1", _count_points("jet1")),
    ("expr", "eval_jet2", "expr.jet2", _count_points("jet2")),
    ("metric", "apply_inverse_batch", "metric.apply_inverse",
     _count_apply_inverse),
    ("critical", "find_critical_points", "critical.find", _count_find),
    ("critical", "certify_root", "critical.certify", None),
    ("critical", "sweep_epsilon", "critical.sweep", None),
    ("flow", "count_boundary", "flow.count_boundary", _count_boundary),
    ("flow", "continuation_trajectories", "flow.continuation",
     _count_continuation),
    ("homology", "window_complex", "homology.window_complex",
     _count_window_complex),
    ("homology", "homology", "homology.homology", None),
    ("homology", "induced_map", "homology.induced_map", None),
    ("intlinalg", "smith_normal_form", "intlinalg.snf", _count_snf),
    ("intlinalg", "reduce_complex", "intlinalg.reduce", _count_reduce),
    ("oracle", "build_pair", "oracle.build_pair", _count_build_pair),
    ("oracle", "sublevel_pair_homology", "oracle.sublevel_pair_homology",
     None),
    ("oracle", "CubicalPair.homology", "oracle.pair_homology", None),
    ("oracle", "pair_euler_characteristic", "oracle.euler", None),
    ("cli", "ArtifactCache.fetch", "cli.cache_fetch", _count_fetch),
    ("compactify", "realify", "compactify.realify", None),
)


def _package_modules():
    return [(n, m) for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class NullTracer:
    """Tracing off: the benchmark's own spans and counts cost nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, key, n):
        pass


class Tracer:
    """Spans and counters of one traced run, and the wrappers behind them."""

    def __init__(self):
        self.names = []              # span name table
        self._ids = {}
        self.name_of = []            # per span: index into names
        self.start = []
        self.end = []
        self.parent = []
        self._stack = [-1]
        self.counters = defaultdict(int)
        self._patched = []           # (owner, attribute, original)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name):
        i = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def count(self, key, n):
        self.counters[key] += n

    def _wrap(self, fn, name, hook, caller):
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(counters, caller, args, kwargs, result)
            return result

        traced.perfbench_span = name
        return traced

    def install(self):
        """Wrap every target in every loaded module that binds it."""
        modules = _package_modules()
        for mod_name, attr, name, hook in TARGETS:
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original,
                            self._wrap(original, name, hook, home.__name__))
                continue
            original = getattr(home, attr)
            for caller, module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original,
                                    self._wrap(original, name, hook, caller))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def leftovers(self):
        """Attributes still not their original, and wrappers still bound."""
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig
               in self._patched if vars(o).get(a) is not orig]
        for n, m in _package_modules():
            for key, value in vars(m).items():
                owners = [(key, value)]
                if isinstance(value, type):
                    owners += [(f"{key}.{k}", v)
                               for k, v in vars(value).items()]
                bad += [f"{n}.{k}" for k, v in owners
                        if hasattr(v, "perfbench_span")]
        return bad

    def reduce(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        own = defaultdict(float)
        for i, nid in enumerate(self.name_of):
            name = self.names[nid]
            d = self.end[i] - self.start[i]
            calls[name] += 1
            incl[name] += d
            own[name] += d - child[i]
        return calls, incl, own

    def save(self, path):
        """Write every span, as columns, to an .npz file."""
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name=np.array(self.name_of, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64))


def _noop():
    return None


def _count_calibrate(c, caller, args, kwargs, result):
    # a counter hook as cheap as the real ones, so its call is paid for too
    c["calibrate"] += 1


def span_cost_s(calls=20000, repeats=5):
    """Seconds one traced call adds over an untraced one.

    The fastest of ``repeats`` timings of ``calls`` calls of a wrapped
    no-op, less the same for the bare no-op: a pass-minus-pass difference
    would be swamped by how much pass times vary.
    """
    wrapped = Tracer()._wrap(_noop, "calibrate", _count_calibrate, "")

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    return max(best(wrapped) - best(_noop), 0.0) / calls


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer):
    """The per-layer metrics, by the names BENCHMARK.json lists."""
    calls, incl, own = tracer.reduce()
    c = tracer.counters
    m = {
        "metric.apply_inverse_calls": calls["metric.apply_inverse"],
        "metric.apply_inverse_s": own["metric.apply_inverse"],
        "critical.find_calls": calls["critical.find"],
        "critical.find_s": own["critical.find"],
        "critical.sweep_s": own["critical.sweep"],
        "critical.newton_starts": c["critical.newton_starts"],
        "critical.converged": c["critical.converged"],
        "critical.points": c["critical.points"],
        "critical.useful_ratio": _ratio(c["critical.points"],
                                        c["critical.newton_starts"]),
        "critical.certify_calls": calls["critical.certify"],
        "critical.certify_s": own["critical.certify"],
        "flow.count_boundary_calls": calls["flow.count_boundary"],
        "flow.count_boundary_s": own["flow.count_boundary"],
        "flow.continuation_calls": calls["flow.continuation"],
        "flow.continuation_s": own["flow.continuation"],
        "flow.field_evals": c["flow.field_evals"],
        "flow.field_rows": c["flow.field_rows"],
        "flow.rows_per_eval": _ratio(c["flow.field_rows"],
                                     c["flow.field_evals"]),
        "flow.halvings": c["flow.halvings"],
        "flow.warnings": c["flow.warnings"],
        "homology.window_complex_s": own["homology.window_complex"],
        "homology.homology_s": own["homology.homology"],
        "homology.induced_map_s": own["homology.induced_map"],
        "homology.generators": c["homology.generators"],
        "intlinalg.snf_calls": calls["intlinalg.snf"],
        "intlinalg.snf_entries": c["intlinalg.snf_entries"],
        "intlinalg.snf_s": own["intlinalg.snf"],
        "intlinalg.reduce_calls": calls["intlinalg.reduce"],
        "intlinalg.reduce_s": own["intlinalg.reduce"],
        "intlinalg.cells_in": c["intlinalg.cells_in"],
        "intlinalg.cells_out": c["intlinalg.cells_out"],
        "intlinalg.kept_ratio": _ratio(c["intlinalg.cells_out"],
                                       c["intlinalg.cells_in"]),
        "oracle.build_pair_calls": calls["oracle.build_pair"],
        "oracle.build_pair_s": own["oracle.build_pair"],
        "oracle.grid_cells": c["oracle.grid_cells"],
        "oracle.pair_homology_s": own["oracle.pair_homology"],
        "oracle.cells_per_s": _ratio(c["intlinalg.cells_in"],
                                     incl["oracle.pair_homology"]),
        "oracle.euler_s": own["oracle.euler"],
        "cli.compare_s": incl["cli.compare"],
        "cli.continue_s": incl["cli.continue"],
        "cli.cache_hits": c["cli.cache_hits"],
        "cli.cache_misses": c["cli.cache_misses"],
        "cli.warm_pass_s": incl["cli.warm_pass"],
        "cli.artifact_bytes": c["cli.artifact_bytes"],
        "compactify.realify_s": own["compactify.realify"],
        "trace.spans": len(tracer.start),
    }
    for kind in ("values", "jet1", "jet2"):
        m[f"expr.{kind}_calls"] = calls[f"expr.{kind}"]
        m[f"expr.{kind}_points"] = c[f"expr.{kind}_points"]
        m[f"expr.{kind}_s"] = own[f"expr.{kind}"]
    layer_self = defaultdict(float)
    for name, s in own.items():
        layer_self[name.split(".")[0]] += s
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
