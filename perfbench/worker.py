"""One fresh process of the benchmark: set up a workload, or run it.

    python3 perfbench/worker.py setup <workload> <seed>
    python3 perfbench/worker.py run <workload> <seed> <seconds> <trace> <spans>

``setup`` imports morsevanish from the checkout's ``src`` and builds the
workload's problems, then exits; whoever starts it times the whole process.
``run`` does the same, then for about ``seconds`` runs passes, and after
each pass as many timed ``setup`` processes as keep them at about a tenth
of the run, so pass times and set-up times sample the same stretch of
machine time.  With ``trace`` 1 it runs an untraced pass
and a traced pass instead, writes the spans to ``spans`` and reports the
per-layer metrics.  Either way it prints one JSON object as its last line.
"""

import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
SETUP_SHARE = 0.1


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import morsevanish
    if Path(morsevanish.__file__).resolve().parent.parent != src:
        raise SystemExit(f"morsevanish came from {morsevanish.__file__}, "
                         f"not from {src}")


def _setup_sample(name, seed):
    """Seconds for a fresh process to start, import and build."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                             "setup", name, str(seed)], cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    # a blocking wait: Popen.wait(timeout) polls in sleeps of up to 50 ms,
    # which would round every sample up to that grain
    timer = threading.Timer(60.0, proc.kill)
    timer.start()
    try:
        rc = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"set-up process exited with {rc}")
    return elapsed


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    _import_package()
    import workloads
    from tracing import NullTracer, Tracer, layer_metrics, span_cost_s

    workload = workloads.WORKLOADS[name]
    workdir = ROOT / ".perfbench" / "work"
    state = workload.build(seed, workdir)
    if mode == "setup":
        return 0
    seconds, traced, spans_path = float(argv[3]), argv[4] == "1", argv[5]

    def one_pass(tracer):
        t0 = time.perf_counter()
        with tracer.span("bench.pass"):
            p = workloads.run_pass(workload, state, tracer)
        wall = time.perf_counter() - t0
        workload.cleanup(state)
        return p, wall

    passes, setups = [], []
    if not traced:
        # at least MIN_PASSES rounds, so no run rests on one or two; after
        # that, stop before a round that could end past the time
        t_start = time.perf_counter()
        setup_total = longest = 0.0
        while True:
            t_round = time.perf_counter()
            passes.append(one_pass(NullTracer()))
            while (not setups or setup_total
                   < SETUP_SHARE * (time.perf_counter() - t_start)):
                setups.append(_setup_sample(name, seed))
                setup_total += setups[-1]
            now = time.perf_counter()
            longest = max(longest, now - t_round)
            if (len(passes) >= MIN_PASSES
                    and now - t_start + longest > seconds):
                break
    else:
        passes.append(one_pass(NullTracer()))
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                workload.build(seed, workdir)
            passes.append(one_pass(tracer))
        finally:
            tracer.restore()
        leftovers = tracer.leftovers()
        tracer.save(spans_path)

    import numpy
    out = {
        "numpy": numpy.__version__,
        "passes": [{"wall_s": wall, "ok": p.ok, "attempted": len(p.planned),
                    "failures": p.failures, "op_s": p.op_s}
                   for p, wall in passes],
        "setups_s": setups,
        "answers": passes[-1][0].answers,
        # every pass, traced or not, must give exactly the same answers
        "same_answers": all(p.answers == passes[0][0].answers
                            for p, _ in passes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        layers = layer_metrics(tracer)
        layers["trace.overhead_s"] = layers["trace.spans"] * span_cost_s()
        out["layers"] = layers
        out["leftover_wrappers"] = leftovers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
