"""Time-to-verified-homology benchmark for morsevanish.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout; the package is imported from its ``src``.
Every workload (see ``workloads.py``; rationale and predictions in
``predictions.json``) runs in a fresh worker process, one closed-loop
client, with every answer checked exactly.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s``, the
time of one verified pass, as the sum over the pass's operations of each
one's fastest verified repetition in about ``--seconds`` of passes (at
least three); ``setup_s``, the fastest of the fresh processes that start
the interpreter, import morsevanish and build the workload's problems,
timed between passes so both sample the same stretch of machine time;
and ``peak_rss_mb``, the peak resident set of the worker.  With
``--trace 1`` it reports the per-layer metrics of one traced pass instead
(``tracing.py``).  Failed or raising operations count in ``failed`` and
never as timed passes; a run in which no pass verified exits 1 without a
result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit and the provenance of the run.  A full
record (per-pass times, failures, answers, provenance) goes to
``.perfbench/results/`` in the checkout, and the spans of a traced run
next to it.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("cli_catalog", "index2_scan", "oracle_3d", "euler_4d")
DEADLINE_S = 170.0
# One client, one thread: the linear algebra here is batches of matrices
# of at most 4x4, where BLAS threads add only scheduling noise.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env():
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_VARS})
    env.pop("MORSEVANISH_CACHE", None)
    env.pop("PYTHONPATH", None)
    return env


def _worker(args, timeout):
    """The worker's standard output; on a timeout, kill its whole group.

    The group holds the set-up processes the worker starts, so none of
    them outlives the run.
    """
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args, cwd=ROOT,
                            env=_child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        # a timeout, or SIGTERM or Ctrl-C on this process
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return out


def _commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(seed, numpy_version):
    src = ROOT / "src"
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {k: _child_env()[k] for k in BLAS_VARS},
        "commit": _commit(),
        "seed": seed,
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in sorted(src.rglob("*.py"))),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the worker's group is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "morsevanish" / "__init__.py").is_file():
        print(f"error: no morsevanish sources under {ROOT / 'src'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    t_start = time.perf_counter()
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = results / f"{args.workload}-seed{args.seed}-spans.npz"
    try:
        out = _worker(["run", args.workload, str(args.seed),
                        str(args.seconds), str(args.trace), str(spans)],
                       timeout=DEADLINE_S - (time.perf_counter() - t_start))
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: the worker did not finish: {exc}", file=sys.stderr)
        return 1
    run = json.loads(out.splitlines()[-1])

    passes = run["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    good = [p for p in passes if p["ok"]]
    problems = [f"pass {i}: {op}: {why}" for i, p in enumerate(passes)
                for op, why in p["failures"].items()]
    if not run["same_answers"]:
        problems.append("passes gave different answers")
    if args.trace:
        if run["leftover_wrappers"]:
            problems.append("wrappers outlived the traced pass: "
                            + ", ".join(run["leftover_wrappers"]))
        values = run["layers"]
    elif not good:
        # a failed pass is never a timed success, so there is no time
        for p in problems:
            print(f"FAILED {p}", file=sys.stderr)
        print("error: no pass verified, so there is no wall_s",
              file=sys.stderr)
        return 1
    else:
        values = {
            # Contention from other tenants only ever slows the program,
            # and on a small shared machine it comes and goes within
            # seconds, so one pass rarely runs clear of it from end to end.
            # Each operation's fastest verified repetition is the
            # steadiest estimate of its own cost, and a pass is the sum
            # of its operations.
            "wall_s": sum(min(p["op_s"][op] for p in good)
                          for op in good[0]["op_s"]),
            "setup_s": min(run["setups_s"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
    missing = set(units) ^ set(values)
    if missing:
        print(f"error: metrics and BENCHMARK.json disagree on "
              f"{sorted(missing)}", file=sys.stderr)
        return 1

    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    prov = _provenance(args.seed, run["numpy"])
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "provenance": prov,
              "pass_walls_s": [p["wall_s"] for p in passes],
              "pass_op_s": [p["op_s"] for p in passes],
              "setup_samples_s": run["setups_s"], "problems": problems,
              "answers": run["answers"], "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for p in problems:
        print(f"FAILED {p}")
    print(f"{args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted - failed}/{attempted} operations verified")
    for k, m in metrics.items():
        print(f"  {k:<30} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
