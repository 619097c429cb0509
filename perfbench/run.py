"""chaosmask benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and drives ``src/chaosmask`` in this one
process.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced jobs and reports the per-layer metrics, and
writes every span to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import env

#: Workload set-up is repeated this many times per run, and the package import
#: (in a fresh interpreter) IMPORT_REPEATS times; setup_s adds the two medians.
SETUP_REPEATS = 5
IMPORT_REPEATS = 3


def import_seconds() -> float:
    """Median time to start an interpreter and import the package with its CLI
    (numpy, scipy, click and yaml included)."""
    child_env = dict(os.environ, PYTHONPATH=str(env.SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", "import chaosmask.cli"], env=child_env,
                       check=True)
        times.append(perf_counter() - t)
    return statistics.median(times)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("paper", "design-scan", "ensemble"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time; jobs start while the next one should fit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def p90(values) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_jobs(workload, state, seconds: float, tracer, null):
    """Run jobs until the next one would end after ``seconds``.

    Untraced runs (``tracer`` None) time every job; traced runs alternate an
    untraced and a traced job and return the two lists separately.
    """
    plain, traced = [], []
    t0 = perf_counter()
    index = 0
    while True:
        start = perf_counter()
        plain.append(workload.job(state, index, null))
        index += 1
        if tracer is not None:
            tracer.install()
            try:
                traced.append(workload.job(state, index, tracer))
            finally:
                tracer.uninstall()
            index += 1
        step = perf_counter() - start
        done = len(plain) >= workload.min_jobs
        if done and perf_counter() - t0 + step > seconds:
            return plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    env.prepare()
    load_avg = os.getloadavg()
    import numpy
    import scipy
    import chaosmask
    import chaosmask.cli  # noqa: F401  (registers the CLI entry point used by paper)
    env.check_imported(chaosmask)
    import_s = import_seconds()
    from workloads import WORKLOADS
    from tracer import NullTracer, Tracer, layer_metrics

    facts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "nproc": env.NPROC, "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "git_rev": env.git_rev(),
             "blas_threads": {v: os.environ[v] for v in env.BLAS_VARS},
             "loadavg_start": load_avg}

    env.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=env.OUT)
    try:
        workload = WORKLOADS[args.workload]()
        setups = []
        for _ in range(SETUP_REPEATS):
            t = perf_counter()
            state = workload.setup(args.seed, Path(workdir))
            setups.append(perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        tracer = Tracer(chaosmask) if args.trace else None
        plain, traced = run_jobs(workload, state, args.seconds, tracer, NullTracer())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = plain + traced
    attempted = sum(len(j.op_s) for j in jobs)
    failed = sum(j.failed for j in jobs)
    wall_s = statistics.median(j.wall_s for j in plain)
    ops = [t for j in plain for t in j.op_s]
    if args.trace:
        overhead = statistics.median(j.wall_s for j in traced) - wall_s
        layers, unmeasured = layer_metrics(tracer.spans, tracer.aggregates, len(traced),
                                           args.workload)
        layers["trace.overhead_s"] = (overhead, "s")
        layers["trace.spans"] = (len(tracer.spans) / len(traced), "count")
        layers["op_p90_ms"] = (1e3 * p90(ops), "ms")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        trace_path = env.OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {"facts": facts, "unmeasured": unmeasured,
                                  "missing_sites": tracer.missing,
                                  "traced_jobs": len(traced), "metrics": metrics})
        for site in tracer.missing:
            print(f"missing site: {site} (not wrapped)", file=sys.stderr)
        for name in unmeasured:
            print(f"unmeasured: {name} (its wrappers recorded no call)", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "op_p50_ms": {"value": 1e3 * statistics.median(ops), "unit": "ms"},
        }
    facts.update(jobs=len(plain), traced_jobs=len(traced), ops=attempted, ops_failed=failed,
                 job_s=[j.wall_s for j in plain], import_s=import_s)
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
