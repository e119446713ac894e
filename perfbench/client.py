"""Closed-loop client: one fresh process, one job at a time.

Reads a JSON spec on stdin, runs passes of the workload's job list through
``epresolve.cli.main(argv)`` and writes one JSON result to stdout.  Job
outputs are captured in memory; the parent process checks them.

Spec keys: ``workload``, ``seed``, ``seconds``, ``max_passes`` (or null) and
``traced``.  Without ``max_passes`` the loop starts another pass only while
the median pass so far still fits in ``seconds``, so a run ends near its
budget whatever the pass time.

An untraced client runs the host speed probe (speed.py) through every pass;
pass and job times exclude the probe's own time.  A traced client does not,
since a probe sample would land inside whatever span is open.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib.util
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from workloads import jobs_for  # noqa: E402


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or None when it cannot be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_job(cli, job, probe: SpeedProbe | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    spent = (lambda: probe.spent_wall) if probe else (lambda: 0.0)
    spent0, t0 = spent(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a crashing job is a failed op, not a crashed run
            code, error = None, traceback.format_exc()
    return {
        "key": job.key,
        "argv": list(job.argv),
        "expected_exit": job.exit_code,
        "exit_code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "error": error,
        "wall_s": time.perf_counter() - t0 - (spent() - spent0),
    }


def main() -> int:
    spec = json.load(sys.stdin)
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    if threads is not None and threads > nproc:
        print(f"refusing to run: OpenBLAS uses {threads} threads on {nproc} cores", file=sys.stderr)
        return 3

    import numpy
    import scipy

    import epresolve.cli as cli

    tracer = None
    if spec["traced"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        missed = tracer.unwrapped()
        if missed:
            print("tracer left originals bound: " + ", ".join(missed), file=sys.stderr)
            return 3

    probe = None if spec["traced"] else SpeedProbe()
    passes = []
    start = time.perf_counter()
    while True:
        jobs = jobs_for(spec["workload"], spec["seed"], len(passes))
        g0 = time.perf_counter()
        if probe:
            probe.start()
        c0, t0 = time.process_time(), time.perf_counter()
        results = [run_job(cli, job, probe) for job in jobs]
        if probe:
            probe.stop()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        one = {"gross_s": time.perf_counter() - g0, "wall_s": wall, "cpu_s": cpu, "jobs": results}
        if probe:
            wall_factor, cpu_factor = probe.factors()
            one["wall_s"] = wall - probe.spent_wall
            one["cpu_s"] = cpu - probe.spent_cpu
            one.update(wall_ref_s=one["wall_s"] * wall_factor, cpu_ref_s=one["cpu_s"] * cpu_factor,
                       probe_s=[s[0] for s in probe.samples])
        passes.append(one)
        if spec["max_passes"] is not None:
            if len(passes) >= spec["max_passes"]:
                break
        else:
            typical = statistics.median(p["gross_s"] for p in passes)
            if time.perf_counter() - start + typical > spec["seconds"]:
                break

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": threads,
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_totals()
        if spec.get("spans_out"):
            tracer.write(spec["spans_out"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
