"""The repo benchmark: closed-loop CLI workloads with checked outputs.

    python3 perfbench/run.py --workload partner-sweep --seed 0 --seconds 55 --trace 0

One run sets up, then runs one client in a fresh process (BLAS pinned to one
thread) that executes the workload's CLI jobs one after another, for
``--seconds``.  Every job's output is checked (check.py).  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` count
CLI jobs (ops) and ``metrics`` holds

* ``--trace 0``: the end-to-end metrics: ``wall_ref_s`` and ``cpu_ref_s``
  (median over passes of the wall and CPU time to all verdicts of one pass of
  the job list, scaled to a reference host by the speed probe, speed.py),
  ``setup_s`` (median of fresh-process ``import epresolve.cli`` plus
  ``make_parser()``) and ``peak_rss_mb`` (the client's ``ru_maxrss``).  The
  unscaled ``wall_s`` and ``cpu_s`` are printed on the lines before;
* ``--trace 1``: the per-layer metrics of one traced pass (spans.py), and
  ``trace.overhead_frac`` against one untraced pass of the same inputs, each
  in its own fresh client, whatever ``--seconds``.  Both passes must produce
  byte-identical outputs.

Spans and the full results go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference" / "seed0.json"
sys.path.insert(0, str(HERE))

from check import check_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends within this
SETUP_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import epresolve.cli as cli; cli.make_parser(); print(time.perf_counter() - t0)"
)

# (name, unit) of every metric, in the order BENCHMARK.json lists them
END_TO_END = [("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
# layer metric -> (span name, field, unit)
PER_LAYER = {
    "quadrature.tails.calls": ("quadrature.tails", "calls", "count"),
    "quadrature.tails.terms": ("quadrature.tails", "terms", "count"),
    "quadrature.tails.busy_s": ("quadrature.tails", "busy_s", "s"),
    "quadrature.osc_algebra.calls": ("quadrature.osc_algebra", "calls", "count"),
    "quadrature.osc_algebra.terms": ("quadrature.osc_algebra", "terms", "count"),
    "quadrature.osc_algebra.busy_s": ("quadrature.osc_algebra", "busy_s", "s"),
    "kernels.el_eval_grid.calls": ("kernels.el_eval_grid", "calls", "count"),
    "kernels.el_eval_grid.points": ("kernels.el_eval_grid", "points", "count"),
    "kernels.el_eval_grid.term_points": ("kernels.el_eval_grid", "term_points", "count"),
    "kernels.el_eval_grid.busy_s": ("kernels.el_eval_grid", "busy_s", "s"),
    "kernels.interior_psi_grid.calls": ("kernels.interior_psi_grid", "calls", "count"),
    "kernels.interior_psi_grid.points": ("kernels.interior_psi_grid", "points", "count"),
    "kernels.interior_psi_grid.busy_s": ("kernels.interior_psi_grid", "busy_s", "s"),
    "quadrature.adaptive.calls": ("quadrature.adaptive", "calls", "count"),
    "quadrature.adaptive.evals": ("quadrature.adaptive", "evals", "count"),
    "quadrature.adaptive.cap_hits": ("quadrature.adaptive", "cap_hits", "count"),
    "quadrature.adaptive.self_s": ("quadrature.adaptive", "self_s", "s"),
    "boundary.build.calls": ("boundary.build", "calls", "count"),
    "boundary.build.busy_s": ("boundary.build", "busy_s", "s"),
    "exact.el_mul.calls": ("exact.el_mul", "calls", "count"),
    "exact.el_mul.busy_s": ("exact.el_mul", "busy_s", "s"),
    "interior.members.calls": ("interior.members", "calls", "count"),
    "interior.members.points": ("interior.members", "points", "count"),
    "interior.members.busy_s": ("interior.members", "busy_s", "s"),
    "interior.tail_model.calls": ("interior.tail_model", "calls", "count"),
    "interior.tail_model.busy_s": ("interior.tail_model", "busy_s", "s"),
    "susy.calls": ("susy", "calls", "count"),
    "susy.busy_s": ("susy", "busy_s", "s"),
    "greens.pole_order.calls": ("greens.pole_order", "calls", "count"),
    "greens.pole_order.self_s": ("greens.pole_order", "self_s", "s"),
    "greens.green.calls": ("greens.green", "calls", "count"),
    "biortho.calls": ("biortho", "calls", "count"),
    "biortho.self_s": ("biortho", "self_s", "s"),
    "resolution.apply_scheme.calls": ("resolution.apply_scheme", "calls", "count"),
    "resolution.apply_scheme.self_s": ("resolution.apply_scheme", "self_s", "s"),
    "cli.self_s": ("cli", "self_s", "s"),
}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    env.pop("PYTHONPATH", None)
    return env


def time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    return left


def measure_setup(deadline: float) -> list[float]:
    """Fresh-process import and parser build, once untimed to fill bytecode caches."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(ROOT / "src")], env=child_env(),
                              capture_output=True, text=True, timeout=time_left(deadline))
        if proc.returncode != 0:
            raise BenchError("set-up probe failed:\n" + proc.stderr)
        if i:
            times.append(float(proc.stdout))
    return times


def run_client(spec: dict, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "client.py")], input=json.dumps(spec),
                          env=child_env(), capture_output=True, text=True, timeout=time_left(deadline))
    if proc.returncode != 0:
        raise BenchError(f"client exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def check_passes(passes: list[dict], seed: int, reference: dict) -> dict[tuple[int, int], str]:
    """Failed ops keyed by (pass number, job index), each with its problems."""
    failures = {}
    for p, one in enumerate(passes):
        for i, problems in check_pass(one["jobs"], seed, reference).items():
            if problems:
                job = one["jobs"][i]
                failures[p, i] = f"pass {p} {job['key']} ({' '.join(job['argv'])}): " + "; ".join(problems)
    return failures


def layer_metrics(traced: dict, untraced: dict) -> dict[str, dict]:
    layers = traced["layers"]
    metrics = {}
    for name, (span, field, unit) in PER_LAYER.items():
        metrics[name] = {"value": layers[span].get(field, 0), "unit": unit}
    wall = traced["passes"][0]["wall_s"]
    accounted = sum(row["self_s"] for row in layers.values())
    metrics["trace.overhead_frac"] = {"value": wall / untraced["passes"][0]["wall_s"] - 1.0, "unit": "ratio"}
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.accounted_frac"] = {"value": accounted / wall, "unit": "ratio"}
    return metrics


def self_time_shares(layers: dict) -> list[tuple[str, float]]:
    total = sum(row["self_s"] for row in layers.values())
    return sorted(((name, row["self_s"] / total) for name, row in layers.items() if row["calls"]),
                  key=lambda item: -item[1])


def identical_outputs(untraced: dict, traced: dict) -> dict[int, str]:
    """Traced jobs whose exit code or output differs from the untraced run of the same pass."""
    return {
        i: f"traced output differs from untraced: {b['key']}"
        for i, (a, b) in enumerate(zip(untraced["passes"][0]["jobs"], traced["passes"][0]["jobs"]))
        if (a["exit_code"], a["stdout"]) != (b["exit_code"], b["stdout"])
    }


def machine_facts(client: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                         model)
    except OSError:
        pass
    return {
        "nproc": client["nproc"], "cpu": model, "python": client["python"], "numpy": client["numpy"],
        "scipy": client["scipy"], "numba": client["numba"], "blas_threads": client["blas_threads"],
        "blas_env": {name: str(BLAS_THREADS) for name in BLAS_ENV},
    }


def benchmark(workload: str, seed: int, seconds: int, trace: bool, reference: dict) -> dict:
    """One run; returns the result object with its details."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = {"workload": workload, "seed": seed, "seconds": seconds, "traced": False, "max_passes": None}
    if not trace:
        setup = measure_setup(deadline)
        client = run_client(base, deadline)
        runs = [client]
        passes = client["passes"]
        metrics = {
            "wall_ref_s": statistics.median(p["wall_ref_s"] for p in passes),
            "cpu_ref_s": statistics.median(p["cpu_ref_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": client["peak_rss_mb"],
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        failures = check_passes(passes, seed, reference)
        details = {
            "setup_s": setup,
            "unscaled": {"wall_s": statistics.median(p["wall_s"] for p in passes),
                         "cpu_s": statistics.median(p["cpu_s"] for p in passes),
                         "probe_s": statistics.median(t for p in passes for t in p["probe_s"])},
        }
    else:
        OUT_DIR.mkdir(exist_ok=True)
        spans_out = OUT_DIR / f"{workload}-seed{seed}-spans.csv"
        untraced = run_client({**base, "max_passes": 1}, deadline)
        traced = run_client({**base, "max_passes": 1, "traced": True, "spans_out": str(spans_out)}, deadline)
        runs = [untraced, traced]
        metrics = layer_metrics(traced, untraced)
        failures = check_passes(untraced["passes"] + traced["passes"], seed, reference)
        for i, message in identical_outputs(untraced, traced).items():
            failures[1, i] = f"{failures[1, i]}; {message}" if (1, i) in failures else message
        details = {"spans": str(spans_out)}
    details["passes"] = [
        {**{k: v for k, v in p.items() if k != "jobs"},
         "jobs": [[j["key"], " ".join(j["argv"]), j["wall_s"]] for j in p["jobs"]]}
        for run in runs for p in run["passes"]
    ]
    attempted = sum(len(p["jobs"]) for run in runs for p in run["passes"])
    return {
        "result": {"correct": not failures, "attempted": attempted, "failed": len(failures),
                   "metrics": metrics},
        "failures": list(failures.values()),
        "machine": machine_facts(runs[0]),
        "shares": self_time_shares(runs[-1]["layers"]) if trace else None,
        "details": details,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "epresolve" / "cli.py").is_file():
        print(f"perfbench: no epresolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    try:
        out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = out["result"]
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(out, indent=1) + "\n", encoding="utf-8")

    print("machine: " + json.dumps(out["machine"], sort_keys=True))
    for failure in out["failures"]:
        print("FAILED " + failure)
    print(f"{args.workload} seed {args.seed}: {len(out['details']['passes'])} passes, ops {result['attempted']}, "
          f"ops_failed {result['failed']}")
    for name, value in out["details"].get("unscaled", {}).items():
        print(f"  {name:34s} {value:.6g} s (not gated)")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    if out["shares"]:
        print("  self-time shares: " + ", ".join(f"{n} {s:.1%}" for n, s in out["shares"][:6]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
