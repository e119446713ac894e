"""Correctness checks of captured CLI outputs.

Seed 0 jobs are compared with ``reference/seed0.json``, captured from the
package by ``capture_reference.py``:

* exit codes, every ``passed`` verdict, integers, strings and the structure
  of each output are compared exactly;
* a report's ``residual`` may move by at most a tenth of the report's own
  tolerance (exactly equal when the tolerance is 0);
* sweep values, targets and errors and Green-function values may move by at
  most ``10 * tol * max(1, |reference|)``, ``tol`` being the job's quadrature
  tolerance (the CLI default 1e-9: no job passes ``--tol``).  Two results that
  each meet ``tol`` differ by up to ``2 * tol``; the rest is room for the
  error estimate being an estimate;
* the ``trace`` strings of reports are free-text diagnostics and are skipped.

Every seed, 0 included, is checked for invariants that hold on the whole
input range (see README.md).  Each problem is a string; a job with any
problem is a failed op.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import DEFAULT_GRID, DEFAULT_TOL

REPORT_SHARE = 0.1
SWEEP_FACTOR = 10.0
# acceptance thresholds of tests/test_acceptance.py, criteria 04 and 05
EXACT_SCHEME_ERROR = 5e-6   # res3 is exact at every radius
LIMIT_SCHEME_ERROR = 1e-3   # res5 converges as the radius shrinks
PARTNER_FLOOR_RATIO = 10.0  # criterion 07: floor >= 10x the control's final error
SWEEP_HEADER = ["scheme", "epsilon", "A", "x_prime", "value_re", "value_im",
                "target_re", "target_im", "abs_error"]


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON token {name}")


def parse(job: dict):
    """Parsed stdout of a job: a dict for JSON reports, a list of rows for CSV."""
    text = job["stdout"]
    if job["argv"][0] == "sweep":
        return list(csv.reader(io.StringIO(text)))
    return json.loads(text, parse_constant=_reject_constant)


def _close(got: float, want: float, allowed: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= allowed


def _compare_reports(got: dict, want: dict, problems: list[str]) -> None:
    if len(got["reports"]) != len(want["reports"]):
        problems.append(f"{len(got['reports'])} reports, reference has {len(want['reports'])}")
        return
    for g, w in zip(got["reports"], want["reports"]):
        for field in ("identity", "label", "mode", "tolerance", "passed"):
            if g[field] != w[field]:
                problems.append(f"{w['identity']}: {field} {g[field]!r} != reference {w[field]!r}")
        if not _close(g["residual"], w["residual"], REPORT_SHARE * w["tolerance"]):
            problems.append(f"{w['identity']}: residual {g['residual']!r} vs reference {w['residual']!r}")
    rest = {k: v for k, v in got.items() if k != "reports"}
    if rest != {k: v for k, v in want.items() if k != "reports"}:
        problems.append("report header differs from reference")


def _compare_fields(got: dict, want: dict, numeric: tuple[str, ...], problems: list[str]) -> None:
    if set(got) != set(want):
        problems.append(f"fields {sorted(got)} != reference {sorted(want)}")
        return
    for key, w in want.items():
        g = got[key]
        if key in numeric:
            if not _close(g, w, SWEEP_FACTOR * DEFAULT_TOL * max(1.0, abs(w))):
                problems.append(f"{key} {g!r} vs reference {w!r}")
        elif g != w:
            problems.append(f"{key} {g!r} != reference {w!r}")


def _compare_sweep(got: list, want: list, problems: list[str]) -> None:
    if len(got) != len(want) or got[:1] != want[:1]:
        problems.append("sweep shape or header differs from reference")
        return
    for g, w in zip(got[1:], want[1:]):
        if g[:4] != w[:4]:
            problems.append(f"row {g[:4]} != reference {w[:4]}")
        for name, gv, wv in zip(SWEEP_HEADER[4:], g[4:], w[4:]):
            gf, wf = float(gv), float(wv)
            if not _close(gf, wf, SWEEP_FACTOR * DEFAULT_TOL * max(1.0, abs(wf))):
                problems.append(f"eps {w[1]}: {name} {gv} vs reference {wv}")


def compare_reference(job: dict, parsed, reference: dict) -> list[str]:
    want = reference.get(job["key"])
    if want is None or want["argv"] != job["argv"]:
        return ["no reference output for this job"]
    problems: list[str] = []
    if want["exit_code"] != job["exit_code"]:
        problems.append(f"exit {job['exit_code']} != reference {want['exit_code']}")
    ref = parse(want)
    command = job["argv"][0]
    if command == "sweep":
        _compare_sweep(parsed, ref, problems)
    elif command == "verify":
        _compare_reports(parsed, ref, problems)
    elif command == "green":
        _compare_fields(parsed, ref, ("value_re", "value_im"), problems)
    else:
        _compare_fields(parsed, ref, (), problems)
    return problems


def _sweep_invariants(job: dict, rows: list, problems: list[str]) -> None:
    argv = job["argv"]
    grid = argv[argv.index("--eps-grid") + 1] if "--eps-grid" in argv else DEFAULT_GRID
    radii = [float(t) for t in grid.split(",")]
    if not rows or rows[0] != SWEEP_HEADER or len(rows) != 1 + len(radii):
        problems.append("sweep output is not the header plus one row per radius")
        return
    if [float(r[1]) for r in rows[1:]] != radii:
        problems.append("sweep radii differ from the grid")
    values = [float(v) for r in rows[1:] for v in r[2:]]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite number in sweep output")
        return
    errors = [float(r[8]) for r in rows[1:]]
    key = job["key"]
    if key.startswith("res3") and errors[-1] >= EXACT_SCHEME_ERROR:
        problems.append(f"res3 error {errors[-1]:.3e} at the smallest radius >= {EXACT_SCHEME_ERROR}")
    if key.startswith("res5") and errors[-1] >= LIMIT_SCHEME_ERROR:
        problems.append(f"res5 error {errors[-1]:.3e} at the smallest radius >= {LIMIT_SCHEME_ERROR}")


def invariants(job: dict, parsed) -> list[str]:
    problems: list[str] = []
    command = job["argv"][0]
    if command == "sweep":
        _sweep_invariants(job, parsed, problems)
    elif command == "verify":
        failed = [r["identity"] for r in parsed["reports"] if not r["passed"]]
        if job["expected_exit"] == 0 and failed:
            problems.append("unmutated report failed: " + ", ".join(failed))
        if job["expected_exit"] == 1 and not failed:
            problems.append("mutated suite passed every report")
    elif command == "susy":
        if parsed["consistent"] is not True:
            problems.append("Darboux chain is not consistent")
    elif command == "green":
        if not (math.isfinite(parsed["value_re"]) and math.isfinite(parsed["value_im"])):
            problems.append("non-finite Green function value")
    return problems


def check_job(job: dict, seed: int, reference: dict) -> list[str]:
    """Problems with one job's result."""
    if job["error"]:
        return ["raised: " + job["error"].strip().splitlines()[-1]]
    if job["exit_code"] != job["expected_exit"]:
        return [f"exit code {job['exit_code']}, expected {job['expected_exit']}"]
    try:
        parsed = parse(job)
    except ValueError as exc:
        return [f"unparseable output: {exc}"]
    problems = invariants(job, parsed)
    if job["argv"][0] == "indexes":
        # the index triple and pole order do not depend on the displacement
        ref = reference.get(job["key"])
        keys = ("n1", "n2", "n3", "k_plane_pole_order")
        if ref is None or any(parsed[k] != json.loads(ref["stdout"])[k] for k in keys):
            problems.append("index triple differs from the reference")
    if seed == 0:
        problems += compare_reference(job, parsed, reference)
    return problems


def check_pass(jobs: list[dict], seed: int, reference: dict) -> dict[int, list[str]]:
    """Problems per job index of one pass, including cross-job invariants."""
    problems = {i: check_job(job, seed, reference) for i, job in enumerate(jobs)}
    by_key = {job["key"]: i for i, job in enumerate(jobs)}
    if "partner" in by_key and "control" in by_key:
        ip, ic = by_key["partner"], by_key["control"]
        if not problems[ip] and not problems[ic]:
            floor = min(float(r[8]) for r in parse(jobs[ip])[1:])
            control = float(parse(jobs[ic])[-1][8])
            if floor < PARTNER_FLOOR_RATIO * control:
                problems[ip].append(
                    f"partner error floor {floor:.3e} < {PARTNER_FLOOR_RATIO:g}x control {control:.3e}"
                )
    return problems
