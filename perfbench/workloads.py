"""Job lists of the benchmark workloads.

A job is one ``epresolve`` CLI invocation with the exit code it must return.
A workload is the ordered list of jobs that one pass of the closed loop runs.

Seed 0 is the canonical list, identical on every pass, and is checked against
``reference/seed0.json``.  Any other seed draws the inputs of pass ``p`` from
``Random(f"{workload}:{seed}:{p}")``: every pass of a run sees new inputs, so
the median pass time of a run describes the input range, not one draw.  The
ranges are listed in README.md with the reason for each bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("partner-sweep", "boundary-sweep", "verify-suites")

DEFAULT_TOL = 1e-9  # cli.cmd_sweep's quadrature tolerance when --tol is absent
DEFAULT_GRID = "0.4,0.2,0.1,0.05"  # cli's --eps-grid default
CONTROL_GRID = "0.4,0.2,0.1,0.05,0.025,0.0125"


@dataclass(frozen=True)
class Job:
    """One CLI call.  ``key`` names the job's role in the workload."""

    key: str
    argv: tuple[str, ...]
    exit_code: int = 0


def _job(key: str, base: str, extra: dict[str, float | str] | None = None, exit_code: int = 0) -> Job:
    argv = base.split()
    for flag, value in (extra or {}).items():
        argv += [flag, value if isinstance(value, str) else repr(value)]
    return Job(key, tuple(argv), exit_code)


def _z(im: float) -> str:
    return f"0,{im!r}"


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    # rounded so that argv stays short and readable; still seed-determined
    return round(rng.uniform(lo, hi), 4)


def _partner_sweep(rng: random.Random | None) -> list[Job]:
    base = "sweep --model interior --scheme res12 --testfn"
    # the control runs down to the smallest radius of acceptance criterion 07:
    # at 0.05 its error is still up to a tenth of the partner's floor
    control = f"--eps-grid {CONTROL_GRID}"
    if rng is None:
        return [
            _job("partner", f"{base} psi1 --xp 0.7"),
            _job("control", f"{base} gaussian:0,1 {control} --xp 0.7"),
        ]
    where = {"--xp": _draw(rng, 0.3, 1.0), "--z": _z(_draw(rng, 0.5, 2.0))}
    c, w = _draw(rng, -0.3, 0.3), _draw(rng, 0.8, 1.2)
    return [
        _job("partner", f"{base} psi1", where),
        _job("control", f"{base} gaussian:{c!r},{w!r} {control}", where),
    ]


def _boundary_sweep(rng: random.Random | None) -> list[Job]:
    # res5-hermite keeps its canonical inputs on every seed: its grid work
    # moves by 15-30% with xp, centre, width or Im z (README.md), which would
    # make the pass time measure the draw instead of the code.
    jobs = [_job("res5-hermite", "sweep --n 3 --scheme res5 --testfn hermite:2")]
    if rng is None:
        return jobs + [
            _job("res3-gaussian", "sweep --n 2 --scheme res3 --testfn gaussian"),
            _job("res9-gaussian", "sweep --n 2 --scheme res9 --testfn gaussian:0.5,1.2"),
            _job("int5-rational", "sweep --n 1 --scheme int5 --testfn rational:4"),
        ]
    xp = _draw(rng, 0.1, 0.5)
    gc, gw = _draw(rng, -0.5, 0.5), _draw(rng, 0.8, 1.2)
    rc, rw = _draw(rng, 0.0, 1.0), _draw(rng, 1.0, 1.4)
    return jobs + [
        _job("res3-gaussian", f"sweep --n 2 --scheme res3 --testfn gaussian:{gc!r},{gw!r}",
             {"--xp": xp, "--z": _z(_draw(rng, 0.5, 2.0))}),
        _job("res9-gaussian", f"sweep --n 2 --scheme res9 --testfn gaussian:{rc!r},{rw!r}",
             {"--xp": xp, "--z": _z(_draw(rng, 0.5, 2.0))}),
        _job("int5-rational", "sweep --n 1 --scheme int5 --testfn rational:4",
             {"--xp": xp, "--z": _z(_draw(rng, 0.5, 2.0))}),
    ]


def _verify_suites(rng: random.Random | None) -> list[Job]:
    # Im z >= 1.2: below 1 the green-jump check fails, and between 1 and 1.2
    # the cost of `verify --n 4` climbs from 0.4 s to 1.6 s (README.md)
    def where() -> dict[str, str]:
        return {} if rng is None else {"--z": _z(_draw(rng, 1.2, 2.0))}

    jobs = [_job(f"verify-n{n}", f"verify --n {n} --suite all", where()) for n in (1, 2, 3, 4)]
    jobs.append(_job("verify-mutate", "verify --n 2 --mutate", where(), exit_code=1))
    jobs += [
        _job(f"verify-interior-a{a}", f"verify --model interior --alpha {a} --suite all", where())
        for a in ("1", "1.5")
    ]
    jobs += [
        _job("indexes-n3", "indexes --n 3", where()),
        _job("indexes-n5", "indexes --n 5", where()),
        _job("indexes-interior", "indexes --model interior", where()),
        _job("susy-normalizable", "susy --n 2 --chain normalizable --length 1", where()),
        _job("susy-growing", "susy --n 1 --chain growing --length 2", where()),
    ]
    points = {"--x": 0.7, "--xp": -0.4}
    if rng is not None:
        points = {"--x": _draw(rng, -1.0, 1.0), "--xp": _draw(rng, -1.0, 1.0)}
    for family in ("boundary", "interior"):
        extra = {**points, **where()}
        head = "green --n 1" if family == "boundary" else "green --model interior"
        jobs.append(_job(f"green-{family}", f"{head} --energy 2.0", extra))
    # the cheap boundary sweeps keep the grid kernels measured in a gated workload
    return jobs + _boundary_sweep(rng)[1:]


def _selftest(rng: random.Random | None) -> list[Job]:
    # the harness self-test's tiny list: well under a second per pass
    keep = ("verify-n1", "indexes-interior", "susy-normalizable", "green-boundary", "green-interior",
            "int5-rational")
    return [job for job in _verify_suites(rng) if job.key in keep]


_BUILDERS = {
    "partner-sweep": _partner_sweep,
    "boundary-sweep": _boundary_sweep,
    "verify-suites": _verify_suites,
    "selftest": _selftest,
}


def jobs_for(workload: str, seed: int, pass_index: int) -> list[Job]:
    """The job list of one pass."""
    rng = None if seed == 0 else random.Random(f"{workload}:{seed}:{pass_index}")
    return _BUILDERS[workload](rng)
