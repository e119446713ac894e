"""Command-line front end: verification suites, sweeps, and index reports.

Outputs are regression artifacts: JSON for reports (schema-versioned) and
RFC-4180 CSV for sweeps, both byte-identical across runs of the same
configuration.  Exit codes: 0 pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .biortho import interior_biortho, overlap_growing, overlap_zero, scatter_norm
from .boundary import BoundaryModel
from .greens import _boundary_indexes, green, indexes, pole_order
from .interior import InteriorModel
from .report import VerificationReport
from .resolution import Scheme, SchemeId, TestFunction, apply_scheme
from .susy import (
    darboux_potential,
    growing_chain,
    multiplicity_delta,
    normalizable_chain,
    verify_intertwining,
)

_SCHEMA = 1
_SUITE_NAMES = ("algebra", "biortho", "susy", "greens")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

# argparse types: raising ArgumentTypeError turns bad input into a usage
# error (exit 2) at parse time, before any model is built

def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _parse_z(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"displacement must be given as re,im — got {text!r}")
    return complex(_finite_float(parts[0]), _finite_float(parts[1]))


def _parse_eps_grid(text: str) -> list[float]:
    grid = [_positive_float(t) for t in text.split(",") if t]
    if not grid:
        raise argparse.ArgumentTypeError("eps grid must be a comma list of positive radii")
    return grid


def _build_model(args: argparse.Namespace) -> BoundaryModel | InteriorModel:
    # each family's flag is rejected on the other family instead of ignored
    if args.model == "boundary":
        if args.alpha is not None:
            raise ValueError("--alpha applies to the interior family only (--model interior)")
        return BoundaryModel(2 if args.n is None else args.n, args.z)
    if args.n is not None:
        raise ValueError("--n applies to the boundary family only (--model boundary)")
    return InteriorModel(1.0 if args.alpha is None else args.alpha, args.z)


def _parse_testfn(spec: str) -> TestFunction:
    name, _, rest = spec.partition(":")
    params = [p for p in rest.split(",") if p]
    if name == "gaussian":
        center = float(params[0]) if params else 0.0
        width = float(params[1]) if len(params) > 1 else 1.0
        return TestFunction.gaussian(center, width)
    if name == "hermite":
        if not params:
            raise ValueError("hermite test function needs an order: hermite:ORDER[,center,width]")
        center = float(params[1]) if len(params) > 1 else 0.0
        width = float(params[2]) if len(params) > 2 else 1.0
        return TestFunction.hermite_gaussian(int(params[0]), center, width)
    if name == "rational":
        if not params:
            raise ValueError("rational test function needs an exponent: rational:Q")
        return TestFunction.rational_decay(int(params[0]))
    if name == "chain":
        if not params:
            raise ValueError("chain test function needs a member index: chain:L")
        return TestFunction.chain_boundary(int(params[0]))
    if name == "psi0":
        return TestFunction.chain_interior(0)
    if name == "psi1":
        return TestFunction.chain_interior(1)
    raise ValueError(f"unknown test function {spec!r}")


def _model_tag(model: BoundaryModel | InteriorModel) -> dict:
    if isinstance(model, BoundaryModel):
        return {
            "family": "boundary",
            "n": model.n,
            "z": [float(model.z.real), float(model.z.imag)],
        }
    return {
        "family": "interior",
        "alpha": float(model.alpha),
        "z": [float(model.z.real), float(model.z.imag)],
    }


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _no_result(command: str, exc: ValueError) -> int:
    # valid input on which a numeric stage reaches no result: exit 1 with the
    # diagnostic on stderr (usage errors exit 2 through parser.error)
    sys.stderr.write(f"epresolve {command}: no result: {exc}\n")
    return 1


def _write_json(payload: dict, out: str | None) -> None:
    # a non-finite number raises ValueError before anything is written,
    # instead of printing a non-standard NaN or Infinity token
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _write_csv(header: list[str], rows: list[list], out: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    if out is None:
        sys.stdout.write(buf.getvalue())
    else:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            fh.write(buf.getvalue())


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_algebra(model, mutate: bool) -> list[VerificationReport]:
    return [verify_intertwining(k, mutate=mutate) for k in (1, 2, 4)]


def _suite_susy(model: BoundaryModel, mutate: bool) -> list[VerificationReport]:
    reports = [verify_intertwining(model.n, mutate=mutate)]
    bad: list[str] = []
    for base in range(4):
        raised = darboux_potential(
            Fraction(base * (base + 1)), growing_chain(BoundaryModel(base, model.z), 1)
        )
        lowered = darboux_potential(
            raised, normalizable_chain(BoundaryModel(base + 1, model.z), 1)
        )
        if raised != Fraction((base + 1) * (base + 2)):
            bad.append(f"raise from {base}: got {raised}")
        if lowered != Fraction(base * (base + 1)):
            bad.append(f"lower back to {base}: got {lowered}")
    reports.append(
        VerificationReport(
            identity="susy-roundtrip",
            label="raising then lowering restores the coupling exactly",
            mode="exact-symbolic",
            residual=float(len(bad)),
            tolerance=0.0,
            trace=tuple(bad) if bad else ("bases 0..3 round-trip exactly",),
        )
    )
    return reports


def _jump_extrapolated(model, xp: float, E: float) -> complex:
    # one-sided 4th-order first derivatives on both banks, extrapolated to
    # the diagonal by Neville over a halving sequence of offsets; the 60
    # stencil points (offset, bank, step) go to green in one array call
    ds = [0.08, 0.04, 0.02, 0.01, 0.005, 0.0025]
    steps = (-2, -1, 0, 1, 2)
    xs = np.array([[[x + s * (d / 8) for s in steps] for x in (xp + d, xp - d)] for d in ds])
    g = green(model, xs, xp, E)

    def side(values: np.ndarray, h: float) -> complex:
        coeffs = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
        return sum(c * v for c, v in zip(coeffs, values))

    vals = [side(right, d / 8) - side(left, d / 8) for d, (right, left) in zip(ds, g)]
    for lvl in range(1, len(vals)):
        for i in range(len(vals) - lvl):
            vals[i] = vals[i + 1] + (vals[i + 1] - vals[i]) * ds[i + lvl] / (
                ds[i] - ds[i + lvl]
            )
    return vals[0]


def _suite_greens(model, mutate: bool) -> list[VerificationReport]:
    jump = _jump_extrapolated(model, 0.3, 2.0)
    reports = [
        VerificationReport(
            identity="green-jump",
            label="derivative step across the diagonal equals -1",
            mode="numeric",
            residual=abs(jump + 1.0),
            tolerance=1e-6,
            trace=(f"extrapolated jump {jump.real:+.9e}{jump.imag:+.3e}i",),
        )
    ]
    if isinstance(model, BoundaryModel):
        center, radius = 0j, 0.5
    else:
        center, radius = complex(model.alpha), 0.25
    order = pole_order(model, center, radius)
    half = pole_order(model, center, radius / 2)
    reports.append(
        VerificationReport(
            identity="green-pole-stability",
            label="contour pole order is invariant under radius halving",
            mode="exact-symbolic",
            residual=float(abs(order - half)),
            tolerance=0.0,
            trace=(f"order {order} at radius {radius}", f"order {half} at radius {radius / 2}"),
        )
    )
    return reports


def _suite_biortho(model, mutate: bool) -> list[VerificationReport]:
    if isinstance(model, InteriorModel):
        return [interior_biortho(model, "zero_zero"), interior_biortho(model, "zero_one")]
    reports = []
    n = model.n
    for l in range(n):
        for lp in range(l, n - l):
            reports.append(overlap_zero(model, l, lp))
    if n >= 1:
        reports.append(overlap_growing(model, n))
    delta = Fraction(1, 1000) if mutate else 0
    reports.append(scatter_norm(model, delta=delta))
    return reports


_SUITES = {
    "algebra": _suite_algebra,
    "biortho": _suite_biortho,
    "susy": _suite_susy,
    "greens": _suite_greens,
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        model = _build_model(args)
        # each named suite runs once, in first-seen order
        names = list(dict.fromkeys(s.strip() for s in args.suite.split(",") if s.strip()))
        if not names:
            raise ValueError(f"--suite names no suite; choose from all, {', '.join(_SUITE_NAMES)}")
        # every name is checked before "all" replaces the list
        for name in names:
            if name != "all" and name not in _SUITES:
                raise ValueError(f"unknown suite {name!r}; choose from {', '.join(_SUITE_NAMES)}")
        # the susy suite checks the ladder at the model's own index n >= 1;
        # "all" leaves it out where there is none
        ladder = isinstance(model, BoundaryModel) and model.n >= 1
        if "all" in names:
            names = [s for s in _SUITE_NAMES if s != "susy" or ladder]
        if "susy" in names and not ladder:
            if args.model == "interior":
                raise ValueError("the susy suite applies to the boundary family only")
            raise ValueError("the susy suite needs a ladder index n >= 1")
    except ValueError as exc:
        parser.error(str(exc))
    reports: list[VerificationReport] = []
    try:
        for name in names:
            reports.extend(_SUITES[name](model, args.mutate))
    except ValueError as exc:
        return _no_result(f"verify --suite {name}", exc)
    payload = {
        "schema": _SCHEMA,
        "model": _model_tag(model),
        "mutate": bool(args.mutate),
        "suites": names,
        "reports": [r.to_dict() for r in reports],
    }
    try:
        _write_json(payload, args.out)
    except ValueError as exc:
        named = ", ".join(r.identity for r in reports if not math.isfinite(r.residual))
        return _no_result("verify", ValueError(f"report {named}: {exc}"))
    if args.out is not None:
        for r in reports:
            print(r)
    return 0 if all(r.passed for r in reports) else 1


def cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        model = _build_model(args)
        scheme = Scheme(SchemeId(args.scheme.lower()), model)
        f = _parse_testfn(args.testfn)
        f.check_model(model)
    except ValueError as exc:
        parser.error(str(exc))
    eps_grid = args.eps_grid
    xp = args.xp
    target = complex(np.asarray(f.make_eval(model)(np.array([xp]))).ravel()[0])
    cutoffs = [args.coupling_c / eps for eps in eps_grid]
    try:
        values = apply_scheme(scheme, eps_grid, cutoffs, f, xp, tol=args.tol)
    except ValueError as exc:
        parser.error(str(exc))
    rows = []
    for eps, A, value in zip(eps_grid, cutoffs, map(complex, values)):
        rows.append(
            [
                scheme.kind.value,
                repr(eps),
                repr(A),
                repr(xp),
                repr(value.real),
                repr(value.imag),
                repr(target.real),
                repr(target.imag),
                repr(abs(value - target)),
            ]
        )
    header = [
        "scheme", "epsilon", "A", "x_prime",
        "value_re", "value_im", "target_re", "target_im", "abs_error",
    ]
    _write_csv(header, rows, args.out)
    return 0


def cmd_indexes(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        model = _build_model(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        k_order = pole_order(model, 0j, 0.5) if isinstance(model, BoundaryModel) else None
        triple = indexes(model) if k_order is None else _boundary_indexes(model, k_order)
    except ValueError as exc:
        return _no_result("indexes", exc)
    payload = {
        "schema": _SCHEMA,
        "model": _model_tag(model),
        "n1": triple.n1,
        "n2": triple.n2,
        "n3": triple.n3,
        "k_plane_pole_order": k_order,
    }
    _write_json(payload, args.out)
    return 0


def cmd_susy(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        model = _build_model(args)
        if not isinstance(model, BoundaryModel):
            raise ValueError("Darboux chains are defined for the boundary family only")
        build = growing_chain if args.chain == "growing" else normalizable_chain
        chain = build(model, args.length)
        target, deltas = multiplicity_delta(model.n, chain)
        before = Fraction(model.n * (model.n + 1))
        after = darboux_potential(before, chain)
    except ValueError as exc:
        parser.error(str(exc))
    consistent = after == Fraction(target * (target + 1))
    payload = {
        "schema": _SCHEMA,
        "model": _model_tag(model),
        "chain": args.chain,
        "length": args.length,
        "target_n": target,
        "index_deltas": list(deltas),
        "coupling_before": str(before),
        "coupling_after": str(after),
        "consistent": consistent,
    }
    _write_json(payload, args.out)
    return 0 if consistent else 1


def cmd_green(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        model = _build_model(args)
        value = complex(green(model, args.x, args.xp, args.energy))
    except ValueError as exc:
        parser.error(str(exc))
    payload = {
        "schema": _SCHEMA,
        "model": _model_tag(model),
        "x": args.x,
        "x_prime": args.xp,
        "energy": args.energy,
        "value_re": value.real,
        "value_im": value.imag,
    }
    _write_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_model_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--model", choices=("boundary", "interior"), default="boundary")
    sp.add_argument("--n", type=int, default=None,
                    help="coupling index of the boundary family (default 2)")
    sp.add_argument("--alpha", type=_finite_float, default=None,
                    help="resonance momentum of the interior family (default 1.0)")
    sp.add_argument("--z", type=_parse_z, default="0,1", help="complex displacement as re,im (default 0,1)")
    sp.add_argument("--out", default=None, help="output file (default stdout)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epresolve",
        description="verify and explore the exceptional-point spectral constructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity-verification suites, emit a JSON report")
    _add_model_flags(v)
    v.add_argument("--suite", default="all", help="comma list from: all, " + ", ".join(_SUITE_NAMES))
    v.add_argument("--mutate", action="store_true", help="apply the sensitivity mutation (suites must fail)")

    s = sub.add_parser("sweep", help="drive a reconstruction scheme over an eps grid, emit CSV")
    _add_model_flags(s)
    s.add_argument("--scheme", required=True, help="scheme id, e.g. res3, res12, int04")
    s.add_argument("--testfn", default="gaussian:0,1",
                   help="gaussian[:c,w] | hermite:n[,c,w] | rational:q | chain:l | psi0 | psi1")
    s.add_argument("--eps-grid", dest="eps_grid", type=_parse_eps_grid, default="0.4,0.2,0.1,0.05")
    s.add_argument("--coupling-c", dest="coupling_c", type=_positive_float, default=50.0,
                   help="cutoff coupling: A = c/eps")
    s.add_argument("--xp", type=_finite_float, default=0.3, help="reconstruction point")
    s.add_argument("--tol", type=_positive_float, default=1e-9, help="quadrature tolerance")

    i = sub.add_parser("indexes", help="report the spectral index triple as JSON")
    _add_model_flags(i)

    y = sub.add_parser("susy", help="apply a Darboux chain and report the index shifts")
    _add_model_flags(y)
    y.add_argument("--chain", choices=("growing", "normalizable"), default="growing")
    y.add_argument("--length", type=int, default=1)

    g = sub.add_parser("green", help="evaluate the Green function at a point")
    _add_model_flags(g)
    g.add_argument("--x", type=_finite_float, required=True)
    g.add_argument("--xp", type=_finite_float, required=True)
    g.add_argument("--energy", type=_finite_float, required=True)
    return parser


_HANDLERS = {
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "indexes": cmd_indexes,
    "susy": cmd_susy,
    "green": cmd_green,
}


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Glue an option and a value that starts with a minus sign into one
    ``--opt=value`` token.

    argparse reads a token that starts with '-' as an option unless it is
    a plain negative number, so ``--z -0.4,0.2`` and ``--xp -1e-3`` would be
    usage errors.  No option here starts with '-' and a digit or a point,
    so such a token after ``--opt`` can only be its value.
    """
    out: list[str] = []
    for token in argv:
        if re.match(r"-\.?\d", token) and out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    return _HANDLERS[args.command](args, parser)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
