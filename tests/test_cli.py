"""End-to-end CLI checks: exit codes, JSON/CSV artifacts, determinism."""

import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epresolve.cli as cli
import epresolve.greens as greens
import epresolve.resolution as resolution
from epresolve.cli import main


def run(args):
    return main(args)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_cli_import_leaves_scipy_unloaded():
    # a fresh interpreter: scipy.special was over half of the import time, and
    # only res13's partner cross term (imported there) and the tests need scipy
    package_root = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))}
    probe = "import sys, epresolve.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_verify_all_boundary_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--model", "boundary", "--n", "2", "--z", "0,1",
                "--suite", "all", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["schema"] == 1
    assert payload["suites"] == ["algebra", "biortho", "susy", "greens"]
    assert payload["reports"], "at least one report per suite"
    for record in payload["reports"]:
        assert record["passed"] is True
        for key in ("identity", "label", "mode", "residual", "tolerance"):
            assert key in record


def test_verify_all_interior_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--model", "interior", "--alpha", "1.0",
                "--suite", "all", "--out", str(out)])
    assert code == 0
    assert "susy" not in read_json(out)["suites"]


def test_verify_rejects_negative_index():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--n", "-1"])
    assert exc.value.code == 2


def test_verify_rejects_real_displacement():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--z", "1,0"])
    assert exc.value.code == 2


def test_verify_susy_mutation_fails(tmp_path):
    out = tmp_path / "mut.json"
    code = run(["verify", "--suite", "susy", "--mutate", "--out", str(out)])
    assert code == 1
    payload = read_json(out)
    assert any(not r["passed"] for r in payload["reports"])


def test_verify_interior_susy_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--model", "interior", "--suite", "susy"])
    assert exc.value.code == 2


def test_verify_susy_at_index_zero_is_usage_error(capsys):
    # index 0 has no ladder; the suite must not check another index instead
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--n", "0", "--suite", "susy"])
    assert exc.value.code == 2
    assert "the susy suite needs a ladder index n >= 1" in capsys.readouterr().err


def test_verify_all_at_index_zero_leaves_susy_out(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--n", "0", "--suite", "all", "--out", str(out)]) == 0
    assert read_json(out)["suites"] == ["algebra", "biortho", "greens"]


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", ["all,nosuch", "nosuch,all"])
def test_verify_unknown_suite_beside_all(suite):
    # "all" replaces the list, but only after every name was checked
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", suite])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", [",", "", " , ,"])
def test_verify_empty_suite_list_is_usage_error(suite, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", suite])
    assert exc.value.code == 2
    assert "names no suite" in capsys.readouterr().err


def test_verify_repeated_suite_runs_once(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "susy,algebra,susy,algebra", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["suites"] == ["susy", "algebra"]
    # susy: its intertwining at n = 2 and the round trip; algebra: n = 1, 2, 4
    labels = [r["label"] for r in payload["reports"]]
    assert labels == [
        "ladder intertwining and factorization at index 2",
        "raising then lowering restores the coupling exactly",
    ] + [f"ladder intertwining and factorization at index {n}" for n in (1, 2, 4)]


def test_sweep_res3_exact_rows(tmp_path):
    out = tmp_path / "res3.csv"
    code = run(["sweep", "--scheme", "res3", "--n", "2",
                "--eps-grid", "0.5,0.25", "--xp", "0.3", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["scheme", "epsilon", "A", "x_prime",
                       "value_re", "value_im", "target_re", "target_im", "abs_error"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[0] == "res3"
        assert float(row[-1]) < 5e-6  # exact at every eps, quadrature error only


def test_sweep_partner_floor(tmp_path):
    out = tmp_path / "psi1.csv"
    code = run(["sweep", "--model", "interior", "--scheme", "res12",
                "--testfn", "psi1", "--eps-grid", "0.4,0.2", "--xp", "0.7",
                "--out", str(out)])
    assert code == 0
    errors = [float(row[-1]) for row in read_csv(out)[1:]]
    assert all(e > 0.1 for e in errors)  # the partner is never reconstructed


def test_sweep_gaussian_error_decreases(tmp_path):
    out = tmp_path / "gauss.csv"
    code = run(["sweep", "--model", "interior", "--scheme", "res12",
                "--eps-grid", "0.4,0.2,0.1", "--out", str(out)])
    assert code == 0
    errors = [float(row[-1]) for row in read_csv(out)[1:]]
    assert errors[0] > errors[1] > errors[2]


def test_sweep_unknown_scheme():
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--scheme", "nosuch"])
    assert exc.value.code == 2


def test_sweep_scheme_family_mismatch():
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--model", "interior", "--scheme", "res3"])
    assert exc.value.code == 2


def test_sweep_is_rfc4180(tmp_path):
    out = tmp_path / "crlf.csv"
    run(["sweep", "--scheme", "res3", "--n", "1", "--eps-grid", "0.5", "--out", str(out)])
    assert b"\r\n" in out.read_bytes()


def test_outputs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--scheme", "res3", "--n", "1", "--eps-grid", "0.5,0.25"]
    run(args + ["--out", str(a)])
    run(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    vargs = ["verify", "--suite", "algebra,greens"]
    run(vargs + ["--out", str(ja)])
    run(vargs + ["--out", str(jb)])
    assert ja.read_bytes() == jb.read_bytes()


def test_indexes_boundary(tmp_path):
    out = tmp_path / "idx.json"
    assert run(["indexes", "--model", "boundary", "--n", "3", "--out", str(out)]) == 0
    payload = read_json(out)
    assert (payload["n1"], payload["n2"], payload["n3"]) == (2, 3, 3)
    assert payload["k_plane_pole_order"] == 7


def test_indexes_measures_the_pole_order_once(tmp_path, monkeypatch):
    calls = []
    measure = greens.pole_order

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return measure(*args, **kwargs)

    monkeypatch.setattr(greens, "pole_order", counting)
    monkeypatch.setattr(cli, "pole_order", counting)
    out = tmp_path / "idx.json"
    assert run(["indexes", "--n", "3", "--out", str(out)]) == 0
    assert calls == [(0j, 0.5)]
    payload = read_json(out)
    assert (payload["n3"], payload["k_plane_pole_order"]) == (3, 7)


def test_indexes_boundary_past_order_twelve(tmp_path, capsys):
    # momentum-plane order 2n+1 = 13 exceeds the old fixed moment bound of 12
    out = tmp_path / "idx6.json"
    assert run(["indexes", "--n", "6", "--out", str(out)]) == 0
    payload = read_json(out)
    assert (payload["n1"], payload["n2"], payload["n3"]) == (3, 6, 6)
    assert payload["k_plane_pole_order"] == 13
    assert capsys.readouterr().err == ""


def test_verify_greens_large_n_ends_in_a_verdict(tmp_path, capsys):
    out = tmp_path / "greens7.json"
    code = run(["verify", "--n", "7", "--suite", "greens", "--out", str(out)])
    assert "Traceback" not in capsys.readouterr().err
    payload = json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    reports = {r["identity"]: r for r in payload["reports"]}
    stability = reports["green-pole-stability"]
    assert stability["passed"] is True and stability["residual"] == 0.0
    assert stability["trace"] == ["order 15 at radius 0.5", "order 15 at radius 0.25"]
    # green-jump fails for n >= 5 (finite-difference residual 4.0e-5 at
    # n = 5, 1.06 at n = 7): a known defect; a failed report gives exit 1
    assert not reports["green-jump"]["passed"]
    assert code == 1


@pytest.mark.parametrize("n", [41, 50, 200])
def test_indexes_past_the_resolvable_range_is_a_diagnostic(n, capsys):
    # up to n = 40 the contour moments separate (at Im z from 0.1 to 3); from
    # 41 they do not, and by n = 200 the solution's exact coefficients
    # overflow a float: either way exit 1 with the reason, no traceback
    assert run(["indexes", "--n", str(n)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("epresolve indexes: no result:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("n", [50, 200])
def test_verify_greens_past_the_resolvable_range_is_a_diagnostic(n, capsys):
    assert run(["verify", "--n", str(n), "--suite", "greens"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("epresolve verify --suite greens: no result:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args",
    [["--n", "160"], ["--model", "interior", "--alpha", "1.41421356"]],
    ids="n160 embedded-momentum".split(),
)
def test_verify_greens_refusals_survive_the_array_stencil(args, capsys):
    # an overflow at any of the 60 stencil points, or E = 2 within 1e-6 of
    # alpha**2, still ends in a diagnostic with exit 1
    assert run(["verify", *args, "--suite", "greens"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("epresolve verify --suite greens: no result:")


@pytest.mark.parametrize("model", ["boundary", "interior"])
def test_verify_greens_makes_one_green_call(model, monkeypatch, capsys):
    # the jump's 60 stencil points (offset, bank, step) in one array call
    calls = []

    def counting(model, x, xp, E):
        calls.append(np.shape(x))
        return greens.green(model, x, xp, E)

    monkeypatch.setattr(cli, "green", counting)
    assert run(["verify", "--model", model, "--suite", "greens"]) == 0
    assert calls == [(6, 2, 5)]


@pytest.mark.parametrize(
    "args",
    [
        ["--n", "1", "--x", "1e300", "--xp", "0"],
        ["--model", "interior", "--x", "1e300", "--xp", "0"],
        ["--n", "3", "--x", "0.5", "--xp=-1e8"],
        ["--model", "interior", "--alpha", "1e6", "--x", "1e3", "--xp", "0"],
    ],
    ids="boundary interior boundary-xp interior-alpha".split(),
)
def test_green_past_the_phase_rounding_is_usage_error(args, capsys):
    # at |x| = 1e300 the phase k*x keeps no correct digit; these printed
    # 0.476+0.371i (boundary) and 1.067+0.832i (interior) with exit 0
    with pytest.raises(SystemExit) as exc:
        run(["green", *args, "--energy", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "(--x/--xp) is out of range" in captured.err and "2**-53" in captured.err


def test_interior_alpha_past_the_tail_order_cap_is_reported(capsys):
    # at alpha 0.03 the 1/W expansion of the exact tails would need more than
    # its order cap, beyond the transform's X = 40 and the pairings' X = 60
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--model", "interior", "--alpha", "0.03", "--scheme", "res12",
             "--testfn", "psi1", "--eps-grid", "0.02,0.01"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "|x| = 40" in captured.err and "alpha = 0.03" in captured.err
    assert run(["verify", "--model", "interior", "--alpha", "0.03"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("epresolve verify --suite biortho: no result:")
    assert "|x| = 60" in captured.err and "alpha = 0.03" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["--n", "200", "--energy", "2"],
        ["--n", "100", "--energy", "2"],
        ["--n", "3", "--energy", "1e300"],
        ["--model", "interior", "--alpha", "1e200", "--energy", "2"],
    ],
)
def test_green_past_the_float_range_is_usage_error(args, capsys):
    # these used to print Infinity/NaN tokens with exit 0 or end in a traceback
    with pytest.raises(SystemExit) as exc:
        run(["green", "--x", "0.7", "--xp", "-0.4", *args])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "overflow" in captured.err


def test_huge_boundary_index_ends_before_the_exact_build(monkeypatch, capsys):
    # (2n-1)!!, the largest coefficient of the solution, passes the float
    # range from n = 151: the check comes before bm_scatter builds anything
    def refuse(model):
        raise AssertionError(f"bm_scatter built at n = {model.n}")

    monkeypatch.setattr(greens, "bm_scatter", refuse)
    assert run(["indexes", "--n", "3000"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("epresolve indexes: no result:")
    assert "overflow" in captured.err and "Traceback" not in captured.err
    with pytest.raises(SystemExit) as exc:
        run(["green", "--n", "1000", "--x", "0.7", "--xp", "-0.4", "--energy", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "overflow" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("model", ["interior", "boundary"])
def test_green_at_the_spectral_origin_names_the_threshold(model, capsys):
    # the interior family used to divide by k = 0 and report an overflow
    with pytest.raises(SystemExit) as exc:
        run(["green", "--model", model, "--x", "0.7", "--xp", "-0.4", "--energy", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "spectral origin (|k| < 1e-8)" in captured.err


def test_indexes_interior(tmp_path):
    out = tmp_path / "idx.json"
    assert run(["indexes", "--model", "interior", "--out", str(out)]) == 0
    payload = read_json(out)
    assert (payload["n1"], payload["n2"], payload["n3"]) == (1, 1, 2)
    assert payload["k_plane_pole_order"] is None


def test_susy_subcommand_lowering_caveat(tmp_path):
    out = tmp_path / "susy.json"
    code = run(["susy", "--n", "2", "--chain", "normalizable", "--length", "1",
                "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["target_n"] == 1
    assert payload["index_deltas"] == [0, -1, -1]
    assert payload["consistent"] is True
    assert payload["coupling_after"] == "2"


@pytest.mark.parametrize("length", [12, 30])
def test_susy_long_growing_chains_are_fast(length, tmp_path):
    # the Wronskian eliminates an L x L coefficient matrix, O(L^3); the old
    # Laplace expansion took 2.6 s at L = 9 and did not finish at L = 30
    out = tmp_path / "susy.json"
    start = time.perf_counter()
    code = run(["susy", "--n", "1", "--chain", "growing", "--length", str(length), "--out", str(out)])
    elapsed = time.perf_counter() - start
    payload = read_json(out)
    assert code == 0 and payload["consistent"] is True
    assert payload["target_n"] == 1 + length
    assert elapsed < 1.0


def test_susy_subcommand_rejects_overlong_chain():
    with pytest.raises(SystemExit) as exc:
        run(["susy", "--n", "2", "--chain", "normalizable", "--length", "2"])
    assert exc.value.code == 2


def test_green_subcommand_free_particle(tmp_path):
    out = tmp_path / "g.json"
    code = run(["green", "--model", "boundary", "--n", "0",
                "--x", "1", "--xp", "0", "--energy", "1", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    import cmath
    expected = 0.5j * cmath.exp(1j)
    assert abs(complex(payload["value_re"], payload["value_im"]) - expected) < 1e-12


def test_green_subcommand_singular_energy():
    with pytest.raises(SystemExit) as exc:
        run(["green", "--n", "1", "--x", "1", "--xp", "0", "--energy", "0"])
    assert exc.value.code == 2


def test_sweep_negative_hermite_order_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--scheme", "res3", "--testfn", "hermite:-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Hermite order must be >= 0" in err and "Traceback" not in err


@pytest.mark.parametrize("order", [14, 40])
def test_sweep_hermite_order_past_the_bound_is_usage_error(order, capsys):
    # from order 14 the spectral integrals hit the panel cap and return
    # values several percent off with exit 0
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--n", "2", "--scheme", "res3", "--testfn", f"hermite:{order}", "--eps-grid", "0.4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"hermite:{order} is out of range (order <= 13)" in err and "Traceback" not in err


def test_sweep_hermite_order_at_the_bound_converges(tmp_path):
    # f reaches about 1e7 at order 13, so the absolute quadrature tolerance
    # is read relative to f's scale
    out = tmp_path / "h13.csv"
    code = run(["sweep", "--n", "2", "--scheme", "res3", "--testfn", "hermite:13", "--eps-grid", "0.4",
                "--out", str(out)])
    assert code == 0
    header, values = read_csv(out)
    row = dict(zip(header, values))
    target = abs(complex(float(row["target_re"]), float(row["target_im"])))
    assert float(row["abs_error"]) < 1e-9 * target


@pytest.mark.parametrize(
    "args",
    [
        ["--n", "2", "--scheme", "res3", "--testfn", "chain:9", "--eps-grid", "0.4"],
        ["--n", "2", "--scheme", "res3", "--testfn", "chain:2", "--eps-grid", "0.4"],
        ["--n", "0", "--scheme", "res3", "--testfn", "chain:0", "--eps-grid", "0.4"],
        ["--scheme", "res3", "--testfn", "chain:-1"],
        ["--model", "interior", "--scheme", "res12", "--testfn", "chain:1"],
        ["--scheme", "res3", "--testfn", "psi1"],
        ["--scheme", "res3", "--testfn", "psi0"],
    ],
)
def test_sweep_testfn_outside_the_model_is_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", *args])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and "chain members" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["--n", "2", "--scheme", "res9", "--testfn", "chain:1"],
        ["--n", "4", "--scheme", "int5", "--testfn", "chain:3"],
    ],
)
def test_sweep_divergent_chain_pairing_is_usage_error(args, capsys):
    # the chain-based boundary schemes pair f with chain member n - 1, which
    # diverges for every boundary chain member l >= 1
    with pytest.raises(SystemExit) as exc:
        run(["sweep", *args, "--eps-grid", "0.4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    scheme, testfn = args[3], args[5]
    assert f"scheme {scheme} " in captured.err and testfn in captured.err
    assert "diverges" in captured.err


@pytest.mark.parametrize("testfn", ["gaussian", "chain:0"])
def test_sweep_radius_past_the_block_growth_is_usage_error(testfn, capsys):
    # res3's closed blocks apply e^{-i eps z}, which leaves the float range
    # past eps |Im z| ~ 709.8
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--n", "2", "--scheme", "res3", "--testfn", testfn, "--eps-grid", "1000"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "scheme res3 needs eps * |Im z| <= 700" in captured.err


def test_sweep_large_radius_within_the_block_growth_is_exact(tmp_path):
    # eps |Im z| = 300 and 700, the bound: res3 stays exact
    out = tmp_path / "wide.csv"
    code = run(["sweep", "--n", "2", "--scheme", "res3", "--testfn", "gaussian", "--z", "0,0.5",
                "--eps-grid", "600,1400", "--out", str(out)])
    assert code == 0
    assert all(float(row[-1]) < 1e-13 for row in read_csv(out)[1:])


@pytest.mark.parametrize("exponent", ["100", "171"])
def test_sweep_rational_exponent_out_of_range_is_usage_error(exponent, capsys):
    # past q = 16 the boundary spectral integral, cut at |k| = 45, misses the
    # tolerance of an exact scheme; from q = 171 the partial fractions of the
    # closed moments overflow a float
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--n", "2", "--scheme", "res3", "--testfn", f"rational:{exponent}", "--eps-grid", "0.4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"rational:{exponent}" in captured.err


@pytest.mark.parametrize("family", [["--n", "1", "--scheme", "res3"], ["--model", "interior", "--scheme", "res12"]],
                         ids=["boundary", "interior"])
@pytest.mark.parametrize("testfn", ["gaussian:1e6,1", "gaussian:0,1e5"], ids=["far", "wide"])
def test_sweep_packet_past_the_panel_bound_is_usage_error(family, testfn, monkeypatch, capsys):
    # millions of grid panels, gigabytes of value rows: refused before any
    # grid is built
    def boom(*args):
        raise AssertionError("built a grid")

    monkeypatch.setattr(resolution, "composite_gauss", boom)
    with pytest.raises(SystemExit) as exc:
        run(["sweep", *family, "--testfn", testfn, "--eps-grid", "0.4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    center, width = (1e6, 1.0) if testfn.endswith("1e6,1") else (0.0, 1e5)
    assert f"center {center!r} with width {width!r}" in captured.err
    assert "more than 32768" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--suite", "algebra"],
        ["indexes"],
        ["susy"],
        ["green", "--x", "1", "--xp", "0", "--energy", "1"],
    ],
)
def test_tol_is_a_sweep_only_option(args, capsys):
    run(args)  # the same command without --tol is valid
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([*args, "--tol", "1e-9"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tol" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["green", "--z", "nan,1", "--x", "1", "--xp", "0", "--energy", "1"],
        ["green", "--z", "0,inf", "--x", "1", "--xp", "0", "--energy", "1"],
        ["green", "--model", "interior", "--alpha", "nan", "--x", "1", "--xp", "0", "--energy", "1"],
        ["green", "--x", "nan", "--xp", "0", "--energy", "1"],
        ["green", "--x", "1", "--xp=-inf", "--energy", "1"],
        ["green", "--x", "1", "--xp", "0", "--energy", "nan"],
        ["sweep", "--scheme", "res3", "--xp", "nan"],
        ["sweep", "--scheme", "res3", "--eps-grid", "nan"],
        ["sweep", "--scheme", "res3", "--eps-grid", "0.4,inf"],
        ["sweep", "--scheme", "res3", "--tol", "nan"],
        ["sweep", "--scheme", "res3", "--tol", "inf"],
        *(
            ["sweep", "--n", "1", "--scheme", "res3", "--eps-grid", "0.4", "--testfn", spec]
            for spec in ("gaussian:0,0", "gaussian:inf", "gaussian:0,-1", "gaussian:nan,1", "hermite:1,0,0")
        ),
    ],
)
def test_non_finite_numbers_are_usage_errors(args, capsys):
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--n", "1", "--suite", "algebra"],
        ["verify", "--model", "interior", "--suite", "algebra"],
        ["sweep", "--n", "1", "--scheme", "res3", "--eps-grid", "0.4"],
        ["indexes", "--n", "1"],
        ["susy", "--n", "2", "--chain", "growing", "--length", "1"],
        ["green", "--n", "1", "--x", "0.7", "--xp", "-0.4", "--energy", "2.0"],
    ],
    ids=["verify", "verify-interior", "sweep", "indexes", "susy", "green"],
)
def test_negative_re_z_spaced_and_joined_forms_agree(args, capsys):
    # "--z -0.4,0.6" is not a plain negative number, which argparse would take
    # for an option: both forms must give the same result
    outputs = []
    for z in (["--z", "-0.4,0.6"], ["--z=-0.4,0.6"], ["--z", "-.4,.6"]):
        assert run([*args, *z]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1] == outputs[2] != ""


def test_signed_values_attach_only_to_a_preceding_option(capsys):
    # a negative number in exponent form after --xp, as --xp=-1e-3 gives it
    outputs = []
    for xp in (["--xp", "-1e-3"], ["--xp=-1e-3"]):
        assert run(["sweep", "--n", "1", "--scheme", "res3", "--eps-grid", "0.4", *xp]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and ",-0.001," in outputs[0]
    assert cli._attach_signed_values(["sweep", "--z", "-0.4,0.6", "-1"]) == ["sweep", "--z=-0.4,0.6", "-1"]
    assert cli._attach_signed_values(["green", "--x", "0.7", "-2"]) == ["green", "--x", "0.7", "-2"]
    assert cli._attach_signed_values(["--out", "-", "--z", "--n"]) == ["--out", "-", "--z", "--n"]
    # a flag that takes no value stays a usage error, with or without the sign
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--n", "1", "--suite", "algebra", "--mutate", "-1"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "args, flag",
    [
        (["verify", "--model", "interior", "--n", "3", "--suite", "algebra"], "--n"),
        (["verify", "--alpha", "1.5", "--suite", "algebra"], "--alpha"),
        (["indexes", "--model", "interior", "--n", "3"], "--n"),
        (["indexes", "--n", "3", "--alpha", "1.5"], "--alpha"),
        (["green", "--model", "interior", "--n", "1", "--x", "1", "--xp", "0", "--energy", "1"], "--n"),
        (["green", "--alpha", "2", "--x", "1", "--xp", "0", "--energy", "1"], "--alpha"),
        (["sweep", "--model", "interior", "--n", "2", "--scheme", "res12", "--eps-grid", "0.4"], "--n"),
        (["sweep", "--alpha", "1.5", "--scheme", "res3", "--eps-grid", "0.4"], "--alpha"),
    ],
)
def test_model_flag_of_the_other_family_is_usage_error(args, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} applies to the" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("radius", ["1e-7", "0.4,1.5"])
def test_interior_radius_out_of_range_is_usage_error(radius, capsys):
    # below ~5e-7 at alpha 1 the spectral integral reaches the scattering
    # solution's pole guard; at or past alpha the puncture swallows the pole
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--model", "interior", "--scheme", "res12", "--testfn", "gaussian", "--eps-grid", radius])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "out of range" in captured.err and "--eps-grid" in captured.err
    assert "regularized" not in captured.err and "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# argv fuzz: every input ends in a result, a verdict or a usage error
# ---------------------------------------------------------------------------

_number_text = st.one_of(
    st.floats(), st.floats(-5, 5), st.integers(-10**6, 10**6).map(float)
).map(repr) | st.sampled_from(["", "x", "1e999", "-0", "0"])


@st.composite
def _exact_command_argv(draw):
    command = draw(st.sampled_from(["indexes", "susy", "verify", "green"]))
    argv = [command]
    if command != "susy" and draw(st.integers(0, 3)) == 0:
        argv += ["--model", "interior"]
        if draw(st.booleans()):
            argv += ["--alpha", draw(_number_text)]
    elif draw(st.booleans()):
        # n = 41 is the first index whose pole order does not resolve; larger
        # indexes are covered by the tests above and cost seconds per draw
        argv += ["--n", str(draw(st.integers(-2, 60)))]
    if draw(st.booleans()):
        argv.append(f"--z={draw(_number_text)},{draw(_number_text)}")
    if command == "susy":
        argv += ["--chain", draw(st.sampled_from(["growing", "normalizable"]))]
        argv += ["--length", str(draw(st.integers(-2, 40)))]
    elif command == "verify":
        argv += ["--suite", draw(st.sampled_from(["algebra", "susy", "algebra,susy"]))]
        if draw(st.booleans()):
            argv.append("--mutate")
    elif command == "green":
        argv += [f"{flag}={draw(_number_text)}" for flag in ("--x", "--xp", "--energy")]
    return argv


@given(_exact_command_argv())
@settings(max_examples=100, deadline=None)
def test_cli_fuzz_exact_commands(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    elif out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert code == 1 and "no result" in err.getvalue()


@pytest.mark.parametrize("scheme testfn".split(), [("res12", "psi1"), ("res13", "rational:2")])
def test_interior_sweep_near_the_real_axis_is_usage_error(scheme, testfn, capsys):
    # W's complex zeros come within about Im z / 2 of the real axis, and no
    # grid panel may be wider: at Im z 0.001 that takes 160,001 panels over
    # the chain window and 731,312 over rational:2's, past the panel bound
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--model", "interior", "--z", "0,0.001", "--scheme", scheme, "--testfn", testfn,
             "--eps-grid", "0.4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "Im z = 0.001 (--z) is out of range" in captured.err
