"""End-to-end tests for the command-line interface.

Everything goes through cli.main(argv) so exit codes, config resolution
and file outputs are exercised exactly as a shell user would see them.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import shlex
import tempfile
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from movolt import cli, kernels, lsq, momentum, spectrum, volterra
from movolt.errors import NumericalError


def run_cli(argv, capsys=None):
    code = cli.main(argv)
    if capsys is not None:
        out = capsys.readouterr()
        return code, out.out, out.err
    return code


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "runs.csv"
    code = run_cli(["simulate", "--algo", "sgd", "--n", "128", "--d", "64",
                    "--epochs", "2", "--seeds", "3", "--out", str(out)])
    assert code == 0
    traj = momentum.Trajectory.from_csv(str(out))
    # sample times are quantized to whole steps of size 1/n
    assert traj.times[0] <= 1.0 / momentum.SAMPLES_PER_EPOCH
    assert traj.times[-1] == pytest.approx(2.0)
    assert len(traj.times) == 2 * momentum.SAMPLES_PER_EPOCH
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["command"] == "simulate"
    assert meta["config"]["algo"] == "sgd"
    assert meta["config"]["n"] == 128
    assert meta["config"]["seeds"] == 3
    assert meta["rows"] == 40
    assert meta["diverged"] is False
    assert meta["diverged_at"] == [None, None, None]


def test_simulate_is_reproducible(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["simulate", "--algo", "sdahb", "--n", "64", "--d", "64",
            "--epochs", "1", "--seeds", "2", "--seed", "11"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    ta = momentum.Trajectory.from_csv(str(a))
    tb = momentum.Trajectory.from_csv(str(b))
    assert np.array_equal(ta.mean, tb.mean)


def test_simulate_divergent_step_exits_2(tmp_path, capsys):
    out = tmp_path / "boom.csv"
    code, _, err = run_cli(
        ["simulate", "--algo", "sgd", "--n", "64", "--d", "64",
         "--gamma", "1e20", "--epochs", "2", "--seeds", "2",
         "--out", str(out)], capsys)
    assert code == 2
    assert "numerical failure" in err


def test_simulate_svg(tmp_path):
    out = tmp_path / "runs.csv"
    code = run_cli(["simulate", "--algo", "sgd", "--n", "64", "--d", "32",
                    "--epochs", "1", "--seeds", "2", "--svg",
                    "--out", str(out)])
    assert code == 0
    svg = out.with_suffix(".svg").read_text()
    assert "<svg" in svg and "polyline" in svg and "polygon" in svg
    # one sample time: the x axis spans one unit from it, and the curve is
    # one point
    code = run_cli(["simulate", "--algo", "sdahb", "--n", "20", "--d", "10",
                    "--epochs", "0.05", "--seeds", "1", "--svg",
                    "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2
    root = ET.fromstring(out.with_suffix(".svg").read_text())
    points = [p.get("points") for p in root.iter()
              if p.tag.endswith("polyline")]
    assert len(points) == 1 and len(points[0].split()) == 1


# the solving commands' plots: predict, compare, and an all-zero curve,
# which draws the frame over one decade and no point
_SVG = {"predict": ["predict", "--algo", "sgd", "--T", "2"],
        "compare": ["compare", "--algo", "sgd", "--n", "64", "--d", "32",
                    "--epochs", "1", "--seeds", "2"],
        "zero": ["predict", "--algo", "sgd", "--R", "0", "--Rtilde", "0",
                 "--T", "5"]}


@pytest.mark.parametrize("case", sorted(_SVG))
def test_solve_svg(tmp_path, capsys, case):
    out = tmp_path / "psi.csv"
    code, _, err = run_cli(_SVG[case] + ["--svg", "--out", str(out)], capsys)
    assert code == 0, err
    svg = out.with_suffix(".svg").read_text()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg") and "polyline" in svg
    points = [p.get("points") for p in root.iter()
              if p.tag.endswith("polyline")]
    assert all(points) == (case != "zero")
    assert ("polygon" in svg) == (case == "compare")


# ---------------------------------------------------------------------------
# predict


def test_predict_roundtrip(tmp_path):
    out = tmp_path / "psi.csv"
    code = run_cli(["predict", "--algo", "sgd", "--gamma", "1.0",
                    "--r", "2.0", "--T", "5", "--h", "0.05",
                    "--out", str(out)])
    assert code == 0
    sol = volterra.VolterraSolution.read(str(out))
    # psi(0) = (R*m + Rtilde)/2 = 1 at the defaults
    assert sol.psi[0] == pytest.approx(1.0, rel=1e-12)
    assert sol.meta["algo"] == "sgd"
    assert sol.meta["h"] == pytest.approx(0.05)


def test_predict_shb_requires_n(tmp_path):
    out = tmp_path / "psi.csv"
    code = run_cli(["predict", "--algo", "shb", "--gamma", "0.002",
                    "--theta", "0.02", "--n", "512", "--r", "1.0",
                    "--T", "2", "--out", str(out)])
    assert code == 0
    sol = volterra.VolterraSolution.read(str(out))
    assert sol.psi[0] == pytest.approx(1.0, rel=1e-12)


def test_predict_supercritical_exits_2(tmp_path, capsys):
    # far past the stability threshold the loss curve blows up
    out = tmp_path / "psi.csv"
    code, _, err = run_cli(
        ["predict", "--algo", "sgd", "--gamma", "3.0", "--r", "1.0",
         "--T", "30", "--out", str(out)], capsys)
    assert code == 2
    assert "numerical failure" in err


def test_predict_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # a huge --nodes asks forcing assembly for more memory than there is;
    # the allocation failure is stood in for, not provoked
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 150. GiB for an array")
    monkeypatch.setattr(kernels, "forcing_matrix", no_memory)
    out = tmp_path / "psi.csv"
    code, _, err = run_cli(
        ["predict", "--algo", "sgd", "--T", "5", "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("numerical failure: out of memory")
    assert "150. GiB" in err
    assert "Traceback" not in err


def test_predict_refuses_rk4_work_out_of_reach(tmp_path, capsys):
    # r = 1e-6 puts lambda_max near 1e6 and K(0) = g2^2 int lam^2 dmu near
    # 1e6: the march is singular at the default h, refused before the sweep
    out = tmp_path / "psi.csv"
    start = time.perf_counter()
    code, _, err = run_cli(["predict", "--algo", "sdana", "--r", "1e-6",
                            "--T", "1", "--out", str(out)], capsys)
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert "marching singularity" in err
    mu = spectrum.mp_measure(1e-6)
    g2 = momentum.defaults("sdana", mu).kernel_spec().gamma2
    k0 = g2**2 * mu.integrate(np.square)
    assert k0 > 1e5
    assert "--h below 2/K(0) = %.6g" % (2.0 / k0) in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["ode", "conv"])
def test_predict_refuses_singular_march_before_forcing(tmp_path, capsys, mode):
    # r = 1e-5 puts K(0) = g2^2 int lam^2 dmu near 1e5, so the march's
    # divisor 1 - (h/2) K(0) at the default h is negative: refused before
    # the forcing is assembled
    out = tmp_path / "psi.csv"
    start = time.perf_counter()
    code, _, err = run_cli(["predict", "--algo", "sdana", "--r", "1e-5",
                            "--T", "0.1", "--mode", mode, "--out", str(out)],
                           capsys)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert "marching singularity" in err
    mu = spectrum.mp_measure(1e-5)
    g2 = momentum.defaults("sdana", mu).kernel_spec().gamma2
    k0 = g2**2 * mu.integrate(np.square)
    assert "--h below 2/K(0) = %.6g" % (2.0 / k0) in err
    assert not out.exists()


def test_predict_refuses_a_route_the_algorithm_lacks(tmp_path, capsys):
    out = tmp_path / "psi.csv"
    code, _, err = run_cli(["predict", "--algo", "sdana", "--mode", "closed",
                            "--T", "1", "--out", str(out)], capsys)
    assert code == 1
    assert err == ("error: mode 'closed' unavailable for sdana "
                   "(allowed: ode, conv)\n")
    assert not out.exists()


@pytest.mark.parametrize("algo,mode,route", [("sdana", "ode", "ode"),
                                             ("sdana", "conv", "conv"),
                                             ("sdana", None, "ode"),
                                             ("sgd", "conv", "closed"),
                                             ("sgd", None, "closed")])
def test_predict_sidecar_names_the_route_taken(tmp_path, algo, mode, route):
    # the sidecar's mode is the route taken, in --mode's names, beside the
    # config echo of the mode given; a single-mode method takes its one
    out = tmp_path / "psi.csv"
    given = ["--mode", mode] if mode else []
    assert run_cli(["predict", "--algo", algo, "--T", "1", "--out", str(out)]
                   + given) == 0
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["mode"] == route
    assert meta["config"].get("mode") == mode
    assert "method" not in meta


def test_predict_conv_phi_out_of_range_points_to_ode(tmp_path, capsys):
    # theta ln(1 + T) > 709: the conv route's weight phi = (1+t)^theta
    # leaves double range, and the exit names the flags that set it and
    # the route that solves without it
    out = tmp_path / "psi.csv"
    code, _, err = run_cli(["predict", "--algo", "sdana", "--mode", "conv",
                            "--theta", "200", "--T", "60", "--out", str(out)],
                           capsys)
    assert code == 2
    assert err.startswith("numerical failure: --mode conv ")
    assert "--theta 200" in err and "--T" in err and "--mode ode" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_tiny_ratio_above_the_floor_reaches_the_march(tmp_path, capsys):
    # r = 1e-150 is above spectrum.MIN_RATIO: the measure builds, and the
    # march at the default h is singular (K(0) near 1/r)
    out = tmp_path / "psi.csv"
    code, _, err = run_cli(["predict", "--algo", "sgd", "--T", "0.2",
                            "--r", "1e-150", "--out", str(out)], capsys)
    assert code == 2
    assert "marching singularity" in err and "--h" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# analyze


def test_analyze_prints_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, printed, _ = run_cli(
        ["analyze", "--algo", "sdana", "--r", "2.0", "--out", str(out)],
        capsys)
    assert code == 0
    on_disk = json.loads(out.read_text())
    shown = json.loads(printed)
    assert on_disk["command"] == "analyze"
    assert shown == on_disk["report"]
    assert shown["kernel_norm"] == pytest.approx(0.625)
    assert shown["convergent"] is True
    assert shown["limiting_loss"] == pytest.approx(0.0)
    assert shown["rate_lower_bound"] > 0.0


def test_analyze_hard_edge_reports_exponents(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["analyze", "--algo", "sdana", "--r", "1.0",
                    "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["classification"] == "hard_edge"
    assert rep["predicted_poly_exponents"] == [-3.0, -1.0]


def test_analyze_huge_kernel_norm_note_is_short(tmp_path):
    # gamma1 = 1e300 gives a kernel norm of 5e299; the note prints it in
    # %g form, not as 300 digits
    out = tmp_path / "report.json"
    assert run_cli(["analyze", "--algo", "sdana", "--gamma1", "1e300",
                    "--r", "2", "--out", str(out)]) == 0
    note = json.loads(out.read_text())["report"]["malthusian_note"]
    assert note == "absent: kernel norm 5e+299 >= 1 (not convergent)"


def test_analyze_infinite_kernel_norm_is_strict_json(tmp_path, capsys):
    # the kernel norm overflows to inf: the file and stdout write it as
    # null, which strict JSON parsers read, not as Infinity
    def refuse(name):
        raise ValueError("not JSON: %s" % name)

    out = tmp_path / "report.json"
    code, printed, _ = run_cli(
        ["analyze", "--algo", "sdana", "--gamma1", "1e300", "--gamma2",
         "1e-10", "--theta", "1", "--r", "2", "--out", str(out)], capsys)
    assert code == 0
    on_disk = json.loads(out.read_text(), parse_constant=refuse)
    shown = json.loads(printed, parse_constant=refuse)
    assert shown == on_disk["report"]
    assert shown["kernel_norm"] is None
    assert shown["convergent"] is False


def test_analyze_huge_theta_heavy_ball_is_finite(tmp_path):
    # theta^2 and (theta/2)^2 leave double range, the report does not:
    # ||I|| = gamma m/(2 theta) = 0.05 and the forcing rate is about
    # 2 gamma lam_min/theta
    out = tmp_path / "report.json"
    assert run_cli(["analyze", "--algo", "sdahb", "--gamma", "1e199",
                    "--theta", "1e200", "--r", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["kernel_norm"] == pytest.approx(0.05, rel=1e-14)
    assert rep["convergent"] is True
    lam_min = rep["lam_min"]
    assert rep["effective_rate"] == pytest.approx(0.2 * lam_min, rel=1e-14)
    assert rep["rate_lower_bound"] == pytest.approx(0.1 * lam_min, rel=1e-14)
    for key in ("limiting_loss", "rate_upper_bound"):
        assert math.isfinite(rep[key])


def test_analyze_huge_gamma_heavy_ball_is_not_convergent(tmp_path):
    # ||I|| = gamma m/(2 theta) = 5e199: the report says not convergent,
    # with no bounds, where the lower bound's gamma lam theta overflows
    out = tmp_path / "report.json"
    assert run_cli(["analyze", "--algo", "sdahb", "--gamma", "1e300",
                    "--theta", "1e100", "--r", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["convergent"] is False
    assert rep["kernel_norm"] == pytest.approx(5e199, rel=1e-14)
    for key in ("effective_rate", "rate_lower_bound", "rate_upper_bound",
                "limiting_loss"):
        assert rep[key] is None


def test_analyze_hard_edge_with_underflowing_theta(tmp_path):
    # theta^2 underflows to 0 at lambda_min = 0; the bounds are 0, not 0/0
    out = tmp_path / "report.json"
    assert run_cli(["analyze", "--algo", "sdahb", "--theta", "1e-300",
                    "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["rate_lower_bound"] == 0.0
    assert rep["classification"] == "hard_edge"


def test_all_zero_design_is_a_hard_edge(tmp_path):
    # every eigenvalue folds into the atom at zero: no positive support
    data = tmp_path / "zero.csv"
    data.write_text("a,b,y\n0,0,1\n0,0,2\n0,0,3\n")
    src = ["--measure", "csv", "--data", str(data), "--target-col", "y"]
    out = tmp_path / "out.json"
    assert run_cli(["spectrum"] + src + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["support"] == [0.0, 0.0]
    assert run_cli(["analyze", "--algo", "sgd", "--gamma", "0.5"] + src
                   + ["--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["classification"] == "hard_edge"
    assert [rep["lam_min"], rep["lam_max"]] == [0.0, 0.0]
    assert rep["effective_rate"] == 0.0
    assert run_cli(["predict", "--algo", "sgd", "--gamma", "0.5", "--T", "1"]
                   + src + ["--out", str(tmp_path / "psi.csv")]) == 0


# ---------------------------------------------------------------------------
# compare


def test_compare_joins_on_nearest_grid_point(tmp_path):
    out = tmp_path / "cmp.csv"
    code = run_cli(["compare", "--algo", "sgd", "--n", "256", "--d", "256",
                    "--epochs", "2", "--seeds", "3", "--T", "2",
                    "--h", "0.01", "--out", str(out)])
    assert code == 0
    rows = np.genfromtxt(str(out), delimiter=",", names=True)
    assert set(rows.dtype.names) == {"t", "mean", "q10", "q90", "psi"}
    assert len(rows) == 2 * momentum.SAMPLES_PER_EPOCH
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["stats"]["sup_abs_dev"] < 0.15
    assert meta["stats"]["psi0"] == pytest.approx(1.0, rel=1e-12)
    assert meta["diverged_at"] == [None, None, None]
    # |mean - psi| / (std / sqrt(seeds)), recomputed from the seeds' runs
    runs = [momentum.run(lsq.generate_gaussian(256, 256, 1.0, 1.0, s),
                         momentum.sgd(meta["params"]["gamma"]), 2, s)
            for s in range(3)]
    mat = np.stack([r.mean for r in runs])
    mcse = mat.std(axis=0, ddof=1) / np.sqrt(3)
    want = np.max(np.abs(rows["mean"] - rows["psi"]) / mcse)
    assert meta["stats"]["max_dev_mcse"] == pytest.approx(want, rel=1e-9)


def test_compare_one_seed_has_no_mcse(tmp_path):
    out = tmp_path / "cmp.csv"
    code = run_cli(["compare", "--algo", "sgd", "--n", "64", "--d", "64",
                    "--epochs", "1", "--seeds", "1", "--out", str(out)])
    assert code == 0
    stats = json.loads(out.with_suffix(".json").read_text())["stats"]
    assert stats["max_dev_mcse"] is None
    assert {"sup_abs_dev", "mean_abs_dev", "psi0"} <= set(stats)


def test_simulate_sidecar_names_each_divergent_seed(tmp_path, capsys):
    # sgd at gamma 5 on 64x64 diverges on every seed, at a different step
    out = tmp_path / "div.csv"
    code, _, err = run_cli(["simulate", "--algo", "sgd", "--n", "64",
                            "--d", "64", "--gamma", "5", "--epochs", "2",
                            "--seeds", "3", "--out", str(out)], capsys)
    assert code == 0 and "some seeds diverged" in err
    meta = json.loads(out.with_suffix(".json").read_text())
    runs = [momentum.run(lsq.generate_gaussian(64, 64, 1.0, 1.0, s),
                         momentum.sgd(5.0), 2, s) for s in range(3)]
    assert meta["diverged"] is True
    assert meta["diverged_at"] == [r.meta["diverged_at"] for r in runs]
    assert len(set(meta["diverged_at"])) == 3
    assert meta["rows"] == min(len(r.times) for r in runs)


def test_compare_extends_grid_to_cover_all_samples(tmp_path):
    # T shorter than the run is silently stretched so the join never
    # falls off the end of the prediction grid
    out = tmp_path / "cmp.csv"
    code = run_cli(["compare", "--algo", "sgd", "--n", "64", "--d", "64",
                    "--epochs", "4", "--seeds", "2", "--T", "1",
                    "--out", str(out)])
    assert code == 0
    rows = np.genfromtxt(str(out), delimiter=",", names=True)
    assert rows["t"][-1] == pytest.approx(4.0)


@pytest.mark.parametrize("span", [["--epochs", "10.15"],
                                  ["--epochs", "0.15", "--T", "0.15"]])
def test_compare_refuses_samples_past_the_grid(span, tmp_path, capsys):
    # at n = 10 the last sample step rounds m*n/20 half up to even, so the
    # last sample time is epochs + 0.05, past a grid that ends at epochs
    out = tmp_path / "cmp.csv"
    code, _, err = run_cli(["compare", "--algo", "sgd", "--n", "10",
                            "--d", "5", "--seeds", "1", "--out", str(out)]
                           + span, capsys)
    assert code == 1
    assert err == ("error: trajectory times fall outside the prediction "
                   "grid; increase --T\n")
    assert not out.exists() and not out.with_suffix(".json").exists()


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_mp_summary(tmp_path):
    out = tmp_path / "mp.json"
    code = run_cli(["spectrum", "--measure", "mp", "--r", "2.0",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["measure"]["kind"] == spectrum.MP_KIND
    assert doc["summary"]["trace_moment"] == pytest.approx(1.0)
    assert doc["summary"]["zero_mass"] == pytest.approx(0.0)


def test_spectrum_from_matrix(tmp_path):
    out = tmp_path / "esm.json"
    code = run_cli(["spectrum", "--measure", "esm", "--n", "40", "--d", "12",
                    "--seed", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["measure"]["kind"] == spectrum.DISCRETE_KIND
    assert doc["summary"]["zero_mass"] == pytest.approx(28.0 / 40.0)


def test_spectrum_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 8))
    y = rng.normal(size=30)
    data = tmp_path / "data.csv"
    header = ",".join("c%d" % j for j in range(8)) + ",y"
    np.savetxt(str(data), np.column_stack([X, y]), delimiter=",",
               header=header, comments="")
    out = tmp_path / "esm.json"
    code = run_cli(["spectrum", "--measure", "csv", "--data", str(data),
                    "--target-col", "y", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    # unit-norm rows make the trace moment exactly one
    assert doc["summary"]["trace_moment"] == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# config file and precedence


def test_config_file_fills_flags(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algo": "sdana", "r": 2.0, "T": 3.0,
                               "gamma2": 0.8}))
    out = tmp_path / "psi.csv"
    code = run_cli(["predict", "--config", str(cfg), "--theta", "5.0",
                    "--out", str(out)])
    assert code == 0
    sol = volterra.VolterraSolution.read(str(out))
    params = sol.meta["params"]
    assert params["gamma2"] == pytest.approx(0.8)   # from config
    assert params["theta"] == pytest.approx(5.0)    # flag wins
    assert params["gamma1"] == pytest.approx(0.25)  # table default


def test_config_accepts_dashed_keys(tmp_path):
    rng = np.random.default_rng(1)
    data = tmp_path / "d.csv"
    np.savetxt(str(data), rng.normal(size=(20, 5)), delimiter=",",
               header="a,b,c,d,y", comments="")
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"measure": "csv", "data": str(data),
                               "target-col": "y"}))
    out = tmp_path / "esm.json"
    assert run_cli(["spectrum", "--config", str(cfg),
                    "--out", str(out)]) == 0


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algo": "sgd", "stepsize": 1.0}))
    code, _, err = run_cli(["predict", "--config", str(cfg)], capsys)
    assert code == 1
    assert "stepsize" in err


@pytest.mark.parametrize("entry", [{"n": "64"}, {"seeds": 2.5},
                                   {"r": "2"}, {"gamma": True},
                                   {"svg": 1}, {"algo": 3}, {"R": None}])
def test_config_wrong_value_type_is_usage_error(entry, tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algo": "sgd", "n": 64, "d": 32, **entry}))
    out = tmp_path / "runs.csv"
    code, _, err = run_cli(["simulate", "--config", str(cfg), "--epochs",
                            "1", "--seeds", "1", "--out", str(out)], capsys)
    key = next(iter(entry))
    assert code == 1
    assert "config key %r must be" % key in err
    assert not out.exists()


# the flags each command would ignore if it accepted them
_UNREAD = {"simulate": ["measure", "h", "T", "mode", "data", "target_col"],
           "predict": ["epochs", "seeds"],
           "analyze": ["epochs", "seeds", "h", "T", "mode", "svg"],
           "compare": ["measure", "data", "target_col"],
           "spectrum": ["algo", "epochs", "seeds", "gamma", "gamma1",
                        "gamma2", "theta", "h", "T", "mode", "svg"]}


@pytest.mark.parametrize("command", sorted(_UNREAD))
def test_unread_flags_are_usage_errors(command, tmp_path, capsys):
    values = {"measure": "mp", "mode": "ode", "data": "x.csv",
              "target_col": "y", "algo": "sgd", "svg": True}
    out = tmp_path / "out.csv"
    for key in _UNREAD[command]:
        flag = "--" + key.replace("_", "-")
        val = values.get(key, 1)
        argv = [command, flag] + ([] if val is True else [str(val)])
        code, _, err = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 1 and flag in err
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({key: val}))
        code, _, err = run_cli([command, "--config", str(cfg),
                                "--out", str(out)], capsys)
        assert code == 1 and flag in err
        assert not out.exists()


def test_config_invalid_json_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(["predict", "--config", str(cfg)], capsys)
    assert code == 1
    assert "error" in err
    # a file that is not an object, and a value outside a flag's choices
    for text, why in [
            ("[1]", "config must be a flat JSON object"),
            ('{"measure": "foo"}', "config key 'measure' must be one of mp, "
                                   "esm, csv, got 'foo'")]:
        cfg.write_text(text)
        code, _, err = run_cli(["predict", "--config", str(cfg)], capsys)
        assert code == 1
        assert err == "error: %s\n" % why


# ---------------------------------------------------------------------------
# exit codes and argument validation


def test_shb_without_params_is_usage_error(capsys):
    code, _, err = run_cli(["predict", "--algo", "shb", "--n", "64"], capsys)
    assert code == 1
    assert "shb" in err


def test_unknown_subcommand_exits_1(capsys):
    assert run_cli(["frobnicate"], capsys)[0] == 1


def test_bad_flag_value_exits_1(capsys):
    assert run_cli(["predict", "--algo", "sgd", "--T", "soon"], capsys)[0] == 1


def test_missing_data_file_exits_1(tmp_path, capsys):
    code, _, err = run_cli(
        ["spectrum", "--measure", "csv", "--data",
         str(tmp_path / "nope.csv")], capsys)
    assert code == 1


def test_csv_measure_without_data_exits_1(capsys):
    code, _, err = run_cli(["spectrum", "--measure", "csv"], capsys)
    assert code == 1
    assert "--data" in err


def test_version_flag(capsys):
    import movolt
    code, out, _ = run_cli(["--version"], capsys)
    assert code == 0
    assert movolt.__version__ in out


def test_no_arguments_shows_usage(capsys):
    assert run_cli([], capsys)[0] == 1


def test_default_output_name_lands_in_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["spectrum", "--measure", "mp", "--r", "1.0"]) == 0
    assert os.path.exists("spectrum.json")


@pytest.mark.parametrize("argv,named", [
    (["analyze", "--algo", "sgd", "--gamma", "-1"], "gamma"),
    (["predict", "--algo", "sgd", "--gamma", "nan"], "gamma"),
    (["analyze", "--algo", "sdana", "--gamma2", "inf"], "gamma2"),
    (["predict", "--algo", "sgd", "--h", "nan"], "--h"),
    (["predict", "--algo", "sgd", "--T", "nan"], "--T"),
    (["simulate", "--algo", "sgd", "--n", "16", "--d", "8",
      "--epochs", "nan"], "--epochs"),
    (["predict", "--algo", "sgd", "--r", "nan"], "--r"),
    (["predict", "--algo", "sgd", "--r", "inf"], "--r"),
    (["analyze", "--algo", "sdana", "--r=-inf"], "--r"),
    (["simulate", "--algo", "sgd", "--n=-4", "--d", "8"], "--n"),
    (["predict", "--algo", "sgd", "--T", "2", "--R", "-1"], "--R"),
    (["predict", "--algo", "sgd", "--Rtilde", "nan"], "--Rtilde"),
    (["simulate", "--algo", "sgd", "--n", "16", "--d", "8", "--R", "nan"],
     "--R"),
    (["analyze", "--algo", "sgd", "--r", "0.5", "--Rtilde", "-1"],
     "--Rtilde"),
    (["analyze", "--algo", "sgd", "--r", "0.5", "--Rtilde", "inf"],
     "--Rtilde"),
    (["compare", "--algo", "sgd", "--n", "64", "--d", "8",
      "--epochs", "0.02"], "--epochs"),
    (["analyze", "--algo", "shb", "--gamma", "0.1", "--theta", "0.1",
      "--n=-5"], "--n"),
    (["predict", "--algo", "shb", "--gamma", "0.1", "--theta", "0.1",
      "--n=-5", "--T", "1"], "--n"),
    (["predict", "--algo", "shb", "--gamma", "0.1", "--theta", "0.1",
      "--n", "0", "--T", "1"], "--n"),
    (["spectrum", "--r", "4e-309"], "--r"),
    (["analyze", "--algo", "sgd", "--r", "1e-160"], "--r"),
    (["predict", "--algo", "sgd", "--T", "0.2", "--r", "1e-300"], "--r"),
    (["spectrum", "--r", "1e-307"], "--r"),
    (["simulate", "--n", "4", "--d", "4", "--epochs", "1", "--seeds", "1",
      "--algo", "sdahb", "--gamma", "1", "--theta", "10"],
     "--theta must be at most 4 "),
    (["simulate", "--n", "4", "--d", "4", "--epochs", "1", "--seeds", "1",
      "--algo", "shb", "--gamma", "0.1", "--theta", "2"],
     "--theta must be at most 1 "),
    (["simulate", "--n", "4", "--d", "4", "--epochs", "1", "--seeds", "1",
      "--algo", "sdana", "--theta", "10"], "--theta must be at most 5 "),
    (["predict", "--algo", "sgd", "--T", "0.01"],
     "--T) must be more than half the grid step --h = 0.05, so more than 0.025"),
    # T/h past an array index, and T/h overflowing to inf
    (["predict", "--algo", "sgd", "--T", "1", "--h", "1e-300"],
     "(--T) over grid step h (--h) must be a step count below"),
    (["predict", "--algo", "sgd", "--T", "1", "--h", "5e-324"],
     "(--T) over grid step h (--h) must be a step count below"),
    (["predict", "--algo", "sdahb", "--theta", "nan", "--T", "1"], "theta"),
])
def test_nonsense_parameters_are_usage_errors(argv, named, tmp_path, capsys):
    # no report, no curve: exit 1 with a message naming the culprit
    out = tmp_path / "out.csv"
    code, _, err = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 1
    assert named in err and "must be" in err
    assert not out.exists()


def test_predict_sidecar_carries_solver_diagnostics(tmp_path):
    out = tmp_path / "psi.csv"
    assert run_cli(["predict", "--algo", "sgd", "--r", "2.0", "--T", "5",
                    "--out", str(out)]) == 0
    diag = volterra.VolterraSolution.read(str(out)).diagnostics
    assert 0.0 < diag["refinement_gap"] < 1e-2
    assert 0.0 <= diag["residual"] < 1e-9
    assert diag["picard_iters"] >= 1
    assert diag["picard_delta"] < 1e-7 and "picard_note" not in diag
    # the exact SDANA solve has no residual: null in the JSON, not NaN
    out = tmp_path / "sdana.csv"
    assert run_cli(["predict", "--algo", "sdana", "--r", "2.0", "--T", "1",
                    "--out", str(out)]) == 0
    assert "NaN" not in out.with_suffix(".json").read_text()
    diag = volterra.VolterraSolution.read(str(out)).diagnostics
    assert diag["residual"] is None and diag["refinement_gap"] >= 0.0


def test_predict_warns_where_picard_leaves_the_march(tmp_path, capsys,
                                                   monkeypatch):
    # a non-finite iterate is stood in for; the march's curve is kept
    def runaway(*args):
        raise NumericalError("Picard iterate 2 is not finite; the iteration "
                             "cannot settle")
    monkeypatch.setattr(volterra, "_picard_convolution", runaway)
    out = tmp_path / "psi.csv"
    code, _, err = run_cli(
        ["predict", "--algo", "sgd", "--T", "5", "--out", str(out)], capsys)
    assert code == 0
    assert err.startswith("warning: Picard iteration did not settle from the "
                          "marching solution (Picard iterate 2 is not finite")
    assert "keeping the marching solution" in err
    diag = volterra.VolterraSolution.read(str(out)).diagnostics
    assert diag["picard_delta"] is None and "picard_note" in diag


# ---------------------------------------------------------------------------
# the MP rule: sized to the horizon where --nodes is not given


def test_ratio_near_one_climbs_the_mass_budget(tmp_path, capsys):
    # r = 0.95 misses MASS_TOL at 200 nodes (it exited 2); every command
    # climbs to 400, and predict then takes the first rung from there
    # whose rule agrees with the 3N rule: 400 nodes are 3.1e-11 of F(0)
    # from 1,200 (psi is off by 6.1e-11 of sup psi against 3,200 nodes),
    # so it takes 800
    out = tmp_path / "s.json"
    assert run_cli(["spectrum", "--r", "0.95", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["measure"]["nodes"] == 400
    out = tmp_path / "a.json"
    assert run_cli(["analyze", "--algo", "sgd", "--r", "0.95",
                    "--out", str(out)]) == 0
    out = tmp_path / "psi.csv"
    code, _, err = run_cli(["predict", "--algo", "sgd", "--r", "0.95",
                            "--T", "10", "--out", str(out)], capsys)
    assert code == 0 and err == ""
    side = json.loads(out.with_suffix(".json").read_text())
    assert side["measure"]["nodes"] == 800
    assert side["diagnostics"]["quadrature_gap"] <= volterra.QUADRATURE_TOL
    code, _, err = run_cli(["spectrum", "--r", "0.999", "--out",
                            str(tmp_path / "x.json")], capsys)
    assert code == 2 and "at 1600 nodes" in err


@pytest.mark.parametrize("algo", ["sgd", "sdahb"])
def test_long_horizon_rule_matches_3200_nodes(algo, tmp_path):
    # at r = 1 and T = 3000 the 200-node rule is off by 9e-6 of F's scale;
    # the sized rule lands within 1e-9 of sup psi of a 3,200-node solve,
    # whose F and I are summed over blocks of 200 nodes
    out = tmp_path / "psi.csv"
    assert run_cli(["predict", "--algo", algo, "--T", "3000", "--h", "0.25",
                    "--out", str(out)]) == 0
    sol = volterra.VolterraSolution.read(str(out))
    assert sol.meta["measure"]["nodes"] > 200
    assert sol.diagnostics["quadrature_gap"] <= volterra.QUADRATURE_TOL
    spec = momentum.defaults(algo, spectrum.mp_measure(1.0)).kernel_spec()
    fine = spectrum.mp_measure(1.0, 3200)
    half = volterra._sweep_nodes(sol.grid, True)
    F, I = np.zeros(half.size), np.zeros(half.size)
    for lo in range(0, fine.nodes, 200):
        lams, wts = fine.points[lo:lo + 200], fine.weights[lo:lo + 200]
        F += (wts * (lams + 1.0)) @ kernels.forcing_matrix(spec, lams, half)
        I += wts @ kernels.kernel_matrix(spec, lams, half)
    ref = volterra.solve_convolution(F, I, sol.grid).psi
    assert np.max(np.abs(sol.psi - ref)) <= 1e-9 * ref.max()


def test_given_nodes_are_kept_and_a_wide_gap_warns(tmp_path, capsys):
    out = tmp_path / "psi.csv"
    code, _, err = run_cli(["predict", "--algo", "sgd", "--nodes", "200",
                            "--T", "3000", "--h", "0.25", "--out", str(out)],
                           capsys)
    assert code == 0
    side = json.loads(out.with_suffix(".json").read_text())
    assert side["measure"]["nodes"] == 200
    assert side["diagnostics"]["quadrature_gap"] > volterra.QUADRATURE_TOL
    assert err.startswith("warning:") and "--nodes" in err
    code, _, err = run_cli(["predict", "--algo", "sgd", "--nodes", "200",
                            "--T", "300", "--out", str(out)], capsys)
    assert code == 0 and err == ""


def test_sidecar_measure_round_trips_to_the_rule(tmp_path):
    # the sidecar's measure rebuilds the rule the solve took, bit for bit;
    # compare's sidecar names it too
    out = tmp_path / "psi.csv"
    assert run_cli(["predict", "--algo", "sdana", "--r", "2", "--T", "60",
                    "--out", str(out)]) == 0
    side = json.loads(out.with_suffix(".json").read_text())
    mu = spectrum.SpectralMeasure.from_json(json.dumps(side["measure"]))
    want = spectrum.mp_measure(2.0, 50)
    assert mu.nodes == 50 and mu.r == 2.0
    assert np.array_equal(mu.points, want.points)
    assert np.array_equal(mu.weights, want.weights)
    out = tmp_path / "cmp.csv"
    assert run_cli(["compare", "--algo", "sdahb", "--n", "64", "--d", "128",
                    "--epochs", "2", "--seeds", "2", "--out", str(out)]) == 0
    side = json.loads(out.with_suffix(".json").read_text())
    assert side["measure"]["nodes"] == 50
    assert side["diagnostics"]["quadrature_gap"] <= volterra.QUADRATURE_TOL
    # and keeps what its prediction reports: the route and every trust number
    assert side["mode"] == "closed"
    assert set(side["diagnostics"]) == {"quadrature_gap", "refinement_gap",
                                        "residual"}
    assert side["diagnostics"]["residual"] <= 1e-12


# ---------------------------------------------------------------------------
# fuzzing: every flag set exits 0, 1 or 2, never with a traceback

# sizes and counts stay small, since nothing refuses an oversized job
# before it allocates; the algorithm parameters, r, R and Rtilde range over
# every positive double
_ODD = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])


def _mostly(sane):
    """sane values three times in four, else nan, inf, 0 or a negative."""
    return st.one_of(sane, sane, sane, _ODD)


_ANY_SCALE = _mostly(st.floats(0.0, exclude_min=True, allow_infinity=False))
_VALUES = {"n": st.integers(-2, 64), "d": st.integers(-2, 64),
           "nodes": st.integers(8, 400), "seeds": st.integers(-1, 3),
           "seed": st.integers(-1, 2**40),
           "epochs": _mostly(st.floats(0.0, 2.0)),
           "T": _mostly(st.floats(0.0, 2.0)),
           "h": _mostly(st.floats(0.01, 1.0)),
           "gamma": _ANY_SCALE, "gamma1": _ANY_SCALE, "gamma2": _ANY_SCALE,
           "theta": _ANY_SCALE, "r": _ANY_SCALE, "R": _ANY_SCALE,
           "Rtilde": _ANY_SCALE, "svg": st.just(True),
           "target_col": st.sampled_from(["y", "0", "-1", "9", "nope"]),
           "data": st.sampled_from(["design.csv", "ragged.csv", "nope.csv"])}


def _flag_value(key):
    choices = cli._FLAGS[key].choices
    return st.sampled_from(choices) if choices else _VALUES[key]


def _flag_sets():
    """(command, {flag: value}, a flag of another command or None); a
    command that runs an algorithm is mostly given one."""
    def draw_for(command):
        reads = cli._flags(command)
        own = sorted(set(reads) - {"out", "algo"})
        foreign = sorted(set(cli._FLAGS) - set(reads))
        algo = [["algo"]] * 3 + [[]] if "algo" in reads else [[]]
        keys = st.tuples(st.lists(st.sampled_from(own), unique=True,
                                  max_size=8), st.sampled_from(algo))
        flags = keys.map(lambda pair: pair[0] + pair[1]).flatmap(
            lambda ks: st.fixed_dictionaries({k: _flag_value(k) for k in ks}))
        stray = st.none() | st.sampled_from(foreign).flatmap(
            lambda k: _flag_value(k).map(lambda v: (k, v)))
        return st.tuples(st.just(command), flags, stray)
    return st.sampled_from(sorted(cli._COMMANDS)).flatmap(draw_for)


@settings(max_examples=300, deadline=3000)
@given(job=_flag_sets(), via_config=st.booleans())
# the default gamma = theta/m takes u^2 past double range in
# kernels.row_exponents (its wide-u branch); and
# at r = 1 (lambda_min = 0) theta^2 underflows, where the rate bounds are 0
@example(job=("predict", {"algo": "sdahb", "theta": 1e300, "T": 1.0}, None),
         via_config=False)
@example(job=("analyze", {"algo": "sdahb", "theta": 1e-300}, None),
         via_config=False)
def test_fuzzed_flags_exit_cleanly(job, via_config):
    command, flags, stray = job
    if stray is not None:
        flags = {**flags, stray[0]: stray[1]}
    with tempfile.TemporaryDirectory() as tmp:
        np.savetxt(os.path.join(tmp, "design.csv"),
                   np.random.default_rng(0).normal(size=(12, 4)),
                   delimiter=",", header="a,b,c,y", comments="")
        with open(os.path.join(tmp, "ragged.csv"), "w") as fh:
            fh.write("a,y\n1,2\n3\n")
        if "data" in flags:
            flags["data"] = os.path.join(tmp, flags["data"])
        argv = [command, "--out", os.path.join(tmp, "out.csv")]
        if via_config:
            cfg = os.path.join(tmp, "job.json")
            with open(cfg, "w") as fh:
                json.dump(flags, fh)
            argv += ["--config", cfg]
        else:
            for key, val in flags.items():
                flag = "--" + key.replace("_", "-")
                # --x=-1 keeps a negative value from reading as a flag
                argv.append(flag if val is True else "%s=%s" % (flag, val))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert "Traceback" not in err.getvalue()
    if stray is not None:
        assert code == 1
        assert "--" + stray[0].replace("_", "-") in err.getvalue()
    else:
        assert code in (0, 1, 2)


_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_parse():
    lines = [line for line in _README.read_text().splitlines()
             if line.startswith("movolt ")]
    assert len(lines) >= 6
    parser = cli.build_parser()
    for line in lines:
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail("README example does not parse: %s\n%s"
                        % (line, err.getvalue()))


def test_readme_flag_table_is_the_parsers():
    cells = [line.split("|")[1:3] for line in _README.read_text().splitlines()
             if line.startswith("| `")]
    table = {cmd.strip(" `"): set(flags.strip(" `").split())
             for cmd, flags in cells if cmd.strip(" `") in cli._COMMANDS}
    assert table == {cmd: {"--" + k.replace("_", "-") for k in cli._flags(cmd)}
                     for cmd in cli._COMMANDS}


def test_readme_library_block_runs():
    block = _README.read_text().split("## Library", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    norm, rate, kind = printed.getvalue().split()
    assert 0.0 < float(norm) < 1.0 and float(rate) > 0.0
    assert kind == "strongly_convex"
