"""End-to-end tests for the command-line interface.

Everything goes through cli.main(argv) so exit codes, config resolution
and file outputs are exercised exactly as a shell user would see them.
"""

import json
import os

import numpy as np
import pytest

from movolt import cli, momentum, spectrum, volterra


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
    assert traj.is_ensemble
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
                                   {"svg": 1}, {"algo": 3}])
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


def test_config_invalid_json_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(["predict", "--config", str(cfg)], capsys)
    assert code == 1
    assert "error" in err


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
