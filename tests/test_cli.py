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

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from movolt import cli, kernels, momentum, spectrum, volterra


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
    # r = 1e-6 puts lambda_max near 1e6, so the SDANA ODE step is ~1e-7:
    # about 3e7 RK4 substeps, refused before any integration starts
    out = tmp_path / "psi.csv"
    start = time.perf_counter()
    code, _, err = run_cli(["predict", "--algo", "sdana", "--r", "1e-6",
                            "--T", "1", "--out", str(out)], capsys)
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert "RK4 work out of reach" in err
    lam_max = spectrum.mp_measure(1e-6).points.max()
    h_ode = kernels.default_ode_step(1.0, lam_max)
    # one sweep over the half-step grid carries the forcing and both passes
    sub = lambda dt: max(1, math.ceil(dt / h_ode - 1e-12))
    count = 40 * sub(0.025)
    assert count > 10**7
    assert "estimated %d RK4 substeps" % count in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["ode", "conv"])
def test_predict_refuses_singular_march_before_forcing(tmp_path, capsys, mode):
    # r = 1e-5 puts K(0) = g2^2 int lam^2 dmu near 1e5, so the march's
    # divisor 1 - (h/2) K(0) at the default h is negative: refused before
    # the forcing's RK4, which alone takes seconds here
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
# the default gamma = theta/m overflows gamma^2 in kernels.kernel_ic; and
# at r = 1 (lambda_min = 0) theta^2 underflows to a 0/0 rate bound
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
