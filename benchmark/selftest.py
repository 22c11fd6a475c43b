"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest -q benchmark/selftest.py
"""

import os
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from movolt import cli  # noqa: E402


class Ctx:
    def __init__(self):
        self.refs = checks.load_refs()
        self.ref_devs = []


def test_reference_curve_accepts_itself_and_rejects_1e4_perturbation():
    ctx = Ctx()
    for name, (t, psi) in ctx.refs.items():
        assert checks.psi_matches_ref(name, t, psi, ctx.refs[name], ctx.ref_devs) == []
        bad = checks.psi_matches_ref(name, t, psi * (1 + 1e-4), ctx.refs[name], [])
        assert len(bad) == 1 and bad[0].startswith("psi_ref[%s]" % name)
    assert max(ctx.ref_devs) == 0.0
    t, psi = ctx.refs["mp-sgd-r1-T300"]
    assert "grid points" in checks.psi_matches_ref("x", t[:-1], psi[:-1], (t, psi), [])[0]


def test_real_prediction_passes_and_its_1e4_perturbation_fails(tmp_path):
    ctx = Ctx()
    job = workloads.cli_job("sdahb", ["predict", "--algo", "sdahb", "--r", "2",
                                      "--T", "10", "--h", "0.05"],
                            verify=[workloads.psi_ref("mp-sdahb-r2-T10")])
    out = job.run(str(tmp_path), 0)
    assert run.run_checks(job, out, {}, ctx) == []
    assert 0.0 < ctx.ref_devs[0] < checks.PSI_TOL
    cols = checks.read_columns(out["path"])
    msgs = checks.psi_matches_ref("mp-sdahb-r2-T10", cols["t"], cols["psi"] * (1 + 1e-4),
                                  ctx.refs["mp-sdahb-r2-T10"], [])
    assert len(msgs) == 1 and msgs[0].startswith("psi_ref[mp-sdahb-r2-T10]")


def test_nonzero_exit_is_rejected(tmp_path):
    job = workloads.cli_job("shb", ["predict", "--algo", "shb", "--T", "1"])
    out = job.run(str(tmp_path), 0)
    assert out["code"] == 1
    msgs = run.run_checks(job, out, {}, Ctx())
    assert len(msgs) == 1 and msgs[0].startswith("exit: code 1")


def test_mismatched_shb_sdahb_pair_is_rejected(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,F,psi\n0,1,1\n0.05,0.9,0.95\n")
    b.write_text("t,F,psi\n0,1,1\n0.05,0.9,0.950000001\n")
    check = workloads.same_csv_as("sdahb")
    assert check({"path": str(a)}, {"sdahb": {"path": str(a)}}, None) == []
    msgs = check({"path": str(a)}, {"sdahb": {"path": str(b)}}, None)
    assert len(msgs) == 1 and msgs[0].startswith("shb_sdahb:")


def test_failed_check_names_itself():
    assert checks.kernel_norm(0.6251, 0.625)[0].startswith("kernel_norm:")
    assert checks.plateau(0.6, 0.5)[0].startswith("plateau:")
    assert checks.compare_sup_dev({"psi0": 1.0, "sup_abs_dev": 0.11})[0].startswith(
        "compare_sup_dev:")
    assert checks.realized_start(1.0, 1.0 + 1e-6)[0].startswith("esm_start:")


def test_sde_check_rejects_a_shifted_mean():
    rng = np.random.default_rng(0)
    t = np.arange(0, 101) * 0.01
    psi = np.exp(-t)
    paths = psi * (1 + 0.05 * rng.standard_normal((100, len(t))))
    paths[:, 0] = psi[0]
    assert checks.sde_within_mcse(t, paths, t[::5], psi[::5]) == []
    msgs = checks.sde_within_mcse(t, paths * 1.2, t[::5], psi[::5])
    assert any(m.startswith("sde_") for m in msgs)


def test_self_times_and_remainder_add_up_to_wall(tmp_path):
    jobs = [workloads.cli_job("sgd", ["predict", "--algo", "sgd", "--T", "5"]),
            workloads.cli_job("analyze", ["analyze", "--algo", "sdana", "--r", "2"],
                              out="out.json", verify=[workloads.kernel_norm(0.625)])]
    original = cli.main
    t = tracing.install()
    try:
        passes = run.run_passes(jobs, 0, 0.0, str(tmp_path), Ctx(), t)
    finally:
        t.uninstall()
    assert cli.main is original
    assert [p["traced"] for p in passes] == [True, False]
    assert not any(p["failures"] for p in passes)
    first = lambda job: job[0] == 0  # noqa: E731
    self_total = sum(v[1] for v in t.layer_times(first).values())
    remainder = sum(passes[0]["times"].values()) - t.root_time(first)
    assert remainder >= 0.0
    assert abs(self_total + remainder - sum(passes[0]["times"].values())) < 1e-9
    # the Picard cross-check and the march both ran, and were told apart
    layers = {s[0] for s in t.spans if s[4][0] == 0}
    assert {"cli", "volterra.predict", "volterra.march", "volterra.picard",
            "kernels.kernel_matrix", "analysis.rate_report"} <= layers
    assert t.counts["volterra.picard.calls"] == t.counts["volterra.picard.converged"] == 1
    # T=5, h=0.05: 101 coarse and 201 half-step points
    assert t.counts["volterra.march.grid_pts"] == 101 + 201
    assert t.counts["volterra.march.madds"] == 101 * 100 // 2 + 201 * 200 // 2


def test_self_time_of_a_later_pass_subtracts_its_own_children():
    def leaf():
        time.sleep(0.002)

    def outer():
        time.sleep(0.002)
        box.leaf()

    box = types.SimpleNamespace(leaf=leaf, outer=outer)
    t = tracing.Tracer()
    t.wrap(box, "leaf", "leaf")
    t.wrap(box, "outer", "outer")
    t.active = True
    for p in range(3):
        t.job = (p, "job")
        box.outer()
    t.uninstall()
    for p in range(3):
        layers = t.layer_times(lambda job: job[0] == p)
        busy_outer, self_outer = layers["outer"]
        assert abs(self_outer - (busy_outer - layers["leaf"][0])) < 1e-12
        assert self_outer < busy_outer
