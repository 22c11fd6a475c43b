"""The benchmark's workloads: job lists and the checks on each job's output.

Why these three (each one exercises one planned optimisation and bypasses
another, so both a gain and its absence show):

* mp-long   -- long MP predictions: the convolution march and the Picard
  cross-check the CLI always runs dominate; RK4 and the simulator never
  run.  Exercises the convolution-solver work, bypasses the SDANA ODE.
* sdana-ode -- SDANA with the exact two-time kernel: RK4 in kernels
  dominates; the convolution march and Picard never run.  Exercises the
  SDANA ODE work, bypasses the convolution solver.  SDANA --mode conv is
  left out on purpose: its forcing is the same RK4 and its solve the same
  convolution march, so it would take away both bypasses.
* finite-n  -- the finite-n side at rectangular shapes (the full_matrices
  SVD shows): discrete runs, the homogenized SDE, ESM spectra from an
  SVD, and kernel assembly on 1,024 ESM atoms over a short grid.

Every job gets its own output directory.  MP-side outputs do not depend
on the seed; finite-n inputs do.
"""

import contextlib
import io
import json
import os

import numpy as np

from movolt import analysis, cli, lsq, momentum, spectrum, volterra

import checks

MP_H = ["--h", "0.05"]
SDANA = (0.25, 1.0, 4.0)   # the SDANA default row for trace moment m = 1


class Job:
    """One unit of timed work and the checks on what it produced.

    run(outdir, seed) returns a dict of outputs; each check(out, done,
    ctx) returns failure messages, where done maps the names of the jobs
    already run in this pass to their outputs.
    """

    def __init__(self, name, run, verify=()):
        self.name = name
        self.run = run
        self.checks = list(verify)


def cli_job(name, argv, out="out.csv", verify=()):
    """movolt.cli.main(argv + --seed + --out) in-process."""
    def run(outdir, seed):
        path = os.path.join(outdir, out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv + ["--seed", str(seed), "--out", path])
        return {"code": code, "stderr": stderr.getvalue(), "path": path,
                "seed": seed}
    return Job(name, run, [_exit_ok] + list(verify))


def _exit_ok(out, done, ctx):
    return checks.exit_code(out["code"], out["stderr"])


def psi_ref(ref_name):
    def check(out, done, ctx):
        cols = checks.read_columns(out["path"])
        return checks.psi_matches_ref(ref_name, cols["t"], cols["psi"],
                                      ctx.refs[ref_name], ctx.ref_devs)
    return check


def same_csv_as(other):
    def check(out, done, ctx):
        if other not in done:
            return ["shb_sdahb: job %s did not run" % other]
        return checks.same_bytes(out["path"], done[other]["path"], "shb_sdahb")
    return check


def plateau(r):
    def check(out, done, ctx):
        mu = spectrum.mp_measure(r)
        params = momentum.defaults("sgd", mu)
        want = analysis.limiting_loss(analysis.kernel_norm(params, mu),
                                      mu.zero_mass, 1.0)
        return checks.plateau(checks.read_columns(out["path"])["psi"][-1], want)
    return check


def kernel_norm(want):
    def check(out, done, ctx):
        with open(out["path"]) as fh:
            got = json.load(fh)["report"]["kernel_norm"]
        return checks.kernel_norm(got, want)
    return check


def simulate_rows(rows):
    def check(out, done, ctx):
        cols = checks.read_columns(out["path"])
        meta = checks.read_sidecar(out["path"])
        msgs = []
        if len(cols["t"]) != rows or meta.get("diverged"):
            msgs.append("simulate_rows: %d rows, diverged=%s (want %d, False)"
                        % (len(cols["t"]), meta.get("diverged"), rows))
        if not np.all(np.isfinite(cols["mean"])) or np.any(cols["mean"] <= 0):
            msgs.append("simulate_rows: mean loss not finite and positive")
        return msgs
    return check


def compare_psi_ref(ref_name):
    def check(out, done, ctx):
        cols = checks.read_columns(out["path"])
        # psi joined at the ensemble's sample times (nearest grid node)
        msgs = checks.psi_matches_ref(ref_name, cols["t"], cols["psi"],
                                      ctx.refs[ref_name], ctx.ref_devs,
                                      whole_curve=False)
        return msgs + checks.compare_sup_dev(checks.read_sidecar(out["path"])["stats"])
    return check


def realized_start(n, d):
    def check(out, done, ctx):
        prob = lsq.generate_gaussian(n, d, 1.0, 1.0, out["seed"])
        psi0 = checks.read_columns(out["path"])["psi"][0]
        return checks.realized_start(psi0, lsq.loss(prob, prob.x0))
    return check


def sde_job(n, d, paths, T, dt):
    """Library call: the homogenized SDANA diffusion on a fresh problem."""
    def run(outdir, seed):
        prob = lsq.generate_gaussian(n, d, 1.0, 1.0, seed)
        spectral = lsq.to_spectral(prob)
        params = momentum.sdana(*SDANA)
        traj, losses = momentum.simulate_homogenized(
            spectral, params, T=T, dt=dt, seed=seed, n_paths=paths,
            return_paths=True)
        traj.to_csv(os.path.join(outdir, "sde.csv"))
        return {"problem": prob, "spectral": spectral, "params": params,
                "traj": traj, "paths": losses, "T": T}
    return Job("sde", run, [_sde_check])


def _sde_check(out, done, ctx):
    sol = volterra.predict(out["problem"].esm(), out["params"], T=out["T"],
                           h=0.05, spectral=out["spectral"])
    return checks.sde_within_mcse(out["traj"].times, out["paths"], sol.grid, sol.psi)


def mp_long():
    T = ["--T", "300"] + MP_H
    return [
        cli_job("sgd", ["predict", "--algo", "sgd"] + T,
                verify=[psi_ref("mp-sgd-r1-T300")]),
        cli_job("sdahb", ["predict", "--algo", "sdahb"] + T,
                verify=[psi_ref("mp-sdahb-r1-T300")]),
        cli_job("shb", ["predict", "--algo", "shb", "--gamma", "0.002",
                        "--theta", "0.002", "--n", "1000"] + T,
                verify=[psi_ref("mp-sdahb-r1-T300"), same_csv_as("sdahb")]),
        cli_job("sgd-r0.5", ["predict", "--algo", "sgd", "--r", "0.5"] + T,
                verify=[psi_ref("mp-sgd-r0.5-T300"), plateau(0.5)]),
        cli_job("analyze", ["analyze", "--algo", "sdana", "--r", "2"],
                out="out.json", verify=[kernel_norm(0.625)]),
    ]


def sdana_ode():
    return [
        cli_job("sdana-r1", ["predict", "--algo", "sdana", "--r", "1",
                             "--T", "100"] + MP_H,
                verify=[psi_ref("mp-sdana-r1-T100")]),
        cli_job("sdana-r2", ["predict", "--algo", "sdana", "--r", "2",
                             "--T", "60"] + MP_H,
                verify=[psi_ref("mp-sdana-r2-T60")]),
    ]


def finite_n():
    return [
        cli_job("simulate", ["simulate", "--algo", "sgd", "--n", "1024",
                             "--d", "2048", "--seeds", "5", "--epochs", "10"],
                verify=[simulate_rows(200)]),
        cli_job("compare", ["compare", "--algo", "sdahb", "--n", "512",
                            "--d", "1024", "--seeds", "10", "--epochs", "10"],
                verify=[compare_psi_ref("mp-sdahb-r2-T10")]),
        cli_job("predict-esm", ["predict", "--algo", "sgd", "--measure", "esm",
                                "--n", "1024", "--d", "2048", "--T", "10",
                                "--h", "0.01"],
                verify=[realized_start(1024, 2048)]),
        sde_job(512, 1024, paths=100, T=10.0, dt=0.01),
    ]


# jobs whose discrete single-row steps feed sim_steps_per_s
SIM_JOBS = ("simulate", "compare")
