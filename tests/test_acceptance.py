"""Acceptance suite: ten go/no-go checks on the whole pipeline.

Each test exercises one headline behavior end to end — concentration of
finite-dimension runs around the deterministic prediction, the SHB/SGD
degeneration, kernel norms and convergence thresholds, limiting loss,
an analytic Volterra oracle, Malthusian exponents and rate bounds,
average-case decay exponents, kernel identities and integrator order,
the two SDANA solve routes, and the homogenized diffusion simulator.

Every test prints one line

    ACCEPTANCE <nn> <name>: PASS|FAIL (<measured statistic>)

so the captured log doubles as a scoreboard.
"""

import numpy as np

from movolt import analysis, kernels, lsq, momentum, spectrum, volterra


def scoreboard(num, name, ok, detail):
    line = "ACCEPTANCE %02d %s: %s (%s)" % (
        num, name, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


SGD_DEFAULT = momentum.sgd(1.0)            # gamma = 1/m, m = 1 on MP
SDAHB_DEFAULT = momentum.sdahb(2.0, 2.0)   # gamma = 2/m, theta = 2
SDANA_DEFAULT = momentum.sdana(0.25, 1.0, 4.0)


def test_criterion_01_concentration():
    # finite-n ensemble means hug the deterministic curve, and the gap
    # shrinks as the dimension grows
    sol = volterra.predict(spectrum.mp_measure(1.0), SGD_DEFAULT,
                           T=10.0, h=0.01)
    sup_dev = {}
    for n in (1024, 256):
        traj = momentum.run_ensemble(
            {"n": n, "d": n, "R": 1.0, "R_tilde": 1.0},
            SGD_DEFAULT, epochs=10.0, n_seeds=5)
        sup_dev[n] = float(np.max(np.abs(traj.mean - sol.at(traj.times))))
    bound = 0.05 * sol.psi[0]
    ok = sup_dev[1024] <= bound and sup_dev[256] > sup_dev[1024]
    scoreboard(1, "concentration", ok,
               "sup dev %.4f <= %.4f at n=1024; %.4f at n=256"
               % (sup_dev[1024], bound, sup_dev[256]))


def test_criterion_02_shb_sgd_degeneration():
    n = 512
    heavy = momentum.shb(0.05, 0.1)
    plain = momentum.sgd(0.5)
    spec = {"n": n, "d": n, "R": 1.0, "R_tilde": 1.0}
    a = momentum.run_ensemble(spec, heavy, epochs=10.0, n_seeds=10)
    b = momentum.run_ensemble(spec, plain, epochs=10.0, n_seeds=10)
    assert np.array_equal(a.times, b.times)
    rels = []
    for t in (1.0, 5.0, 10.0):
        i = int(np.argmin(np.abs(a.times - t)))
        assert abs(a.times[i] - t) < 1e-12
        rels.append(abs(a.mean[i] - b.mean[i]) / b.mean[i])
    # the dimension-adjusted variant is the same recursion bit for bit
    prob = lsq.generate_gaussian(n, n, 1.0, 1.0, 0)
    r_shb = momentum.run(prob, momentum.shb(0.05, 0.1), epochs=3.0, seed=4)
    r_hb = momentum.run(prob, momentum.sdahb(0.05 * n, 0.1 * n),
                        epochs=3.0, seed=4)
    bitwise = np.array_equal(r_shb.values, r_hb.values)
    ok = max(rels) <= 0.05 and bitwise
    scoreboard(2, "shb-sgd degeneration", ok,
               "rel diffs %.4f/%.4f/%.4f at t=1/5/10, bitwise=%s"
               % (rels[0], rels[1], rels[2], bitwise))


def test_criterion_03_kernel_norms_and_thresholds():
    mp1 = spectrum.mp_measure(1.0)
    mp2 = spectrum.mp_measure(2.0)
    cases = [(SGD_DEFAULT, mp1, 0.5),
             (SDAHB_DEFAULT, mp1, 0.5),
             (SDANA_DEFAULT, mp2, 0.625)]
    worst_exact = 0.0
    worst_quad = 0.0
    for params, mu, want in cases:
        worst_exact = max(worst_exact,
                          abs(analysis.kernel_norm(params, mu) - want))
        taus = volterra.time_grid(400.0, 0.02)
        kspec = params.kernel_spec(mode="convolution_approx"
                                   if params.name == "sdana" else None)
        I = volterra.build_convolution_kernel(mu, kspec, taus)
        worst_quad = max(worst_quad,
                         abs(float(np.trapezoid(I, taus)) - want))
    ok = worst_exact <= 1e-12 and worst_quad <= 1e-3
    scoreboard(3, "kernel norms", ok,
               "max closed-form error %.2e, max quadrature error %.2e"
               % (worst_exact, worst_quad))


def test_criterion_04_limiting_loss():
    mu = spectrum.mp_measure(0.5)
    params = momentum.defaults("sgd", mu)
    norm = analysis.kernel_norm(params, mu)
    want = 1.0 * 0.5 / (2.0 * (1.0 - norm))   # R_tilde * p / (2 (1 - ||I||))
    sol = volterra.predict(mu, params, T=200.0, R_tilde=1.0)
    rel = abs(sol.psi[-1] - want) / want
    ok = rel <= 0.02
    scoreboard(4, "limiting loss", ok,
               "psi(200)=%.6f vs %.6f, rel err %.2e" % (sol.psi[-1], want, rel))


def test_criterion_05_analytic_volterra_oracle():
    # F = 1, I = 0.5 exp(-tau)  =>  psi(t) = 2 - exp(-t/2)
    errs = []
    for h in (0.05, 0.025):
        grid = volterra.time_grid(10.0, h)
        nodes = volterra._sweep_nodes(grid, True)
        sol = volterra.solve_convolution(np.ones_like(nodes),
                                         0.5 * np.exp(-nodes), grid)
        errs.append(float(np.max(np.abs(sol.psi
                                        - (2.0 - np.exp(-0.5 * grid))))))
    ok = errs[0] <= 1e-6 and errs[0] / errs[1] >= 4.0
    scoreboard(5, "analytic oracle", ok,
               "err %.2e at h=0.05, halving ratio %.1f" % (errs[0],
                                                           errs[0] / errs[1]))


def test_criterion_06_malthusian_and_rate_bounds():
    # single atom at lam=1: the tilted-kernel root is 2 gamma - gamma^2
    atom = spectrum.esm_from_eigenvalues(np.array([1.0]))
    worst_root = 0.0
    for gamma in (0.3, 0.75, 1.2, 1.5):
        got = analysis.malthusian_exponent(momentum.sgd(gamma), atom)
        worst_root = max(worst_root, abs(got - (2.0 * gamma - gamma ** 2)))
    bounds_ok = True
    details = []
    for r in (2.0, 4.0):
        mu = spectrum.mp_measure(r)
        lam_min = (1.0 - np.sqrt(1.0 / r)) ** 2
        for name in ("sgd", "sdahb", "sdana"):
            rep = analysis.rate_report(momentum.defaults(name, mu), mu)
            ok_one = rep.effective_rate >= rep.rate_lower_bound - 1e-12
            if name == "sdana":
                # stepsize corollary: rate >= 3/8 min(lam_min/m, 1/2)
                cor = 0.375 * min(lam_min / rep.m, 0.5)
                ok_one = ok_one and rep.effective_rate >= cor - 1e-12
            bounds_ok = bounds_ok and ok_one
            details.append("%s r=%g %.3f>=%.3f" % (name, r,
                                                   rep.effective_rate,
                                                   rep.rate_lower_bound))
    ok = worst_root <= 1e-10 and bounds_ok
    scoreboard(6, "malthusian + bounds", ok,
               "atom root err %.1e; %s" % (worst_root, ", ".join(details)))


def test_criterion_07_average_case_exponents():
    mp1 = spectrum.mp_measure(1.0)
    cases = [("sgd noiseless", SGD_DEFAULT, 0.0, None, (-1.7, -1.3)),
             ("sgd noisy", SGD_DEFAULT, 1.0, None, (-0.7, -0.3)),
             ("sdana noiseless", SDANA_DEFAULT, 0.0, "conv", (None, -2.5)),
             ("sdana noisy", SDANA_DEFAULT, 1.0, "conv", (-1.3, -0.7))]
    ok = True
    details = []
    for label, params, r_tilde, mode, (lo, hi) in cases:
        sol = volterra.predict(mp1, params, T=300.0, R_tilde=r_tilde,
                               mode=mode)
        slope = analysis.fit_poly_rate(sol.grid, sol.psi, (30.0, 300.0))
        ok_one = slope <= hi and (lo is None or slope >= lo)
        ok = ok and ok_one
        details.append("%s %.3f" % (label, slope))
    scoreboard(7, "average-case exponents", ok, ", ".join(details))


def test_criterion_08_kernel_identities_and_rk4_order():
    # initial forcing is always 1/2 and the kernel at its birth time is
    # lam^2 Gamma2^2, for random parameters and spectra
    rng = np.random.default_rng(0)
    worst_closed = 0.0
    worst_ode = 0.0
    for _ in range(50):
        lam = float(rng.uniform(0.1, 5.0))
        algo = ("sgd", "shb", "sdahb", "sdana")[int(rng.integers(4))]
        if algo == "sgd":
            g = float(rng.uniform(0.05, 2.0))
            spec = momentum.sgd(g).kernel_spec()
            worst_closed = max(
                worst_closed,
                abs(float(kernels.forcing_matrix(spec, [lam], [0.0])[0, 0])
                    - 0.5),
                abs(float(kernels.kernel_matrix(spec, [lam], [0.0])[0, 0])
                    - g * g * lam * lam))
        elif algo in ("shb", "sdahb"):
            # both land on the same constant-friction closed form once
            # mapped to continuous parameters, so draw those directly
            g1 = float(rng.uniform(0.05, 3.0))
            th = float(rng.uniform(0.1, 4.0))
            spec = kernels.KernelSpec(g1, 0.0, th, "closed_form")
            worst_closed = max(
                worst_closed,
                abs(float(kernels.forcing_matrix(spec, [lam], [0.0])[0, 0])
                    - 0.5),
                abs(float(kernels.kernel_matrix(spec, [lam], [0.0])[0, 0])))
        else:
            g1 = float(rng.uniform(0.05, 1.0))
            g2 = float(rng.uniform(0.1, 2.0))
            th = float(rng.uniform(0.5, 6.0))
            # a birth time s: the state born there, K.ic, is the same for
            # every s; the draw keeps the stream's order
            rng.uniform(0.0, 3.0)
            spec = momentum.sdana(g1, g2, th).kernel_spec()
            F = kernels.forcing_matrix(spec, [lam], np.array([0.0]))
            K = kernels.SdanaExactKernel(spec, [lam], [1.0])
            worst_ode = max(worst_ode,
                            abs(float(F[0, 0]) - 0.5),
                            abs(float(K.agg @ K.ic[0]) - g2 * g2 * lam * lam))
    # fourth-order integrator: halving the step cuts the error ~16x
    lam, g1, g2, th = 1.7, 0.3, 0.6, 1.1
    grid = np.linspace(0.0, 2.0, 51)
    spec = kernels.KernelSpec(g1, g2, th, "closed_form")
    exact = kernels.forcing_matrix(spec, [lam], grid)[0]
    errs = []
    for h in (0.04, 0.02):
        got = 0.5 * kernels._ode_on_grid(
            np.array([lam]), spec, grid,
            kernels.forcing_ic(np.array([lam])), h)[0]
        errs.append(float(np.max(np.abs(got - exact))))
    ratio = errs[0] / errs[1]
    ok = worst_closed <= 1e-14 and worst_ode <= 1e-8 and ratio >= 12.0
    scoreboard(8, "kernel identities + rk4", ok,
               "closed %.1e, ode %.1e, halving ratio %.1f"
               % (worst_closed, worst_ode, ratio))


def test_criterion_09_sdana_exact_vs_convolution():
    mu = spectrum.mp_measure(1.0)
    exact = volterra.predict(mu, SDANA_DEFAULT, T=150.0, mode="ode")
    conv = volterra.predict(mu, SDANA_DEFAULT, T=150.0, mode="conv")
    tail = exact.grid >= 100.0
    rel = float(np.max(np.abs(conv.psi[tail] - exact.psi[tail])
                       / exact.psi[tail]))
    ok = rel <= 0.10
    scoreboard(9, "sdana exact vs conv", ok,
               "max rel diff %.4f for t >= 100" % rel)


def test_criterion_10_homogenized_simulator():
    prob = lsq.generate_gaussian(512, 512, 1.0, 1.0, 1)
    sp = lsq.to_spectral(prob)
    traj, paths = momentum.simulate_homogenized(
        sp, SGD_DEFAULT, T=5.0, dt=0.01, seed=7, n_paths=50,
        return_paths=True)
    sol = volterra.predict(prob.esm(), SGD_DEFAULT, T=5.0, h=0.01,
                           spectral=sp)
    dev = np.abs(traj.mean - sol.at(traj.times))
    mcse = paths.std(axis=0, ddof=1) / np.sqrt(paths.shape[0])
    ratio = float(np.max(dev[1:] / mcse[1:]))
    ok = dev[0] == 0.0 and bool(np.all(dev[1:] <= 3.0 * mcse[1:]))
    scoreboard(10, "homogenized simulator", ok,
               "start dev %.1e, max |mean-psi|/mcse %.3f" % (dev[0], ratio))
