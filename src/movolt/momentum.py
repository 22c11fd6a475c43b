"""Generic stochastic momentum method, its named instances, and ensembles.

One step of the generic method, given the sampled row index i_k:

    g_k = (a_i . x - b_i) a_i^T          (per-sample gradient)
    y_k = (1 - Delta(k)) y_{k-1} + Gamma1 * g_k,   y_0 = 0
    x_k = x_{k-1} - Gamma2 * g_k - y_k

Named rows: SGD (Gamma2=gamma, Delta=1), SHB (Gamma1=gamma, Delta=theta),
SDAHB (Gamma1=gamma/n, Delta=theta/n), SDANA (Gamma1=gamma1/n,
Gamma2=gamma2, Delta=theta/(k+n)).  Time is measured in epochs t = k/n.

The library's stochastic_grad carries an extra factor n (so that its
average over rows is the full gradient); the runner divides it back out —
g_k above is stochastic_grad(problem, x, i)/n.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, kernels
from .lsq import DIVERGENCE_THRESHOLD, generate_gaussian, loss

SAMPLES_PER_EPOCH = 20

# distinct entropy pools so the index stream never replays problem bits
_RUN_STREAM = 0x5eed
_PATH_STREAM = 0xd1f


class Algorithm(NamedTuple):
    """Everything movolt knows about one method.  p is the parameter dict
    and n the problem size; schedules are kernels._Schedule (delta(k, n)
    gives the discrete Delta(k), Phi(t) the continuous law)."""

    name: str
    names: tuple              # parameter names, in constructor order
    discrete: Callable        # (p, n) -> (Gamma1, Gamma2, Delta schedule)
    continuous: Callable = None   # (p, n) -> (gamma1, gamma2, theta)
    phi_kind: str = "const"   # law of phi: e^{theta t} or (1+t)^theta
    defaults: Callable = None     # (m, given p) -> default parameter row
    modes: tuple = ("closed_form",)   # valid solve modes, the default first
    family: analysis.Family = None    # closed-form analysis
    positive: bool = True     # parameters must be > 0, not only finite


def _shb_continuous(p, n):
    # SHB(gamma, theta) is SDAHB run at (n*gamma, n*theta)
    if n is None:
        raise ValueError("SHB continuous-time parameters need n")
    return n * p["gamma"], 0.0, n * p["theta"]


ALGORITHMS = {a.name: a for a in (
    Algorithm("sgd", ("gamma",),
              lambda p, n: (0.0, p["gamma"], kernels._Schedule("const", 1.0)),
              lambda p, n: (0.0, p["gamma"], 0.0),
              defaults=lambda m, p: {"gamma": 1.0 / m},
              family=analysis.SGD),
    Algorithm("shb", ("gamma", "theta"),
              lambda p, n: (p["gamma"], 0.0,
                            kernels._Schedule("const", p["theta"])),
              _shb_continuous, family=analysis.HEAVY_BALL),
    Algorithm("sdahb", ("gamma", "theta"),
              lambda p, n: (p["gamma"] / n, 0.0,
                            kernels._Schedule("const", p["theta"] / n)),
              lambda p, n: (p["gamma"], 0.0, p["theta"]),
              defaults=lambda m, p: {"theta": 2.0,
                                     "gamma": p.get("theta", 2.0) / m},
              family=analysis.HEAVY_BALL),
    Algorithm("sdana", ("gamma1", "gamma2", "theta"),
              lambda p, n: (p["gamma1"] / n, p["gamma2"],
                            kernels._Schedule("power", p["theta"])),
              lambda p, n: (p["gamma1"], p["gamma2"], p["theta"]),
              phi_kind="power",
              defaults=lambda m, p: {"gamma1": 1.0 / (4.0 * m),
                                     "gamma2": 1.0 / m, "theta": 4.0},
              modes=("ode_exact", "convolution_approx"),
              family=analysis.SDANA),
)}


class AlgoParams:
    """An algorithm's record bound to its parameter values, validated."""

    def __init__(self, algo, params):
        self.algo = algo
        self.name = algo.name
        if set(params) != set(algo.names):
            raise ValueError("%s takes %s, got %s" % (
                algo.name, ", ".join(algo.names), ", ".join(sorted(params))))
        self.params = {k: float(params[k]) for k in algo.names}
        for key, val in self.params.items():
            if not math.isfinite(val) or (algo.positive and val <= 0.0):
                raise ValueError("%s: %s must be %s, got %r" % (
                    algo.name, key, "finite and positive" if algo.positive
                    else "finite", val))

    def discrete(self, n):
        """(Gamma1, Gamma2, schedule) of the recursion at problem size n."""
        return self.algo.discrete(self.params, n)

    def continuous(self, n=None):
        """(gamma1, gamma2, schedule) of the associated diffusion/kernels."""
        if self.algo.continuous is None:
            raise ValueError("no continuous-time form for %r" % (self.name,))
        g1, g2, theta = self.algo.continuous(self.params, n)
        return g1, g2, kernels._Schedule(self.algo.phi_kind, theta)

    def kernel_spec(self, n=None, mode=None):
        # a single-mode record has constant phi, where every route is exact
        modes = self.algo.modes
        mode = mode if mode and len(modes) > 1 else modes[0]
        g1, g2, sched = self.continuous(n)
        return kernels.KernelSpec(self.name, float(g1), float(g2),
                                  float(sched.theta), sched.kind, mode)

    def describe(self):
        return {"name": self.name, **self.params}


def sgd(gamma):
    return AlgoParams(ALGORITHMS["sgd"], {"gamma": gamma})


def shb(gamma, theta):
    return AlgoParams(ALGORITHMS["shb"], {"gamma": gamma, "theta": theta})


def sdahb(gamma, theta):
    return AlgoParams(ALGORITHMS["sdahb"], {"gamma": gamma, "theta": theta})


def sdana(gamma1, gamma2, theta):
    return AlgoParams(ALGORITHMS["sdana"],
                      {"gamma1": gamma1, "gamma2": gamma2, "theta": theta})


def custom(gamma1_raw, gamma2_raw, schedule):
    """Literal Gamma1/Gamma2 and a Delta schedule (kernels._Schedule); a
    one-off record outside the table, with no continuous form."""
    algo = Algorithm("custom", ("Gamma1", "Gamma2"),
                     lambda p, n: (p["Gamma1"], p["Gamma2"], schedule),
                     positive=False)
    return AlgoParams(algo, {"Gamma1": gamma1_raw, "Gamma2": gamma2_raw})


def algorithm(name):
    """The table's record for name."""
    if name not in ALGORITHMS:
        raise ValueError("unknown algorithm %r; choose %s"
                         % (name, ", ".join(ALGORITHMS)))
    return ALGORITHMS[name]


def defaults(name, measure, **given):
    """The named algorithm at the given parameters, the others from its
    record's default row at the measure's trace moment m."""
    algo = algorithm(name)
    if set(algo.names) - set(given):
        if algo.defaults is None:
            raise ValueError("no default parameters for %s; pass %s"
                             % (name, " and ".join(algo.names)))
        m = measure.trace_moment()
        if m <= 0:
            raise ValueError("measure has zero trace moment")
        given = {**algo.defaults(m, given), **given}
    return AlgoParams(algo, given)


class Trajectory:
    """Loss samples over epoch time, single-run or ensemble-aggregated."""

    def __init__(self, times, values=None, mean=None, q10=None, q90=None,
                 diverged=False, meta=None):
        self.times = np.asarray(times, dtype=float)
        self.values = None if values is None else np.asarray(values, dtype=float)
        self.mean = None if mean is None else np.asarray(mean, dtype=float)
        self.q10 = None if q10 is None else np.asarray(q10, dtype=float)
        self.q90 = None if q90 is None else np.asarray(q90, dtype=float)
        self.diverged = bool(diverged)
        self.meta = meta or {}

    @property
    def is_ensemble(self):
        return self.mean is not None

    def central(self):
        return self.mean if self.is_ensemble else self.values

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            if self.is_ensemble:
                fh.write("t,mean,q10,q90\n")
                for row in zip(self.times, self.mean, self.q10, self.q90):
                    fh.write("%.17g,%.17g,%.17g,%.17g\n" % row)
            else:
                fh.write("t,value\n")
                for row in zip(self.times, self.values):
                    fh.write("%.17g,%.17g\n" % row)

    @staticmethod
    def from_csv(path):
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if header[:2] == ["t", "value"]:
            return Trajectory(data[:, 0], values=data[:, 1])
        if header == ["t", "mean", "q10", "q90"]:
            return Trajectory(data[:, 0], mean=data[:, 1], q10=data[:, 2],
                              q90=data[:, 3])
        raise ValueError("unrecognized trajectory header %r" % (header,))


def _sample_steps(n, epochs, samples_per_epoch):
    """Record steps k_m = round(m*n/spe), m = 1..floor(epochs*spe), deduped."""
    count = int(np.floor(epochs * samples_per_epoch + 1e-9))
    ks = np.rint(np.arange(1, count + 1) * n / samples_per_epoch).astype(int)
    ks = np.maximum(ks, 1)
    # strictly increasing (duplicates only possible when n < samples_per_epoch)
    ks = np.unique(ks)
    return ks


def run(problem, params, epochs, seed, samples_per_epoch=SAMPLES_PER_EPOCH):
    """One trajectory of the momentum method; deterministic given seed.

    Row indices are drawn uniformly with replacement from a stream keyed
    on (seed, run-tag), independent of the problem's own generator.
    """
    n, d = problem.n, problem.d
    if not math.isfinite(epochs):
        raise ValueError("epochs (--epochs) must be finite, got %r" % epochs)
    if epochs * n < 1:
        raise ValueError("epochs*n must be at least 1")
    ks = _sample_steps(n, epochs, samples_per_epoch)
    total = int(ks[-1])
    g1, g2, sched = params.discrete(n)
    deltas = sched.delta(np.arange(1, total + 1), n)
    if deltas.size and (deltas.min() < 0.0 or deltas.max() > 1.0):
        raise ValueError("momentum schedule leaves [0,1] for n=%d" % n)
    rng = np.random.default_rng([_RUN_STREAM, seed])
    idx = rng.integers(0, n, size=total)
    A, b = problem.A, problem.b
    x = problem.x0.copy()
    y = np.zeros(d)
    times, vals = [], []
    diverged = False
    pos = 0
    for k in range(1, total + 1):
        i = idx[k - 1]
        row = A[i]
        g = (row @ x - b[i]) * row
        y = (1.0 - deltas[k - 1]) * y + g1 * g
        x = x - g2 * g - y
        if pos < len(ks) and k == ks[pos]:
            f = loss(problem, x)
            if not np.isfinite(f) or abs(f) > DIVERGENCE_THRESHOLD:
                diverged = True
                break
            times.append(k / n)
            vals.append(f)
            pos += 1
    return Trajectory(np.array(times), values=np.array(vals), diverged=diverged,
                      meta={"algo": params.describe(), "n": n, "d": d,
                            "seed": seed, "epochs": epochs})


def run_ensemble(problem_spec, params, epochs, n_seeds, base_seed=0,
                 fixed_problem=False, samples_per_epoch=SAMPLES_PER_EPOCH):
    """Aggregate n_seeds runs into mean/q10/q90 per time point.

    problem_spec is either an LsqProblem (reused as-is when fixed_problem,
    regenerated from its (n, d, R, R_tilde, seed) otherwise) or a dict
    with keys n, d, R, R_tilde.  Run i uses seed base_seed + i; with fresh
    problems, problem i is generated with the same seed.
    """
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    runs = []
    for i in range(n_seeds):
        s = base_seed + i
        prob = _resolve_problem(problem_spec, fixed_problem, s)
        runs.append(run(prob, params, epochs, s, samples_per_epoch))
    return aggregate(runs)


def _resolve_problem(problem_spec, fixed_problem, seed):
    from .lsq import LsqProblem
    if isinstance(problem_spec, LsqProblem):
        if fixed_problem:
            return problem_spec
        if problem_spec.R is None or problem_spec.x_tilde is None:
            # data-loaded problems cannot be redrawn
            return problem_spec
        return generate_gaussian(problem_spec.n, problem_spec.d, problem_spec.R,
                                 problem_spec.R_tilde, seed)
    spec = dict(problem_spec)
    if fixed_problem:
        return generate_gaussian(spec["n"], spec["d"], spec["R"],
                                 spec["R_tilde"], spec.get("seed", 0))
    return generate_gaussian(spec["n"], spec["d"], spec["R"], spec["R_tilde"], seed)


def aggregate(runs):
    """Combine single-run trajectories; divergence truncates to the shared
    prefix and poisons the flag rather than being dropped silently."""
    diverged = any(r.diverged for r in runs)
    m = min(len(r.times) for r in runs)
    times = runs[0].times[:m]
    mat = np.stack([r.values[:m] for r in runs])
    meta = dict(runs[0].meta, n_seeds=len(runs))
    return Trajectory(times, mean=mat.mean(axis=0),
                      q10=np.quantile(mat, 0.10, axis=0),
                      q90=np.quantile(mat, 0.90, axis=0),
                      diverged=diverged, meta=meta)


def simulate_homogenized(spectral, params, T, dt, seed, n_paths=1,
                         return_paths=False):
    """Euler-Maruyama paths of the homogenized diffusion in spectral
    coordinates (nu_j, w_j):

        d xi_j = sigma_j sqrt(2 f / n) dB_j + (sigma_j^2 nu_j - sigma_j etahat_j) dt
        d w_j  = -Phi(t) w_j dt + d xi_j
        d nu_j = -gamma2 d xi_j - gamma1 w_j dt

    with f the current loss 1/2 sum (sigma_j nu_j - etahat_j)^2.  Requires
    dt <= 0.01.  Returns an aggregated Trajectory (and the per-path loss
    matrix when return_paths is set).
    """
    if dt > 0.01:
        raise ValueError("dt must be at most 0.01")
    g1, g2, sched = params.continuous(n=spectral.n)
    n = spectral.n
    sigma = spectral.sigma
    eta = spectral.noise_coords
    steps = int(round(T / dt))
    rng = np.random.default_rng([_PATH_STREAM, seed])
    nu = np.tile(spectral.init_coords, (n_paths, 1))
    w = np.zeros_like(nu)
    reclen = steps + 1
    losses = np.empty((n_paths, reclen))
    resid = sigma * nu - eta
    losses[:, 0] = 0.5 * np.sum(resid**2, axis=1)
    times = np.arange(reclen) * dt
    diverged = False
    sq = np.sqrt(dt)
    for k in range(1, steps + 1):
        t = (k - 1) * dt
        resid = sigma * nu - eta
        f = 0.5 * np.sum(resid**2, axis=1)
        dB = rng.standard_normal((n_paths, n)) * sq
        dxi = (sigma * np.sqrt(2.0 * np.maximum(f, 0.0) / n)[:, None]) * dB \
            + sigma * resid * dt
        nu = nu - g2 * dxi - g1 * w * dt
        w = w - sched.Phi(t) * w * dt + dxi
        resid = sigma * nu - eta
        f = 0.5 * np.sum(resid**2, axis=1)
        if not np.all(np.isfinite(f)) or np.any(np.abs(f) > DIVERGENCE_THRESHOLD):
            diverged = True
            losses = losses[:, :k]
            times = times[:k]
            break
        losses[:, k] = f
    meta = {"algo": params.describe(), "n": n, "dt": dt, "seed": seed,
            "n_paths": n_paths}
    if n_paths == 1:
        traj = Trajectory(times, values=losses[0], diverged=diverged, meta=meta)
    else:
        traj = Trajectory(times, mean=losses.mean(axis=0),
                          q10=np.quantile(losses, 0.10, axis=0),
                          q90=np.quantile(losses, 0.90, axis=0),
                          diverged=diverged, meta=meta)
    if return_paths:
        return traj, losses
    return traj
