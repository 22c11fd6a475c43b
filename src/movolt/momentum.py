"""Generic stochastic momentum method, its named instances, and ensembles.

One step of the generic method, given the sampled row index i_k:

    g_k = (a_i . x - b_i) a_i^T          (per-sample gradient)
    y_k = (1 - Delta(k)) y_{k-1} + Gamma1 * g_k,   y_0 = 0
    x_k = x_{k-1} - Gamma2 * g_k - y_k

Named rows: SGD (Gamma2=gamma, Delta=1), SHB (Gamma1=gamma, Delta=theta),
SDAHB (Gamma1=gamma/n, Delta=theta/n), SDANA (Gamma1=gamma1/n,
Gamma2=gamma2, Delta=theta/(k+n)).  Time is measured in epochs t = k/n.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, kernels
from .lsq import DIVERGENCE_THRESHOLD, generate_gaussian, loss, losses

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
    continuous: Callable      # (p, n) -> (gamma1, gamma2, theta)
    phi_kind: str = "const"   # law of phi: e^{theta t} or (1+t)^theta
    defaults: Callable = None     # (m, given p) -> default parameter row
    modes: tuple = ("closed_form",)   # valid solve modes, the default first
    family: analysis.Family = None    # closed-form analysis


def _shb_continuous(p, n):
    # SHB(gamma, theta) is SDAHB run at (n*gamma, n*theta)
    if n is None or n < 1:
        raise ValueError("SHB's continuous-time parameters need the problem "
                         "size n (--n), which must be at least 1, got %r"
                         % (n,))
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
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError("%s: %s must be finite and positive, got %r"
                                 % (algo.name, key, val))

    def discrete(self, n):
        """(Gamma1, Gamma2, schedule) of the recursion at problem size n."""
        return self.algo.discrete(self.params, n)

    def continuous(self, n=None):
        """(gamma1, gamma2, schedule) of the associated diffusion/kernels."""
        g1, g2, theta = self.algo.continuous(self.params, n)
        return g1, g2, kernels._Schedule(self.algo.phi_kind, theta)

    def kernel_spec(self, n=None, mode=None):
        # a single-mode record has constant phi, where every route is exact
        modes = self.algo.modes
        mode = mode if mode and len(modes) > 1 else modes[0]
        if mode not in modes:
            raise ValueError("mode %r unavailable for %s (allowed: %s)"
                             % (mode, self.name, modes))
        g1, g2, sched = self.continuous(n)
        return kernels.KernelSpec(float(g1), float(g2), float(sched.theta),
                                  sched.kind, mode)

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
    """Loss samples over epoch time, single-run or ensemble-aggregated.
    An ensemble of two or more runs also carries se, the standard error
    of its mean at each time (sample std / sqrt(runs))."""

    def __init__(self, times, values=None, mean=None, q10=None, q90=None,
                 diverged=False, meta=None, se=None):
        self.times = np.asarray(times, dtype=float)
        self.values = None if values is None else np.asarray(values, dtype=float)
        self.mean = None if mean is None else np.asarray(mean, dtype=float)
        self.q10 = None if q10 is None else np.asarray(q10, dtype=float)
        self.q90 = None if q90 is None else np.asarray(q90, dtype=float)
        self.se = None if se is None else np.asarray(se, dtype=float)
        self.diverged = bool(diverged)
        self.meta = meta or {}

    @property
    def is_ensemble(self):
        return self.mean is not None

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
    on (seed, run-tag), independent of the problem's own generator.  The
    run stops at the first sample whose loss is non-finite or above
    DIVERGENCE_THRESHOLD and records that step k as meta["diverged_at"]
    (None when it runs to the end).  Sampled iterates wait in a buffer of
    one epoch's samples and get their losses from one lsq.losses GEMM;
    a sample whose cheap upper bound on f could cross the threshold
    gets its exact lsq.loss at once, so divergence stops the run where a
    per-sample loss would.
    """
    n, d = problem.n, problem.d
    if not math.isfinite(epochs):
        raise ValueError("epochs (--epochs) must be finite, got %r" % epochs)
    if epochs * min(n, samples_per_epoch) < 1:    # one step and one sample
        raise ValueError("epochs (--epochs) must be at least %g at n=%d, got "
                         "%r" % (1.0 / min(n, samples_per_epoch), n, epochs))
    ks = _sample_steps(n, epochs, samples_per_epoch)
    total = int(ks[-1])
    g1, g2, sched = params.discrete(n)
    deltas = sched.delta(np.arange(1, total + 1), n)
    if deltas.size and (deltas.min() < 0.0 or deltas.max() > 1.0):
        theta = params.params["theta"]   # Delta(k) is linear in theta
        raise ValueError("momentum schedule Delta(k) leaves [0,1] for n=%d: "
                         "--theta must be at most %.6g at this n, got %r"
                         % (n, theta / deltas.max(), theta))
    rng = np.random.default_rng([_RUN_STREAM, seed])
    idx = rng.integers(0, n, size=total)
    A = problem.A
    b = problem.b[idx].tolist()
    idx = idx.tolist()
    decay = (1.0 - deltas).tolist()
    x = problem.x0.copy()
    y = np.zeros(d)
    g = np.empty(d)
    tmp = np.empty(d)
    # sampled iterates wait here for one GEMM of their losses
    pending = np.empty((min(samples_per_epoch, len(ks)), d))
    vals = np.empty(len(ks))
    recorded = waiting = 0

    def flush():
        nonlocal recorded, waiting
        if waiting:
            vals[recorded:recorded + waiting] = losses(problem,
                                                       pending[:waiting])
            recorded, waiting = recorded + waiting, 0

    # f(x) <= 1/2 (|A|_F |x| + |b|)^2: a sample whose bound is at most
    # half the threshold cannot be the one where the run diverges
    a_norm, b_norm = np.linalg.norm(A), np.linalg.norm(problem.b)
    safe = 0.5 * DIVERGENCE_THRESHOLD
    # a term whose coefficient is exactly 0 is skipped, the rest keep the
    # order x = (x - Gamma2 g) - y: at Gamma1 = 0, y stays +0 and x -= y
    # is a no-op; at Gamma2 = 0, x -= 0*g changes no value (it can turn a
    # -0 into +0).  Once g is non-finite x is too either way, and the
    # first overflow comes from an op that always runs, so a run stops
    # and raises where the full step's run does.
    momentum, gradient = g1 != 0.0, g2 != 0.0
    diverged_at = None
    start = 0
    for stop in ks.tolist():
        for k in range(start, stop):       # steps start+1 .. stop
            row = A[idx[k]]
            np.multiply(row, row @ x - b[k], out=g)
            if momentum:
                np.multiply(y, decay[k], out=y)
                np.multiply(g, g1, out=tmp)
                y += tmp
            if gradient:
                np.multiply(g, g2, out=tmp)
                x -= tmp
            if momentum:
                x -= y
        start = stop
        with np.errstate(over="ignore", invalid="ignore"):
            bound = 0.5 * (a_norm * np.sqrt(x @ x) + b_norm) ** 2
        if bound <= safe:
            pending[waiting] = x
            waiting += 1
            if waiting == len(pending):
                flush()
            continue
        flush()
        f = loss(problem, x)
        if not np.isfinite(f) or abs(f) > DIVERGENCE_THRESHOLD:
            diverged_at = stop
            break
        vals[recorded] = f
        recorded += 1
    flush()
    return Trajectory(ks[:recorded] / n, values=vals[:recorded],
                      diverged=diverged_at is not None,
                      meta={"algo": params.describe(), "n": n, "d": d,
                            "seed": seed, "epochs": epochs,
                            "diverged_at": diverged_at})


def run_ensemble(problem_spec, params, epochs, n_seeds, base_seed=0):
    """Aggregate n_seeds runs into mean/q10/q90 per time point.

    problem_spec is a dict with keys n, d, R, R_tilde.  Run i draws a
    fresh problem and its row indices from seed base_seed + i.
    """
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    n, d, R, R_tilde = (problem_spec[k] for k in ("n", "d", "R", "R_tilde"))
    return aggregate([run(generate_gaussian(n, d, R, R_tilde, s), params,
                          epochs, s)
                      for s in range(base_seed, base_seed + n_seeds)])


def aggregate(runs):
    """Combine single-run trajectories; divergence truncates to the shared
    prefix and poisons the flag rather than being dropped silently.  The
    meta's diverged_at lists each run's stopping step (None if it ran to
    the end)."""
    diverged = any(r.diverged for r in runs)
    m = min(len(r.times) for r in runs)
    times = runs[0].times[:m]
    mat = np.stack([r.values[:m] for r in runs])
    se = (mat.std(axis=0, ddof=1) / np.sqrt(len(runs)) if len(runs) > 1
          else None)
    meta = dict(runs[0].meta, n_seeds=len(runs),
                diverged_at=[r.meta.get("diverged_at") for r in runs])
    return Trajectory(times, mean=mat.mean(axis=0),
                      q10=np.quantile(mat, 0.10, axis=0),
                      q90=np.quantile(mat, 0.90, axis=0),
                      diverged=diverged, meta=meta, se=se)


def simulate_homogenized(spectral, params, T, dt, seed, n_paths=1,
                         return_paths=False):
    """Euler-Maruyama paths of the homogenized diffusion of a spectral
    problem (lam, resid), in its residual coordinates rho_j and momentum
    coordinates omega_j:

        dX_j      = lam_j sqrt(2 f / n) dB_j + lam_j rho_j dt
        d rho_j   = -gamma2 dX_j - gamma1 omega_j dt
        d omega_j = -Phi(t) omega_j dt + dX_j

    from rho = resid and omega = 0, with f = 1/2 sum_j rho_j^2 the current
    loss; modes at lam = 0 keep their residual.  Every path starts at the
    realized start spectral.f0.  Requires dt <= 0.01.  Returns the
    ensemble Trajectory over the paths (one path gives mean = q10 = q90 =
    that path), and the per-path loss matrix too when return_paths is set.
    """
    if dt > 0.01:
        raise ValueError("dt must be at most 0.01")
    g1, g2, sched = params.continuous(n=spectral.n)
    n, lam = spectral.n, spectral.lam
    steps = int(round(T / dt))
    rng = np.random.default_rng([_PATH_STREAM, seed])
    rho = np.tile(spectral.resid, (n_paths, 1))
    omega = np.zeros_like(rho)
    reclen = steps + 1
    losses = np.empty((n_paths, reclen))
    f = np.full(n_paths, spectral.f0)
    losses[:, 0] = f
    times = np.arange(reclen) * dt
    diverged = False
    lam_dt = lam * dt
    for k in range(1, steps + 1):
        t = (k - 1) * dt
        amp = np.sqrt(2.0 * dt * f / n)
        dX = rng.standard_normal((n_paths, n)) * (lam * amp[:, None])
        dX += lam_dt * rho
        rho -= g2 * dX + (g1 * dt) * omega
        omega *= 1.0 - sched.Phi(t) * dt
        omega += dX
        f = 0.5 * np.sum(rho * rho, axis=1)
        if not np.all(np.isfinite(f)) or np.any(np.abs(f) > DIVERGENCE_THRESHOLD):
            diverged = True
            losses = losses[:, :k]
            times = times[:k]
            break
        losses[:, k] = f
    meta = {"algo": params.describe(), "n": n, "dt": dt, "seed": seed,
            "n_paths": n_paths}
    mean = losses.mean(axis=0)
    mean[0] = spectral.f0   # a mean of equal starts can round away from them
    traj = Trajectory(times, mean=mean,
                      q10=np.quantile(losses, 0.10, axis=0),
                      q90=np.quantile(losses, 0.90, axis=0),
                      diverged=diverged, meta=meta)
    if return_paths:
        return traj, losses
    return traj
