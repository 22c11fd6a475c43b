"""Generic stochastic momentum method, its named instances, and ensembles.

One step of the generic method, given the sampled row index i_k:

    g_k = (a_i . x - b_i) a_i^T          (per-sample gradient)
    y_k = (1 - Delta(k)) y_{k-1} + Gamma1 * g_k,   y_0 = 0
    x_k = x_{k-1} - Gamma2 * g_k - y_k

Each named method reads its step from its continuous-time law,
kernels.KernelSpec.discrete: Gamma1 = gamma1/n, Gamma2 = gamma2 and
Delta(k) = Phi(k/n)/n.  So SGD has Gamma1 = Delta = 0, and SHB(gamma,
theta) steps as SDAHB(n gamma, n theta).  Time is in epochs t = k/n.
"""

import contextvars
import math
import numbers
from collections import deque
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
    and n the problem size.  continuous and modes give the method's
    kernels.KernelSpec, its one continuous-time law (phi, Phi), from which
    the discrete recursion reads its step too."""

    name: str
    names: tuple              # parameter names, in constructor order
    continuous: Callable      # (p, n) -> (gamma1, gamma2, theta)
    defaults: Callable = None     # (m, given p) -> default parameter row
    modes: tuple = ("closed",)    # its kernels.MODES, the default first
    family: analysis.Family = None    # rate bounds, hard-edge exponents


def _shb_continuous(p, n):
    # SHB(gamma, theta) is SDAHB run at (n*gamma, n*theta)
    if n is None or n < 1:
        raise ValueError("SHB's continuous-time parameters need the problem "
                         "size n (--n), which must be at least 1, got %r"
                         % (n,))
    return n * p["gamma"], 0.0, n * p["theta"]


ALGORITHMS = {a.name: a for a in (
    Algorithm("sgd", ("gamma",),
              lambda p, n: (0.0, p["gamma"], 0.0),
              defaults=lambda m, p: {"gamma": 1.0 / m},
              family=analysis.SGD),
    Algorithm("shb", ("gamma", "theta"),
              _shb_continuous, family=analysis.HEAVY_BALL),
    Algorithm("sdahb", ("gamma", "theta"),
              lambda p, n: (p["gamma"], 0.0, p["theta"]),
              defaults=lambda m, p: {"theta": 2.0,
                                     "gamma": p.get("theta", 2.0) / m},
              family=analysis.HEAVY_BALL),
    Algorithm("sdana", ("gamma1", "gamma2", "theta"),
              lambda p, n: (p["gamma1"], p["gamma2"], p["theta"]),
              defaults=lambda m, p: {"gamma1": 1.0 / (4.0 * m),
                                     "gamma2": 1.0 / m, "theta": 4.0},
              modes=("ode", "conv"),
              family=analysis.SDANA),
)}


def _checked(name, params):
    """params as floats, each finite and positive, else a ValueError naming
    the first that is not."""
    params = {k: float(v) for k, v in params.items()}
    for key, val in params.items():
        if not (math.isfinite(val) and val > 0.0):
            raise ValueError("%s: %s must be finite and positive, got %r"
                             % (name, key, val))
    return params


class AlgoParams:
    """An algorithm's record bound to its parameter values, validated."""

    def __init__(self, algo, params):
        self.algo = algo
        self.name = algo.name
        if set(params) != set(algo.names):
            raise ValueError("%s takes %s, got %s" % (
                algo.name, ", ".join(algo.names), ", ".join(sorted(params))))
        self.params = _checked(algo.name, {k: params[k] for k in algo.names})

    def kernel_spec(self, n=None, mode=None):
        """The continuous-time law (SHB needs n) on solve route mode."""
        # a single-mode record has constant phi, where every route is exact
        if mode is not None and mode not in kernels.MODES:
            raise ValueError("unknown solve mode %r; pick %s"
                             % (mode, ", ".join(kernels.MODES)))
        modes = self.algo.modes
        mode = mode if mode and len(modes) > 1 else modes[0]
        if mode not in modes:
            raise ValueError("mode %r unavailable for %s (allowed: %s)"
                             % (mode, self.name, ", ".join(modes)))
        g1, g2, theta = self.algo.continuous(self.params, n)
        return kernels.KernelSpec(float(g1), float(g2), float(theta), mode)

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
    # the default row reads the given values, so they are checked first
    given = _checked(name, given)
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
    """Loss samples over epoch time, summarized over an ensemble of runs or
    paths: the mean and the 10% and 90% quantiles at each time (one run
    gives mean = q10 = q90 = that run).  An ensemble of two or more also
    carries se, the standard error of its mean at each time (sample std /
    sqrt(runs))."""

    def __init__(self, times, mean, q10, q90, diverged=False, meta=None,
                 se=None):
        self.times = np.asarray(times, dtype=float)
        self.mean = np.asarray(mean, dtype=float)
        self.q10 = np.asarray(q10, dtype=float)
        self.q90 = np.asarray(q90, dtype=float)
        self.se = None if se is None else np.asarray(se, dtype=float)
        self.diverged = bool(diverged)
        self.meta = meta or {}

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("t,mean,q10,q90\n")
            for row in zip(self.times, self.mean, self.q10, self.q90):
                fh.write("%.17g,%.17g,%.17g,%.17g\n" % row)

    @staticmethod
    def from_csv(path):
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if header != ["t", "mean", "q10", "q90"]:
            raise ValueError("unrecognized trajectory header %r" % (header,))
        return Trajectory(*data.T)


def _ensemble(times, losses, diverged, meta):
    """The Trajectory of a (runs x times) loss matrix."""
    se = (losses.std(axis=0, ddof=1) / np.sqrt(len(losses))
          if len(losses) > 1 else None)
    return Trajectory(times, losses.mean(axis=0),
                      np.quantile(losses, 0.10, axis=0),
                      np.quantile(losses, 0.90, axis=0),
                      diverged=diverged, meta=meta, se=se)


def _sample_steps(n, epochs, samples_per_epoch):
    """Record steps k_m = round(m*n/spe), m = 1..floor(epochs*spe), deduped."""
    count = int(np.floor(epochs * samples_per_epoch + 1e-9))
    ks = np.rint(np.arange(1, count + 1) * n / samples_per_epoch).astype(int)
    ks = np.maximum(ks, 1)
    # strictly increasing (duplicates only possible when n < samples_per_epoch)
    ks = np.unique(ks)
    return ks


def run(problem, params, epochs, seed, samples_per_epoch=SAMPLES_PER_EPOCH):
    """One run of the momentum method, as the ensemble Trajectory of that
    one run (mean = q10 = q90 = its losses); deterministic given seed.

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
    g1, g2, deltas = params.kernel_spec(n).discrete(n, np.arange(1, total + 1))
    deltas = np.broadcast_to(deltas, (total,))
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
    return _ensemble(ks[:recorded] / n, vals[None, :recorded],
                     diverged_at is not None,
                     {"algo": params.describe(), "n": n, "d": d,
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
    """The ensemble of single runs (as run returns them) over their
    mean losses; divergence truncates to the shared prefix and poisons the
    flag rather than being dropped silently.  The meta's diverged_at lists
    each run's stopping step (None if it ran to the end)."""
    m = min(len(r.times) for r in runs)
    meta = dict(runs[0].meta, n_seeds=len(runs),
                diverged_at=[r.meta.get("diverged_at") for r in runs])
    return _ensemble(runs[0].times[:m], np.stack([r.mean[:m] for r in runs]),
                     any(r.diverged for r in runs), meta)


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
    realized start spectral.f0.  Requires a finite T >= 0, a finite dt in
    (0, 0.01] and an integer n_paths >= 1.  Returns the ensemble
    Trajectory over the paths (one path gives mean = q10 = q90 = that
    path), and the per-path loss matrix too when return_paths is set.

    The normals of a step do not depend on the state: a one-thread pool
    draws them ahead of the drift, from the same generator in the same
    order, into a ring of three (n_paths, n) buffers.  Two draws are in
    flight while step k runs, those of steps k+1 and k+2, so the draw of
    step k+2 goes into the buffer step k-1 is done with.  A draw's error
    is raised here, and the pool's thread has ended when the call returns
    or raises.  At gamma1 = 0 rho never reads omega, and omega is not
    updated.
    """
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError("T must be finite and at least 0, got %r" % (T,))
    if not (math.isfinite(dt) and 0.0 < dt <= 0.01):
        raise ValueError("dt must be finite, positive and at most 0.01, "
                         "got %r" % (dt,))
    if (not isinstance(n_paths, numbers.Integral) or isinstance(n_paths, bool)
            or n_paths < 1):
        raise ValueError("n_paths must be an integer of at least 1, got %r"
                         % (n_paths,))
    spec = params.kernel_spec(n=spectral.n)
    g1, g2 = spec.gamma1, spec.gamma2
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
    ring = np.empty((min(steps, 3), n_paths, n))
    momentum = g1 != 0.0
    # imported here: concurrent.futures imports logging, which would add
    # to every import of movolt
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        def draw(j):
            # the context is copied here, so the caller's np.errstate applies
            return pool.submit(contextvars.copy_context().run,
                               rng.standard_normal, out=ring[j % 3])

        ahead = deque(draw(j) for j in range(min(steps, 2)))
        for k in range(1, steps + 1):
            z = ahead.popleft().result()
            if k + 1 < steps:
                ahead.append(draw(k + 1))
            amp = np.sqrt(2.0 * dt * f / n)
            dX = np.multiply(z, lam * amp[:, None], out=z)
            dX += lam_dt * rho
            if momentum:
                rho -= g2 * dX + (g1 * dt) * omega
                omega *= 1.0 - spec.Phi((k - 1) * dt) * dt
                omega += dX
            else:
                rho -= g2 * dX
            f = 0.5 * np.sum(rho * rho, axis=1)
            if (not np.all(np.isfinite(f))
                    or np.any(np.abs(f) > DIVERGENCE_THRESHOLD)):
                diverged = True
                losses = losses[:, :k]
                times = times[:k]
                break
            losses[:, k] = f
        for fut in ahead:       # draws past a divergence: raise their errors
            fut.result()
    traj = _ensemble(times, losses, diverged,
                     {"algo": params.describe(), "n": n, "dt": dt,
                      "seed": seed, "n_paths": n_paths})
    # a mean of equal starts can round away from them
    traj.mean[0] = spectral.f0
    if return_paths:
        return traj, losses
    return traj
