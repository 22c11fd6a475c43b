"""Assembly and solution of the loss Volterra equation.

The expected loss curve psi solves the second-kind equation

    psi(t) = F(t) + int_0^t K_s(t) psi(s) ds

where the forcing F mixes initialization (R) and noise (R_tilde)
contributions of every spectral node and K is the interaction kernel.
For SGD/SHB/SDAHB (and the SDANA convolution approximation) the kernel is
convolution type, K_s(t) = I(t - s), and one trapezoid-marching pass
solves the discretized equation exactly; the exact SDANA kernel is
two-time and is marched with an extended per-node ODE state instead.
"""

import collections
import json
import os

import numpy as np

from . import analysis, kernels
from .errors import NumericalError
from .lsq import check_scales

DEFAULT_H = 0.05
PICARD_TOL = 1e-10
PICARD_MAX_ITERS = 200
# points per directly marched stretch of the convolution march; longer
# stretches take their history from FFT products
_MARCH_BLOCK = 128

# grid points whose kernel ICs the separable march takes in one call
_IC_BLOCK = 64

# RK4 substeps an SDANA prediction may take before it is refused (about
# 800x the T = 100 prediction on the MP r = 1 measure)
_RK4_WORK_LIMIT = 10**7

# the forcing const + coef @ G(t), G half the states the separable march
# starts at forcing_ic of its kernel's nodes and sweeps with its own
StateForcing = collections.namedtuple("StateForcing", "coef const")

# predict's mode names (the CLI's --mode choices) and the routes they pick
MODES = {"closed": "closed_form", "ode": "ode_exact",
         "conv": "convolution_approx"}


def time_grid(T, h=DEFAULT_H):
    """Uniform grid 0, h, 2h, ..., ending at (the nearest multiple of h to) T."""
    if not (np.isfinite(h) and h > 0):
        raise ValueError("grid step h (--h) must be finite and positive, "
                         "got %r" % (h,))
    if not np.isfinite(T):
        raise ValueError("horizon T (--T) must be finite, got %r" % (T,))
    steps = int(round(T / h))
    if steps < 1:
        raise ValueError("horizon T must cover at least one step")
    return np.arange(steps + 1) * h


class VolterraSolution:
    """psi on a grid together with the forcing it answered to."""

    def __init__(self, grid, forcing, psi, kernel_norm=None, method="marching",
                 diagnostics=None, meta=None):
        self.grid = np.asarray(grid, dtype=float)
        self.forcing = np.asarray(forcing, dtype=float)
        self.psi = np.asarray(psi, dtype=float)
        self.kernel_norm = kernel_norm
        self.method = method
        self.diagnostics = diagnostics or {}
        self.meta = meta or {}

    @property
    def h(self):
        return float(self.grid[1] - self.grid[0]) if len(self.grid) > 1 else 0.0

    def at(self, t):
        """psi linearly interpolated at time(s) t."""
        return np.interp(t, self.grid, self.psi)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("t,F,psi\n")
            for row in zip(self.grid, self.forcing, self.psi):
                fh.write("%.17g,%.17g,%.17g\n" % row)

    def sidecar(self):
        """Metadata for the JSON sidecar; non-finite diagnostics are null."""
        diag = {k: v if isinstance(v, str) or v is None or np.isfinite(v)
                else None for k, v in self.diagnostics.items()}
        obj = {"h": self.h, "method": self.method,
               "kernel_norm": self.kernel_norm, "diagnostics": diag}
        obj.update(self.meta)
        return obj

    def write(self, path):
        """CSV plus a metadata JSON sidecar next to it."""
        self.to_csv(path)
        side = sidecar_path(path)
        with open(side, "w") as fh:
            json.dump(self.sidecar(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return side

    @staticmethod
    def read(path):
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if header != ["t", "F", "psi"]:
                raise ValueError("expected header t,F,psi, got %r" % (header,))
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        meta = {}
        side = sidecar_path(path)
        if os.path.exists(side):
            with open(side) as fh:
                meta = json.load(fh)
        return VolterraSolution(data[:, 0], data[:, 1], data[:, 2],
                                kernel_norm=meta.get("kernel_norm"),
                                method=meta.get("method", "marching"),
                                diagnostics=meta.get("diagnostics"), meta=meta)


def sidecar_path(csv_path):
    root, ext = os.path.splitext(csv_path)
    return (root if ext.lower() == ".csv" else csv_path) + ".json"


def build_forcing(measure, spec, R, R_tilde, grid):
    """F(t) = int (R*lam + R_tilde) G^(lam)(t) dmu(lam) on the grid.

    The atom at lam = 0 contributes the constant R_tilde*mu({0})/2, since
    the gradient never moves mass there and G(0, t) = 1/2.
    """
    return _forcing_on(spec, grid, *_forcing_terms(measure, R, R_tilde))


def build_forcing_from_spectral(spectral, spec, grid):
    """Forcing from the realized spectral coordinates of one problem:

        F(t) = sum_j (sigma_j nu0_j - etahat_j)^2 G^(sigma_j^2)(t)

    so that F(0) equals the realized initial loss exactly, removing the
    O(n^{-1/2}) fluctuation of the theoretical forcing.
    """
    return _forcing_on(spec, grid, *_forcing_terms(None, 0.0, 0.0, spectral))


def _forcing_terms(measure, R, R_tilde, spectral=None):
    """(lams, coef, const) with F(t) = const + coef @ G^(lams)(t), from the
    measure or from a spectral problem's live sigma^2."""
    if spectral is None:
        lam = measure.points
        return (lam, measure.weights * (R * lam + R_tilde),
                0.5 * R_tilde * measure.zero_mass)
    c = (spectral.sigma * spectral.init_coords - spectral.noise_coords) ** 2
    lam = spectral.sigma**2
    live = lam > 0.0
    return lam[live], c[live], 0.5 * c[~live].sum()


def _forcing_on(spec, grid, lams, coef, const):
    if not len(lams):
        return np.full(len(grid), const)
    return const + coef @ kernels.forcing_matrix(spec, lams, grid)


def build_convolution_kernel(measure, spec, grid):
    """I(tau) = int K^(lam)(tau) dmu(lam) on the tau grid (zero atom drops
    out since K scales with lam^2)."""
    grid = np.asarray(grid, dtype=float)
    mat = kernels.kernel_matrix(spec, measure.points, grid)
    return measure.weights @ mat


def _fft_size(n):
    """Smallest power of two >= n."""
    return 1 << (n - 1).bit_length()


def _trapezoid_convolve(I_vals, psi, h, I_hat):
    """Trapezoid quadrature of (I * psi)(t_i) on the shared uniform grid.

    The full sum goes through numpy.fft, zero-padded to a power of two
    >= 2N-1; I_hat is the kernel's rfft at that size.  Overflow is left
    to the caller's finiteness checks.
    """
    n = len(psi)
    size = _fft_size(2 * n - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        full = np.fft.irfft(np.fft.rfft(psi, size) * I_hat, size)[:n]
        full = full - 0.5 * I_vals[0] * psi - 0.5 * I_vals * psi[0]
    return h * full


def _cubic_refine(values):
    """Insert cubic-interpolated midpoints: length n -> 2n-1, step halved.

    Interior midpoints use the 4-point stencil (-1, 9, 9, -1)/16; the
    first and last intervals use the one-sided cubic through their nearest
    four samples.  Exact for cubics, so the inserted values are O(h^4)
    accurate for smooth data.
    """
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n < 4:
        raise ValueError("refinement needs at least 4 samples")
    out = np.empty(2 * n - 1)
    out[::2] = v
    mids = out[1::2]
    mids[1:-1] = (-v[:-3] + 9.0 * v[1:-2] + 9.0 * v[2:-1] - v[3:]) / 16.0
    mids[0] = (5.0 * v[0] + 15.0 * v[1] - 5.0 * v[2] + v[3]) / 16.0
    mids[-1] = (v[-4] - 5.0 * v[-3] + 15.0 * v[-2] + 5.0 * v[-1]) / 16.0
    return out


def _finalize_psi(psi, context):
    """Shared guards: overflow is fatal; tiny extrapolation negatives are
    floored at zero, structural negatives are fatal."""
    if not np.all(np.isfinite(psi)):
        raise NumericalError("Volterra solution overflowed in %s; the kernel "
                             "mass exceeds the convergent regime" % context)
    low = psi.min()
    if low < 0.0:
        scale = max(float(np.max(np.abs(psi))), 1e-300)
        if low < -1e-9 * scale:
            raise NumericalError("Volterra solution went negative (%g) in %s"
                                 % (low, context))
        psi = np.maximum(psi, 0.0)
    return psi


def solve_convolution(F, I_vals, grid, method="marching", refine=True,
                      fine=None):
    """Solve psi = F + I * psi on a uniform grid (trapezoid weights).

    Marching: one forward pass, exact for the trapezoid discretization.
    Picard: fixed-point iteration of the same discrete system, retained as
    an independent validation oracle (requires the iteration to contract;
    stops at sup-change < PICARD_TOL * max(1, sup|F|)).  With refine
    (default) the solve is repeated on the half-step grid and Richardson
    extrapolation removes
    the O(h^2) term, raising the order to ~4; the coarse/fine gap is
    reported as an error estimate.  The half-step samples of F and I are
    cubically interpolated unless exact ones are passed as
    fine=(F_half, I_half) (length 2*len(grid) - 1).
    """
    F = np.asarray(F, dtype=float)
    I_vals = np.asarray(I_vals, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if not (len(F) == len(I_vals) == len(grid)):
        raise ValueError("F, I and grid must share a length")
    h = _uniform_step(grid)
    psi, diagnostics = _solve_conv_core(F, I_vals, h, method)
    if refine and len(grid) >= 4:
        F_half, I_half = _half_samples((F, I_vals), fine)
        fine_psi, fine_diag = _solve_conv_core(F_half, I_half, 0.5 * h, method)
        diagnostics.update(fine_diag)
        psi = _richardson(psi, fine_psi[::2], diagnostics)
    psi = _finalize_psi(psi, "convolution solve")
    return VolterraSolution(grid, F, psi, method=method, diagnostics=diagnostics)


def _half_samples(samples, fine):
    """Half-step values of the coarse samples: fine (each of length 2n - 1)
    when given, else cubically interpolated."""
    if fine is None:
        return [_cubic_refine(a) for a in samples]
    half = [np.asarray(a, dtype=float) for a in fine]
    if any(len(a) != 2 * len(samples[0]) - 1 for a in half):
        raise ValueError("half-step samples must have length 2n-1")
    return half


def _richardson(psi, on_grid, diagnostics):
    """Extrapolate away the O(h^2) term of a solve psi given the half-step
    solve's values on the same nodes: (4 psi_half - psi) / 3.  The gap is
    recorded as refinement_gap."""
    diagnostics["refinement_gap"] = float(np.max(np.abs(on_grid - psi)))
    return (4.0 * on_grid - psi) / 3.0


def _march_divisor(h, K0):
    """1 - (h/2) K0, the trapezoid march's divisor at grid step h and
    on-diagonal kernel value K0; raises NumericalError unless positive."""
    denom = 1.0 - 0.5 * h * K0
    if denom <= 0.0:
        raise NumericalError("marching singularity: 1 - (h/2) K(0) <= 0 at "
                             "h = %.6g, K(0) = %.6g; reduce the grid step --h "
                             "below 2/K(0) = %.6g" % (h, K0, 2.0 / K0))
    return denom


def _solve_conv_core(F, I_vals, h, method):
    denom = _march_divisor(h, I_vals[0])
    diagnostics = {}
    I_hat = np.fft.rfft(I_vals, _fft_size(2 * len(I_vals) - 1))
    if method == "marching":
        psi = _march_convolution(F, I_vals, h, denom)
    elif method == "picard":
        psi, diagnostics["picard_iters"] = _picard_convolution(F, I_vals, h,
                                                               I_hat)
    else:
        raise ValueError("unknown solver method %r" % (method,))
    resid = psi - F - _trapezoid_convolve(I_vals, psi, h, I_hat)
    diagnostics["residual"] = float(np.max(np.abs(resid)))
    return psi, diagnostics


def _uniform_step(grid):
    if len(grid) < 2:
        return 0.0
    steps = np.diff(grid)
    h = steps[0]
    if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * max(h, 1.0):
        raise ValueError("solver grids must be uniform")
    return float(h)


def _march_convolution(F, I_vals, h, denom):
    """Trapezoid march of psi = F + I * psi, block-recursive (Hairer, Lubich
    & Schlichte, SIAM J. Sci. Stat. Comput. 6(3), 1985): solve the left half
    of a stretch, add its history to the right half with one FFT product,
    then solve the right half.  Stretches of _MARCH_BLOCK points are
    marched directly.  The discrete system is the direct march's; only the
    order of summation differs.  Cost O(N log^2 N).
    """
    n = len(F)
    size = _MARCH_BLOCK
    while size < n:
        size *= 2
    kern = np.zeros(size)
    kern[:n] = I_vals
    spectra = {}  # stretch length -> rfft of the kernel's first values
    psi = np.empty(n)
    w = np.empty(n)  # psi with the trapezoid's half weight at j = 0
    hist = np.zeros(n)  # sum_j I[i-j] w[j] over earlier stretches

    def march_block(lo, hi):
        start = lo
        if lo == 0:
            psi[0] = F[0]
            w[0] = 0.5 * F[0]
            start = 1
        for i in range(start, hi):
            # the trapezoid's half weight at j = i sits in denom
            acc = hist[i] + kern[i - lo:0:-1] @ w[lo:i]
            psi[i] = (F[i] + h * acc) / denom
            w[i] = psi[i]
        finite = np.isfinite(psi[lo:hi])
        if not finite.all():
            raise _nonfinite_at(lo + int(np.argmin(finite)), h)

    def solve(lo, hi):
        if hi - lo <= _MARCH_BLOCK:
            march_block(lo, min(hi, n))
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        if mid >= n:
            return
        length = hi - lo
        if length not in spectra:
            spectra[length] = np.fft.rfft(kern[:length])
        # circular length suffices: wrapped terms land left of mid
        cross = np.fft.irfft(np.fft.rfft(w[lo:mid], length) * spectra[length],
                             length)
        top = min(hi, n)
        hist[mid:top] += cross[mid - lo:top - lo]
        solve(mid, hi)

    # an overflow shows up as a non-finite value in its block, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        solve(0, size)
    return psi


def _nonfinite_at(step, h):
    """The error both marchers raise at the first non-finite value."""
    return NumericalError(
        "Volterra solution went non-finite at grid step %d (t = t0 + %.6g); "
        "the kernel mass exceeds the convergent regime on this horizon"
        % (step, step * h))


def _picard_convolution(F, I_vals, h, I_hat):
    # relative to the forcing once it exceeds 1 (the phi-conjugated SDANA
    # forcing grows like t^theta); a contracting kernel keeps psi on F's
    # scale, a non-contracting one outgrows it and stays unconverged
    tol = PICARD_TOL * max(1.0, float(np.max(np.abs(F))))
    psi = F.copy()
    for it in range(1, PICARD_MAX_ITERS + 1):
        nxt = F + _trapezoid_convolve(I_vals, psi, h, I_hat)
        if not np.all(np.isfinite(nxt)):
            raise NumericalError("Picard iterate %d is not finite; the "
                                 "iteration cannot settle" % it)
        delta = float(np.max(np.abs(nxt - psi)))
        psi = nxt
        if delta < tol:
            return psi, it
    raise NumericalError("Picard iteration did not converge "
                         "(last sup-change %.3g)" % delta)


def solve_general(F, kernel, grid, refine=True, fine_forcing=None):
    """Solve psi(t) = F(t) + int_0^t K_s(t) psi(s) ds by trapezoid marching.

    kernel is a separable-state object exposing ic/advance/aggregate/diag
    (the exact SDANA kernel): K_s(t) is the aggregate of per-node states
    started at ic(s) and carried from s to t by advance, so the march keeps
    one ODE state per spectral node instead of one solve per (s, t) pair.
    refine also marches the half-step grid and Richardson-extrapolates,
    matching solve_convolution's accuracy; one forward sweep of the
    half-step grid advances the states of both passes together.

    F is the forcing on grid (its half-step values fine_forcing, else
    cubically interpolated), or a StateForcing: the forcing and the kernel
    solve one ODE, so the forcing's states ride in the same sweep.
    """
    grid = np.asarray(grid, dtype=float)
    nodes = _sweep_nodes(grid, refine)
    stride = 2 if len(nodes) > len(grid) else 1
    if not isinstance(F, StateForcing):
        F = np.asarray(F, dtype=float)
        if len(F) != len(grid):
            raise ValueError("F and grid must share a length")
        if stride == 2:
            fine = None if fine_forcing is None else (fine_forcing,)
            F = _half_samples((F,), fine)[0]
    F, passes = _march_separable(F, kernel, nodes, stride)
    diagnostics = {"residual": float("nan")}
    psi = passes[-1]
    if stride == 2:
        psi = _richardson(psi, passes[0][::2], diagnostics)
    psi = _finalize_psi(psi, "general solve")
    return VolterraSolution(grid, F[::stride], psi, method="marching",
                            diagnostics=diagnostics)


def _sweep_nodes(grid, refine):
    """The nodes solve_general sweeps: the half-step grid when it refines."""
    if not (refine and len(grid) >= 4):
        return grid
    return grid[0] + 0.5 * _uniform_step(grid) * np.arange(2 * len(grid) - 1)


def _march_separable(F, K, nodes, stride):
    """Trapezoid-march nodes and, with stride 2, every second node too, in
    one forward sweep; returns the forcing on nodes and each pass's psi,
    the finest first.

    The state ODE is linear, so one state per pass carries its trapezoid
    sum ic(s_0) psi_0 / 2 + sum_{0<j<i} ic(s_j) psi_j to the current node
    (the half weight at j = i sits in the divisor).  A StateForcing's
    state rides in the same stack.  Each node checks the forcing first;
    and as when the forcing was integrated before the march, a forcing
    failure anywhere on the grid outranks a march failure.
    """
    h = _uniform_step(nodes)
    strides = (1, 2)[:stride]
    ode = isinstance(F, StateForcing)
    ic0 = K.ic(nodes[0])
    state = np.zeros((stride + ode,) + ic0.shape)
    if ode:
        state[-1] = kernels.forcing_ic(K.lams, K.spec.gamma1, K.spec.gamma2)
        forcing, F = F, np.empty(len(nodes))
        F[0] = _forcing_at(K, forcing, state[-1], nodes[0])
    psis = [np.full(len(nodes[::s]), F[0]) for s in strides]
    denoms = [_march_divisor(s * h, K.diag()) for s in strides]
    state[:stride] = 0.5 * ic0 * F[0]
    # an overflow shows up as a non-finite F or psi, which raises at its node
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(1, len(nodes), _IC_BLOCK):
            ics = K.ic(nodes[lo:lo + _IC_BLOCK])
            for k in range(lo, lo + len(ics)):
                state = K.advance(state, nodes[k - 1], nodes[k])
                if ode:
                    F[k] = _forcing_at(K, forcing, state[-1], nodes[k])
                for p, s in enumerate(strides):
                    if k % s:
                        continue
                    psi, i = psis[p], k // s
                    psi[i] = (F[k] + s * h * K.aggregate(state[p, ..., 0])) / denoms[p]
                    if not np.isfinite(psi[i]):
                        # a forcing failure further on outranks this one
                        u = state[-1]
                        for j in range(k + 1, len(nodes) if ode else 0):
                            u = K.advance(u, nodes[j - 1], nodes[j])
                            _forcing_at(K, forcing, u, nodes[j])
                        raise _nonfinite_at(i, s * h)
                    state[p] += ics[k - lo] * psi[i]
    return F, psis


def _forcing_at(K, forcing, u, t):
    """The StateForcing's value at node t from its state u; raises if it is
    not finite."""
    value = forcing.const + (0.5 * forcing.coef) @ u[..., 0]
    if not np.isfinite(value):
        raise kernels.nonfinite_forcing(t, K.h, K.spec.gamma1, K.spec.gamma2)
    return value


def predict(measure, params, T, R=1.0, R_tilde=1.0, h=DEFAULT_H, mode=None,
            n=None, spectral=None, validate=False):
    """End-to-end deterministic loss prediction for an algorithm on a measure.

    mode selects the SDANA route: 'ode' (exact two-time kernel) or 'conv'
    (convolution approximation, solved in the phi-conjugated variable);
    SGD/SHB/SDAHB use their closed kernels ('closed').  SHB needs n to map
    onto its dimension-adjusted parameters.  A spectral problem may be
    passed to replace the theoretical forcing with the realized one.
    validate reruns the convolution solve by Picard iteration and records
    the disagreement in the diagnostics.  An SDANA job estimated at more
    than _RK4_WORK_LIMIT RK4 substeps, and a grid step at which the march
    is singular, raise NumericalError before any integration.
    """
    if mode is not None:
        mode = MODES.get(mode, mode)
        if mode not in MODES.values():
            raise ValueError("unknown solve mode %r; pick closed, ode or conv"
                             % (mode,))
    check_scales(R, R_tilde)
    spec = params.kernel_spec(n=n, mode=mode)
    grid = time_grid(T, h)
    # assemble on the half-step grid so the refinement pass sees exact
    # values rather than interpolated ones
    half = 0.5 * h * np.arange(2 * len(grid) - 1)
    lams, coef, const = _forcing_terms(measure, R, R_tilde, spectral)
    kern = None
    if spec.mode == "ode_exact":
        nodes, weights = measure.points, measure.weights
        if spectral is not None:
            # each distinct value of both node sets once, its weight and
            # forcing coefficient summed onto it
            nodes, at = np.unique(np.concatenate([nodes, lams]),
                                  return_inverse=True)
            split = len(measure.points)
            weights = np.bincount(at[:split], weights, len(nodes))
            coef = np.bincount(at[split:], coef, len(nodes))
        kern = kernels.SdanaExactKernel(spec, nodes, weights)
    _check_rk4_work(spec, lams, kern, grid, half)
    # refuse a singular march before the forcing: every route's on-diagonal
    # kernel value is K_t(t) = g2^2 int lam^2 dmu
    _march_divisor(h, spec.gamma2**2 * measure.integrate(np.square))
    norm = analysis.kernel_norm(params, measure)

    if kern is not None:
        sol = solve_general(StateForcing(coef, const), kern, grid)
    else:
        if spectral is not None:
            F_half = build_forcing_from_spectral(spectral, spec, half)
        else:
            F_half = build_forcing(measure, spec, R, R_tilde, half)
        F = F_half[::2]
        # the SDANA approximation is solved in the phi-conjugated variable;
        # the closed forms already are in the physical one
        conj = spec.mode == "convolution_approx"
        weight = kernels._Schedule("power", spec.theta).phi
        phi, phi_half = (weight(grid), weight(half)) if conj else (1.0, 1.0)
        I_half = build_convolution_kernel(measure, spec, half)
        fine = (phi_half * F_half, I_half)
        sol = solve_convolution(phi * F, I_half[::2], grid, fine=fine)
        sol = VolterraSolution(grid, F, sol.psi / phi, method=sol.method,
                               diagnostics=sol.diagnostics)
        if validate:
            _validate_picard(sol, phi * F, I_half[::2], grid, phi, fine)
    sol.kernel_norm = norm
    sol.meta = {"algo": params.name, "params": params.describe(),
                "measure": json.loads(measure.to_json()), "h": h,
                "method": sol.method, "kernel_norm": norm,
                "R": R, "R_tilde": R_tilde, "mode": spec.mode}
    return sol


def _check_rk4_work(spec, lams, kern, grid, half):
    """Refuse an SDANA prediction, before integrating, whose RK4 substeps
    exceed _RK4_WORK_LIMIT: solve_general's one sweep over its nodes at
    kern.h on the exact route, else the forcing's RK4 on the half-step grid
    at the step forcing_matrix takes for the forcing nodes lams."""
    if spec.phi_kind != "power" or (kern is None and not len(lams)):
        return
    nodes, h_ode = ((_sweep_nodes(grid, True), kern.h) if kern is not None
                    else (half, kernels.node_ode_step(spec.gamma2, lams)))
    work = int(kernels.rk4_substeps(np.diff(nodes), h_ode).sum())
    if work > _RK4_WORK_LIMIT:
        raise NumericalError(
            "SDANA RK4 work out of reach: an estimated %d RK4 substeps at "
            "ODE step %.3g exceed the limit of %d; reduce the horizon T, "
            "gamma2 or the largest eigenvalue" % (work, h_ode, _RK4_WORK_LIMIT))


def _validate_picard(sol, F, I_vals, grid, deconjugate, fine):
    """Cross-check the marching solution against Picard; non-contraction is
    reported, not fatal (marching needs no smallness assumption)."""
    try:
        alt = solve_convolution(F, I_vals, grid, method="picard", fine=fine)
        alt_psi = alt.psi / deconjugate
        sol.diagnostics["picard_iters"] = alt.diagnostics["picard_iters"]
        sol.diagnostics["picard_delta"] = float(
            np.max(np.abs(alt_psi - sol.psi)))
    except NumericalError as exc:
        sol.diagnostics["picard_delta"] = None
        sol.diagnostics["picard_note"] = str(exc)
