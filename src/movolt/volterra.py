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

import json
import os

import numpy as np

from . import analysis, kernels
from .errors import NumericalError

DEFAULT_H = 0.05
PICARD_TOL = 1e-10
PICARD_MAX_ITERS = 200

_MODE_ALIASES = {"closed": "closed_form", "ode": "ode_exact",
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


def build_forcing(measure, spec, R, R_tilde, grid, h=None):
    """F(t) = int (R*lam + R_tilde) G^(lam)(t) dmu(lam) on the grid.

    The atom at lam = 0 contributes the constant R_tilde*mu({0})/2, since
    the gradient never moves mass there and G(0, t) = 1/2.
    """
    grid = np.asarray(grid, dtype=float)
    mat = kernels.forcing_matrix(spec, measure.points, grid, h=h)
    coef = measure.weights * (R * measure.points + R_tilde)
    F = coef @ mat
    if measure.zero_mass > 0.0:
        F = F + 0.5 * R_tilde * measure.zero_mass
    return F


def build_forcing_from_spectral(spectral, spec, grid, h=None):
    """Forcing from the realized spectral coordinates of one problem:

        F(t) = sum_j (sigma_j nu0_j - etahat_j)^2 G^(sigma_j^2)(t)

    so that F(0) equals the realized initial loss exactly, removing the
    O(n^{-1/2}) fluctuation of the theoretical forcing.
    """
    grid = np.asarray(grid, dtype=float)
    c = (spectral.sigma * spectral.init_coords - spectral.noise_coords) ** 2
    lam = spectral.sigma**2
    live = lam > 0.0
    F = np.full(grid.shape, 0.5 * c[~live].sum())
    if np.any(live):
        F = F + c[live] @ kernels.forcing_matrix(spec, lam[live], grid, h=h)
    return F


def build_convolution_kernel(measure, spec, grid, h=None):
    """I(tau) = int K^(lam)(tau) dmu(lam) on the tau grid (zero atom drops
    out since K scales with lam^2)."""
    grid = np.asarray(grid, dtype=float)
    mat = kernels.kernel_matrix(spec, measure.points, grid, h=h)
    return measure.weights @ mat


def _trapezoid_convolve(I_vals, psi, h):
    """Trapezoid quadrature of (I * psi)(t_i) on the shared uniform grid."""
    full = np.convolve(I_vals, psi)[: len(psi)]
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
        if fine is not None:
            F_half, I_half = (np.asarray(a, dtype=float) for a in fine)
            if len(F_half) != 2 * len(grid) - 1 or len(I_half) != len(F_half):
                raise ValueError("fine arrays must have length 2n-1")
        else:
            F_half, I_half = _cubic_refine(F), _cubic_refine(I_vals)
        fine_psi, fine_diag = _solve_conv_core(F_half, I_half, 0.5 * h, method)
        on_grid = fine_psi[::2]
        diagnostics["refinement_gap"] = float(np.max(np.abs(on_grid - psi)))
        diagnostics.update(fine_diag)
        psi = (4.0 * on_grid - psi) / 3.0
    psi = _finalize_psi(psi, "convolution solve")
    return VolterraSolution(grid, F, psi, method=method, diagnostics=diagnostics)


def _solve_conv_core(F, I_vals, h, method):
    denom = 1.0 - 0.5 * h * I_vals[0]
    if denom <= 0.0:
        raise NumericalError("marching singularity: 1 - (h/2) I(0) <= 0; "
                             "reduce the grid step")
    diagnostics = {}
    if method == "marching":
        psi = _march_convolution(F, I_vals, h, denom)
    elif method == "picard":
        psi, diagnostics["picard_iters"] = _picard_convolution(F, I_vals, h)
    else:
        raise ValueError("unknown solver method %r" % (method,))
    if not np.all(np.isfinite(psi)):
        raise NumericalError("Volterra solution overflowed; the kernel mass "
                             "exceeds the convergent regime on this horizon")
    resid = psi - F - _trapezoid_convolve(I_vals, psi, h)
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
    n = len(F)
    psi = np.empty(n)
    psi[0] = F[0]
    for i in range(1, n):
        # trapezoid: half weights at j=0 and j=i, the latter moved left
        acc = 0.5 * I_vals[i] * psi[0]
        if i > 1:
            acc += I_vals[i - 1:0:-1] @ psi[1:i]
        psi[i] = (F[i] + h * acc) / denom
    return psi


def _picard_convolution(F, I_vals, h):
    # relative to the forcing once it exceeds 1 (the phi-conjugated SDANA
    # forcing grows like t^theta); a contracting kernel keeps psi on F's
    # scale, a non-contracting one outgrows it and stays unconverged
    tol = PICARD_TOL * max(1.0, float(np.max(np.abs(F))))
    psi = F.copy()
    for it in range(1, PICARD_MAX_ITERS + 1):
        nxt = F + _trapezoid_convolve(I_vals, psi, h)
        delta = float(np.max(np.abs(nxt - psi)))
        psi = nxt
        if delta < tol:
            return psi, it
    raise NumericalError("Picard iteration did not converge "
                         "(last sup-change %.3g)" % delta)


def solve_general(F, kernel, grid, refine=True, fine_forcing=None):
    """Solve psi(t) = F(t) + int_0^t K_s(t) psi(s) ds by trapezoid marching.

    kernel is either a callable K(s, t) (dense path, any two-time kernel)
    or a separable-state object exposing ic/advance/aggregate/diag (the
    exact SDANA kernel), which costs one ODE state per spectral node
    instead of one solve per (s, t) pair.  refine repeats the march on the
    half-step grid (kernel evaluated exactly, forcing upsampled unless
    exact half-step values are passed) and Richardson-extrapolates,
    matching solve_convolution's accuracy.
    """
    F = np.asarray(F, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if len(F) != len(grid):
        raise ValueError("F and grid must share a length")
    h = _uniform_step(grid)
    psi = _march_general(F, kernel, grid, h)
    diagnostics = {"residual": float("nan")}
    if refine and len(grid) >= 4:
        fine_grid = grid[0] + 0.5 * h * np.arange(2 * len(grid) - 1)
        F_half = (np.asarray(fine_forcing, dtype=float)
                  if fine_forcing is not None else _cubic_refine(F))
        if len(F_half) != len(fine_grid):
            raise ValueError("fine forcing must have length 2n-1")
        fine_psi = _march_general(F_half, kernel, fine_grid, 0.5 * h)
        on_grid = fine_psi[::2]
        diagnostics["refinement_gap"] = float(np.max(np.abs(on_grid - psi)))
        psi = (4.0 * on_grid - psi) / 3.0
    psi = _finalize_psi(psi, "general solve")
    return VolterraSolution(grid, F, psi, method="marching",
                            diagnostics=diagnostics)


def _march_general(F, kernel, grid, h):
    if hasattr(kernel, "advance"):
        psi = _march_separable(F, kernel, grid, h)
    else:
        psi = _march_dense(F, kernel, grid, h)
    if not np.all(np.isfinite(psi)):
        raise NumericalError("Volterra solution overflowed in general solve")
    return psi


def _march_dense(F, K, grid, h):
    n = len(grid)
    psi = np.empty(n)
    psi[0] = F[0]
    for i in range(1, n):
        t = grid[i]
        denom = 1.0 - 0.5 * h * K(t, t)
        if denom <= 0.0:
            raise NumericalError("marching singularity at t=%.3f" % t)
        acc = 0.5 * K(grid[0], t) * psi[0]
        for j in range(1, i):
            acc += K(grid[j], t) * psi[j]
        psi[i] = (F[i] + h * acc) / denom
    return psi


def _march_separable(F, K, grid, h):
    n = len(grid)
    psi = np.empty(n)
    psi[0] = F[0]
    denom = 1.0 - 0.5 * h * K.diag()
    if denom <= 0.0:
        raise NumericalError("marching singularity: kernel diagonal too "
                             "large for this grid step")
    # state[..., 0]: half-weighted s=0 node; state[..., 1]: running
    # h-weighted sum over interior nodes (linearity of the state ODE lets
    # one stacked state carry the whole integral)
    state = np.zeros(K.ic(0.0).shape + (2,))
    state[..., 0] = K.ic(grid[0]) * psi[0]
    for i in range(1, n):
        state = K.advance(state, grid[i - 1], grid[i])
        integral = h * (0.5 * K.aggregate(state[:, 0, 0])
                        + K.aggregate(state[:, 0, 1]))
        psi[i] = (F[i] + integral) / denom
        state[..., 1] += K.ic(grid[i]) * psi[i]
    return psi


def predict(measure, params, T, R=1.0, R_tilde=1.0, h=DEFAULT_H, mode=None,
            n=None, forcing=None, spectral=None, validate=False):
    """End-to-end deterministic loss prediction for an algorithm on a measure.

    mode selects the SDANA route: 'ode' (exact two-time kernel) or 'conv'
    (convolution approximation, solved in the phi-conjugated variable);
    SGD/SHB/SDAHB use their closed kernels ('closed').  SHB needs n to map
    onto its dimension-adjusted parameters.  A spectral problem may be
    passed to replace the theoretical forcing with the realized one.
    validate reruns the convolution solve by Picard iteration and records
    the disagreement in the diagnostics.
    """
    if mode is not None:
        mode = _MODE_ALIASES.get(mode, mode)
        if mode not in _MODE_ALIASES.values():
            raise ValueError("unknown solve mode %r; pick closed, ode or conv"
                             % (mode,))
    spec = params.kernel_spec(n=n, mode=mode)
    grid = time_grid(T, h)
    # assemble on the half-step grid so the refinement pass sees exact
    # values rather than interpolated ones
    half = time_grid(T, 0.5 * h)
    if spectral is not None:
        F_half = build_forcing_from_spectral(spectral, spec, half)
    elif forcing is not None:
        F_half = None
        F = np.asarray(forcing, dtype=float)
        if len(F) != len(grid):
            raise ValueError("forcing length does not match the grid")
    else:
        F_half = build_forcing(measure, spec, R, R_tilde, half)
    if F_half is not None:
        F = F_half[::2]
    norm = analysis.kernel_norm(params, measure)

    if spec.mode == "ode_exact":
        kern = kernels.SdanaExactKernel(spec, measure.points, measure.weights)
        sol = solve_general(F, kern, grid, fine_forcing=F_half)
    else:
        # the SDANA approximation is solved in the phi-conjugated variable;
        # the closed forms already are in the physical one
        conj = spec.mode == "convolution_approx"
        phi = (1.0 + grid) ** spec.theta if conj else 1.0
        phi_half = (1.0 + half) ** spec.theta if conj else 1.0
        I_half = build_convolution_kernel(measure, spec, half)
        fine = (phi_half * F_half, I_half) if F_half is not None else None
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


def limit_value(measure, params, R_tilde):
    """Predicted plateau R_tilde * mu({0}) / (2 (1 - ||I||))."""
    norm = analysis.kernel_norm(params, measure)
    return analysis.limiting_loss(norm, measure.zero_mass, R_tilde)
