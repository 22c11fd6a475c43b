"""Assembly and solution of the loss Volterra equation.

The expected loss curve psi solves the second-kind equation

    psi(t) = F(t) + int_0^t K_s(t) psi(s) ds

where the forcing F mixes initialization (R) and noise (R_tilde)
contributions of every spectral node and K is the interaction kernel.
For SGD/SHB/SDAHB (and the SDANA convolution approximation) the kernel is
convolution type, K_s(t) = I(t - s), and one trapezoid-marching pass
solves the discretized equation exactly; the exact SDANA kernel is
two-time and is marched with a per-node moment state instead.
"""

import collections
import json
import math
import os

import numpy as np

from . import analysis, kernels, spectrum
from .errors import NumericalError
from .lsq import check_scales

DEFAULT_H = 0.05
# the scale an MP rule's forcing and kernel must agree with the rule of
# three times its nodes to, where the solve chooses the rule
QUADRATURE_TOL = 1e-12
# quadrature_gap's check times, as fractions of the horizon
_GAP_AT = np.append(0.0, 0.5 ** np.arange(7, -1, -1))
PICARD_TOL = 1e-10
PICARD_MAX_ITERS = 200
# points per directly marched stretch of the convolution march; longer
# stretches take their history from FFT products
_MARCH_BLOCK = 128

# the forcing const + coef @ G(t), G half the states the separable march
# starts at forcing_ic of its kernel's nodes and sweeps with its own; a
# given start is F at the first node (a realized problem's f0)
StateForcing = collections.namedtuple("StateForcing", "coef const start",
                                      defaults=(None,))

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
    steps = float(T) / float(h)
    if not steps < np.iinfo(np.intp).max:      # inf after an overflow, too
        raise ValueError("horizon T (--T) over grid step h (--h) must be "
                         "a step count below %.3g, got %g / %g = %g"
                         % (np.iinfo(np.intp).max, T, h, steps))
    steps = int(round(steps))
    if steps < 1:
        raise ValueError("horizon T (--T) must be more than half the grid "
                         "step --h = %g, so more than %g; got %r"
                         % (h, 0.5 * h, T))
    return np.arange(steps + 1) * h


class VolterraSolution:
    """psi on a grid together with the forcing it answered to."""

    def __init__(self, grid, forcing, psi, kernel_norm=None, method="marching",
                 diagnostics=None, meta=None, passes=()):
        self.grid = np.asarray(grid, dtype=float)
        self.forcing = np.asarray(forcing, dtype=float)
        self.psi = np.asarray(psi, dtype=float)
        self.kernel_norm = kernel_norm
        self.method = method
        self.diagnostics = diagnostics or {}
        self.meta = meta or {}
        # a solve's psi of each pass, coarse first, before the Richardson
        # step, in the weighted unknown of a weighted convolution solve
        self.passes = passes

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

    def write(self, path):
        """CSV plus a metadata JSON sidecar next to it."""
        self.to_csv(path)
        side = sidecar_path(path)
        write_json(side, {"h": self.h, "method": self.method,
                          "kernel_norm": self.kernel_norm,
                          "diagnostics": self.diagnostics, **self.meta})
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


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None, JSON's null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def json_text(obj):
    """Strict JSON text of obj, the one format of every JSON output:
    non-finite floats are null, and one that slips through raises
    instead of writing Infinity or NaN."""
    return json.dumps(_finite_or_null(obj), indent=1, sort_keys=True,
                      allow_nan=False)


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(json_text(obj) + "\n")


def build_forcing(measure, spec, R, R_tilde, grid):
    """F(t) = int (R*lam + R_tilde) G^(lam)(t) dmu(lam) on the grid.

    The atom at lam = 0 contributes the constant R_tilde*mu({0})/2, since
    the gradient never moves mass there and G(0, t) = 1/2.
    """
    return _forcing_on(spec, grid, *_forcing_terms(measure, R, R_tilde))


def build_forcing_from_spectral(spectral, spec, grid):
    """Forcing from the realized spectral view (lam, resid) of one problem:

        F(t) = sum_j resid_j^2 G^(lam_j)(t),   G^(0) = 1/2

    which removes the O(n^{-1/2}) fluctuation of the theoretical forcing.
    F(0) is the realized start spectral.f0, the float the homogenized SDE
    starts from.
    """
    F = _forcing_on(spec, grid, *_forcing_terms(None, 0.0, 0.0, spectral))
    if grid[0] == 0.0:
        F[0] = spectral.f0
    return F


def _forcing_terms(measure, R, R_tilde, spectral=None):
    """(lams, coef, const) with F(t) = const + coef @ G^(lams)(t), from the
    measure or from a spectral problem's live lam."""
    if spectral is None:
        lam = measure.points
        return (lam, measure.weights * (R * lam + R_tilde),
                0.5 * R_tilde * measure.zero_mass)
    c = spectral.resid**2
    live = spectral.lam > 0.0
    return spectral.lam[live], c[live], 0.5 * c[~live].sum()


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
    """Smallest 2^k or 3*2^k >= n: numpy's FFT is about as fast at either,
    and 3*2^k pads 2N-1 = 24,001 to 24,576 points where 2^k takes 32,768."""
    size = 1 << (n - 1).bit_length()
    return 3 * size // 4 if 3 * size // 4 >= n else size


def _trapezoid_convolve(I_vals, psi, h, I_hat):
    """Trapezoid quadrature of (I * psi)(t_i) on the shared uniform grid.

    The full sum goes through numpy.fft, zero-padded to _fft_size(2N-1);
    I_hat is the kernel's rfft at that size.  Overflow is left to the
    caller's finiteness checks.
    """
    n = len(psi)
    size = _fft_size(2 * n - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        full = np.fft.irfft(np.fft.rfft(psi, size) * I_hat, size)[:n]
        full = full - 0.5 * I_vals[0] * psi - 0.5 * I_vals * psi[0]
    return h * full


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
                      weight=1.0, start=None):
    """Solve psi = F + I * psi on a uniform grid (trapezoid weights).

    Marching: one forward pass, exact for the trapezoid discretization.
    Picard: fixed-point iteration of the same discrete system, retained as
    an independent validation oracle (requires the iteration to contract;
    stops at sup-change < PICARD_TOL * max(1, sup|weight F|)).  With refine
    (default) the solve is repeated on the half-step grid and Richardson
    extrapolation removes the O(h^2) term, raising the order to ~4; the
    coarse/fine gap is reported as an error estimate.  F, I_vals and a
    non-scalar weight are sampled on _sweep_nodes(grid, refine): the
    half-step grid (length 2*len(grid) - 1) when refining, else grid.
    The passes solve for u = weight psi (the SDANA convolution route's
    phi psi), u = weight F + I * u; the solution divides u by weight again
    and holds psi and F, with the refinement gap and the residual in psi's
    units.  It keeps each pass's u in passes, coarse first.  Given those
    as start, with the same weight, Picard sweeps each pass from its array
    instead of from weight F; it settles at the same fixed point from any
    start.
    """
    grid = np.asarray(grid, dtype=float)
    nodes = _sweep_nodes(grid, refine)
    F = _on_nodes(F, nodes, "F")
    I_vals = _on_nodes(I_vals, nodes, "I")
    weight = np.broadcast_to(weight, nodes.shape)
    h = _uniform_step(grid)
    diagnostics = {}
    strides = (1,) if len(nodes) == len(grid) else (2, 1)
    start = _pass_starts(start, method, [nodes[::s] for s in strides])
    # the coarse pass first, so that a failure names the grid's own step;
    # the pass on every node reports the residual
    passes = []
    for s, x0 in zip(strides, start):
        f, I, step = weight[::s] * F[::s], I_vals[::s], h * s / strides[0]
        denom = _march_divisor(step, I[0])
        I_hat = (np.fft.rfft(I, _fft_size(2 * len(I) - 1))
                 if method == "picard" or s == 1 else None)
        if method == "marching":
            psi = _march_convolution(f, I, step, denom)
        elif method == "picard":
            psi, iters = _picard_convolution(f, I, step, I_hat, x0)
            diagnostics["picard_iters"] = max(
                iters, diagnostics.get("picard_iters", 0))
        else:
            raise ValueError("unknown solver method %r" % (method,))
        if s == 1:
            resid = psi - f - _trapezoid_convolve(I, psi, step, I_hat)
            diagnostics["residual"] = float(np.max(np.abs(resid / weight)))
        passes.append(psi)
    return _refined(grid, F, passes, diagnostics, "convolution solve",
                    method, weight)


def _refined(grid, F, passes, diagnostics, context, method="marching",
             weight=1.0):
    """The solution of both solvers from the forcing F on the nodes they
    sweep and their passes, coarse first.  Two passes take the Richardson
    step (4 psi_half - psi) / 3 on the grid, written as psi_half +
    (psi_half - psi) / 3 so that a node where both passes agree keeps its
    value, and record their gap over weight as refinement_gap.  psi then
    passes _finalize_psi's guards and is divided by weight."""
    stride = len(passes)
    weight = np.broadcast_to(weight, F.shape)[::stride]
    psi = passes[-1][::stride]
    if stride == 2:
        gap = psi - passes[0]
        diagnostics["refinement_gap"] = float(np.max(np.abs(gap / weight)))
        psi = psi + gap / 3.0
    psi = _finalize_psi(psi, context) / weight
    return VolterraSolution(grid, F[::stride], psi, method=method,
                            diagnostics=diagnostics, passes=passes)


def _on_nodes(values, nodes, name,
              sweep="the solve sweeps (the half-step grid when it refines)"):
    """values as a float array, which must hold one sample per node."""
    values = np.asarray(values, dtype=float)
    if len(values) != len(nodes):
        raise ValueError("%s must be sampled on the %d nodes %s, got %d values"
                         % (name, len(nodes), sweep, len(values)))
    return values


def _pass_starts(start, method, passes):
    """Picard's start for each pass from its nodes: start's arrays, or
    None for each (a cold start from F) without one."""
    if start is None:
        return [None] * len(passes)
    if method != "picard":
        raise ValueError("start seeds a Picard solve; method %r takes none"
                         % (method,))
    if len(start) != len(passes):
        raise ValueError("start must hold one array per pass the solve "
                         "sweeps (%d), got %d" % (len(passes), len(start)))
    return [_on_nodes(x, p, "start", "its pass sweeps")
            for x, p in zip(start, passes)]


def _march_divisor(h, K0):
    """1 - (h/2) K0, the trapezoid march's divisor at grid step h and
    on-diagonal kernel value K0; raises NumericalError unless positive."""
    denom = 1.0 - 0.5 * h * K0
    if denom <= 0.0:
        raise NumericalError("marching singularity: 1 - (h/2) K(0) <= 0 at "
                             "h = %.6g, K(0) = %.6g; reduce the grid step --h "
                             "below 2/K(0) = %.6g" % (h, K0, 2.0 / K0))
    return denom


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
    then solve the right half.  A stretch of _MARCH_BLOCK points is a leaf:
    its own trapezoid system, denom psi_i - h sum_{lo<=j<i} I_{i-j} psi_j =
    F_i + h hist_i, has the same lower-triangular Toeplitz matrix in every
    leaf, so one inverse, built once per call from the leaf's discrete
    resolvent, solves each leaf in one matrix-vector product.  The discrete
    system is the direct march's; only the order of summation differs.
    Cost O(N log^2 N).
    """
    n = len(F)
    size = _MARCH_BLOCK
    while size < n:
        size *= 2
    kern = np.zeros(size)
    kern[:n] = I_vals
    spectra = {}  # stretch length -> rfft of the kernel's first values
    # psi carries the trapezoid's half weight at j = 0 until the march ends
    psi = np.empty(n)
    psi[0] = 0.5 * F[0]
    hist = np.zeros(n)  # sum_j I[i-j] psi[j] over earlier stretches
    # the first leaf starts at node 1; its history is psi_0's half weight
    first = min(n, _MARCH_BLOCK)
    hist[1:first] = kern[1:first] * psi[0]

    def leaf(lo, hi):
        start = max(lo, 1)
        rhs = F[start:hi] + h * hist[start:hi]
        # 0 * nan would spread to every row: solve the rows before the
        # first non-finite entry, and let that entry's step be named
        bad = ~np.isfinite(rhs)
        m = int(np.argmax(bad)) if bad.any() else len(rhs)
        cols = np.flatnonzero(rhs[:m]) if overflowed else slice(m)
        psi[start:start + m] = inv[:m, cols] @ rhs[cols]
        finite = np.isfinite(psi[lo:start + m])
        if not finite.all():
            raise _nonfinite_at(lo + int(np.argmin(finite)), h)
        if m < len(rhs):
            raise _nonfinite_at(start + m, h)

    def solve(lo, hi):
        if hi - lo <= _MARCH_BLOCK:
            leaf(lo, min(hi, n))
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        if mid >= n:
            return
        length = hi - lo
        if length not in spectra:
            spectra[length] = np.fft.rfft(kern[:length])
        # circular length suffices: wrapped terms land left of mid
        cross = np.fft.irfft(np.fft.rfft(psi[lo:mid], length)
                             * spectra[length], length)
        top = min(hi, n)
        hist[mid:top] += cross[mid - lo:top - lo]
        solve(mid, hi)

    # an overflow shows up as a non-finite value in its leaf, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        inv = _leaf_inverse(kern[:_MARCH_BLOCK], h, denom)
        # where the resolvent overflowed, a zero entry would read 0 * inf:
        # each leaf then multiplies its nonzero entries only
        overflowed = not np.isfinite(inv[:, 0]).all()
        solve(0, size)
    psi[0] = F[0]
    return psi


def _leaf_inverse(kern, h, denom):
    """Inverse of denom*Id - h*L with L[i, j] = kern[i - j] for j < i: the
    lower-triangular Toeplitz matrix whose first column is the discrete
    resolvent r, r_0 = 1/denom and r_i = h (sum_{j<i} kern[i-j] r_j)/denom."""
    size = len(kern)
    r = np.empty(size)
    r[0] = 1.0 / denom
    for i in range(1, size):
        r[i] = h * (kern[i:0:-1] @ r[:i]) / denom
    # row i of the windows reversed is r_i, r_{i-1}, ..., r_0, 0, ...
    padded = np.concatenate([np.zeros(size - 1), r])
    windows = np.lib.stride_tricks.sliding_window_view(padded, size)
    return np.ascontiguousarray(windows[:, ::-1])


def _nonfinite_at(step, h):
    """The error both marchers raise at the first non-finite value."""
    return NumericalError(
        "Volterra solution went non-finite at grid step %d (t = t0 + %.6g); "
        "the kernel mass exceeds the convergent regime on this horizon"
        % (step, step * h))


def _picard_convolution(F, I_vals, h, I_hat, start=None):
    # relative to the forcing once it exceeds 1 (the phi-conjugated SDANA
    # forcing grows like t^theta); a contracting kernel keeps psi on F's
    # scale, a non-contracting one outgrows it and stays unconverged
    tol = PICARD_TOL * max(1.0, float(np.max(np.abs(F))))
    psi = F if start is None else start
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


def solve_general(F, kernel, grid, refine=True):
    """Solve psi(t) = F(t) + int_0^t K_s(t) psi(s) ds by trapezoid marching.

    kernel is a separable-state object exposing ic, agg, maps and advance
    (the exact SDANA kernel): K_s(t) is agg @ state[0] for the per-node
    states born at s in ic, the same for every s, and carried from s to t
    by advance(state, t0, t1, maps), each interval through its entry of
    maps(nodes), so the march keeps one state per spectral node instead of
    one solve per (s, t) pair.
    refine also marches the half-step grid and Richardson-extrapolates,
    matching solve_convolution's accuracy; one forward sweep of the
    half-step grid advances the states of both passes together.  Both
    solvers end in the same _refined step, and their solutions keep each
    pass's psi in passes, coarse first.

    F is the forcing sampled on the nodes the march sweeps,
    _sweep_nodes(grid, refine), or a StateForcing: the forcing and the
    kernel are moments of one system, so the forcing's states ride in the
    same sweep.
    """
    grid = np.asarray(grid, dtype=float)
    nodes = _sweep_nodes(grid, refine)
    stride = 2 if len(nodes) > len(grid) else 1
    if not isinstance(F, StateForcing):
        F = _on_nodes(F, nodes, "F")
    F, passes = _march_separable(F, kernel, nodes, stride)
    return _refined(grid, F, passes[::-1], {"residual": float("nan")},
                    "general solve")


def _sweep_nodes(grid, refine):
    """The nodes a solve samples and sweeps: the half-step grid when it
    refines a grid of two points or more, else the grid itself."""
    if not (refine and len(grid) >= 2):
        return grid
    return grid[0] + 0.5 * _uniform_step(grid) * np.arange(2 * len(grid) - 1)


def _march_separable(F, K, nodes, stride):
    """Trapezoid-march nodes and, with stride 2, every second node too, in
    one forward sweep; returns the forcing on nodes and each pass's psi,
    the finest first: pass p marches every 2^p-th node (solve_general
    stores them coarse first).

    The state dynamics are linear and every birth starts from the same
    ic, so one state per pass carries its trapezoid sum, ic psi_0 / 2 plus
    ic psi_j for 0 < j < i, each advanced from its node s_j, to the
    current node (the half weight at j = i sits in the divisor, with
    K(0) = agg @ ic[0]).  A StateForcing's state rides in the same stack,
    component-major: state[:, p] is pass p's, state[:, -1] the forcing's.
    kernels.block_maps takes the kernel's maps of kernels.MAP_BLOCK
    intervals at a time, and advance applies one per interval.  At each
    node one product np.dot(state[0], W) gives every pass's kernel sum,
    from W's column agg, and the forcing, from its column of the halved
    coef; the live passes, pass 0 and at every second node pass 1, take
    their psi in Python floats and their impulses ic psi in one array
    op.  Each node checks the forcing first; and as when the forcing was
    integrated before the march, a forcing failure anywhere on the grid
    outranks a march failure: the look-ahead carries the forcing's state
    on through the same block maps.
    """
    h = _uniform_step(nodes)
    strides = (1, 2)[:stride]
    steps = [s * h for s in strides]
    ode = isinstance(F, StateForcing)
    ic, agg = K.ic, K.agg
    state = np.zeros(ic.shape[:1] + (stride + ode,) + ic.shape[1:])
    maps = kernels.block_maps(K.maps, nodes)
    W = agg[:, None]
    if ode:
        state[:, -1] = kernels.forcing_ic(K.lams)
        # G is half of rho^2: the half goes into coef once
        forcing = F._replace(coef=0.5 * F.coef)
        W = np.stack([agg, forcing.coef], axis=1)
        F = np.empty(len(nodes))
        F[0] = (_forcing_at(K, forcing, state[:, -1], nodes[0])
                if forcing.start is None else forcing.start)
    psis = [np.full(len(nodes[::s]), F[0]) for s in strides]
    denoms = [_march_divisor(step, float(agg @ ic[0])) for step in steps]
    impulse = ic[:, None]   # broadcast over the passes
    state[:, :stride] = 0.5 * impulse * F[0]
    psi = np.empty((stride, 1))     # the live passes' new values
    # an overflow shows up as a non-finite F or psi, which raises at its node
    with np.errstate(over="ignore", invalid="ignore"):
        for k, Q in enumerate(maps, 1):
            state = K.advance(state, nodes[k - 1], nodes[k], Q)
            sums = np.dot(state[0], W).tolist()
            if ode:
                f = forcing.const + sums[-1][1]
                if not math.isfinite(f):
                    raise kernels.nonfinite_forcing(nodes[k], K.spec)
                F[k] = f
            else:
                f = F[k]
            # the passes live at node k are a prefix: pass 1 at even k
            live = 2 if stride == 2 and k % 2 == 0 else 1
            for p in range(live):
                value = (f + steps[p] * sums[p][0]) / denoms[p]
                if not math.isfinite(value):
                    # a forcing failure further on outranks this one
                    u = state[:, -1]
                    for j, Q in enumerate(maps if ode else (), k + 1):
                        u = K.advance(u, nodes[j - 1], nodes[j], Q)
                        _forcing_at(K, forcing, u, nodes[j])
                    raise _nonfinite_at(k >> p, steps[p])
                psis[p][k >> p] = psi[p] = value
            state[:, :live] += impulse * psi[:live]
    return F, psis


def _forcing_at(K, forcing, u, t):
    """The value const + coef @ u[0] of a StateForcing whose coef holds the
    half of G, at node t from its state u; raises if it is not finite."""
    value = forcing.const + forcing.coef @ u[0]
    if not np.isfinite(value):
        raise kernels.nonfinite_forcing(t, K.spec)
    return value


def quadrature_gap(spec, measure, T, R=1.0, R_tilde=1.0):
    """How far an MP measure's N-node rule is from the 3N-node rule: the
    larger of max|F_N - F_3N| / max|F_3N| and the same for the kernel
    K_0 born at s = 0, over the times _GAP_AT * T.  The 3N rule holds the
    N rule's nodes (every third from the second, at a third of the
    weight), so one kernels.horizon_columns call on it gives both sums;
    a power schedule is carried in steps of at most 1.  nan where a value
    is not finite."""
    lams, wts = spectrum.mp_rule(measure.r, 3 * measure.nodes)
    rules = np.zeros((2, lams.size))
    rules[0] = wts
    rules[1, 1::3] = 3.0 * wts[1::3]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        G, K0 = kernels.horizon_columns(spec, lams, T * _GAP_AT)
        F = (0.5 * R_tilde * measure.zero_mass
             + (rules * (R * lams + R_tilde)) @ G)
        gaps = [np.max(np.abs(v[1] - v[0])) / np.max(np.abs(v[0]))
                if np.any(v[0]) else np.max(np.abs(v[1]))
                for v in (F, rules @ K0)]
    return float(max(gaps)) if np.all(np.isfinite(gaps)) else math.nan


def _sized_rule(measure, spec, T, R, R_tilde):
    """(rule, gap): the first rung of spectrum.NODE_LADDER whose MP rule
    meets the mass budget and whose quadrature_gap to horizon T is within
    QUADRATURE_TOL, else the last rung's.  The climb starts at the bottom
    rung, or where the mass budget took measure above DEFAULT_NODES, at
    its node count (measure itself past the ladder); a gap that is not
    finite stops it, and the solve then names the failure."""
    floor = measure.nodes if measure.nodes > spectrum.DEFAULT_NODES else 0
    rungs = [k for k in spectrum.NODE_LADDER if k >= floor]
    for nodes in rungs or [measure.nodes]:
        try:
            rule = (measure if nodes == measure.nodes
                    else spectrum.mp_measure(measure.r, nodes))
        except NumericalError:
            continue    # misses the mass budget
        gap = quadrature_gap(spec, rule, T, R, R_tilde)
        if not gap > QUADRATURE_TOL:
            break
    return rule, gap


def predict(measure, params, T, R=1.0, R_tilde=1.0, h=DEFAULT_H, mode=None,
            n=None, spectral=None, validate=False, size_rule=False):
    """End-to-end deterministic loss prediction for an algorithm on a measure.

    mode selects the SDANA route: 'ode' (exact two-time kernel) or 'conv'
    (convolution approximation, solved in the phi-conjugated variable);
    SGD/SHB/SDAHB use their closed kernels ('closed').  SHB needs n to map
    onto its dimension-adjusted parameters.  A spectral problem may be
    passed to replace the theoretical forcing with the realized one.
    validate reruns the convolution solve by Picard iteration, started
    from the march's passes, and records the disagreement in the
    diagnostics.  A grid step at which the march is singular raises
    NumericalError before any integration.  An MP
    measure's quadrature_gap to the horizon is recorded as well; with
    size_rule the solve first takes the node count from the ladder
    instead (_sized_rule), and the solution's meta names the rule taken.
    """
    if mode is not None:
        mode = MODES.get(mode, mode)
        if mode not in MODES.values():
            raise ValueError("unknown solve mode %r; pick closed, ode or conv"
                             % (mode,))
    check_scales(R, R_tilde)
    spec = params.kernel_spec(n=n, mode=mode)
    grid = time_grid(T, h)
    # refuse a singular march before the forcing: every route's on-diagonal
    # kernel value is K_t(t) = g2^2 int lam^2 dmu
    _march_divisor(h, spec.gamma2**2 * measure.integrate(np.square))
    gap = None
    if measure.kind == spectrum.MP_KIND and spectral is None:
        if size_rule:
            measure, gap = _sized_rule(measure, spec, grid[-1], R, R_tilde)
        else:
            gap = quadrature_gap(spec, measure, grid[-1], R, R_tilde)
    lams, coef, const = _forcing_terms(measure, R, R_tilde, spectral)
    norm = analysis.kernel_norm(params, measure)
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
        start = None if spectral is None else spectral.f0
        sol = solve_general(StateForcing(coef, const, start), kern, grid)
    else:
        half = _sweep_nodes(grid, True)
        if spectral is not None:
            F = build_forcing_from_spectral(spectral, spec, half)
        else:
            F = build_forcing(measure, spec, R, R_tilde, half)
        # the SDANA approximation is solved for phi psi; the closed forms
        # for psi itself
        phi = (_conjugating_phi(spec, half)
               if spec.mode == "convolution_approx" else 1.0)
        I_vals = build_convolution_kernel(measure, spec, half)
        try:
            sol = solve_convolution(F, I_vals, grid, weight=phi)
        except NumericalError:
            if norm < 1.0:
                raise
            raise NumericalError(
                "kernel norm %.6g >= 1: the loss grows without bound; a "
                "smaller --h resolves more of its growth" % norm)
        if validate:
            _validate_picard(sol, F, I_vals, grid, phi)
    # the passes served the cross-check; predict's caller keeps the curve
    sol.passes = ()
    sol.kernel_norm = norm
    if gap is not None:
        sol.diagnostics["quadrature_gap"] = gap
    sol.meta = {"algo": params.name, "params": params.describe(),
                "measure": json.loads(measure.to_json()), "R": R,
                "R_tilde": R_tilde, "mode": spec.mode}
    return sol


def _conjugating_phi(spec, t):
    """phi = (1+t)^theta at times t, the conv route's conjugating weight;
    raises where it leaves double range, theta ln(1 + t) > ln(max float)."""
    with np.errstate(over="ignore"):
        phi = spec.phi(t)
    if not np.all(np.isfinite(phi)):
        raise NumericalError(
            "--mode conv solves for phi psi with phi = (1+t)^theta, which "
            "leaves double range by t = %.6g at --theta %g: lower --theta "
            "or --T, or use --mode ode, which solves without it"
            % (t[int(np.argmin(np.isfinite(phi)))], spec.theta))
    return phi


def _validate_picard(sol, F, I_vals, grid, weight):
    """Cross-check the marching solution against Picard on its weight, from
    the march's passes; a Picard failure is reported, not fatal (marching
    needs no smallness assumption).  Where the march is the discrete fixed
    point, the first sweep moves it by its residual, so picard_iters, the
    larger count of the two passes, reads 1; a larger count means the
    march was off in either pass, and picard_delta says by how much."""
    try:
        alt = solve_convolution(F, I_vals, grid, method="picard",
                                weight=weight, start=sol.passes)
        sol.diagnostics["picard_iters"] = alt.diagnostics["picard_iters"]
        sol.diagnostics["picard_delta"] = float(
            np.max(np.abs(alt.psi - sol.psi)))
    except NumericalError as exc:
        sol.diagnostics["picard_delta"] = None
        sol.diagnostics["picard_note"] = str(exc)
