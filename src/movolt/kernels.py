"""Per-eigenvalue forcing functions G^(lam) and kernels K_s^(lam).

Every algorithm here is a stochastic momentum method whose expected loss
obeys a Volterra equation.  Each eigenvalue lam of the Hessian spectrum
contributes a forcing profile G^(lam)(t) with G(0) = 1/2 and a kernel
K_s^(lam)(t) with K_s(s) = lam^2 * Gamma2^2.  Both are second moments of
one linear 2-d system, the homogenized drift of a residual coordinate rho
and its momentum coordinate omega, with Phi = phi'/phi:

    (rho, omega)' = B(t) (rho, omega),   B(t) = [[-g2 lam, -g1],
                                                  [lam,    -Phi(t)]]

Each is carried as the moment triple S = (rho^2, rho omega, omega^2),
which solves S' = B S + S B^T.  The forcing is G = S_0/2 from forcing_ic,
the unit residual (1, 0, 0) at t = 0; the kernel is K_s = lam^2 S_0 from
kernel_ic, the gradient-noise impulse (rho, omega) = (-g2, 1), i.e.
S = (g2^2, -g2, 1), at t = s.  Both initial states are constants.

There are two evaluators.  For constant Phi, both initial states are
rank one, e0 e0^T and v v^T with v = (-g2, 1), so with (m11, m12) the first
row of exp(x B) a lag x later, G = m11^2/2 and K = lam^2 (m12 - g2 m11)^2.
_first_row evaluates that row in closed form for SGD (Phi = 0), SHB, SDAHB
and the mixed g1/g2 variant (Phi = theta), and SDANA's late-time
convolution kernel (Phi = 0).  Where that row oscillates, e^(m x) times
a cos(s x) + b sin(s x), a uniform grid takes cos and sin only at every
_FINE-th point and at the first _FINE offsets, and _wave combines the two
tables by angle addition, to within 4 eps (|a| + |b|)(1 + s x); the real
exponentials are evaluated at every point.  SDANA's power schedule
Phi(t) = theta/(1+t) is carried by moment maps, S -> M S M^T per step, M
the closed-form 2x2 exponential of a fourth-order Magnus step of B.  The
--mode conv forcing and the exact kernel's sweep (its look-ahead too) take
the 3x3 maps of MAP_BLOCK intervals at a time from block_maps, each block
from one interval_maps call.
horizon_columns gives G and the kernel born at 0 at a few times, from the
same evaluators, for the check that sizes an MP rule to the horizon.
States are component-major, (3, ..., n_lam), so that a step is one einsum
over the component axis.  Every state stays O(1): there is no
phi(t)^2 ~ t^(2 theta) growth anywhere.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NumericalError


@dataclass
class KernelSpec:
    """An algorithm's continuous-time law plus the evaluation mode.

    gamma1/gamma2 are the diffusion parameters; theta is the averaging
    rate of phi, e^{theta t} for the closed-form (constant-Phi) records
    and (1+t)^theta, SDANA's power schedule, for the others.
    AlgoParams.kernel_spec builds it from an algorithm's record and checks
    the mode there.
    """

    gamma1: float
    gamma2: float
    theta: float
    mode: str

    @property
    def phi_kind(self):
        """'const' (Phi = theta) for closed_form, else 'power'."""
        return "const" if self.mode == "closed_form" else "power"

    @property
    def conv_Phi(self):
        """The constant Phi of the convolution kernel: theta for
        closed_form, else 0, SDANA's late-time limit."""
        return self.theta if self.phi_kind == "const" else 0.0

    def phi(self, t):
        """phi at times t: e^{theta t} or (1+t)^theta."""
        if self.phi_kind == "const":
            return np.exp(self.theta * np.asarray(t, dtype=float))
        return (1.0 + np.asarray(t, dtype=float)) ** self.theta

    def Phi(self, t):
        """phi'/phi at time t."""
        if self.phi_kind == "const":
            return self.theta
        return self.theta / (1.0 + t)

    def discrete(self, n, k):
        """(Gamma1, Gamma2, Delta(k)) of the discrete recursion at problem
        size n and step k: gamma1/n, gamma2 and Delta(k) = Phi(k/n)/n,
        written theta/n or theta/(n + k), each one rounded division."""
        if self.phi_kind == "const":
            return self.gamma1 / n, self.gamma2, self.theta / n
        return self.gamma1 / n, self.gamma2, self.theta / (n + k)


# ----------------------------------------------------------------------
# Constant Phi: the first row of exp(x B)
# ----------------------------------------------------------------------

# fine points per coarse point of a lattice: a row of n points takes cos
# and sin at about n/_FINE + _FINE points
_FINE = 128


def _lattice(x):
    """A 1-d grid x with the split that _wave reads, (x, coarse, fine).
    Where x is an arithmetic progression to within 4 ulp of max|x|,
    coarse = x[::_FINE] and fine = x[:_FINE] - x[0], so that
    x[q _FINE + r] = coarse[q] + fine[r]; any other grid gets the split
    coarse = x, fine = [0], which reads every x directly."""
    x = np.asarray(x, dtype=float)
    step = (x[-1:] - x[:1]) / max(x.size - 1, 1)
    gap = x[:1] + step * np.arange(x.size) - x
    if np.max(np.abs(gap), initial=0.0) <= (
            4.0 * np.finfo(float).eps * np.max(np.abs(x), initial=0.0)):
        return x, x[::_FINE], x[:_FINE] - x[:1]
    return x, x, np.zeros(1)


def _wave(a, b, s, lattice):
    """a cos(s x) + b sin(s x) on a _lattice, one row per entry of the
    arrays a, b and s (scalars give one row), by angle addition: at
    x = coarse[q] + fine[r] it is (a cos_q + b sin_q) cos_r
    + (b cos_q - a sin_q) sin_r, so cos and sin are taken at the coarse and
    fine points only.  Its error is within 4 eps (|a| + |b|)(1 + s x); on
    the split fine = [0] it is a cos(s x) + b sin(s x) evaluated directly."""
    x, coarse, fine = lattice
    a, b, s = (np.asarray(v, dtype=float)[..., None] for v in (a, b, s))
    cq, sq = np.cos(s * coarse), np.sin(s * coarse)
    cr, sr = np.cos(s * fine), np.sin(s * fine)
    out = (a * cq + b * sq)[..., :, None] * cr[..., None, :]
    out += (b * cq - a * sq)[..., :, None] * sr[..., None, :]
    return out.reshape(out.shape[:-2] + (-1,))[..., :x.size]


def _first_row(lams, g1, g2, Phi, lattice, impulse=False):
    """m11, the first entry of exp(x B) at constant Phi, for each lam of
    the array lams on a _lattice of x >= 0, one row per lam; with impulse
    set, rho = m12 - g2 m11 instead, the first row applied to kernel_ic's
    impulse (-g2, 1).  The rows come from _row_blocks, where each lam takes
    its branch by itself, so a row has the same bits in any array of
    lams."""
    out = np.empty((np.size(lams), lattice[0].size))
    for at, rows in _row_blocks(lams, g1, g2, Phi, lattice, impulse):
        out[at] = rows
    return out


# values per block of _row_blocks: a row or two of a long grid, whose
# temporaries stay in cache, and every row of a short one
ROW_BLOCK = 1 << 14

_OSC, _SGD, _FLAT, _HYPER = range(4)


def _row_blocks(lams, g1, g2, Phi, lattice, impulse=False):
    """(slice, rows) blocks of _first_row, of about ROW_BLOCK values each.

    With m = -(g2 lam + Phi)/2, u = (Phi - g2 lam)/2 and p = -g1 lam,
    B = m I + N with N^2 = disc I, disc = u^2 + p, so for s = sqrt|disc|
    exp(x B) = e^(m x) (cosh(s x) I + sinh(s x)/s N), with cos and sin when
    disc < 0.  So m12 = -g1 S with S = e^(m x) sinh(s x)/s, and
    m11 = E + w S with E = e^((m - s) x) and w = s + u, or E = e^(m x)
    cos(s x) and w = u; rho = -g2 E - c S with c = g2 w + g1.  Nothing
    cancels: S takes expm1, the slow rate m + s is det B/(m - s) with
    det B = lam (g2 Phi + g1), and where u < 0, w = p/(s - u) and
    c = g1 (m + s)/(s - u).  Where disc < 0, m11 and rho are e^(m x) times
    one _wave, a cos(s x) + b sin(s x) with (a, b) = (1, u/s) or
    (-g2, -c/s), so cos and sin come from the lattice's angle-addition
    tables; the real exponentials are evaluated at every x.  These
    coefficients are taken for every lam at once; each block is then a run
    of rows that share a branch, oscillating, SGD's (S never enters, as
    w = g1 = 0), critical (s = 0) or hyperbolic.
    """
    x = lattice[0]
    m, u, p, disc, s, slow = row_exponents(lams, g1, g2, Phi)
    w = np.where(u < 0.0, _divide(p, s - u, u < 0.0), s + u)
    c = np.where(u < 0.0, _divide(g1 * slow, s - u, u < 0.0), g2 * w + g1)
    osc = disc < 0.0
    a, b = (-g2, _divide(-(g2 * u + g1), s, osc)) if impulse else (
        1.0, _divide(u, s, osc))
    branch = np.select([osc, (w == 0.0) & (g1 == 0.0), s == 0.0],
                       [_OSC, _SGD, _FLAT], _HYPER)

    def rows(kind, at):
        # an overflow shows up as a non-finite value, which the solver
        # refuses; the temporaries go when the block is returned
        with np.errstate(over="ignore", invalid="ignore"):
            m_, s_ = m[at, None], s[at, None]
            if kind == _OSC:
                out = _wave(a, b[at], s[at], lattice)
                out *= np.exp(m_ * x)
                return out
            E = np.exp((m_ - s_) * x)
            if kind == _SGD:
                return -g2 * E if impulse else E
            if kind == _FLAT:
                S = x * np.exp(m_ * x)
            else:
                S = (np.exp(slow[at, None] * x) * np.expm1(-2.0 * s_ * x)
                     * (-0.5 / s_))
            if impulse:
                return -g2 * E - c[at, None] * S
            return E + w[at, None] * S

    step = max(1, ROW_BLOCK // max(x.size, 1))
    cuts = np.flatnonzero(np.diff(branch, prepend=-1, append=-1)).tolist()
    for start, stop in zip(cuts[:-1], cuts[1:]):
        for lo in range(start, stop, step):
            at = slice(lo, min(lo + step, stop))
            yield at, rows(branch[start], at)


def row_exponents(lams, g1, g2, Phi):
    """(m, u, p, disc, s, slow) of _row_blocks for each lam of the array
    lams, slow = m + s the first row's slow exponent."""
    lams = np.asarray(lams, dtype=float)
    m = -0.5 * (g2 * lams + Phi)
    u = 0.5 * (Phi - g2 * lams)
    p = -g1 * lams
    disc = u * u + p
    # near the turning point the two terms cancel: evaluate disc exactly
    near = np.flatnonzero(16.0 * np.abs(disc) < u * u - p).tolist()
    if near:
        Phi_, g1_, g2_ = Fraction(Phi), Fraction(g1), Fraction(g2)
    for i in near:
        lam = Fraction(lams[i])
        disc[i] = float((Phi_ - g2_ * lam) ** 2 / 4 - g1_ * lam)
    s = np.sqrt(np.abs(disc))
    # m - s < 0 unless lam = Phi = 0, where m + s = 0
    slow = _divide(lams * (g2 * Phi + g1), m - s, m < s)
    return m, u, p, disc, s, slow


def _divide(num, den, where):
    """num/den where where holds, else 0, with no division elsewhere."""
    return np.divide(num, den, out=np.zeros(np.shape(den)), where=where)


# ----------------------------------------------------------------------
# SDANA: the power schedule, one exact 2x2 exponential per step
# ----------------------------------------------------------------------

# longest step the propagator takes in one piece: one step per half-step
# interval of the default grid
PROPAGATOR_STEP = 0.05

# the Gauss points of the Magnus step sit at (1/2 -+ _GAUSS) of the step
_GAUSS = np.sqrt(3.0) / 6.0


def _magnus_exp(lam, spec, t, h):
    """Entries (m11, m12, m21, m22) of M = exp(Omega), Omega the
    fourth-order Magnus step of B from t to t + h (Blanes, Casas, Oteo &
    Ros, Phys. Rep. 470, 2009): Omega = h (B1 + B2)/2 + (sqrt(3)/12) h^2
    [B2, B1], with B1, B2 at the two Gauss points.  Only Phi varies, so
    [B2, B1] = (Phi2 - Phi1) [[0, -g1], [-lam, 0]].  t and h hold K steps;
    each entry has shape (K,) + lam.shape.

    With Omega = m I + N, N^2 = disc I, M = e^m (cosh(s) I + sinh(s)/s N)
    for disc = s^2 > 0, with cos and sin when disc < 0.  The hyperbolic
    branch is written with e^(m + s) and expm1(-2 s) so that it does not
    overflow where e^m cosh(s) is finite; sinc covers disc = 0.
    """
    lam = np.asarray(lam, dtype=float)
    t, h = (np.reshape(v, np.shape(v) + (1,) * lam.ndim) for v in (t, h))
    P1 = spec.Phi(t + (0.5 - _GAUSS) * h)
    P2 = spec.Phi(t + (0.5 + _GAUSS) * h)
    kappa = np.sqrt(3.0) / 12.0 * h * h * (P2 - P1)
    o11 = -h * spec.gamma2 * lam
    o12 = -spec.gamma1 * (h + kappa)
    o21 = lam * (h - kappa)
    o22 = -0.5 * h * (P1 + P2)
    m = 0.5 * (o11 + o22)
    u = 0.5 * (o11 - o22)
    disc = u * u + o12 * o21
    s = np.sqrt(np.abs(disc))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        grow = 0.5 * np.exp(m + s)
        hyper = disc > 0.0
        cos = np.where(hyper, grow * (1.0 + np.exp(-2.0 * s)),
                       np.exp(m) * np.cos(s))
        sin = np.where(hyper, -grow * np.expm1(-2.0 * s) / s,
                       np.exp(m) * np.sinc(s / np.pi))
    return cos + sin * u, sin * o12, sin * o21, cos - sin * u


def _moment_maps(lam, spec, t, h):
    """The maps Q of K Magnus steps on moment states, shape
    (3, 3, K) + lam.shape, from one _magnus_exp call: S -> M S M^T is
    S_i -> sum_j Q[i, j] S_j, with

        Q = [[m11^2,     2 m11 m12,           m12^2    ],
             [m11 m21,   m11 m22 + m12 m21,   m12 m22  ],
             [m21^2,     2 m21 m22,           m22^2    ]]

    A constant Phi, a scalar, broadcasts like the rest.
    """
    m11, m12, m21, m22 = _magnus_exp(lam, spec, t, h)
    Q = np.empty((3, 3) + m11.shape)
    # an overflow shows up as a non-finite state, which the callers refuse
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(m11, m11, out=Q[0, 0])
        np.multiply(2.0 * m11, m12, out=Q[0, 1])
        np.multiply(m12, m12, out=Q[0, 2])
        np.multiply(m11, m21, out=Q[1, 0])
        np.add(m11 * m22, m12 * m21, out=Q[1, 1])
        np.multiply(m12, m22, out=Q[1, 2])
        np.multiply(m21, m21, out=Q[2, 0])
        np.multiply(2.0 * m21, m22, out=Q[2, 1])
        np.multiply(m22, m22, out=Q[2, 2])
    return Q


def _carry(state, Q):
    """Moment states of shape (3, ..., n_lam) carried through the steps of
    Q, (3, 3, steps, n_lam), in turn; leading stack axes share each
    step's map."""
    for k in range(Q.shape[2]):
        state = np.einsum("ij...,j...->i...", Q[:, :, k], state)
    return state


def interval_maps(lams, spec, t, h_max):
    """The moment maps of the intervals between consecutive times t, all
    from one _moment_maps call: the k-th, (3, 3, steps, n_lam), carries a
    state from t[k] to t[k + 1] in max(1, ceil((t[k + 1] - t[k])/h_max))
    equal Magnus steps, each S -> M S M^T."""
    t = np.asarray(t, dtype=float)
    dt = t[1:] - t[:-1]
    counts = np.maximum(1, np.ceil(dt / h_max - 1e-12)).astype(int)
    h = np.repeat(dt / counts, counts)
    ends = np.cumsum(counts)
    k = np.arange(counts.sum()) - np.repeat(ends - counts, counts)
    Q = _moment_maps(lams, spec, np.repeat(t[:-1], counts) + k * h, h)
    return [Q[:, :, a - n:a] for a, n in zip(ends.tolist(), counts.tolist())]


# intervals whose moment maps block_maps takes from one call of maps.
# Larger blocks save little time and hold more memory: at 200 nodes each
# interval of a block adds about 0.05 MB to the peak
MAP_BLOCK = 16


def block_maps(maps, nodes, size=MAP_BLOCK):
    """The map of each interval between consecutive nodes, taken from
    maps(t), the maps of the intervals of t, size intervals at a time."""
    for lo in range(0, len(nodes) - 1, size):
        yield from maps(nodes[lo:lo + size + 1])


def forcing_ic(lam):
    """Forcing moment state at t = 0, (rho^2, rho omega, omega^2) = (1, 0, 0),
    for every node of lam, shape (3,) + lam.shape."""
    ic = np.zeros((3,) + np.shape(lam))
    ic[0] = 1.0
    return ic


def kernel_ic(lam, gamma2):
    """Kernel moment state at its birth time s: the gradient-noise impulse
    (rho, omega) = (-g2, 1), so (g2^2, -g2, 1) for every node of lam and
    every s, shape (3,) + lam.shape."""
    ic = np.empty((3,) + np.shape(lam))
    ic[0], ic[1], ic[2] = gamma2 * gamma2, -gamma2, 1.0
    return ic


def nonfinite_forcing(t, spec):
    """The error a power-schedule forcing raises at its first non-finite
    value, at time t."""
    return NumericalError(
        "forcing integration went non-finite at t = %.6g; gamma1 = %g, "
        "gamma2 = %g or theta = %g is too large for double precision"
        % (t, spec.gamma1, spec.gamma2, spec.theta))


# ----------------------------------------------------------------------
# Measure-vectorized evaluation (used by the volterra module)
# ----------------------------------------------------------------------

def forcing_matrix(spec, lams, grid, h=PROPAGATOR_STEP):
    """G^(lam_i)(t_j) as an (n_lam, n_t) matrix: half of rho^2 from
    forcing_ic, G = m11^2/2 for constant Phi = theta, else carried through
    the block_maps of interval_maps in Magnus steps of at most h.  The
    first non-finite power-schedule value raises nonfinite_forcing naming
    its time."""
    lams = np.asarray(lams, dtype=float)
    grid = np.asarray(grid, dtype=float)
    out = np.empty((lams.size, grid.size))
    if spec.phi_kind == "const":
        for at, m11 in _row_blocks(lams, spec.gamma1, spec.gamma2,
                                   spec.theta, _lattice(grid)):
            np.multiply(0.5 * m11, m11, out=out[at])
        return out
    # SDANA: every node's state carried together, one interval at a time
    u = forcing_ic(lams)
    out[:, 0] = u[0]
    # an overflow shows up as a non-finite column, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        maps = block_maps(lambda t: interval_maps(lams, spec, t, h), grid)
        for i, Q in enumerate(maps, 1):
            u = _carry(u, Q)
            out[:, i] = u[0]
            if not np.all(np.isfinite(out[:, i])):
                raise nonfinite_forcing(grid[i], spec)
    return 0.5 * out


def kernel_matrix(spec, lams, taus):
    """Convolution kernel values K^(lam_i)(tau_j) as an (n_lam, n_tau)
    matrix: lam^2 times rho^2 from kernel_ic, rho = m12 - g2 m11 taken
    from _first_row at Phi = spec.conv_Phi in the form where nothing
    cancels.  For SDANA that is the idealized late-time kernel; the exact
    kernel is two-time and handled by SdanaExactKernel instead."""
    lams = np.asarray(lams, dtype=float)
    taus = np.asarray(taus, dtype=float)
    out = np.empty((lams.size, taus.size))
    for at, rho in _row_blocks(lams, spec.gamma1, spec.gamma2, spec.conv_Phi,
                               _lattice(taus), True):
        lam = lams[at, None]
        np.multiply(lam * lam * rho, rho, out=out[at])
    return out


# intervals times nodes per interval_maps call of horizon_columns: a
# MAP_BLOCK block of a 200-node sweep.  At 16 intervals of 300 nodes a
# call, the sdana-ode benchmark's peak RSS read about 0.5 MB higher, in
# the same time
HORIZON_BLOCK = 3200


def horizon_columns(spec, lams, t, h=1.0):
    """(G, K0), each an (n_lam, n_t) matrix: the forcing G^(lam) and the
    kernel K_0^(lam) born at s = 0, at times t that start at 0 and
    increase.  Constant Phi and SDANA's convolution kernel take them from
    one _first_row call each, the rows forcing_matrix and kernel_matrix
    square, so they are those matrices' values bit for bit; a
    power schedule carries forcing_ic and, for the exact two-time kernel,
    kernel_ic through the interval_maps of a grid of steps of at most h
    that holds every t, HORIZON_BLOCK values at a time.  A state that
    overflows gives non-finite values."""
    lams = np.asarray(lams, dtype=float)
    t = np.asarray(t, dtype=float)
    lattice = _lattice(t)
    g1, g2 = spec.gamma1, spec.gamma2
    K0 = None
    if spec.phi_kind == "const":
        m11 = _first_row(lams, g1, g2, spec.theta, lattice)
        G = 0.5 * m11 * m11
    else:
        exact = spec.mode == "ode_exact"
        state = np.stack([forcing_ic(lams), kernel_ic(lams, g2)][:1 + exact],
                         axis=1)
        steps = np.sort(np.append(t, np.arange(0.0, t[-1], h)))
        steps = steps[np.diff(steps, prepend=-1.0) > 0.0]
        keep = np.zeros(steps.size, dtype=bool)
        keep[np.searchsorted(steps, t)] = True
        keep = keep.tolist()
        first = [state[0]]
        with np.errstate(over="ignore", invalid="ignore"):
            maps = block_maps(lambda ts: interval_maps(lams, spec, ts, h),
                              steps, max(1, HORIZON_BLOCK // lams.size))
            for k, Q in enumerate(maps, 1):
                state = _carry(state, Q)
                if keep[k]:
                    first.append(state[0])
        first = np.array(first)
        G = 0.5 * first[:, 0].T
        if exact:
            K0 = lams[:, None] ** 2 * first[:, 1].T
    if K0 is None:
        rho = _first_row(lams, g1, g2, spec.conv_Phi, lattice, impulse=True)
        K0 = lams[:, None] * lams[:, None] * rho * rho
    return G, K0


class SdanaExactKernel:
    """Separable representation of the exact two-time SDANA kernel.

    Its data are ic, the nodes' moment states at their birth, kernel_ic's
    state, the same for every birth time s, and agg, the weights times
    lam^2.  K_s(t), aggregated over the spectral measure, is agg @ state[0]
    once the states born at s are carried to t through interval maps.
    The Volterra marcher exploits this: it keeps one
    moment state per node and march pass, injects the trapezoid impulse
    weight*ic*psi_j at each grid node, and advances everything together:
    O(grid) Magnus steps in total instead of one solve per (s, t) pair.
    The forcing's states start from forcing_ic and ride in the same stack:
    one advance per half-step interval carries the forcing and both march
    passes.  States are component-major, (3, ..., n_lam); maps gives
    interval_maps of a block of intervals, and advance applies one of
    them.  h is the longest Magnus step taken in one piece,
    PROPAGATOR_STEP unless given.
    """

    def __init__(self, spec, lams, weights, h=PROPAGATOR_STEP):
        if spec.mode != "ode_exact":
            raise ValueError("SdanaExactKernel needs an ode_exact spec")
        self.spec = spec
        self.lams = np.asarray(lams, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.h = h
        self.ic = kernel_ic(self.lams, spec.gamma2)
        self.agg = self.weights * self.lams**2

    def maps(self, t):
        """interval_maps of the intervals between consecutive times t."""
        return interval_maps(self.lams, self.spec, t, self.h)

    def advance(self, state, t0, t1, maps):
        """Carry moment states of shape (3, ..., n_lam) from t0 to t1 through
        maps, the interval's entry of self.maps."""
        return _carry(state, maps)
