"""Closed-form convergence analysis of the momentum kernels.

Everything here reads the one law of kernels.KernelSpec: every method's
kernel is lam^2 rho^2, rho the first row of exp(tau B) applied to the
impulse (-g2, 1), B = [[-g2 lam, -g1], [lam, -Phi]], Phi = conv_Phi.
Three closed forms of it serve every method: kernel_norm ||I||, whose
position relative to 1 decides convergence and the limiting loss plateau;
laplace F(x), whose root of F(x) = 1 is the Malthusian exponent lambda*
(the linear convergence rate when it exists); and forcing_rate, the decay
of the slowest forcing mode, which tops out the root search.  A Family row
holds only what the law does not give, the paper's rate bounds and the
polynomial decay exponents at a hard spectral edge.  rate_report is the
one report that gathers them all.
"""

import collections
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .spectrum import MP_KIND

# smallest positive eigenvalue at or below this counts as a hard edge,
# where every decay rate and bound is 0
EDGE_ATOM_TOL = 1e-12


# ----------------------------------------------------------------------
# Closed forms of the kernel law (gamma1, gamma2, Phi)
# ----------------------------------------------------------------------

def kernel_norm(params, measure):
    """||I|| = int_0^inf I(tau) dtau = g2 m/2 + (g1/2) int lam/(g2 lam + Phi)
    dmu over lam > 0, the second term skipped at g1 = 0, where it is 0 but
    lam/(g2 lam) overflows at a subnormal g2.  SHB's n-scalings cancel in
    it (gamma*m/(2 theta) either way), so it is read at n = 1."""
    spec = params.kernel_spec(1)
    g1, g2, lam = spec.gamma1, spec.gamma2, measure.points
    norm = 0.5 * g2 * measure.trace_moment()
    if g1 != 0.0:
        norm += 0.5 * g1 * float(np.sum(measure.weights * lam
                                        / (g2 * lam + spec.conv_Phi)))
    return norm


def laplace(x, spec, measure):
    """F(x) = int_0^inf e^{x tau} I(tau) dtau = sum w lam^2 J, inf where it
    diverges.  J is the squared H2 norm of e^{x tau/2} rho(tau) =
    e1^T exp(tau A) (-g2, 1), A = B + (x/2) I: with a = x/2 - g2 lam and
    d = x/2 - Phi, J = (g2^2 + (g1 - d g2)^2/det)/(-2 tr), finite only
    where tr = a + d < 0 < det = a d + g1 lam.  At g1 = 0 omega never
    reaches rho: rho = -g2 e^{a tau}, J = g2^2/(-2 a), finite where a < 0."""
    g1, g2, lam = spec.gamma1, spec.gamma2, measure.points
    a = 0.5 * x - g2 * lam
    if g1 == 0.0:
        if np.any(a >= 0.0):
            return np.inf
        J = g2**2 / (-2.0 * a)
    else:
        d = 0.5 * x - spec.conv_Phi
        tr, det = a + d, a * d + g1 * lam
        if np.any(tr >= 0.0) or np.any(det <= 0.0):
            return np.inf
        q = g1 - d * g2
        J = (g2**2 + q * (q / det)) / (-2.0 * tr)
    return float(np.sum(measure.weights * lam**2 * J))


def forcing_rate(spec, lam):
    """Decay rate of the slowest forcing mode G = m11^2/2 at eigenvalue lam:
    -2 slow, twice the first row's slow exponent from kernels.row_exponents,
    -2 m where the row oscillates or is critical (disc <= 0), and 2 g2 lam
    at g1 = 0, where only the -g2 lam mode reaches the first row."""
    g1, g2 = spec.gamma1, spec.gamma2
    if g1 == 0.0:
        return 2.0 * g2 * lam
    m, _, _, disc, _, slow = kernels.row_exponents([lam], g1, g2,
                                                   spec.conv_Phi)
    return float(-2.0 * np.where(disc <= 0.0, m, slow)[0])


def _gd_upper_bound(lam, m):
    return 4.0 * lam / m


def _heavy_ball_lower_bound(g1, g2, theta, lam):
    """g1 lam theta/(2 g1 lam + theta^2), divided through by theta where
    theta^2 leaves double range."""
    if abs(theta) > kernels.SQRT_MAX:
        return g1 * lam / (2.0 * g1 * lam / theta + theta)
    return g1 * lam * theta / (2.0 * g1 * lam + theta**2)


class Family(NamedTuple):
    """The paper's rate bounds and hard-edge exponents for one kernel
    family, which the kernel law does not give: the lower bound takes
    (g1, g2, theta, lam_min), the upper bound (lam_min, m)."""

    lower_bound: Callable
    upper_bound: Callable
    poly_exponents: tuple     # hard-edge (loss, distance) decay exponents


SGD = Family(
    lower_bound=lambda g1, g2, theta, lam: g2 * lam,
    upper_bound=_gd_upper_bound, poly_exponents=(-1.5, -0.5))

HEAVY_BALL = Family(
    lower_bound=_heavy_ball_lower_bound,
    upper_bound=_gd_upper_bound, poly_exponents=(-1.5, -0.5))

SDANA = Family(
    lower_bound=lambda g1, g2, theta, lam: (
        3.0 * g1 * g2 * lam / (2.0 * g2**2 * lam + 4.0 * g1)),
    upper_bound=lambda lam, m: min(lam / m, 0.5), poly_exponents=(-3.0, -1.0))


# ----------------------------------------------------------------------
# Analysis of (algorithm, measure)
# ----------------------------------------------------------------------

def limiting_loss(norm, zero_mass, R_tilde):
    """Plateau value R_tilde * mu({0}) / (2 (1 - ||I||)); needs ||I|| < 1."""
    if norm >= 1.0:
        raise ValueError("kernel norm %.4g >= 1: not convergent" % norm)
    return R_tilde * zero_mass / (2.0 * (1.0 - norm))


def malthusian_exponent(params, measure, n=None):
    """Root lambda* of F(x) = 1 on (0, forcing rate), or None when absent
    (the report's malthusian_note says why)."""
    return rate_report(params, measure, n=n).malthusian


def _malthusian(F, cap, norm):
    """(root of F(x) = 1 on (0, cap), note), or (None, why it is absent).

    Absence is a value, not an error: when F stays below 1 up to the cap
    the convergence rate is dominated by the forcing decay instead.
    """
    if cap <= 0.0:
        return None, "absent: kernel decay cap is zero"
    if norm >= 1.0:
        return None, "absent: kernel norm %.4g >= 1 (not convergent)" % norm
    hi = cap * (1.0 - 1e-12)
    fhi = F(hi)
    if fhi < 1.0:
        return None, ("absent: F(cap)=%.4f < 1, forcing-dominated regime"
                      % fhi)
    # halve until no double lies strictly inside the bracket (a nan ends
    # it at once); the midpoint of that bracket is the root
    lo, mid = 0.0, 0.5 * hi
    while lo < mid < hi:
        if F(mid) < 1.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return float(mid), "root residual %.3g" % abs(F(mid) - 1.0)


class AnalysisReport(collections.namedtuple("AnalysisReport", (
        "algo", "params", "m", "p", "lam_min", "lam_max", "kernel_norm",
        "convergent", "limiting_loss", "malthusian", "malthusian_note",
        "effective_rate", "rate_lower_bound", "rate_upper_bound",
        "predicted_poly_exponents", "classification", "R_tilde"))):
    """JSON-serializable convergence summary for (algorithm, measure)."""

    __slots__ = ()

    def to_dict(self):
        return self._asdict()


def rate_report(params, measure, R_tilde=1.0, n=None):
    """The convergence report: norm, threshold, plateau, rates, exponents.

    The kernel spec (SHB needs n) and lambda_min are resolved once.  The
    effective rate is lambda* when it exists, else the decay rate of the
    slowest forcing mode (the two regimes of the renewal analysis).  A
    report that is not convergent (||I|| >= 1) has no decay: its rates,
    bounds and plateau are None, and its bounds are not evaluated.  At a
    hard edge (lambda_min within EDGE_ATOM_TOL of 0; MP at r = 1) there is
    no exponential regime: every rate and bound is 0, and an MP measure
    gets the family's polynomial exponents instead.
    """
    fam, spec = params.algo.family, params.kernel_spec(n)
    lam_min, lam_max = measure.support_edges()
    m = measure.trace_moment()
    norm = kernel_norm(params, measure)
    convergent = bool(norm < 1.0)
    hard_edge = lam_min <= EDGE_ATOM_TOL
    if hard_edge:
        root = None
        note = "absent: spectrum touches zero (no exponential regime)"
        eff = lower = upper = 0.0
    else:
        rate = forcing_rate(spec, lam_min)
        root, note = _malthusian(lambda x: laplace(x, spec, measure), rate,
                                 norm)
        eff = rate if root is None else root
        if convergent:
            lower = fam.lower_bound(spec.gamma1, spec.gamma2, spec.theta,
                                    lam_min)
            upper = fam.upper_bound(lam_min, m)
    if not convergent:
        eff = lower = upper = None
    return AnalysisReport(
        algo=params.name, params=params.describe(), m=m, p=measure.zero_mass,
        lam_min=lam_min, lam_max=lam_max, kernel_norm=norm,
        convergent=convergent,
        limiting_loss=(limiting_loss(norm, measure.zero_mass, R_tilde)
                       if convergent else None),
        malthusian=root, malthusian_note=note, effective_rate=eff,
        rate_lower_bound=lower, rate_upper_bound=upper,
        predicted_poly_exponents=(fam.poly_exponents
                                  if hard_edge and measure.kind == MP_KIND
                                  else None),
        classification="hard_edge" if hard_edge else "strongly_convex",
        R_tilde=R_tilde)


def fit_poly_rate(times, values, t_window):
    """Least-squares slope of log(value) vs log(t) inside t_window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = t_window
    mask = (times >= lo) & (times <= hi)
    if mask.sum() < 2:
        raise ValueError("need at least two samples inside the window")
    t, v = times[mask], values[mask]
    if np.any(v <= 0.0) or np.any(t <= 0.0):
        raise ValueError("log-log fit needs positive times and values")
    return float(np.polyfit(np.log(t), np.log(v), 1)[0])
