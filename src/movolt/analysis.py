"""Closed-form convergence analysis of the momentum kernels.

Everything here works on the continuous-time parameters (gamma1, gamma2,
theta) of the kernel and a spectral measure: the kernel mass ||I|| (whose
position relative to 1 decides convergence), the limiting loss plateau,
the Malthusian exponent lambda* solving int e^{x tau} I(tau) dtau = 1
(the linear convergence rate when it exists), closed lower/upper rate
bounds, and the polynomial decay exponents at a hard spectral edge.
rate_report is the one report that gathers them all.
"""

import collections
from typing import Callable, NamedTuple

import numpy as np

from .spectrum import MP_KIND

BISECTION_ITERS = 200
# smallest positive eigenvalue at or below this counts as a hard edge,
# where every decay rate and bound is 0
EDGE_ATOM_TOL = 1e-12


# ----------------------------------------------------------------------
# Closed forms per kernel family, in the continuous parameters
# (gamma1, gamma2, theta)
# ----------------------------------------------------------------------

def _laplace_sgd(x, gamma1, gamma2, theta, measure):
    lam = measure.points
    den = 2.0 * gamma2 * lam - x
    if np.any(den <= 0.0):
        return np.inf
    return float(np.sum(measure.weights * gamma2**2 * lam**2 / den))


def _laplace_heavy_ball(x, gamma1, gamma2, theta, measure):
    lam = measure.points
    first = theta - x
    second = x**2 - 2.0 * theta * x + 4.0 * gamma1 * lam
    if first <= 0.0 or np.any(second <= 0.0):
        return np.inf
    return float(np.sum(measure.weights * 2.0 * gamma1**2 * lam**2
                        / (first * second)))


def _laplace_sdana(x, gamma1, gamma2, theta, measure):
    lam = measure.points
    shifted = gamma2 * lam - x
    omega = 4.0 * gamma1 - gamma2**2 * lam
    quad = shifted**2 + lam * omega
    if np.any(shifted <= 0.0) or np.any(quad <= 0.0):
        return np.inf
    num = (gamma2**2 * shifted**2 + gamma2 * (omega - 2.0 * gamma1) * shifted
           + 2.0 * gamma1**2)
    return float(np.sum(measure.weights * lam**2 * num / (quad * shifted)))


def _sdana_rate(g1, g2, theta, lam):
    if 4.0 * g1 - g2**2 * lam >= 0.0:
        return g2 * lam
    return g2 * lam - np.sqrt(g2**2 * lam**2 - 4.0 * g1 * lam)


def _gd_upper_bound(lam, m):
    return 4.0 * lam / m


class Family(NamedTuple):
    """The closed forms of one kernel family.  norm and laplace take
    (g1, g2, theta, measure) after the tilt x; the rates and the lower
    bound (g1, g2, theta, lam_min); the upper bound (lam_min, m)."""

    norm: Callable            # ||I|| = int_0^inf I(tau) dtau
    laplace: Callable         # F(x) = int e^{x tau} I(tau) dtau
    forcing_rate: Callable    # decay of the slowest forcing mode
    lower_bound: Callable
    upper_bound: Callable
    poly_exponents: tuple     # hard-edge (loss, distance) decay exponents
    cap: Callable = None      # top of the Malthusian root search, if not
                              # the forcing rate


SGD = Family(
    norm=lambda g1, g2, theta, mu: 0.5 * g2 * mu.trace_moment(),
    laplace=_laplace_sgd,
    forcing_rate=lambda g1, g2, theta, lam: 2.0 * g2 * lam,
    lower_bound=lambda g1, g2, theta, lam: g2 * lam,
    upper_bound=_gd_upper_bound, poly_exponents=(-1.5, -0.5))

HEAVY_BALL = Family(
    norm=lambda g1, g2, theta, mu: g1 * mu.trace_moment() / (2.0 * theta),
    laplace=_laplace_heavy_ball,
    forcing_rate=lambda g1, g2, theta, lam: (
        theta - np.sqrt(max(theta**2 - 4.0 * g1 * lam, 0.0))),
    lower_bound=lambda g1, g2, theta, lam: (
        g1 * lam * theta / (2.0 * g1 * lam + theta**2)),
    upper_bound=_gd_upper_bound, poly_exponents=(-1.5, -0.5))

SDANA = Family(
    norm=lambda g1, g2, theta, mu: (g1 * (1.0 - mu.zero_mass) / (2.0 * g2)
                                    + 0.5 * g2 * mu.trace_moment()),
    laplace=_laplace_sdana, forcing_rate=_sdana_rate,
    cap=lambda g1, g2, theta, lam: g2 * lam,
    lower_bound=lambda g1, g2, theta, lam: (
        3.0 * g1 * g2 * lam / (2.0 * g2**2 * lam + 4.0 * g1)),
    upper_bound=lambda lam, m: min(lam / m, 0.5), poly_exponents=(-3.0, -1.0))


# ----------------------------------------------------------------------
# Analysis of (algorithm, measure)
# ----------------------------------------------------------------------

def kernel_norm(params, measure):
    """||I|| = int_0^inf I(tau) dtau in closed form.  SHB's n-scalings
    cancel in it (gamma*m/(2 theta) either way), so it is read at n = 1."""
    spec = params.kernel_spec(1)
    return params.algo.family.norm(spec.gamma1, spec.gamma2, spec.theta,
                                   measure)


def limiting_loss(norm, zero_mass, R_tilde):
    """Plateau value R_tilde * mu({0}) / (2 (1 - ||I||)); needs ||I|| < 1."""
    if norm >= 1.0:
        raise ValueError("kernel norm %.4g >= 1: not convergent" % norm)
    return R_tilde * zero_mass / (2.0 * (1.0 - norm))


def malthusian_exponent(params, measure, n=None):
    """Root lambda* of F(x) = 1 on (0, cap), or None when absent (the
    report's malthusian_note says why)."""
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
    lo = 0.0
    for _ in range(BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        if F(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return float(root), "root residual %.3g" % abs(F(root) - 1.0)


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
    bounds and plateau are None.  At a hard edge (lambda_min within
    EDGE_ATOM_TOL of 0; MP at r = 1) there is no exponential regime: every
    rate and bound is 0, and an MP measure gets the family's polynomial
    exponents instead.
    """
    fam, spec = params.algo.family, params.kernel_spec(n)
    g1, g2, theta = spec.gamma1, spec.gamma2, spec.theta
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
        rate = fam.forcing_rate(g1, g2, theta, lam_min)
        cap = fam.cap(g1, g2, theta, lam_min) if fam.cap else rate
        root, note = _malthusian(
            lambda x: fam.laplace(x, g1, g2, theta, measure), cap, norm)
        eff = rate if root is None else root
        lower = fam.lower_bound(g1, g2, theta, lam_min)
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
