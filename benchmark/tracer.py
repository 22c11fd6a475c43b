"""Outside-in tracer: wraps movolt's public entry points from the benchmark.

The program is not edited.  Each traced name is replaced, for the life of
a Tracer, by a wrapper that records a span (layer, start, end, parent,
job) and the layer's counters.  A name is patched where it is looked up:
``momentum`` imports ``generate_gaussian`` directly, so both
``lsq.generate_gaussian`` and ``momentum.generate_gaussian`` are wrapped;
``volterra.predict`` calls ``solve_convolution`` through the module
globals, so ``volterra.solve_convolution`` is wrapped there; the exact
SDANA kernel is advanced through the class attribute
``SdanaExactKernel.advance``.

Counters named ``madds``, ``rk4_steps``, ``node_steps``, ``steps``,
``path_steps``, ``evals``, ``grid_pts`` and ``bytes`` are computed from the
call arguments, not read from the program: ``madds`` is N(N-1)/2 per
march pass (coarse and half-step), ``rk4_steps`` the max(1, ceil(dt/h))
substeps per interval, ``node_steps`` the RK4 steps times the 3-states
advanced (nodes times stacked columns), ``bytes`` the float64 arrays of a
generated problem.  ``volterra.picard.iters`` is read from the returned
diagnostics (the half-step pass's count); a raised NumericalError counts
as a Picard solve that did not converge.
"""

import inspect
import math
import time
import types
from collections import defaultdict

import numpy as np


class Tracer:
    """Span recorder.  Spans and counters are kept only while ``active``."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent, job]
        self.counts = defaultdict(float)
        self.active = False
        self.job = None
        self._stack = []
        self._undo = []

    # -- patching ----------------------------------------------------

    def wrap(self, owner, attr, layer, count=None):
        """Replace owner.attr with a recording wrapper.

        layer is a span name, or a function of the call's arguments (a
        dict by parameter name, defaults filled in) returning one.
        count(counts, arguments, result) adds counters after the call;
        result is None when it raised.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        params = inspect.signature(orig).parameters
        names = list(params)
        defaults = {k: p.default for k, p in params.items()
                    if p.default is not inspect.Parameter.empty}
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            bound = None
            if callable(layer) or count is not None:
                bound = dict(defaults)
                bound.update(zip(names, args))
                bound.update(kwargs)
            name = layer(bound) if callable(layer) else layer
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, time.perf_counter(), None, parent, tracer.job]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if count is not None:
                    count(tracer.counts, bound, result)

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- derived figures ---------------------------------------------

    def layer_times(self, keep):
        """{layer: (busy_s, self_s)} summed over the spans whose job
        satisfies keep(job).

        busy is a span's duration; self is busy minus its children's
        durations.  Children nest inside their parent, so summing self
        over the kept spans gives the summed duration of their roots.
        """
        child = defaultdict(float)
        for name, t0, t1, parent, job in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0.0])
        for idx, (name, t0, t1, parent, job) in enumerate(self.spans):
            if keep(job):
                out[name][0] += t1 - t0
                out[name][1] += (t1 - t0) - child[idx]
        return {k: tuple(v) for k, v in out.items()}

    def span_cost(self, calls=20000):
        """Seconds one recorded span adds, timed on a wrapped no-op."""
        probe = types.SimpleNamespace(noop=lambda: None)
        plain = probe.noop
        self.wrap(probe, "noop", "probe")
        saved, self.spans, self.active = self.spans, [], True
        try:
            t0 = time.perf_counter()
            for _ in range(calls):
                probe.noop()
            traced = time.perf_counter() - t0
        finally:
            self.spans, self.active = saved, False
            self._undo.pop()
        t0 = time.perf_counter()
        for _ in range(calls):
            plain()
        return max(traced - (time.perf_counter() - t0), 0.0) / calls

    def root_time(self, keep):
        return sum(t1 - t0 for _, t0, t1, parent, job in self.spans
                   if parent is None and keep(job))


# -- counters computed from call arguments ---------------------------------

def _convolution_layer(a):
    return "volterra.picard" if a["method"] == "picard" else "volterra.march"


def _passes(n, refine):
    """Grid sizes of the coarse and (with refine) half-step passes."""
    return [n, 2 * n - 1] if refine and n >= 4 else [n]


def _count_convolution(c, a, result):
    sizes = _passes(len(a["grid"]), a["refine"])
    if _convolution_layer(a) == "volterra.picard":
        c["volterra.picard.calls"] += 1
        if result is not None:
            c["volterra.picard.converged"] += 1
            c["volterra.picard.iters"] += result.diagnostics.get("picard_iters", 0)
    else:
        c["volterra.march.grid_pts"] += sum(sizes)
        c["volterra.march.madds"] += sum(m * (m - 1) // 2 for m in sizes)


def _count_general(c, a, result):
    c["volterra.general.grid_pts"] += sum(_passes(len(a["grid"]), a["refine"]))


def _count_advance(c, a, result):
    c["kernels.advance.calls"] += 1
    t0, t1 = a["t0"], a["t1"]
    if t1 <= t0:
        return
    steps = max(1, int(math.ceil((t1 - t0) / a["self"].h - 1e-12)))
    c["kernels.advance.rk4_steps"] += steps
    c["kernels.advance.node_steps"] += steps * (a["state"].size // 3)


def _count_forcing(kernels):
    def count(c, a, result):
        spec, lams, grid, h = a["spec"], a["lams"], a["grid"], a["h"]
        c["kernels.forcing_matrix.evals"] += len(lams) * len(grid)
        if spec.phi_kind == "const" or len(grid) < 2:
            return
        if h is None:
            h = kernels.default_ode_step(spec.gamma2, np.max(lams) if len(lams) else 0.0)
        # per interval: the max(1, ceil(dt/h)) substeps of kernels._ode_on_grid
        substeps = np.ceil(np.diff(np.asarray(grid, dtype=float)) / h - 1e-12)
        c["kernels.forcing_matrix.rk4_steps"] += float(np.maximum(substeps, 1).sum())
    return count


def _count_kernel_matrix(c, a, result):
    c["kernels.kernel_matrix.evals"] += len(a["lams"]) * len(a["taus"])


def _count_run(c, a, result):
    per_epoch = a["samples_per_epoch"]
    samples = math.floor(a["epochs"] * per_epoch + 1e-9)
    c["momentum.run.steps"] += max(1, round(samples * a["problem"].n / per_epoch))


def _count_sde(c, a, result):
    c["momentum.sde.path_steps"] += a["n_paths"] * int(round(a["T"] / a["dt"]))


def _count_generate(c, a, result):
    n, d = a["n"], a["d"]
    c["lsq.generate_gaussian.calls"] += 1
    # A, then x_tilde, x0 (length d) and eta, b (length n), float64
    c["lsq.generate_gaussian.bytes"] += 8 * (n * d + 2 * d + 2 * n)


def _counter(key):
    def count(c, a, result):
        c[key] += 1
    return count


def install():
    """A Tracer wrapping every layer boundary of an imported movolt."""
    from movolt import analysis, cli, kernels, lsq, momentum, spectrum, volterra

    t = Tracer()
    t.wrap(cli, "main", "cli")
    t.wrap(volterra, "predict", "volterra.predict")
    for name in ("build_forcing", "build_forcing_from_spectral",
                 "build_convolution_kernel"):
        t.wrap(volterra, name, "volterra.build")
    t.wrap(volterra, "solve_convolution", _convolution_layer, _count_convolution)
    t.wrap(volterra, "solve_general", "volterra.general", _count_general)
    t.wrap(kernels, "forcing_matrix", "kernels.forcing_matrix", _count_forcing(kernels))
    t.wrap(kernels, "kernel_matrix", "kernels.kernel_matrix", _count_kernel_matrix)
    t.wrap(kernels.SdanaExactKernel, "advance", "kernels.advance", _count_advance)
    t.wrap(momentum, "run", "momentum.run", _count_run)
    t.wrap(momentum, "run_ensemble", "momentum.ensemble")
    t.wrap(momentum, "simulate_homogenized", "momentum.sde", _count_sde)
    for owner in (lsq, momentum):
        t.wrap(owner, "generate_gaussian", "lsq.generate_gaussian", _count_generate)
    t.wrap(lsq.LsqProblem, "esm", "lsq.esm")
    t.wrap(lsq, "to_spectral", "lsq.to_spectral")
    t.wrap(spectrum, "mp_measure", "spectrum.mp_measure", _counter("spectrum.mp_measure.calls"))
    t.wrap(analysis, "rate_report", "analysis.rate_report", _counter("analysis.rate_report.calls"))
    return t
