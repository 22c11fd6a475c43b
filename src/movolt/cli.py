"""Command-line harness: simulate | predict | analyze | compare | spectrum.

Configuration precedence is flags > config file (--config, flat JSON
mirroring the flag names) > built-in defaults; a command takes only the
flags it reads (_FLAGS).  Every command echoes its fully resolved
configuration into the output metadata so runs can be reproduced from
the artifacts alone.  Exit codes: 0 success, 1 usage error, 2 numerical
failure.
"""

import argparse
import collections
import json
import math
import os
import sys

import numpy as np

from . import __version__, analysis, kernels, lsq, momentum, spectrum, volterra
from .errors import NumericalError

_ALGO = ("simulate", "predict", "analyze", "compare")   # run an algorithm
_EVERY = _ALGO + ("spectrum",)
_RUNS = ("simulate", "compare")                        # discrete ensembles
_SOLVES = ("predict", "compare")                       # Volterra solves
_MEASURED = ("predict", "analyze", "spectrum")         # take --measure

# per kind: the argparse type (None for a switch) and the JSON values a
# config file may give it
_KINDS = {"int": (int, (int,), "an integer"),
          "number": (float, (int, float), "a number"),
          "text": (str, (str,), "a string"),
          "column": (str, (str, int), "a column name or index"),
          "switch": (None, (bool,), "true or false")}

# one row per flag: its kind, the commands that read it, its default,
# choices and help; config files use the same names (dashes tolerated)
_Flag = collections.namedtuple("_Flag", "kind commands default choices help",
                               defaults=(None, None, None))
_FLAGS = {
    "algo": _Flag("text", _ALGO, choices=tuple(momentum.ALGORITHMS)),
    "n": _Flag("int", _EVERY),
    "d": _Flag("int", _EVERY),
    "r": _Flag("number", _EVERY, help="aspect ratio d/n for MP measures"),
    "R": _Flag("number", _EVERY, 1.0, help="initialization scale"),
    "Rtilde": _Flag("number", _EVERY, 1.0, help="noise scale"),
    "epochs": _Flag("number", _RUNS, 10.0),
    "seeds": _Flag("int", _RUNS, 5, help="ensemble size"),
    "seed": _Flag("int", _EVERY, 0, help="base seed"),
    "gamma": _Flag("number", _ALGO),
    "gamma1": _Flag("number", _ALGO),
    "gamma2": _Flag("number", _ALGO),
    "theta": _Flag("number", _ALGO),
    "measure": _Flag("text", _MEASURED, "mp", ("mp", "esm", "csv")),
    "nodes": _Flag("int", _EVERY,
                   help="MP quadrature nodes (default: chosen, see README)"),
    "h": _Flag("number", _SOLVES, volterra.DEFAULT_H,
               help="Volterra grid step"),
    "T": _Flag("number", _SOLVES, 10.0, help="Volterra horizon (epochs)"),
    "mode": _Flag("text", _SOLVES, choices=kernels.MODES),
    "data": _Flag("text", _MEASURED, help="CSV file with the design matrix"),
    "target_col": _Flag("column", _MEASURED,
                        help="target column (index or header name) in --data"),
    "out": _Flag("text", _EVERY, help="output path"),
    "svg": _Flag("switch", ("simulate", "predict", "compare"), False,
                 help="also write an SVG plot next to the output"),
}


def _flags(command):
    """The rows of the flags command reads."""
    return {k: f for k, f in _FLAGS.items() if command in f.commands}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="movolt",
        description="Stochastic momentum methods on random least squares: "
                    "simulation, Volterra loss prediction, and convergence "
                    "analysis.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, desc) in _COMMANDS.items():
        # no abbreviations: --h must not reach --help where h is not read
        p = sub.add_parser(name, help=desc, description=desc,
                           allow_abbrev=False)
        for key, flag in _flags(name).items():
            parse = _KINDS[flag.kind][0]
            how = (dict(type=parse, choices=flag.choices) if parse
                   else dict(action="store_const", const=True))
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=flag.help, **how)
        p.add_argument("--config", help="JSON defaults for these flags")
    return ap


def resolve_config(args):
    """flags > config file > built-in defaults, over the flags the command
    reads; returns a flat dict."""
    flags = _flags(args.command)
    cfg = {k: f.default for k, f in flags.items()}
    if args.config:
        with open(args.config) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError("config %s is not valid JSON: %s"
                                 % (args.config, exc))
        if not isinstance(raw, dict):
            raise ValueError("config must be a flat JSON object")
        for key, val in raw.items():
            norm = key.replace("-", "_")
            if norm not in flags:
                raise ValueError("config key %r: %s takes no --%s" % (
                    key, args.command, norm.replace("_", "-")))
            _, types, what = _KINDS[flags[norm].kind]
            choices = flags[norm].choices
            # JSON true/false are ints to Python; only the switches take them
            if (not isinstance(val, types)
                    or isinstance(val, bool) != (bool in types)):
                raise ValueError("config key %r must be %s, got %r"
                                 % (key, what, val))
            if choices and val not in choices:
                raise ValueError("config key %r must be one of %s, got %r"
                                 % (key, ", ".join(choices), val))
            cfg[norm] = val
    for key in flags:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def _require(cfg, key, why):
    if cfg[key] is None:
        raise ValueError("missing --%s (%s)" % (key.replace("_", "-"), why))
    return cfg[key]


def _aspect_ratio(cfg):
    if cfg["r"] is not None:
        return float(cfg["r"])
    n, d = cfg["n"], cfg["d"]
    if n is not None and d is not None:
        if n <= 0 or d <= 0:
            raise ValueError("problem sizes --n and --d must be positive, "
                             "got %r and %r" % (n, d))
        return d / n
    return 1.0


def _build_measure(cfg):
    """(measure, spectral_or_None) per --measure.

    esm/csv measures come with the realized spectral coordinates of their
    problem, so predictions use the realized forcing.
    """
    kind = cfg["measure"]
    if kind == "mp":
        return spectrum.mp_measure(_aspect_ratio(cfg), nodes=cfg["nodes"]), None
    if kind == "esm":
        n = _require(cfg, "n", "ESM needs a problem size")
        d = _require(cfg, "d", "ESM needs a problem size")
        prob = lsq.generate_gaussian(n, d, cfg["R"], cfg["Rtilde"], cfg["seed"])
    else:
        path = _require(cfg, "data", "csv measure reads a design matrix")
        prob = lsq.load_csv(path, target_col=cfg["target_col"])
    return prob.esm(), lsq.to_spectral(prob)


def _build_params(cfg, measure):
    """Algorithm parameters: explicit flags fill in, the default row covers
    the rest."""
    name = _require(cfg, "algo", "choose " + ", ".join(momentum.ALGORITHMS))
    given = {k: cfg[k] for k in momentum.algorithm(name).names
             if cfg[k] is not None}
    return momentum.defaults(name, measure, **given)


def _run_ensemble(cfg):
    """simulate's and compare's setup: the MP measure at the problem's
    aspect ratio, the algorithm on it, and its ensemble of discrete runs."""
    n = _require(cfg, "n", "problem rows")
    d = _require(cfg, "d", "problem columns")
    measure = spectrum.mp_measure(_aspect_ratio(cfg), nodes=cfg["nodes"])
    params = _build_params(cfg, measure)
    agg = momentum.run_ensemble(
        {"n": n, "d": d, "R": cfg["R"], "R_tilde": cfg["Rtilde"]},
        params, cfg["epochs"], cfg["seeds"], base_seed=cfg["seed"])
    if agg.diverged and len(agg.times) == 0:
        raise NumericalError("all seeds diverged before the first sample; "
                             "the step size is far past the stable regime")
    if agg.diverged:
        print("warning: some seeds diverged; trajectory truncated at the "
              "shared prefix", file=sys.stderr)
    return measure, params, agg


def _echo(cfg, extra):
    return {"config": {k: v for k, v in cfg.items() if v is not None},
            "version": __version__, **extra}


def cmd_simulate(cfg):
    _, params, agg = _run_ensemble(cfg)
    out = cfg["out"] or "simulate.csv"
    agg.to_csv(out)
    meta = _echo(cfg, {"command": "simulate", "params": params.describe(),
                       "n_seeds": cfg["seeds"], "diverged": agg.diverged,
                       "diverged_at": agg.meta["diverged_at"],
                       "rows": len(agg.times)})
    volterra.write_json(volterra.sidecar_path(out), meta)
    if cfg["svg"]:
        _write_svg(out, [("ensemble mean", agg.times, agg.mean)], band=agg)
    print("simulate: %d rows -> %s" % (len(agg.times), out))
    return 0


def _warn_quadrature(sol):
    """Warn where the MP rule of a solve is further than QUADRATURE_TOL from
    the rule of three times its nodes."""
    gap = sol.diagnostics.get("quadrature_gap")
    if gap is not None and gap > volterra.QUADRATURE_TOL:
        nodes = sol.meta["measure"]["nodes"]
        print("warning: the %d-node MP rule's forcing and kernel differ from "
              "the %d-node rule's by %.3g of their scale (quadrature_gap > %g)"
              "; a larger --nodes resolves the horizon"
              % (nodes, 3 * nodes, gap, volterra.QUADRATURE_TOL),
              file=sys.stderr)


def cmd_predict(cfg):
    measure, spectral = _build_measure(cfg)
    params = _build_params(cfg, measure)
    sol = volterra.predict(measure, params, cfg["T"], R=cfg["R"],
                           R_tilde=cfg["Rtilde"], h=cfg["h"],
                           mode=cfg["mode"], n=cfg["n"],
                           spectral=spectral, validate=True,
                           size_rule=cfg["nodes"] is None)
    _warn_quadrature(sol)
    if sol.diagnostics.get("picard_note"):
        print("warning: Picard iteration did not settle from the marching "
              "solution (%s); keeping the marching solution"
              % sol.diagnostics["picard_note"], file=sys.stderr)
    out = cfg["out"] or "predict.csv"
    sol.meta = _echo(cfg, {"command": "predict", **sol.meta})
    sol.write(out)
    if cfg["svg"]:
        _write_svg(out, [("psi", sol.grid, sol.psi),
                         ("F", sol.grid, sol.forcing)])
    print("predict: psi(0)=%.6g psi(T)=%.6g kernel_norm=%.6g -> %s"
          % (sol.psi[0], sol.psi[-1], sol.kernel_norm, out))
    return 0


def cmd_analyze(cfg):
    lsq.check_scales(cfg["R"], cfg["Rtilde"])
    measure, _ = _build_measure(cfg)
    params = _build_params(cfg, measure)
    report = analysis.rate_report(params, measure, R_tilde=cfg["Rtilde"],
                                  n=cfg["n"])
    out = cfg["out"] or "analyze.json"
    payload = {"report": report.to_dict(),
               **_echo(cfg, {"command": "analyze"})}
    volterra.write_json(out, payload)
    print(volterra.json_text(report.to_dict()))
    return 0


def _max_dev_mcse(dev, se):
    """max |mean - psi| in Monte Carlo standard errors, over the times
    where the seeds spread (se > 0); None for one seed or no spread."""
    if se is None or not np.any(se > 0):
        return None
    return float(np.max(dev[se > 0] / se[se > 0]))


def cmd_compare(cfg):
    measure, params, agg = _run_ensemble(cfg)
    sol = volterra.predict(measure, params, max(cfg["T"], cfg["epochs"]),
                           R=cfg["R"], R_tilde=cfg["Rtilde"], h=cfg["h"],
                           mode=cfg["mode"], n=cfg["n"],
                           size_rule=cfg["nodes"] is None)
    _warn_quadrature(sol)
    # psi at the nearest point of a grid from 0; a last sample time rounded
    # up from epochs can lie past the grid's end
    idx = np.rint(agg.times / sol.h).astype(int)
    if idx[-1] >= len(sol.psi):
        raise ValueError("trajectory times fall outside the prediction grid; "
                         "increase --T")
    psi = sol.psi[idx]
    dev = np.abs(agg.mean - psi)
    stats = {"sup_abs_dev": float(dev.max()),
             "mean_abs_dev": float(dev.mean()), "psi0": float(sol.psi[0]),
             "max_dev_mcse": _max_dev_mcse(dev, agg.se)}
    out = cfg["out"] or "compare.csv"
    with open(out, "w", newline="") as fh:
        fh.write("t,mean,q10,q90,psi\n")
        for row in zip(agg.times, agg.mean, agg.q10, agg.q90, psi):
            fh.write("%.17g,%.17g,%.17g,%.17g,%.17g\n" % row)
    meta = _echo(cfg, {"command": "compare", "params": params.describe(),
                       "stats": stats, "kernel_norm": sol.kernel_norm,
                       "measure": sol.meta["measure"],
                       "mode": sol.meta["mode"],
                       "diagnostics": sol.diagnostics,
                       "diverged": agg.diverged,
                       "diverged_at": agg.meta["diverged_at"]})
    volterra.write_json(volterra.sidecar_path(out), meta)
    if cfg["svg"]:
        _write_svg(out, [("ensemble mean", agg.times, agg.mean),
                         ("psi", sol.grid, sol.psi)], band=agg)
    print("compare: sup|mean-psi|=%.6g mean|mean-psi|=%.6g -> %s"
          % (stats["sup_abs_dev"], stats["mean_abs_dev"], out))
    return 0


def cmd_spectrum(cfg):
    measure, _ = _build_measure(cfg)
    lo, hi = measure.support_edges()
    payload = {"measure": json.loads(measure.to_json()),
               "summary": {"trace_moment": measure.trace_moment(),
                           "zero_mass": measure.zero_mass,
                           "support": [lo, hi],
                           "atoms": int(len(measure.points))},
               **_echo(cfg, {"command": "spectrum"})}
    out = cfg["out"] or "spectrum.json"
    volterra.write_json(out, payload)
    print("spectrum: m=%.6g p=%.6g support=[%.6g, %.6g] -> %s"
          % (payload["summary"]["trace_moment"], measure.zero_mass, lo, hi,
             out))
    return 0


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _write_svg(out, series, band=None):
    """Static log-y line plot next to the output out: hand-emitted
    polylines, ticks, and an optional shaded q10-q90 band."""
    width, height = 640, 420
    ml, mr, mt, mb = 60, 20, 20, 45
    pw, ph = width - ml - mr, height - mt - mb

    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if band is not None:
        ys_all = np.concatenate([ys_all, band.q10, band.q90])
    # nothing positive (an all-zero curve) draws the frame over one decade
    pos = ys_all[ys_all > 0] if np.any(ys_all > 0) else np.ones(1)
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    if x1 <= x0:
        x1 = x0 + 1.0
    y0 = math.floor(math.log10(pos.min()))
    y1 = math.ceil(math.log10(pos.max()))
    if y1 <= y0:
        y1 = y0 + 1

    def X(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def Y(y):
        ly = math.log10(max(y, 10.0**y0))
        return mt + (y1 - ly) / (y1 - y0) * ph

    def poly(ts, vs):
        return " ".join("%.2f,%.2f" % (X(t), Y(v))
                        for t, v in zip(ts, vs) if v > 0)

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
             'viewBox="0 0 %d %d" font-family="sans-serif" font-size="11">'
             % (width, height, width, height),
             '<rect width="%d" height="%d" fill="white"/>' % (width, height)]
    # frame
    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
                 'stroke="black"/>' % (ml, mt, pw, ph))
    # y decade ticks and gridlines
    for e in range(y0, y1 + 1):
        yy = Y(10.0**e)
        parts.append('<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" '
                     'stroke="#dddddd"/>' % (ml, yy, ml + pw, yy))
        parts.append('<text x="%d" y="%.2f" text-anchor="end">1e%d</text>'
                     % (ml - 6, yy + 4, e))
    # x ticks
    for i in range(6):
        xv = x0 + i * (x1 - x0) / 5
        xx = X(xv)
        parts.append('<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" '
                     'stroke="black"/>' % (xx, mt + ph, xx, mt + ph + 4))
        parts.append('<text x="%.2f" y="%d" text-anchor="middle">%.3g</text>'
                     % (xx, mt + ph + 16, xv))
    parts.append('<text x="%d" y="%d" text-anchor="middle">t (epochs)</text>'
                 % (ml + pw // 2, height - 8))
    # band
    if band is not None:
        up = poly(band.times, band.q90)
        lo = poly(band.times[::-1], band.q10[::-1])
        if up and lo:
            parts.append('<polygon points="%s %s" fill="#1f77b4" '
                         'fill-opacity="0.18" stroke="none"/>' % (up, lo))
    # series
    for i, (label, ts, vs) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (poly(ts, vs), color))
        parts.append('<text x="%d" y="%d" fill="%s">%s</text>'
                     % (ml + pw - 150, mt + 16 + 14 * i, color, label))
    parts.append("</svg>")
    with open(os.path.splitext(out)[0] + ".svg", "w") as fh:
        fh.write("\n".join(parts) + "\n")


_COMMANDS = {
    "simulate": (cmd_simulate, "run an ensemble of the discrete algorithm"),
    "predict": (cmd_predict, "solve the Volterra equation for the loss curve"),
    "analyze": (cmd_analyze, "closed-form convergence report"),
    "compare": (cmd_compare, "simulate and predict on matched settings"),
    "spectrum": (cmd_spectrum,
                 "emit the spectral measure used by the other commands")}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage problems; remap to our contract
        return 0 if exc.code in (0, None) else 1
    try:
        # a float operation that overflows, divides by zero or makes a nan
        # raises: parameters past the range of doubles fail cleanly
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command][0](resolve_config(args))
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("numerical failure: %s; a parameter is too large or too small "
              "for double precision" % (exc,), file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("numerical failure: out of memory (%s); reduce the grid, the "
              "node count or the problem size" % (str(exc) or "no detail"),
              file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
