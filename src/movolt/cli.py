"""Command-line harness: simulate | predict | analyze | compare | spectrum.

Configuration precedence is flags > config file (--config, flat JSON
mirroring the flag names) > built-in algorithm defaults.  Every command
echoes its fully resolved configuration into the output metadata so runs
can be reproduced from the artifacts alone.  Exit codes: 0 success,
1 usage error, 2 numerical failure.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, analysis, lsq, momentum, spectrum, volterra
from .errors import NumericalError

# every tunable knob; config files use these names (dashes tolerated)
_CONFIG_KEYS = ("algo", "n", "d", "r", "R", "Rtilde", "epochs", "seeds",
                "seed", "gamma", "gamma1", "gamma2", "theta", "measure",
                "nodes", "h", "T", "mode", "data", "target_col", "out", "svg")

_DEFAULTS = {"R": 1.0, "Rtilde": 1.0, "epochs": 10.0, "seeds": 5, "seed": 0,
             "measure": "mp", "nodes": spectrum.DEFAULT_NODES,
             "h": volterra.DEFAULT_H, "T": 10.0, "svg": False}

_OUT_DEFAULTS = {"simulate": "simulate.csv", "predict": "predict.csv",
                 "analyze": "analyze.json", "compare": "compare.csv",
                 "spectrum": "spectrum.json"}


def _add_common(p):
    p.add_argument("--algo", choices=list(momentum.ALGORITHMS))
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=float, help="aspect ratio d/n for MP measures")
    p.add_argument("--R", type=float, help="initialization scale")
    p.add_argument("--Rtilde", type=float, help="noise scale")
    p.add_argument("--epochs", type=float)
    p.add_argument("--seeds", type=int, help="ensemble size")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--gamma", type=float)
    p.add_argument("--gamma1", type=float)
    p.add_argument("--gamma2", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--measure", choices=["mp", "esm", "csv"])
    p.add_argument("--nodes", type=int, help="MP quadrature nodes")
    p.add_argument("--h", type=float, help="Volterra grid step")
    p.add_argument("--T", type=float, help="Volterra horizon (epochs)")
    p.add_argument("--mode", choices=["closed", "ode", "conv"])
    p.add_argument("--data", help="CSV file with the design matrix")
    p.add_argument("--target-col", dest="target_col",
                   help="target column (index or header name) in --data")
    p.add_argument("--out", help="output path")
    p.add_argument("--svg", action="store_const", const=True, default=None,
                   help="also write an SVG plot next to the output")
    p.add_argument("--config", help="JSON file with defaults for any flag")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="movolt",
        description="Stochastic momentum methods on random least squares: "
                    "simulation, Volterra loss prediction, and convergence "
                    "analysis.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, desc in (
            ("simulate", "run an ensemble of the discrete algorithm"),
            ("predict", "solve the Volterra equation for the loss curve"),
            ("analyze", "closed-form convergence report"),
            ("compare", "simulate and predict on matched settings"),
            ("spectrum", "emit the spectral measure used by the other "
                         "commands")):
        _add_common(sub.add_parser(name, help=desc, description=desc))
    return ap


def resolve_config(args):
    """flags > config file > hard defaults; returns a flat dict."""
    cfg = dict(_DEFAULTS)
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
            if norm not in _CONFIG_KEYS:
                raise ValueError("unknown config key %r" % (key,))
            cfg[norm] = val
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _require(cfg, key, why):
    if cfg.get(key) is None:
        raise ValueError("missing --%s (%s)" % (key.replace("_", "-"), why))
    return cfg[key]


def _aspect_ratio(cfg):
    if cfg.get("r") is not None:
        return float(cfg["r"])
    if cfg.get("n") and cfg.get("d"):
        return cfg["d"] / cfg["n"]
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
        return prob.esm(), lsq.to_spectral(prob)
    if kind == "csv":
        path = _require(cfg, "data", "csv measure reads a design matrix")
        prob = lsq.load_csv(path, target_col=cfg.get("target_col"))
        return prob.esm(), lsq.to_spectral(prob)
    raise ValueError("unknown measure %r" % (kind,))


def _build_params(cfg, measure):
    """Algorithm parameters: explicit flags fill in, the default row covers
    the rest."""
    name = _require(cfg, "algo", "choose " + ", ".join(momentum.ALGORITHMS))
    given = {k: cfg[k] for k in momentum.algorithm(name).names
             if cfg.get(k) is not None}
    return momentum.defaults(name, measure, **given)


def _echo(cfg, extra):
    meta = {"config": {k: v for k, v in cfg.items() if v is not None},
            "version": __version__}
    meta.update(extra)
    return meta


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError("not JSON-serializable: %r" % (obj,))


def cmd_simulate(cfg):
    n = _require(cfg, "n", "problem rows")
    d = _require(cfg, "d", "problem columns")
    ref_measure = spectrum.mp_measure(_aspect_ratio(cfg), nodes=cfg["nodes"])
    params = _build_params(cfg, ref_measure)
    agg = momentum.run_ensemble(
        {"n": n, "d": d, "R": cfg["R"], "R_tilde": cfg["Rtilde"]},
        params, cfg["epochs"], cfg["seeds"], base_seed=cfg["seed"])
    if agg.diverged and len(agg.times) == 0:
        raise NumericalError("all seeds diverged before the first sample; "
                             "the step size is far past the stable regime")
    if agg.diverged:
        print("warning: some seeds diverged; trajectory truncated at the "
              "shared prefix", file=sys.stderr)
    out = cfg.get("out") or _OUT_DEFAULTS["simulate"]
    agg.to_csv(out)
    meta = _echo(cfg, {"command": "simulate", "params": params.describe(),
                       "n_seeds": cfg["seeds"], "diverged": agg.diverged,
                       "rows": len(agg.times)})
    _write_json(volterra.sidecar_path(out), meta)
    if cfg.get("svg"):
        _write_svg(_svg_target(out), [("ensemble mean", agg.times, agg.mean)],
                   band=agg)
    print("simulate: %d rows -> %s" % (len(agg.times), out))
    return 0


def cmd_predict(cfg):
    measure, spectral = _build_measure(cfg)
    params = _build_params(cfg, measure)
    sol = volterra.predict(measure, params, cfg["T"], R=cfg["R"],
                           R_tilde=cfg["Rtilde"], h=cfg["h"],
                           mode=cfg.get("mode"), n=cfg.get("n"),
                           spectral=spectral, validate=True)
    if sol.diagnostics.get("picard_note"):
        print("warning: Picard validation did not contract (%s); keeping "
              "the marching solution" % sol.diagnostics["picard_note"],
              file=sys.stderr)
    out = cfg.get("out") or _OUT_DEFAULTS["predict"]
    sol.meta = _echo(cfg, {"command": "predict", **sol.meta})
    sol.write(out)
    if cfg.get("svg"):
        _write_svg(_svg_target(out),
                   [("psi", sol.grid, sol.psi), ("F", sol.grid, sol.forcing)])
    print("predict: psi(0)=%.6g psi(T)=%.6g kernel_norm=%.6g -> %s"
          % (sol.psi[0], sol.psi[-1], sol.kernel_norm, out))
    return 0


def cmd_analyze(cfg):
    measure, _ = _build_measure(cfg)
    params = _build_params(cfg, measure)
    report = analysis.rate_report(params, measure, R_tilde=cfg["Rtilde"],
                                  n=cfg.get("n"))
    out = cfg.get("out") or _OUT_DEFAULTS["analyze"]
    payload = {"report": report.to_dict(),
               **_echo(cfg, {"command": "analyze"})}
    _write_json(out, payload)
    print(report.to_json())
    return 0


def cmd_compare(cfg):
    n = _require(cfg, "n", "problem rows")
    d = _require(cfg, "d", "problem columns")
    measure = spectrum.mp_measure(_aspect_ratio(cfg), nodes=cfg["nodes"])
    params = _build_params(cfg, measure)
    T = cfg["T"] if cfg.get("T") is not None else cfg["epochs"]
    agg = momentum.run_ensemble(
        {"n": n, "d": d, "R": cfg["R"], "R_tilde": cfg["Rtilde"]},
        params, cfg["epochs"], cfg["seeds"], base_seed=cfg["seed"])
    sol = volterra.predict(measure, params, max(T, cfg["epochs"]),
                           R=cfg["R"], R_tilde=cfg["Rtilde"], h=cfg["h"],
                           mode=cfg.get("mode"), n=n)
    psi = _join_nearest(agg.times, sol)
    mean = agg.mean
    dev = np.abs(mean - psi)
    stats = {"sup_abs_dev": float(dev.max()) if dev.size else float("nan"),
             "mean_abs_dev": float(dev.mean()) if dev.size else float("nan"),
             "psi0": float(sol.psi[0])}
    out = cfg.get("out") or _OUT_DEFAULTS["compare"]
    with open(out, "w", newline="") as fh:
        fh.write("t,mean,q10,q90,psi\n")
        for row in zip(agg.times, mean, agg.q10, agg.q90, psi):
            fh.write("%.17g,%.17g,%.17g,%.17g,%.17g\n" % row)
    meta = _echo(cfg, {"command": "compare", "params": params.describe(),
                       "stats": stats, "kernel_norm": sol.kernel_norm,
                       "diverged": agg.diverged})
    _write_json(volterra.sidecar_path(out), meta)
    if cfg.get("svg"):
        _write_svg(_svg_target(out),
                   [("ensemble mean", agg.times, mean),
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
    out = cfg.get("out") or _OUT_DEFAULTS["spectrum"]
    _write_json(out, payload)
    print("spectrum: m=%.6g p=%.6g support=[%.6g, %.6g] -> %s"
          % (payload["summary"]["trace_moment"], measure.zero_mass, lo, hi,
             out))
    return 0


def _join_nearest(times, sol):
    """psi at the nearest solver grid point for each sample time."""
    h = sol.h
    idx = np.rint((times - sol.grid[0]) / h).astype(int)
    if np.any(idx < 0) or np.any(idx >= len(sol.grid)):
        raise ValueError("trajectory times fall outside the prediction grid; "
                         "increase --T")
    gap = np.abs(sol.grid[idx] - times)
    if np.any(gap > 0.5 * h + 1e-9):
        raise ValueError("trajectory and prediction grids are misaligned "
                         "beyond half a step")
    return sol.psi[idx]


def _svg_target(out):
    root, _ = os.path.splitext(out)
    return root + ".svg"


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _write_svg(path, series, band=None, width=640, height=420):
    """Static log-y line plot: hand-emitted polylines, ticks, and an
    optional shaded q10-q90 band."""
    ml, mr, mt, mb = 60, 20, 20, 45
    pw, ph = width - ml - mr, height - mt - mb

    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if band is not None and band.q10 is not None:
        ys_all = np.concatenate([ys_all, band.q10, band.q90])
    pos = ys_all[ys_all > 0]
    if pos.size == 0:
        raise ValueError("nothing positive to draw on a log axis")
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
    if band is not None and band.q10 is not None:
        up = [(t, v) for t, v in zip(band.times, band.q90) if v > 0]
        lo = [(t, v) for t, v in zip(band.times, band.q10) if v > 0]
        if up and lo:
            pts = " ".join("%.2f,%.2f" % (X(t), Y(v)) for t, v in up)
            pts += " " + " ".join("%.2f,%.2f" % (X(t), Y(v))
                                  for t, v in reversed(lo))
            parts.append('<polygon points="%s" fill="#1f77b4" '
                         'fill-opacity="0.18" stroke="none"/>' % pts)
    # series
    for i, (label, ts, vs) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (poly(ts, vs), color))
        parts.append('<text x="%d" y="%d" fill="%s">%s</text>'
                     % (ml + pw - 150, mt + 16 + 14 * i, color, label))
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


_COMMANDS = {"simulate": cmd_simulate, "predict": cmd_predict,
             "analyze": cmd_analyze, "compare": cmd_compare,
             "spectrum": cmd_spectrum}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage problems; remap to our contract
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
