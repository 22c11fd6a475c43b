"""Regenerate the fine-grid reference curves psi_ref under refs/.

Each curve is the benchmark's MP prediction solved on an h/4 grid
(h = 0.05 in the benchmark, 0.0125 here) with the movolt CLI, then kept
at the benchmark's grid points.  The manifest records the command and the
commit that made each curve.  Run from the root of a movolt git checkout:

    python3 benchmark/make_refs.py

The curves are meant to be made once, at a commit whose numerics are
trusted, and then left alone: the benchmark's ref_dev metric measures
later commits against them.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
H_BENCH = 0.05
H_REF = H_BENCH / 4

# name -> predict flags (everything but --h and --out)
CURVES = {
    "mp-sgd-r1-T300": ["--algo", "sgd", "--T", "300"],
    "mp-sdahb-r1-T300": ["--algo", "sdahb", "--T", "300"],
    "mp-sgd-r0.5-T300": ["--algo", "sgd", "--r", "0.5", "--T", "300"],
    "mp-sdana-r1-T100": ["--algo", "sdana", "--r", "1", "--T", "100"],
    "mp-sdana-r2-T60": ["--algo", "sdana", "--r", "2", "--T", "60"],
    "mp-sdahb-r2-T10": ["--algo", "sdahb", "--r", "2", "--T", "10"],
}


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from movolt import cli

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, flags in CURVES.items():
            argv = ["predict"] + flags + ["--h", repr(H_REF)]
            out = os.path.join(tmp, name + ".csv")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", out])
            if code != 0:
                raise SystemExit("%s: movolt exited %d" % (name, code))
            with open(out) as fh:
                fh.readline()
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            keep = data[::4]
            fname = name + ".csv"
            with open(os.path.join(HERE, "refs", fname), "w") as fh:
                fh.write("t,psi\n")
                for t, psi in zip(keep[:, 0], keep[:, 2]):
                    fh.write("%.4f,%.17g\n" % (t, psi))
            entries.append({"name": name, "file": fname,
                            "command": "movolt " + " ".join(argv),
                            "commit": commit, "h_ref": H_REF,
                            "h_kept": H_BENCH, "points": int(len(keep))})
            print(name, len(keep), flush=True)
    with open(os.path.join(HERE, "refs", "manifest.json"), "w") as fh:
        json.dump({"made_by": "python3 benchmark/make_refs.py",
                   "curves": entries}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
