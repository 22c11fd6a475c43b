"""movolt benchmark: one client in a closed loop over a workload's jobs.

    python3 benchmark/run.py --workload mp-long --seed 1 --seconds 42 --trace 0

Run from the root of a movolt source tree (the package is imported from
src/).  Jobs run back to back, each starting when the previous one ends;
passes over the job list repeat until the next pass would overrun
--seconds (at least one pass; two with --trace 1).  Every output is
checked; a job fails on a nonzero exit, an exception or a failed check.

--trace 0 reports the end-to-end metrics: wall_s (one pass over the job
list: the sum over jobs of each job's median time), setup_s (median of
fresh-interpreter imports of movolt, taken before the first pass and
between passes, after one warm-up import), peak_rss_mb and ref_dev
(max |psi - psi_ref| / psi_ref(0) over the checked MP curves).  --trace 1 alternates traced and untraced passes and
reports the per-layer metrics of the traced ones, from spans recorded
around the package's entry points (see tracer.py).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Without a movolt source tree the run exits 2 and prints none.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_IMPORTS = 3   # fresh-interpreter imports before the first pass and after each
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# jobs are single-threaded Python around level-1 BLAS calls; more BLAS
# threads only spin (mp-long used 2x the CPU at 2 threads and ran slower)
BLAS_THREADS = 1
WORKLOADS = ("mp-long", "sdana-ode", "finite-n")   # job lists: workloads.mp_long etc.


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_blas():
    """Pin BLAS threads (at most nproc) before numpy is first imported."""
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for key in BLAS_ENV:
        os.environ[key] = str(threads)
    return threads


def import_times(count):
    """Seconds to import movolt in each of count fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import movolt; print(time.perf_counter() - t)" % SRC)
    times = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Context:
    """What checks share within a run: the reference curves and the
    deviations measured against them."""

    def __init__(self, refs):
        self.refs = refs
        self.ref_devs = []


def run_checks(job, out, done, ctx):
    msgs = []
    for check in job.checks:
        try:
            msgs += check(out, done, ctx)
        except Exception as exc:   # a check that cannot read the output fails it
            msgs.append("%s: %s: %s" % (getattr(check, "__qualname__", "check"),
                                        type(exc).__name__, exc))
        if msgs:
            break
    return msgs


def bytes_under(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_passes(jobs, seed, seconds, workdir, ctx, tracer=None, after_pass=None):
    """Closed loop over the job list.  Returns per-pass records.

    after_pass() runs untimed between passes; its time counts against
    seconds."""
    passes, costs = [], []
    begin = time.perf_counter()
    while True:
        p = len(passes)
        traced = tracer is not None and p % 2 == 0
        # stride 16: the ensembles' seed ranges (--seeds 5 and 10) of one
        # pass do not overlap the next pass's
        pass_seed = seed * 1000 + 16 * p
        start = time.perf_counter()
        record = {"traced": traced, "times": {}, "failures": {}, "bytes": {}}
        done = {}
        for job in jobs:
            outdir = os.path.join(workdir, "p%d" % p, job.name)
            os.makedirs(outdir)
            if traced:
                tracer.job, tracer.active = (p, job.name), True
            t0 = time.perf_counter()
            try:
                out, error = job.run(outdir, pass_seed), None
            except Exception as exc:   # the job fails; the loop goes on
                out, error = None, "%s: %s" % (type(exc).__name__, exc)
            record["times"][job.name] = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            msgs = ["exception: " + error] if error else run_checks(job, out, done, ctx)
            if msgs:
                record["failures"][job.name] = msgs
                for m in msgs:
                    print("FAIL pass %d job %s: %s" % (p, job.name, m), file=sys.stderr)
            done[job.name] = out
            record["bytes"][job.name] = bytes_under(outdir)
        passes.append(record)
        shutil.rmtree(os.path.join(workdir, "p%d" % p))
        if after_pass is not None:
            after_pass()
        costs.append(time.perf_counter() - start)
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - begin + max(costs) > seconds:
            return passes


def wall_s(passes, names):
    """One pass over the job list: the sum of each job's median time."""
    return sum(statistics.median(p["times"][n] for p in passes) for n in names)


def end_to_end(passes, names, setup_s, ctx):
    import resource
    return {
        "wall_s": (wall_s(passes, names), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ref_dev": (max(ctx.ref_devs) if ctx.ref_devs else 1.0, "ratio"),
    }


# span figures (busy: span duration; self: minus its child spans) and the
# tracer's counters, reported per traced pass
TIMED = (
    "volterra.picard.busy_s", "volterra.march.busy_s", "volterra.general.self_s",
    "volterra.build.self_s", "volterra.predict.self_s", "kernels.advance.busy_s",
    "kernels.forcing_matrix.busy_s", "kernels.kernel_matrix.busy_s",
    "momentum.run.busy_s", "momentum.ensemble.self_s", "momentum.sde.busy_s",
    "lsq.esm.busy_s", "lsq.to_spectral.busy_s", "lsq.generate_gaussian.busy_s",
    "spectrum.mp_measure.busy_s", "analysis.rate_report.busy_s", "cli.self_s")
COUNTED = (
    "volterra.picard.calls", "volterra.picard.iters", "volterra.march.grid_pts",
    "volterra.march.madds", "volterra.general.grid_pts", "kernels.advance.calls",
    "kernels.advance.rk4_steps", "kernels.advance.node_steps",
    "kernels.forcing_matrix.evals", "kernels.forcing_matrix.rk4_steps",
    "kernels.kernel_matrix.evals", "momentum.run.steps", "momentum.sde.path_steps",
    "lsq.generate_gaussian.calls", "lsq.generate_gaussian.bytes",
    "spectrum.mp_measure.calls", "analysis.rate_report.calls")


def per_layer(passes, names, tracer, sim_jobs):
    """Per-pass layer figures: span times are medians over the traced
    passes, counters their mean, job times medians over all passes."""
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    def in_pass(i):
        return lambda job: job[0] == i

    layers = {i: tracer.layer_times(in_pass(i)) for i in traced}

    def timed(metric):
        layer, kind = metric.rsplit(".", 1)
        col = 0 if kind == "busy_s" else 1
        return statistics.median(layers[i].get(layer, (0.0, 0.0))[col] for i in traced)

    def count(key):
        return tracer.counts.get(key, 0.0) / len(traced)

    def job_time(name):
        return statistics.median(p["times"][name] for p in passes)

    m = {k: (timed(k), "s") for k in TIMED}
    m.update((k, (count(k), "B" if k.endswith(".bytes") else "count")) for k in COUNTED)
    picard = count("volterra.picard.calls")
    steps = count("momentum.run.steps")
    sim_time = sum(job_time(j) for j in sim_jobs if j in names)
    traced_wall = wall_s([passes[i] for i in traced], names)
    m.update({
        "volterra.picard.converged_frac": (
            count("volterra.picard.converged") / picard if picard else 0.0, "ratio"),
        "momentum.run.us_per_step": (
            1e6 * m["momentum.run.busy_s"][0] / steps if steps else 0.0, "us"),
        "cli.bytes_written": (statistics.median(sum(p["bytes"].values()) for p in passes), "B"),
        "sim_steps_per_s": (steps / sim_time if sim_time else 0.0, "1/s"),
        "sde_path_steps_per_s": (count("momentum.sde.path_steps") / job_time("sde")
                                 if "sde" in names else 0.0, "1/s"),
        "trace.untraced_s": (statistics.median(
            sum(passes[i]["times"].values()) - tracer.root_time(in_pass(i))
            for i in traced), "s"),
        "trace.overhead_frac": (
            traced_wall / wall_s(plain, names) - 1.0 if plain else 0.0, "ratio"),
        "trace.spans": (len(tracer.spans) / len(traced), "count"),
        "trace.span_cost_us": (1e6 * tracer.span_cost(), "us"),
    })
    return m


def environment(threads):
    import numpy
    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "blas_threads": threads, "nproc": os.cpu_count()}
    env["commit"] = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split() or ("", "")
        if os.path.realpath(top) == os.path.realpath(ROOT):
            env["commit"] = head
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "movolt")
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    env["src_sha256"] = digest.hexdigest()[:16]
    with open(os.path.join(HERE, "refs", "manifest.json")) as fh:
        env["refs_commit"] = json.load(fh)["curves"][0]["commit"]
    return env


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "movolt", "__init__.py")):
        print("error: no movolt source under %s; run from the root of a "
              "movolt source tree" % SRC, file=sys.stderr)
        return 2
    threads = pin_blas()
    setup = []
    if not args.trace:
        import_times(1)     # warm-up: may compile bytecode
        setup += import_times(SETUP_IMPORTS)
    sys.path.insert(0, SRC)
    import movolt
    if not os.path.abspath(movolt.__file__).startswith(SRC + os.sep):
        print("error: imported movolt from %s, not %s" % (movolt.__file__, SRC),
              file=sys.stderr)
        return 2
    import checks
    import tracer as tracing
    import workloads

    jobs = getattr(workloads, args.workload.replace("-", "_"))()
    names = [j.name for j in jobs]
    ctx = Context(checks.load_refs())
    workdir = os.path.join(WORK, "%s-s%d-t%d-%d" % (args.workload, args.seed,
                                                   args.trace, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer = tracing.install() if args.trace else None
    try:
        passes = run_passes(jobs, args.seed, args.seconds, workdir, ctx, tracer,
                            None if args.trace else
                            lambda: setup.extend(import_times(SETUP_IMPORTS)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if args.trace:
        metrics = per_layer(passes, names, tracer, workloads.SIM_JOBS)
        with open(os.path.join(workdir, "spans.json"), "w") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent", "job"],
                       "spans": tracer.spans}, fh)
    else:
        metrics = end_to_end(passes, names, statistics.median(setup), ctx)
        shutil.rmtree(workdir)
    attempted = len(passes) * len(jobs)
    failed = sum(len(p["failures"]) for p in passes)
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6g %s" % (name, value, unit))
    print("%-36s %14.6g %s" % ("fail_frac", failed / attempted, "ratio"))
    print("passes %d; job seconds (median, min, max): %s" % (len(passes), "; ".join(
        "%s %.3f %.3f %.3f" % (n, statistics.median(t), min(t), max(t))
        for n, t in ((n, [p["times"][n] for p in passes]) for n in names))))
    print("env " + json.dumps(environment(threads), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
