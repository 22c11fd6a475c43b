"""Print every end-to-end and per-layer metric, with units, for every workload.

    python3 benchmark/report.py [--seed 1] [--seconds 42]

Runs benchmark/run.py once untraced and once traced per workload (six
runs, about 45 s each) and prints one table: a row per metric, a column
per workload, then fail_frac and the recorded environment.
"""

import argparse
import json
import os
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=42)
    args = ap.parse_args(argv)
    table, units, fail, env = {}, {}, {}, None
    for workload in run.WORKLOADS:
        attempted = failed = 0
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=os.path.dirname(HERE), capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print("%s --trace %d exited %d" % (workload, trace, done.returncode))
                return 1
            lines = done.stdout.strip().splitlines()
            env = next(l for l in lines if l.startswith("env "))
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                table.setdefault(name, {})[workload] = m["value"]
                units[name] = m["unit"]
        fail[workload] = failed / attempted
    print("%-34s %-6s" % ("metric", "unit") + "".join("%14s" % w for w in run.WORKLOADS))
    for name, row in table.items():
        print("%-34s %-6s" % (name, units[name])
              + "".join("%14.6g" % row[w] for w in run.WORKLOADS))
    print("%-34s %-6s" % ("fail_frac", "ratio")
          + "".join("%14.6g" % fail[w] for w in run.WORKLOADS))
    print(env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
