#!/usr/bin/env python3
"""Build and run the whole-path workload benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune (the repository's own libraries
from source), then runs one workload.  The executable's last line of
standard output is the result: one JSON object with the keys "correct",
"attempted", "failed" and "metrics".  Build output goes to standard
error.  Exits non-zero, without a result, when the checkout is
incomplete or the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def dune_command():
    """How to invoke dune: directly, or through opam when dune is not on
    PATH."""
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def check_result(line, trace):
    """The result line must be one JSON object with exactly the contract's
    keys, and its metrics exactly the ones BENCHMARK.json lists for this
    mode, with the same units.  Returns an error message, or None."""
    try:
        r = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in r["metrics"].items()}
    if got != wanted:
        return "metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(wanted))
    if not all(isinstance(v.get("value"), (int, float)) for v in r["metrics"].values()):
        return "a metric value is not a number"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "fbs"))):
        print("perfbench: run from the root of a full checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2

    # The shared dune cache lives outside the checkout; keep every write
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    error = check_result(lines[-1], args.trace) if lines else "no output"
    if error is not None:
        print("perfbench: %s" % error, file=sys.stderr)
        return run.returncode or 1
    print(lines[-1])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
