#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Oracle gate: the benchmark binary's --selftest feeds its result checker
   correct and perturbed engine results; every perturbation must count as a
   failure.
2. Count determinism: each workload runs twice with the same seed (traced,
   at the workload's own data size); storage.catalog_mb,
   exec.simd.tiles_native, codegen.kernels_compiled and
   codegen.jit_served_frac must repeat exactly, and both runs must be correct.
3. Knob refusal: run.py must exit non-zero, without a result line, when a
   SWOLE_* variable is set.

Exits non-zero if any check fails.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step lives there)

EXACT = ("storage.catalog_mb", "exec.simd.tiles_native",
         "codegen.kernels_compiled", "codegen.jit_served_frac")

failures = 0


def check(ok, what):
    global failures
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    failures += 0 if ok else 1


def traced_run(binary, workload, env):
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", "1"],
        capture_output=True, text=True, env=env)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def main():
    out_dir = run.build_dir()
    binary = run.build(out_dir)
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    done = subprocess.run([binary, "--selftest"], capture_output=True,
                          text=True, env=env)
    sys.stdout.write(done.stdout)
    check(done.returncode == 0, "result checker counts every perturbation")

    for workload in run.WORKLOADS:
        first = traced_run(binary, workload, env)
        second = traced_run(binary, workload, env)
        if first is None or second is None:
            check(False, f"{workload}: both traced runs complete")
            continue
        check(first["correct"] and second["correct"],
              f"{workload}: both runs match the oracle")
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            check(a == b, f"{workload}: {name} repeats exactly ({a} / {b})")

    knob_env = dict(os.environ, SWOLE_THREADS="2")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "serving-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, env=knob_env, cwd=run.ROOT)
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "run.py refuses to run with a SWOLE_* variable set")

    print(f"\n{failures} failed" if failures else "\nall self-tests passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
