#!/usr/bin/env python3
"""Builds and runs the benchmark of record for one workload.

    python3 perfbench/run.py --workload tpch-sf1 --seed 1 --seconds 12 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark binary into .bench_build/ (or $CARGO_TARGET_DIR);
later runs reuse that build. JIT scratch files go to .bench_build/tmp, and the traced
run's span log to .bench_build/spans/. The binary's report lines ("# ...")
are passed through, a host fingerprint line follows them, and the last line
of stdout is the JSON result. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch-sf1", "micro-4m", "serving-mix")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def read(path, default="unavailable"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    cmake_dir = os.path.join(out_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "-j",
                      str(len(os.sched_getaffinity(0)))])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(cmake_dir, "perfbench")


def caches():
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    indexes = os.listdir(base) if os.path.isdir(base) else []
    for index in sorted(i for i in indexes if i.startswith("index")):
        d = os.path.join(base, index)
        level, kind = read(os.path.join(d, "level")), read(os.path.join(d, "type"))
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[name] = read(os.path.join(d, "size"))
    return out


def cpu_model():
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unavailable"


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def build_type(binary):
    cmake_dir = os.path.dirname(binary)
    kind = "?"
    for line in read(os.path.join(cmake_dir, "CMakeCache.txt"), "").splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            kind = line.split("=", 1)[1]
    flags = "?"
    make = os.path.join(cmake_dir, "CMakeFiles", "perfbench.dir", "flags.make")
    for line in read(make, "").splitlines():
        if line.startswith("CXX_FLAGS = "):
            flags = line.split("=", 1)[1].strip()
    return f"{kind} ({flags})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Each SWOLE_* variable changes the program being measured.
    knobs = sorted(k for k in os.environ if k.startswith("SWOLE_"))
    if knobs:
        fail(f"refusing to run with {', '.join(knobs)} set")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")

    out_dir = build_dir()
    binary = build(out_dir)
    tmp_dir = os.path.join(out_dir, "tmp")
    spans_dir = os.path.join(out_dir, "spans")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    fingerprint = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "caches": caches(),
        "thp": read("/sys/kernel/mm/transparent_hugepage/enabled"),
        "perf_event_paranoid": read("/proc/sys/kernel/perf_event_paranoid"),
        "loadavg_start": read("/proc/loadavg"),
        "git_sha": git_sha(), "source_digest": source_digest(),
        "build_type": build_type(binary),
    }
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans-out",
               os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
        if line.startswith("# simd_backend "):
            fingerprint["simd_backend"] = line.split()[-1]
        elif line.startswith("# seq_read_gbps "):
            fingerprint["seq_read_gbps"] = float(line.split()[-1])
    if result is None:
        fail(f"benchmark binary exited with {proc.returncode} and no result", 1)
    fingerprint["loadavg_end"] = read("/proc/loadavg")
    print("# fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
