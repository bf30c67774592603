#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the server (tools/hopi_serve) and the load driver from source,
runs one workload against the server, and prints the driver's output;
the last line is the result object.

    python3 perfbench/run.py --workload reach --seed 1 --seconds 12 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; traces of --trace 1 runs and
the server logs go next to it. Exits non-zero without printing a result
when the repository sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reach", "path")
RUN_TIMEOUT_S = 175


def source_digest():
    """SHA-256 over the sources the benchmark builds: identifies the code
    under test where no git metadata is available."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "hopi_serve", "perfbench_driver"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(f"perfbench: build failed; see {log_path}\n")
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not ((ROOT / "src" / "CMakeLists.txt").is_file()
            and (ROOT / "tools" / "hopi_serve.cc").is_file()):
        sys.stderr.write("perfbench: repository sources not found next to "
                         "perfbench/; run from a full checkout\n")
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not build(build_dir):
        return 1
    trace_dir = build_dir / "runs"
    trace_dir.mkdir(exist_ok=True)

    cmd = [str(build_dir / "perfbench_driver"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--server", str(build_dir / "hopi" / "tools" / "hopi_serve"),
           "--trace_dir", str(trace_dir),
           "--git_sha", git_sha(),
           "--source_digest", source_digest()]
    proc = subprocess.Popen(cmd, cwd=str(ROOT))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The server child dies with the driver (PR_SET_PDEATHSIG).
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run timed out\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
