#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload l1d-matrix --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --refresh-reference

The simulator library is built from ../src together with the perfbench
program into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Build output goes to stderr; the program's last
stdout line is the JSON result.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_digest():
    """SHA-256 over the simulator sources, for the host fingerprint."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def build(out):
    """Configure (once) and build; returns the program's path or None."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "perfbench")


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: simulator sources not found next to perfbench/",
              file=sys.stderr)
        return 1
    out = build_dir()
    exe = build(out)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [exe] + argv + [
        "--reference", os.path.join(HERE, "reference.txt"),
        "--work-dir", os.path.join(out, "work"),
        "--source-digest", source_digest(),
    ]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
