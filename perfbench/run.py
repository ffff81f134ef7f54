#!/usr/bin/env python3
"""Build and run the GraphZeppelin benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-ram --seed 1 --seconds 20 --trace 0

The script builds the Go program in perfbench/ from the source tree it
sits in, runs one workload, and passes its output through; the last line
of standard output is the JSON result. Everything the build and the run
write (Go build cache, binary, scratch state, cached input streams, trace
files) goes under .bench_build/ in the working directory.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("bulk-ram", "outofcore", "refresh")


def source_id(root):
    """The git commit of the tree, or a digest of its Go sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
    })

    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 2

    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-work", os.path.join(build, "work-%d" % os.getpid()),
        "-cache", os.path.join(build, "streams"),
        "-trace-out", os.path.join(build, "traces", "%s-seed%d.json" % (args.workload, args.seed)),
        "-source-id", source_id(root),
    ]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
