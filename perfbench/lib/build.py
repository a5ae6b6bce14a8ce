"""Builds the benchmark's binaries from the checkout's sources."""

import os
import shutil
import subprocess
import sys

from .procs import BenchError

TARGETS = ("gnumapd", "gnumap_index_cli", "perfbench_harness")


def build(root):
    """Configures (once) and builds into $CARGO_TARGET_DIR or .bench_build.

    Returns the build directory.  Build output goes to stderr so standard
    output keeps only the result line.
    """
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    source = os.path.join(root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  *TARGETS])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                timeout=840)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return build_dir
