"""Write ENVIRONMENT.json: the machine and toolchain the recorded numbers
come from, and the tier-1 test run on it.

    python3 benchmarks/envinfo.py

Run from the root of a checkout; it runs the tier-1 tests, which take
about a minute. The file is written once, when the benchmark numbers are
recorded; benchmark runs themselves only print the load average at their
start and end.
"""

import ctypes
import json
import os
import platform
import re
import shlex
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def blas_info() -> dict:
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": cfg.get("name"), "version": cfg.get("version"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getattr(handle, sym).restype = ctypes.c_int
                info["threads"] = getattr(handle, sym)()
                return info
    return info


def cpu_model() -> str:
    with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"command": "PYTHONPATH=src " + shlex.join(["python3", *TIER1]),
            "wall_s": round(wall, 1), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "errors": counts.get("error", 0),
            "summary": summary}


def main() -> int:
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": blas_info(), "nproc": os.cpu_count(), "cpu_model": cpu_model(),
           "git_commit": git_commit(), "load_average_1min": os.getloadavg()[0],
           "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "tier1": tier1()}
    path = os.path.join(HERE, "ENVIRONMENT.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(env, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
