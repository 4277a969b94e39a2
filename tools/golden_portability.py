"""The golden tests as a CPU without AVX-512 would run them.

`tests/test_golden.py` pins trained blocks and scores bit for bit, and
those bits depend on the CPU: numpy's `exp`, `log`, `log1p` and `tanh`
round differently on its AVX-512 and AVX2 paths, and OpenBLAS chooses
kernels by core type. This runs that file in a child pytest with

    OPENBLAS_CORETYPE=Haswell                              (AVX2 kernels)
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"

set for the child only, and prints pytest's summary line and the id of
every test that fails. On a CPU that lacks AVX-512 anyway, it shows what
that CPU gives.

    python tools/golden_portability.py

It runs the golden tests of the checkout it lives in, whatever the working
directory. Exit status: 0 when every golden test passes, 1 when some fail,
2 when the child could not start or its pytest did not run the tests.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EMULATED = {"OPENBLAS_CORETYPE": "Haswell",
            "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
ARGV = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "--tb=no", "-rfE", "tests/test_golden.py"]


def main() -> int:
    print(" ".join(f"{k}={v!r}" for k, v in EMULATED.items()))
    try:
        proc = subprocess.run(ARGV, cwd=ROOT, env=dict(os.environ, **EMULATED),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
    except OSError as exc:
        print(f"the child could not start: {exc}")
        return 2
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1):  # pytest's "all passed" and "some failed"
        print(f"the child's pytest exited {proc.returncode} without running "
              f"the golden tests; its last lines:")
        print("\n".join(lines[-20:]))
        return 2
    print(lines[-1].strip("= "))
    for line in lines:
        if line.startswith(("FAILED ", "ERROR ")):
            print("  " + line.split()[1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
