"""Fixed start-up cost of a seqrank process.

Pinned to one CPU, the first this process may run on, it times fresh
interpreters that run `import numpy`, `import seqrank.cli` and one
`seqrank synth`, `train` (vtrnn, 3 epochs at d = 10) and `eval` (of that
vtrnn checkpoint) on the acceptance planted corpus (200 users x 400
items, 8 clusters, 10-wide features, synth seed 1), and prints the median
wall time of each over the runs, the cases taken in turn each round. It
prints `sys.flags.dont_write_bytecode`, which PYTHONDONTWRITEBYTECODE=1
sets: then no bytecode is cached, and every process compiles each module
it imports. Then it lists the modules that `import seqrank.cli` loads
beyond those of `import numpy`, and the seqrank modules that each command
loads.

    python tools/startup.py [--runs 21]

It measures the `seqrank` of the checkout it lives in: every child gets
that checkout's `src` first on PYTHONPATH, whatever the working
directory. The corpus and checkpoint go to a temporary directory, removed
at the end.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
PLANTED = dict(users=200, items=400, clusters=8, seq_len=20, f_dim_visual=10,
               f_dim_textual=10, noise_sigma=0.3, seed=1)
ADDED = ("import sys, numpy; before = set(sys.modules); import seqrank.cli; "
         "print('\\n'.join(sorted(set(sys.modules) - before)))")
# runs one command, then prints, last, the seqrank modules it loaded
LOADED = ("import sys; from seqrank import cli; cli.main(sys.argv[1:]); "
          "print(*sorted(m for m in sys.modules if m.startswith('seqrank.')))")


def run(env, *args, capture=False) -> str:
    proc = subprocess.run([sys.executable, *args], env=env, check=True,
                          stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                          text=True)
    return proc.stdout


def wall(env, args) -> float:
    start = time.perf_counter()
    run(env, *args)
    return time.perf_counter() - start


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=21)
    args = ap.parse_args()
    # the children inherit this process's one-CPU affinity
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="seqrank-startup-") as tmp:
        data = {name: os.path.join(tmp, "data", f"{name}.tsv")
                for name in ("sequences", "visual", "textual")}
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"kind": "vtrnn", "data": data, "train": {"epochs": 3},
                       "synth": PLANTED}, fh)
        run(env, "-m", "seqrank", "synth", "--config", cfg,
            "--out", os.path.join(tmp, "data"))
        run(env, "-m", "seqrank", "train", "--config", cfg, "--out", tmp)
        commands = {
            "synth": ["synth", "--config", cfg,
                      "--out", os.path.join(tmp, "synth")],
            "train": ["train", "--config", cfg,
                      "--out", os.path.join(tmp, "train")],
            "eval": ["eval", os.path.join(tmp, "vtrnn.ckpt"), "--config", cfg,
                     "--out", os.path.join(tmp, "eval")],
        }
        cases = {"import numpy": ["-c", "import numpy"],
                 "import seqrank.cli": ["-c", "import seqrank.cli"]}
        for name, argv in commands.items():
            what = "planted" if name == "synth" else "planted vtrnn"
            cases[f"seqrank {name} ({what})"] = ["-m", "seqrank", *argv]
        times = {name: [] for name in cases}
        for _ in range(args.runs):
            for name, case in cases.items():
                times[name].append(wall(env, case))
        loaded = {name: run(env, "-c", LOADED, *argv,
                            capture=True).splitlines()[-1].split()
                  for name, argv in commands.items()}
    print(f"median wall over {args.runs} runs, pinned to one CPU "
          f"(Python {sys.version.split()[0]}, "
          f"dont_write_bytecode={sys.flags.dont_write_bytecode}):")
    for name, ts in times.items():
        print(f"  {name:<32} {1e3 * statistics.median(ts):7.1f} ms")
    print("modules `import seqrank.cli` adds beyond `import numpy`:")
    print("  " + " ".join(run(env, "-c", ADDED, capture=True).split()))
    print("seqrank modules each command loads:")
    for name, modules in loaded.items():
        print(f"  {name:<6} " + " ".join(m.removeprefix("seqrank.")
                                         for m in modules))


if __name__ == "__main__":
    main()
