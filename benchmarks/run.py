"""seqrank benchmark: the CLI pipeline synth -> train -> eval -> coldstart.

    python3 benchmarks/run.py --workload planted --seed 1 --seconds 38 --trace 0

Runs from the root of a checkout; nothing needs to be installed. One client
runs one CLI command at a time, each in its own process (a closed loop).
The workload seed goes only to `synth`; the models keep seed 7 and d = 10.

--trace 0 times untraced pipeline passes and prints the end-to-end metrics.
--trace 1 runs one untraced and one traced pass (child.py --trace) and
prints the per-layer metrics; its spans and layer table are written under
.bench_out/trace-<workload>/. Both modes check the program's outputs and
print, as the last line, one JSON object: correct, attempted, failed,
metrics. See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

STARTED = time.perf_counter()

import oracle
from bench import END_TO_END_UNITS, MIN_PASSES, ROOT, SETUPS_PER_PASS, WORKLOADS, Bench

# kept free at the end of --seconds for the last checks, the report and
# removing the work directory
TEARDOWN_S = 1.0


def rates(bench: Bench, walls: dict, stats: oracle.CorpusStats) -> dict:
    """End-to-end rates from per-command wall times {label: seconds}."""
    train = sum(w for label, w in walls.items() if label.startswith("train_"))
    scoring = sum(w for label, w in walls.items() if not label.startswith("train_"))
    pairs = sum(stats.pairs_per_epoch(kind) * epochs for kind, epochs in bench.wl.train)
    users = len(stats.eval_users) * bench.evaluations()
    return {"pipeline_s": train + scoring,
            "train_pairs_per_s": pairs / train,
            "eval_users_per_s": users / scoring}


def measure(bench: Bench, seconds: float) -> dict:
    """Untraced run: passes of (SETUPS_PER_PASS synth commands, then the
    pipeline) until `seconds`, counted from the start of this process, is
    used up, at least MIN_PASSES of them. A pass starts only if one more
    average pass still ends TEARDOWN_S before the deadline. The first
    pass's eval report is checked against the oracle before the next pass
    starts, so the check's cost is inside the time budget. Set-up samples
    are spread over the whole run like the pipeline's, so both see the same
    machine."""
    ref_data = os.path.join(bench.work, "data0")
    passes, setups, ref_out = [], [], os.path.join(bench.work, "out0")
    while True:
        for _ in range(SETUPS_PER_PASS):
            data = os.path.join(bench.work, f"data{len(setups)}")
            setups.append(bench.synth(data))
            if not setups[-1].ok:
                return {}
            if len(setups) > 1:
                bench.same_files(ref_data, data, f"synth repeat {len(setups) - 1}")
                shutil.rmtree(data)
        out = os.path.join(bench.work, f"out{len(passes)}")
        cmds = bench.pipeline(ref_data, out)
        if not all(c.ok for c in cmds):
            return {}
        if passes:
            bench.same_files(ref_out, out, f"pipeline repeat {len(passes)}")
            shutil.rmtree(out)
        else:
            stats = oracle.CorpusStats(os.path.join(ref_data, "sequences.tsv"))
            auc = bench.check_eval_report(ref_data, ref_out, stats)
        passes.append(cmds)
        elapsed = time.perf_counter() - STARTED
        if (len(passes) >= MIN_PASSES
                and elapsed * (1 + 1 / len(passes)) > seconds - TEARDOWN_S):
            break
    for i, cmds in enumerate(passes):
        print(f"pass {i}: " + "  ".join(f"{c.label} {c.wall:.3f}s ({c.scaled:.3f}s scaled)"
                                         for c in cmds))
    # Every timing is a command's scaled time (bench.probe), as the median
    # over the run's samples of that command.
    walls = {c.label: statistics.median(p[j].scaled for p in passes)
             for j, c in enumerate(passes[0])}
    metrics = rates(bench, walls, stats)
    metrics["setup_s"] = statistics.median(c.scaled for c in setups)
    metrics["peak_rss_mb"] = max(c.rss_mb for c in setups + [c for p in passes for c in p])
    metrics["auc"] = auc
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "seqrank", "cli.py")):
        print(f"error: no seqrank sources under {ROOT}/src", file=sys.stderr)
        return 2

    # One CPU for the runner and every command it starts, so that the speed
    # probes run on the CPU whose speed they stand for.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    load_start = os.getloadavg()[0]
    bench = Bench(args.workload, args.seed)
    try:
        if args.trace:
            import traced
            metrics = traced.measure(bench)
            units = traced.UNITS
        else:
            metrics = measure(bench, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    load_end = os.getloadavg()[0]

    if not args.trace:
        metrics["ops_ok_share"] = 1.0 - bench.failed / max(bench.attempted, 1)
    nproc = os.cpu_count() or 1
    print(f"load average (1 min): start {load_start:.2f}  end {load_end:.2f}  nproc {nproc}")
    if max(load_start, load_end) > nproc:
        print(f"warning: load average above nproc ({nproc}); timings are suspect")
    for name, unit in units.items():
        value = metrics.get(name)
        print(f"{name:32s} {'n/a' if value is None else f'{value:.6g}':>14s} {unit}")
    result = {"correct": bench.failed == 0 and set(units) <= set(metrics),
              "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
