"""AUC of mf, bpr, vtbpr, rnn and vtrnn over 10 seeds of the planted corpus.

Each seed s (1..10) generates the acceptance planted corpus (200 users x
400 items, 8 clusters, 10-wide features) as `seqrank synth` does with
seed s, trains mf, bpr and vtbpr for 4 and for 30 epochs, as the
benchmark's `ladder` workload does, and rnn and vtrnn for 3 and for 30,
as its `planted` workload does, each with d = 10, model seed 7 and the
default `Hyper` at the kind's step size from `model.ALPHA_BY_KIND`, the
one the CLI trains it at; nothing else is tuned per kind. It records the
test AUC of `evaluate`. The run is deterministic, so two runs of one
checkout write the same file.

    python tools/quality_auc.py --out after.json
    python tools/quality_auc.py --compare before.json after.json

The first form writes {"<kind>@<epochs>": {"<seed>": auc}}; run it once
per checkout, with that checkout's copy of this file. It measures the
`seqrank` of the checkout it lives in, whose `src` it puts first on
`sys.path`, whatever the working directory or PYTHONPATH. The second
prints a Markdown table of the means and the per-seed differences
(after - before) of two such files, rounded to 3 decimals, with each
run's largest |after - before| over the seeds in scientific notation (a
change that moves AUCs only in the 5th digit shows there, not in the
rounded diffs), then how many seeds hold vtrnn > rnn in each file at
each epoch count.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

SEEDS = range(1, 11)
RUNS = (("mf", 4), ("bpr", 4), ("vtbpr", 4), ("mf", 30), ("bpr", 30),
        ("vtbpr", 30), ("rnn", 3), ("vtrnn", 3), ("rnn", 30), ("vtrnn", 30))
PLANTED = dict(users=200, items=400, clusters=8, seq_len=20, f_dim_visual=10,
               f_dim_textual=10, noise_sigma=0.3)
MODEL_SEED = 7


def measure() -> dict:
    import numpy as np

    from seqrank.baselines import build_ranker
    from seqrank.dataio import SynthSpec, synth_corpus
    from seqrank.evaluator import evaluate
    from seqrank.model import ALPHA_BY_KIND, Hyper
    from seqrank.settings import EvalConfig, TrainConfig

    out = {f"{kind}@{epochs}": {} for kind, epochs in RUNS}
    for seed in SEEDS:
        corpus, feats = synth_corpus(SynthSpec(**PLANTED, seed=seed),
                                     np.random.default_rng(seed))
        for kind, epochs in RUNS:
            h = Hyper(d=10, alpha=ALPHA_BY_KIND[kind])
            ranker = build_ranker(kind, corpus, feats, h,
                                  TrainConfig(epochs=epochs, seed=MODEL_SEED))
            report, _ = evaluate(ranker, corpus, EvalConfig())
            out[f"{kind}@{epochs}"][str(seed)] = report.auc
            print(f"seed {seed} {kind}@{epochs} auc {report.auc:.4f}",
                  file=sys.stderr)
    return out


def compare(before: dict, after: dict) -> str:
    seeds = [str(s) for s in SEEDS]
    rows = ["| run | mean before | mean after | mean diff | diffs, seeds "
            f"{seeds[0]}-{seeds[-1]} | largest abs diff | seeds higher |",
            "|---|---|---|---|---|---|---|"]
    for kind, epochs in RUNS:
        run = f"{kind}@{epochs}"
        diffs = [after[run][s] - before[run][s] for s in seeds]
        rows.append(f"| `{run}` | {statistics.mean(before[run].values()):.4f} "
                    f"| {statistics.mean(after[run].values()):.4f} "
                    f"| {statistics.mean(diffs):+.4f} "
                    f"| {' '.join(f'{d:+.3f}' for d in diffs)} "
                    f"| {max(abs(d) for d in diffs):.1e} "
                    f"| {sum(d > 0 for d in diffs)}/{len(diffs)} |")
    rows.append("")
    for epochs in (3, 30):
        a, b = f"vtrnn@{epochs}", f"rnn@{epochs}"
        held = [sum(run[a][s] > run[b][s] for s in seeds)
                for run in (before, after)]
        rows.append(f"`{a} > {b}`: before {held[0]}/{len(seeds)} seeds, "
                    f"after {held[1]}/{len(seeds)}")
    return "\n".join(rows)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write the AUCs of this checkout here")
    group.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = p.parse_args(argv)
    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                loaded.append(json.load(fh))
        print(compare(*loaded))
        return 0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(measure(), fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
