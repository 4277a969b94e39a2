"""The traced run: per-layer metrics from spans (see tracing.py).

One untraced pass and one traced pass run on the same corpus. Their outputs
must match byte for byte, the span counts must equal counts computed from
the corpus, and the spans, the per-command coverage and the layer table are
written to .bench_out/trace-<workload>/. Self times and counts are totals
over the traced pipeline (every command after synth), except dataio.synth_s,
which comes from a traced synth command.
"""

import json
import os
import shutil

import oracle
from bench import TRACE_ROOT, Bench
from tracing import SpanFile

RECURRENT = ("rnn", "vrnn", "trnn", "vtrnn")
RANKS = ("baselines.RandomRanker.rank", "baselines.PopRanker.rank",
         "baselines.EmbedRanker.rank", "baselines.RecurrentRanker.rank")

# layer metric -> span names whose self time it sums
SELF_TIMES = {
    "trainer.context_s": ("trainer.sequence_context",),
    "trainer.forward_s": ("trainer.forward_updates", "trainer.forward_grad"),
    "trainer.backward_s": ("trainer.backward_pass", "trainer.backward_gradients",
                           "trainer.backward_steps"),
    "trainer.train_self_s": ("trainer.train",),
    "baselines.bpr_train_s": ("baselines.train_content_bpr", "baselines.bpr_mf"),
    "baselines.mf_train_s": ("baselines.train_mf",),
    "baselines.rank_self_s": RANKS,
    "evaluator.evaluate_s": ("evaluator.evaluate",),
    "evaluator.user_metrics_self_s": ("evaluator.user_metrics",),
    "evaluator.auc_s": ("evaluator.auc_from_scores", "evaluator.midranks"),
    "evaluator.topk_s": ("evaluator.recall_precision_at_k", "evaluator.map_at_k",
                         "evaluator.ndcg_at_k"),
    "evaluator.coldstart_bins_s": ("evaluator.cold_start_bins",
                                   "evaluator.test_frequencies"),
    "model.run_sequence_s": ("model.run_sequence",),
    "model.order_candidates_s": ("model.order_candidates",),
    "model.item_rep_matrix_s": ("model.item_rep_matrix",),
    "model.item_input_s": ("model.item_input",),
    "model.step_hidden_s": ("model.step_hidden",),
    "dataio.load_s": ("dataio.parse_sequence_file", "dataio.load_corpus",
                      "dataio.build_corpus", "dataio.split_sequence",
                      "dataio.filter_test_new_items", "dataio.load_features",
                      "dataio.normalize_minmax", "dataio.empty_table"),
    "dataio.align_s": ("dataio.build_feature_store",),
    "dataio.sample_s": ("dataio.sample_negative", "dataio.sample_triples"),
    "checkpoint.save_s": ("checkpoint.save_ranker",),
    "checkpoint.load_s": ("checkpoint.load_ranker", "checkpoint.read_checkpoint"),
}

# layer metric -> span names whose calls it counts
CALLS = {
    "trainer.sequences": ("trainer.sequence_context",),
    "trainer.pair_steps": ("trainer.forward_updates",),
    "baselines.rank_calls": RANKS,
    "evaluator.users_scored": ("evaluator.user_metrics",),
    "model.item_input_calls": ("model.item_input",),
    "dataio.negatives": ("dataio.sample_negative",),
}

UNITS = {name: "s" for name in SELF_TIMES}
UNITS.update({name: "count" for name in CALLS})
UNITS.update({
    "trainer.spans": "count",
    "trainer.us_per_pair": "us",
    "trainer.train_share": "ratio",
    "baselines.train_share": "ratio",
    "evaluator.scoring_share": "ratio",
    "model.candidates_ordered": "count",
    "dataio.synth_s": "s",
    "checkpoint.bytes": "bytes",
    "cli.startup_s": "s",
    "cli.untraced_share": "ratio",
    "bench.tracing_overhead": "ratio",
    "bench.spans": "count",
})


def layer_metrics(files: list, walls: list, synth: SpanFile, untraced_wall: float) -> dict:
    """Per-layer metrics over the traced pipeline's span files; `walls`
    are the matching command wall times measured by the parent."""
    def self_sum(names):
        return sum(f.self_by_name.get(n, 0.0) for f in files for n in names)

    def calls(names):
        return sum(f.count_by_name.get(n, 0) for f in files for n in names)

    def union(names):
        return sum(f.union(names) for f in files)

    def amount(name):
        return sum(f.meta["amounts"].get(name, 0) for f in files)

    wall = sum(walls)
    m = {name: self_sum(names) for name, names in SELF_TIMES.items()}
    m.update({name: calls(names) for name, names in CALLS.items()})
    in_trainer = union(("trainer.train",))
    m["trainer.spans"] = sum(c for f in files for n, c in f.count_by_name.items()
                             if n.startswith("trainer."))
    m["trainer.us_per_pair"] = (1e6 * in_trainer / m["trainer.pair_steps"]
                                if m["trainer.pair_steps"] else 0.0)
    m["trainer.train_share"] = in_trainer / wall
    m["baselines.train_share"] = (union(("baselines.build_ranker",)) - in_trainer) / wall
    m["evaluator.scoring_share"] = union(("evaluator.evaluate",
                                          "evaluator.cold_start_bins")) / wall
    m["model.candidates_ordered"] = amount("model.order_candidates")
    m["dataio.synth_s"] = sum(t for n, t in synth.self_by_name.items()
                              if n.startswith("dataio."))
    m["checkpoint.bytes"] = (amount("checkpoint.save_ranker")
                             + amount("checkpoint.read_checkpoint"))
    m["cli.startup_s"] = sum(f.meta["startup_s"] for f in files)
    m["cli.untraced_share"] = 1.0 - sum(f.root_time for f in files) / wall
    m["bench.tracing_overhead"] = wall / untraced_wall
    m["bench.spans"] = sum(f.dur.size for f in files + [synth])
    return m


def check_counts(bench: Bench, m: dict, stats: oracle.CorpusStats) -> None:
    """Span counts must equal counts derived from the corpus; a wrapper
    installed in the wrong namespace shows up here."""
    recurrent = [(k, e) for k, e in bench.wl.train if k in RECURRENT]
    want = {
        "trainer.pair_steps": sum(stats.pairs_per_epoch(k) * e for k, e in recurrent),
        "trainer.sequences": sum(stats.sequences_per_epoch() * e for _, e in recurrent),
        "dataio.negatives": sum(stats.pairs_per_epoch(k) * e for k, e in bench.wl.train),
        "evaluator.users_scored": len(stats.eval_users) * bench.evaluations(),
        "baselines.rank_calls": len(stats.eval_users) * bench.evaluations(),
        "model.candidates_ordered": stats.candidates_per_evaluation() * bench.evaluations(),
    }
    if not recurrent:
        want["trainer.spans"] = 0
    for name, expected in want.items():
        bench.check(m[name] == expected,
                    f"span count {name} = {m[name]}, corpus says {expected}")


def measure(bench: Bench) -> dict:
    trace_dir = os.path.join(TRACE_ROOT, f"trace-{bench.name}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    data = os.path.join(bench.work, "data")
    if not bench.synth(data).ok:
        return {}
    stats = oracle.CorpusStats(os.path.join(data, "sequences.tsv"))
    out_plain = os.path.join(bench.work, "out_untraced")
    plain = bench.pipeline(data, out_plain)
    if not all(c.ok for c in plain):
        return {}
    synth_spans = os.path.join(trace_dir, "0_synth.npz")
    traced_data = os.path.join(bench.work, "data_traced")
    if not bench.synth(traced_data, synth_spans).ok:
        return {}
    bench.same_files(data, traced_data, "traced synth")
    out_traced = os.path.join(bench.work, "out_traced")
    traced = bench.pipeline(data, out_traced, trace_dir)
    if not all(c.ok for c in traced):
        return {}
    bench.same_files(out_plain, out_traced, "traced pipeline")
    bench.check_eval_report(data, out_plain, stats)

    files = [SpanFile(c.spans) for c in traced]
    m = layer_metrics(files, [c.wall for c in traced], SpanFile(synth_spans),
                      sum(c.wall for c in plain))
    check_counts(bench, m, stats)

    coverage = {c.label: {"wall_s": c.wall, "covered_share": f.root_time / c.wall,
                          "spans": int(f.dur.size)}
                for c, f in zip(traced, files)}
    print("command            wall_s  covered_share  spans")
    for label, row in coverage.items():
        print(f"{label:16s} {row['wall_s']:8.3f} {row['covered_share']:14.4f} {row['spans']:6d}")
    with open(os.path.join(trace_dir, "layers.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": bench.name, "seed": bench.seed,
                   "run_id": files[0].meta["run_id"], "commands": coverage,
                   "metrics": m, "units": UNITS}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return m
