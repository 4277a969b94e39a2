"""The functions whose calls or times the benchmark's traced run reads keep
their names. The traced run names a span after the defining module and the
qualified name (`trainer.sequence_context`). It checks the call counts of
some against counts derived from the corpus, so a rename would break that
gate, and sums the self times of others into a layer metric, which a
rename would leave reading 0; this test fails first. The names are spelled
out here on purpose.
The counts of rank and user_metrics calls that the gate expects are tested
here too."""

import functools
import importlib
import inspect
import json
import sys

import numpy as np
import pytest

from seqrank import cli, dataio, trainer
from seqrank.baselines import RandomRanker, build_ranker
from seqrank.evaluator import EvalConfig, evaluate
from seqrank.model import RECURRENT_KINDS, Hyper

COUNTED = [
    ("trainer", "sequence_context"),   # one call per training sequence
    ("trainer", "forward_updates"),    # one call per recurrent pair
    ("dataio", "sample_negative"),     # one call per sampled negative
    ("evaluator", "user_metrics"),     # one call per evaluated user
    ("model", "order_candidates"),     # one call per ranking
]

# functions whose self time a layer metric sums, or is to sum
TIMED = [
    ("dataio", "build_feature_store"),  # dataio.align_s
    ("model", "item_rep_matrix"),      # model.item_rep_matrix_s
    ("model", "step_hidden"),          # model.step_hidden_s
    ("evaluator", "auc_from_scores"),  # evaluator.auc_s
    ("evaluator", "evaluate"),         # evaluator.evaluate_s
    ("evaluator", "cold_start_bins"),  # evaluator.coldstart_bins_s
    ("evaluator", "test_frequencies"),  # evaluator.coldstart_bins_s
    ("trainer", "train"),              # trainer.train_self_s
    ("baselines", "train_content_bpr"),  # baselines.bpr_train_s
    ("baselines", "train_mf"),         # baselines.mf_train_s
    ("baselines", "build_ranker"),     # baselines.train_share
    # every cutoff metric; evaluator.topk_s still names the per-metric
    # functions it replaced, and is to name this one instead
    ("evaluator", "cutoff_metrics"),
]


@pytest.mark.parametrize("module,name", COUNTED + TIMED,
                         ids=[f"{m}.{n}" for m, n in COUNTED + TIMED])
def test_counted_function_keeps_its_name(module, name):
    fn = getattr(importlib.import_module(f"seqrank.{module}"), name)
    assert inspect.isfunction(fn)
    assert (fn.__module__, fn.__qualname__) == (f"seqrank.{module}", name)


# the live rank methods among those the traced run's `baselines.rank_calls`
# sums (it also names the RecurrentRanker that EmbedRanker absorbed)
RANKERS = ("RandomRanker", "PopRanker", "EmbedRanker")


def test_a_ranker_rank_method_keeps_its_name():
    baselines = importlib.import_module("seqrank.baselines")
    ranks = [cls.__name__ for cls in vars(baselines).values()
             if inspect.isclass(cls) and cls.__module__ == "seqrank.baselines"
             and cls.__name__.endswith("Ranker")
             and inspect.isfunction(vars(cls).get("rank"))]
    assert ranks, "no *Ranker class in baselines defines rank"
    assert set(ranks) <= set(RANKERS), f"rank defined outside {RANKERS}: {ranks}"


# ---------------------------------------------------------------------------
# the call counts themselves: the traced run expects `baselines.rank_calls`
# and `evaluator.users_scored` to be one per evaluated user per evaluation

def count_users(monkeypatch, owner, name, at, seen):
    """Wrap owner.name so each call appends its user (positional arg `at`)
    to seen[name]."""
    fn = getattr(owner, name)

    def counted(*args):
        seen.setdefault(name, []).append(args[at])
        return fn(*args)
    monkeypatch.setattr(owner, name, counted)


def count_scoring(monkeypatch):
    """{"rank": users ranked, "user_metrics": users scored}, in call order,
    filled as the calls are made."""
    baselines = importlib.import_module("seqrank.baselines")
    evaluator = importlib.import_module("seqrank.evaluator")
    seen = {}
    for cls in RANKERS:
        count_users(monkeypatch, getattr(baselines, cls), "rank", 1, seen)
    count_users(monkeypatch, evaluator, "user_metrics", 3, seen)
    return seen


def test_evaluate_ranks_and_scores_each_user_once(monkeypatch, toy_corpus):
    seen = count_scoring(monkeypatch)
    evaluate(RandomRanker(toy_corpus, 0), toy_corpus,
             EvalConfig(cutoffs=(1,), bins=(1,), coldstart_k=1))
    users = toy_corpus.eval_users()
    assert seen == {"rank": users, "user_metrics": users}


def test_coldstart_ranks_and_scores_each_user_once_per_checkpoint(
        monkeypatch, tmp_path):
    synth = {"users": 8, "items": 24, "clusters": 3, "seq_len": 10,
             "f_dim_visual": 2, "f_dim_textual": 2, "noise_sigma": 0.3,
             "seed": 5}
    (tmp_path / "synth.json").write_text(json.dumps({"synth": synth}))
    assert cli.main(["synth", "--config", str(tmp_path / "synth.json"),
                     "--out", str(tmp_path / "data")]) == 0
    data = {"sequences": str(tmp_path / "data" / "sequences.tsv")}
    ckpts = []
    for kind in ("rnn", "pop"):
        cfg = tmp_path / f"{kind}.json"
        cfg.write_text(json.dumps({"kind": kind, "data": data,
                                   "hyper": {"d": 2}, "train": {"epochs": 1}}))
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / kind)]) == 0
        ckpts.append(str(tmp_path / kind / f"{kind}.ckpt"))

    seen = count_scoring(monkeypatch)
    assert cli.main(["coldstart", *ckpts, "--config", str(tmp_path / "rnn.json"),
                     "--out", str(tmp_path / "cs")]) == 0
    users = dataio.load_corpus(data["sequences"], dataio.MIN_LEN,
                               dataio.SPLIT_FRAC).eval_users()
    assert users
    assert seen == {"rank": users * len(ckpts),
                    "user_metrics": users * len(ckpts)}


# ---------------------------------------------------------------------------
# `trainer.spans`, every span of a seqrank.trainer function, is 0 on the
# traced `ladder` run, which trains mf, bpr and vtbpr: their training shares
# `sgd`, which is not traced, and calls nothing in `trainer`

def record_trainer_calls(monkeypatch) -> list:
    """Rebind every public function of seqrank.trainer, in each seqrank
    module that holds it, and every public method of its classes, as the
    traced run does, to a wrapper that appends its name to the list
    returned."""
    called = []

    def noting(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            called.append(fn.__qualname__)
            return fn(*args, **kwargs)
        return wrapper

    def is_trainer_function(obj):
        return inspect.isfunction(obj) and obj.__module__ == trainer.__name__

    for name, mod in list(sys.modules.items()):
        if name.startswith("seqrank."):
            for attr, obj in list(vars(mod).items()):
                if not attr.startswith("_") and is_trainer_function(obj):
                    monkeypatch.setattr(mod, attr, noting(obj))
    for cls in vars(trainer).values():
        if inspect.isclass(cls) and cls.__module__ == trainer.__name__:
            for attr, member in list(vars(cls).items()):
                if not attr.startswith("_") and is_trainer_function(member):
                    monkeypatch.setattr(cls, attr, noting(member))
    return called


@pytest.mark.parametrize("kind", ["mf", "bpr", "vtbpr", "rnn"])
def test_only_recurrent_training_calls_the_trainer(monkeypatch, kind):
    corpus, feats = dataio.synth_corpus(
        dataio.SynthSpec(users=5, items=30, clusters=3, seq_len=6,
                         f_dim_visual=2, f_dim_textual=2, noise_sigma=0.3,
                         seed=2),
        np.random.default_rng(2))
    cfg = trainer.TrainConfig(epochs=1, seed=3)
    called = record_trainer_calls(monkeypatch)
    build_ranker(kind, corpus, feats, Hyper(d=2), cfg)
    # rnn, the control, shows the recorder sees the trainer's calls
    assert bool(called) == (kind in RECURRENT_KINDS), called
