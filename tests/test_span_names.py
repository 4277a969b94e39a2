"""The functions whose calls the benchmark's traced run counts keep their
names. The traced run names a span after the defining module and the
qualified name (`trainer.sequence_context`) and checks the call counts of
these against counts derived from the corpus, so a rename would break that
gate; this test fails first. The names are spelled out here on purpose."""

import importlib
import inspect

import pytest

COUNTED = [
    ("trainer", "sequence_context"),   # one call per training sequence
    ("trainer", "forward_updates"),    # one call per recurrent pair
    ("dataio", "sample_negative"),     # one call per sampled negative
    ("evaluator", "user_metrics"),     # one call per evaluated user
    ("model", "order_candidates"),     # one call per ranking
]


@pytest.mark.parametrize("module,name", COUNTED,
                         ids=[f"{m}.{n}" for m, n in COUNTED])
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
