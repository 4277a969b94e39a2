"""Corpora and rankings written by item id, for tests that state a split
or a ranking by hand: `id_corpus` maps each id to its row of the given
item table, as `build_corpus` does for the split it computes, and
`kept_hits` reads id rankings through `user_metrics`, as evaluation does."""

import numpy as np

from seqrank.dataio import Corpus
from seqrank.evaluator import user_metrics
from seqrank.settings import EvalConfig


class FakeRanker:
    """A ranker whose rank(u) is table[u]: (id, score) pairs, best first."""
    kind = "fake"

    def __init__(self, table):
        self.table = table

    def rank(self, u):
        return self.table[u]


def id_corpus(users, items, train: dict, test: dict | None = None) -> Corpus:
    """Corpus over `items` (ids by row) whose users train on the id lists
    of `train` and are tested on those of `test`; a user missing from
    either gets an empty list."""
    row = {it: j for j, it in enumerate(items)}

    def rows(ids):
        return np.array([row[it] for it in ids], dtype=np.intp)

    test = test or {}
    return Corpus(tuple(users), np.array(items, dtype=object),
                  {u: rows(train.get(u, [])) for u in users},
                  {u: rows(test.get(u, [])) for u in users})


def kept_hits(corpus: Corpus, ranked: dict, cfg: EvalConfig) -> dict:
    """{user: hit rows} that evaluation keeps under cfg, for every
    evaluable user ranked by the id list ranked[u], best first."""
    ranker = FakeRanker({u: [(it, float(len(ids) - j)) for j, it in enumerate(ids)]
                         for u, ids in ranked.items()})
    return {u: user_metrics(ranker, corpus, cfg, u)["hits"]
            for u in corpus.eval_users()}
