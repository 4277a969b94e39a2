"""Corpora written by item id, for tests that state a split by hand:
`id_corpus` maps each id to its row of the given item table, as
`build_corpus` does for the split it computes."""

import numpy as np

from seqrank.dataio import Corpus


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
