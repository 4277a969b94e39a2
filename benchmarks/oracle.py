"""Expected counts and brute-force metrics, computed without seqrank's
evaluator, so the benchmark can check the program's outputs.

The split follows the protocol the README documents: users with at least
`min_len` interactions keep the first ceil(split_frac * n) items for
training; the rest, minus items seen in training and repeats, is the test
set; users with an empty test set are not evaluated.
"""

import math

import numpy as np


class CorpusStats:
    def __init__(self, seq_path: str, min_len: int = 2, split_frac: float = 0.9):
        self.train, self.test = {}, {}
        with open(seq_path, "r", encoding="utf-8") as fh:
            for line in fh:
                user, items = line.rstrip("\n").split("\t")
                seq = items.split(",")
                if len(seq) < min_len:
                    continue
                n_train = math.ceil(split_frac * len(seq))
                train = seq[:n_train]
                seen, test = set(train), []
                for it in seq[n_train:]:
                    if it not in seen:
                        test.append(it)
                        seen.add(it)
                self.train[user] = train
                self.test[user] = test
        self.eval_users = [u for u in self.train if self.test[u]]
        self.n_items = len({it for u in self.train for it in self.train[u] + self.test[u]})

    def pairs_per_epoch(self, kind: str) -> int:
        """Sampled (positive, negative) pairs one training epoch processes:
        one per step t >= 2 of each sequence for the pairwise and recurrent
        models, one per training interaction for mf, none for pop."""
        if kind == "pop":
            return 0
        if kind == "mf":
            return sum(len(s) for s in self.train.values())
        return sum(len(s) - 1 for s in self.train.values() if len(s) >= 2)

    def sequences_per_epoch(self) -> int:
        return sum(1 for s in self.train.values() if len(s) >= 2)

    def candidates_per_evaluation(self) -> int:
        """Length of every ranking one checkpoint evaluation builds: each
        evaluated user ranks every item outside their training set."""
        return sum(self.n_items - len(set(self.train[u])) for u in self.eval_users)


def user_metrics(ranking: list, relevant: set, cutoffs) -> dict:
    """Recall, precision, MAP and NDCG at each cutoff, and AUC over every
    (relevant, non-relevant) pair with ties counted half."""
    ids = [it for it, _ in ranking]
    out = {}
    for k in cutoffs:
        hits = [it in relevant for it in ids[:k]]
        n_hit, ap = 0, 0.0
        for j, hit in enumerate(hits, start=1):
            if hit:
                n_hit += 1
                ap += n_hit / j
        dcg = sum(1.0 / math.log2(j + 1) for j, hit in enumerate(hits, start=1) if hit)
        idcg = sum(1.0 / math.log2(j + 1) for j in range(1, min(k, len(relevant)) + 1))
        out[k] = {"recall": n_hit / len(relevant), "precision": n_hit / k,
                  "map": ap / min(k, len(relevant)), "ndcg": dcg / idcg}
    scores = np.array([s for _, s in ranking])
    is_rel = np.array([it in relevant for it in ids], dtype=bool)
    pos, neg = scores[is_rel], scores[~is_rel]
    if pos.size and neg.size:
        wins = sum(float(np.sum(neg < s)) + 0.5 * float(np.sum(neg == s)) for s in pos)
        out["auc"] = wins / (pos.size * neg.size)
    return out


def report_mismatches(report: dict, ranker, stats: CorpusStats,
                      tol: float = 1e-12) -> list:
    """Recompute an `eval` JSON report from ranker.rank(u) for every
    evaluated user; return one line per value that differs by more than
    `tol` (empty when the report is right)."""
    cutoffs = [int(k) for k in report["cutoffs"]]
    sums = {k: dict.fromkeys(("recall", "precision", "map", "ndcg"), 0.0)
            for k in cutoffs}
    aucs = []
    for u in stats.eval_users:
        row = user_metrics(ranker.rank(u), set(stats.test[u]), cutoffs)
        for k in cutoffs:
            for m in sums[k]:
                sums[k][m] += row[k][m]
        if "auc" in row:
            aucs.append(row["auc"])
    n = len(stats.eval_users)
    expected = {("users_evaluated",): n, ("auc",): sum(aucs) / len(aucs),
                ("auc_skipped",): n - len(aucs)}
    for k in cutoffs:
        for m, total in sums[k].items():
            expected[("cutoffs", str(k), m)] = total / n
    problems = []
    for key, want in expected.items():
        got = report
        for part in key:
            got = got[part]
        if not abs(got - want) <= tol:
            problems.append(f"{'.'.join(key)}: report {got!r}, recomputed {want!r}")
    return problems
