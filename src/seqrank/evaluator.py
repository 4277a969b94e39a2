"""Ranked-retrieval metrics, AUC, and frequency-bin cold-start analysis.

Per-user rankings come from any object with .rank(u) returning (item, score)
pairs sorted descending. Users are scored one after another, and aggregation
is a fixed-order mean over evaluable users.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import Corpus
from .errors import ConfigError, EmptyCorpusError


@dataclass(frozen=True)
class EvalConfig:
    cutoffs: tuple = (10, 30, 50)
    bins: tuple = (1, 2, 4, 8, 16, 32, 64, 128, 256)

    def __post_init__(self):
        problems = []
        if not self.cutoffs:
            problems.append("cutoffs must be nonempty")
        if any(k < 1 for k in self.cutoffs):
            problems.append("cutoffs must be positive")
        if list(self.cutoffs) != sorted(set(self.cutoffs)):
            problems.append("cutoffs must be strictly increasing")
        if any(b < 1 for b in self.bins):
            problems.append("bins must be positive")
        if list(self.bins) != sorted(set(self.bins)):
            problems.append("bin bounds must be strictly increasing")
        if problems:
            raise ConfigError("; ".join(problems))


# ---------------------------------------------------------------------------
# per-user metrics

def recall_precision_at_k(ranked: list, relevant: set, k: int):
    hits = sum(1 for it in ranked[:k] if it in relevant)
    return hits / len(relevant), hits / k


def map_at_k(ranked: list, relevant: set, k: int) -> float:
    """Average precision at k, normalized by min(k, |relevant|)."""
    hits, ap = 0, 0.0
    for j, it in enumerate(ranked[:k], start=1):
        if it in relevant:
            hits += 1
            ap += hits / j
    return ap / min(k, len(relevant))


def ndcg_at_k(ranked: list, relevant: set, k: int) -> float:
    """Binary-relevance NDCG with 1/log2(rank+1) discounts."""
    dcg = sum(1.0 / math.log2(j + 1)
              for j, it in enumerate(ranked[:k], start=1) if it in relevant)
    idcg = sum(1.0 / math.log2(j + 1)
               for j in range(1, min(k, len(relevant)) + 1))
    return dcg / idcg


def midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ascending ranks with tied values sharing their average rank."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    svals = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and svals[j + 1] == svals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def auc_from_scores(scores: np.ndarray, rel_mask: np.ndarray) -> float:
    """Fraction of (relevant, non-relevant) pairs scored in the right order,
    ties worth half, via the rank-sum identity."""
    n_rel = int(rel_mask.sum())
    n_neg = scores.size - n_rel
    ranks = midranks(scores)
    u_stat = float(ranks[rel_mask].sum()) - n_rel * (n_rel + 1) / 2.0
    return u_stat / (n_rel * n_neg)


# ---------------------------------------------------------------------------
# corpus-level evaluation

@dataclass
class EvalReport:
    kind: str
    cutoffs: tuple
    per_cutoff: dict          # k -> {"recall","precision","map","ndcg"}
    auc: float
    users_evaluated: int
    auc_skipped: int          # users with no (relevant, non-relevant) pair

    def to_json_dict(self) -> dict:
        return {"kind": self.kind,
                "users_evaluated": self.users_evaluated,
                "auc": self.auc,
                "auc_skipped": self.auc_skipped,
                "cutoffs": {str(k): dict(self.per_cutoff[k])
                            for k in self.cutoffs}}

    def csv_rows(self) -> list:
        rows = [("ranker", "metric", "k", "value", "value_x100")]
        for k in self.cutoffs:
            for m in ("recall", "precision", "map", "ndcg"):
                v = self.per_cutoff[k][m]
                rows.append((self.kind, m, str(k), repr(v), f"{100.0 * v:.4f}"))
        rows.append((self.kind, "auc", "", repr(self.auc),
                     f"{100.0 * self.auc:.4f}"))
        return rows


def user_metrics(ranker, corpus: Corpus, cfg: EvalConfig, u: str) -> dict:
    ranking = ranker.rank(u)
    ids = [it for it, _ in ranking]
    rel = set(corpus.test_seq[u])
    row = {"ranked": ids}
    for k in cfg.cutoffs:
        r, p = recall_precision_at_k(ids, rel, k)
        row[k] = (r, p, map_at_k(ids, rel, k), ndcg_at_k(ids, rel, k))
    if 1 <= len(rel) < len(ids):
        scores = np.array([s for _, s in ranking])
        rel_mask = np.array([it in rel for it in ids])
        row["auc"] = auc_from_scores(scores, rel_mask)
    else:
        row["auc"] = None
    return row


def evaluate(ranker, corpus: Corpus, cfg: EvalConfig,
             keep_rankings: bool = False):
    """Aggregate metrics over every user with a nonempty filtered test set.
    With keep_rankings, also returns {user: ranked id list} for reuse by the
    cold-start analysis."""
    users = corpus.eval_users()
    if not users:
        raise EmptyCorpusError("no users have test items to evaluate")
    rows = [user_metrics(ranker, corpus, cfg, u) for u in users]

    per_cutoff = {}
    for k in cfg.cutoffs:
        sums = [0.0, 0.0, 0.0, 0.0]
        for row in rows:
            for m in range(4):
                sums[m] += row[k][m]
        per_cutoff[k] = {"recall": sums[0] / len(rows),
                         "precision": sums[1] / len(rows),
                         "map": sums[2] / len(rows),
                         "ndcg": sums[3] / len(rows)}
    aucs = [row["auc"] for row in rows if row["auc"] is not None]
    if not aucs:
        raise EmptyCorpusError("no user has both relevant and non-relevant candidates")
    report = EvalReport(getattr(ranker, "kind", "?"), tuple(cfg.cutoffs),
                        per_cutoff, sum(aucs) / len(aucs), len(rows),
                        len(rows) - len(aucs))
    if keep_rankings:
        return report, {u: row["ranked"] for u, row in zip(users, rows)}
    return report


# ---------------------------------------------------------------------------
# cold-start bins

def test_frequencies(corpus: Corpus) -> dict:
    """Occurrences of each item across the filtered per-user test sets."""
    freq = {}
    for u in corpus.users:
        for it in corpus.test_seq.get(u, []):
            freq[it] = freq.get(it, 0) + 1
    return freq


@dataclass
class ColdStartReport:
    k: int
    bin_labels: list                  # "1-b" per bound, then "all"
    bin_users: list                   # evaluable users per bin
    recalls: dict = field(default_factory=dict)   # ranker -> per-bin values
    growth: dict = field(default_factory=dict)    # "A_over_B" -> per-bin values

    def to_json_dict(self) -> dict:
        return {"k": self.k, "bins": list(self.bin_labels),
                "bin_users": list(self.bin_users),
                "recalls": {name: list(v) for name, v in self.recalls.items()},
                "growth": {name: list(v) for name, v in self.growth.items()}}

    def csv_rows(self) -> list:
        rows = [("ranker", "bin", f"recall_at_{self.k}", "users")]
        for name, vals in self.recalls.items():
            for label, v, n in zip(self.bin_labels, vals, self.bin_users):
                rows.append((name, label,
                             "undefined" if v is None else repr(v), str(n)))
        for name, vals in self.growth.items():
            for label, v in zip(self.bin_labels, vals):
                rows.append((f"growth:{name}", label,
                             "undefined" if v is None else repr(v), ""))
        return rows


def cold_start_bins(corpus: Corpus, rankings: dict, k: int, bins: tuple,
                    pairs: list | None = None) -> ColdStartReport:
    """Recall@k restricted to test items of bounded test-set frequency.

    rankings maps ranker name -> {user: ranked id list}. Each finite bin
    [1, b] keeps only relevant items occurring <= b times; users left with
    no relevant item are skipped in that bin. The final bin is the whole
    test set and reproduces the unrestricted recall exactly. Growth of A
    over B is (rA - rB)/rB, undefined where rB is 0."""
    users = corpus.eval_users()
    if not users:
        raise EmptyCorpusError("no users have test items")
    freq = test_frequencies(corpus)
    bounds = list(bins) + [None]
    labels = [f"1-{b}" for b in bins] + ["all"]

    rel_by_bin = []
    for b in bounds:
        per_user = {}
        for u in users:
            rel = set(corpus.test_seq[u]) if b is None else {
                it for it in corpus.test_seq[u] if freq[it] <= b}
            if rel:
                per_user[u] = rel
        rel_by_bin.append(per_user)

    report = ColdStartReport(k, labels, [len(pu) for pu in rel_by_bin])
    for name, ranked_by_user in rankings.items():
        vals = []
        for per_user in rel_by_bin:
            if not per_user:
                vals.append(None)
                continue
            total = 0.0
            for u in users:
                if u in per_user:
                    r, _ = recall_precision_at_k(ranked_by_user[u], per_user[u], k)
                    total += r
            vals.append(total / len(per_user))
        report.recalls[name] = vals

    for a, b in pairs or []:
        if a not in rankings or b not in rankings:
            raise ConfigError(f"growth pair ({a!r}, {b!r}) not among rankers "
                              f"{sorted(rankings)}")
        out = []
        for ra, rb in zip(report.recalls[a], report.recalls[b]):
            if ra is None or rb is None or rb == 0.0:
                out.append(None)
            else:
                out.append((ra - rb) / rb)
        report.growth[f"{a}_over_{b}"] = out
    return report
