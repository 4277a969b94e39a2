"""Ranked-retrieval metrics, AUC, and frequency-bin cold-start analysis.

Per-user rankings come from any object with .rank(u) returning (item id,
score) pairs sorted descending; those pairs are the one place the
evaluator meets item ids. `user_metrics` is the one place a ranking meets
the user's test rows: it reads the ranking once, for its id list, looks
up each test row's id in it and records the (ranked position, row) of
every relevant item the ranking holds. All the metrics come from those
positions: `cutoff_metrics` reads every cutoff metric from running sums
over them in rank order, with discounts cached per length, and AUC reads
only the tie groups around them, found by walking to equal-score
neighbours, which needs neither a second sort nor a score array. Users
are scored one after another, and aggregation is a fixed-order mean over
evaluable users. `evaluate` returns the report with each user's top-k hit
rows (the relevant items ranked within `coldstart_k`, in rank order), all
that `cold_start_bins` reads, so evaluation holds at most min(k, test
items) rows per user. Test frequencies are one `bincount` over the test
rows; `cold_start_bins` compares the frequencies of each user's relevant
rows, and of each ranker's hit rows, with all bin bounds in one array
operation.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .dataio import Corpus
from .errors import ConfigError, EmptyCorpusError
from .settings import EvalConfig


# ---------------------------------------------------------------------------
# per-user metrics

METRICS = ("recall", "precision", "map", "ndcg")  # order of cutoff_metrics' tuples


@lru_cache(maxsize=None)
def _discounts(kmax: int) -> tuple:
    """(1/log2(rank+1) discounts of ranks 1..kmax, their running sums),
    shared by every ranking whose sums fit in kmax."""
    # math.log2 because np.log2 differs from it in the last bit for some ranks
    disc = tuple(1.0 / math.log2(j + 1) for j in range(1, kmax + 1))
    return disc, tuple(accumulate(disc))


def cutoff_metrics(pos: list, n_rel: int, cutoffs) -> dict:
    """k -> (recall, precision, MAP, NDCG) at each cutoff, from the
    ascending 0-based positions `pos` of a ranking's relevant entries and
    its user's number of relevant items. All four are running sums over
    the hits in rank order, advanced at each cutoff past the hits ranked
    within it, so the work grows with the hits and cutoffs, not with the
    ranking; a ranking shorter than k holds no hit past its end. MAP is
    normalized by min(k, n_rel), NDCG uses 1/log2(rank+1) discounts."""
    need = min(max(cutoffs), max(pos[-1] + 1 if pos else 0, n_rel))
    # a power-of-two table, so rankings of many lengths share a few entries
    disc, idcg = _discounts(1 << (need - 1).bit_length())
    n_hit, ap, dcg = 0, 0.0, 0.0
    out = {}
    for k in cutoffs:
        while n_hit < len(pos) and pos[n_hit] < k:
            p = pos[n_hit]
            n_hit += 1
            ap += n_hit / (p + 1)
            dcg += disc[p]
        best = min(k, n_rel)
        out[k] = (n_hit / n_rel, n_hit / k, ap / best, dcg / idcg[best - 1])
    return out


def auc_from_scores(ranking: list, pos: list) -> float:
    """Fraction of (relevant, non-relevant) pairs scored in the right order,
    ties worth half, via the rank-sum identity. `ranking` is (id, score)
    pairs in descending score order and `pos` the ascending positions of
    its relevant entries. Equal scores are adjacent, so a tie group is a
    run [a, b] of positions (a NaN equals nothing: its own group), and
    its ascending midrank is n - (a + b) / 2. The rank sum is kept doubled
    in integers, so it is exact."""
    n, r = len(ranking), len(pos)
    twice, a, b = 0, 0, -1
    for p in pos:
        if p > b:  # not in the last relevant entry's group: find its own
            s = ranking[p][1]
            a = b = p
            while a > 0 and ranking[a - 1][1] == s:
                a -= 1
            while b + 1 < n and ranking[b + 1][1] == s:
                b += 1
        twice += 2 * n - a - b
    return (twice - r * (r + 1)) / 2 / (r * (n - r))


# ---------------------------------------------------------------------------
# corpus-level evaluation

@dataclass
class EvalReport:
    kind: str
    cutoffs: tuple
    per_cutoff: dict          # k -> {name in METRICS: mean over users}
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
            for m in METRICS:
                v = self.per_cutoff[k][m]
                rows.append((self.kind, m, str(k), repr(v), f"{100.0 * v:.4f}"))
        rows.append((self.kind, "auc", "", repr(self.auc),
                     f"{100.0 * self.auc:.4f}"))
        return rows


def user_metrics(ranker, corpus: Corpus, cfg: EvalConfig, u: str) -> dict:
    ranking = ranker.rank(u)
    ids = list(map(itemgetter(0), ranking))
    rows = corpus.test_rows[u]
    # (ranked position, row) of each relevant item the ranking holds
    found = []
    for row, it in zip(rows.tolist(), corpus.items[rows].tolist()):
        try:
            found.append((ids.index(it), row))
        except ValueError:
            pass
    found.sort()
    pos = [p for p, _ in found]
    out = cutoff_metrics(pos, len(rows), cfg.cutoffs)
    out["hits"] = np.array([row for p, row in found if p < cfg.coldstart_k],
                           dtype=np.intp)
    out["auc"] = auc_from_scores(ranking, pos) if 0 < len(pos) < len(ids) else None
    return out


def evaluate(ranker, corpus: Corpus, cfg: EvalConfig) -> tuple:
    """(report, {user: top-k hit rows}): metrics aggregated over every user
    with a nonempty filtered test set, and the rows of each user's
    relevant items ranked within cfg.coldstart_k, in rank order, all that
    the cold-start analysis reads."""
    users = corpus.eval_users()
    if not users:
        raise EmptyCorpusError("no users have test items to evaluate")
    rows = [user_metrics(ranker, corpus, cfg, u) for u in users]

    # (users, cutoffs, metrics); cumsum adds the users in order, as a loop would
    means = np.cumsum([[row[k] for k in cfg.cutoffs] for row in rows],
                      axis=0)[-1] / len(rows)
    per_cutoff = {k: dict(zip(METRICS, m))
                  for k, m in zip(cfg.cutoffs, means.tolist())}
    aucs = [row["auc"] for row in rows if row["auc"] is not None]
    if not aucs:
        raise EmptyCorpusError("no user has both relevant and non-relevant candidates")
    report = EvalReport(getattr(ranker, "kind", "?"), tuple(cfg.cutoffs),
                        per_cutoff, sum(aucs) / len(aucs), len(rows),
                        len(rows) - len(aucs))
    return report, {u: row["hits"] for u, row in zip(users, rows)}


# ---------------------------------------------------------------------------
# cold-start bins

def test_frequencies(corpus: Corpus) -> np.ndarray:
    """(n_items,) occurrences of each item row across the per-user test
    lists."""
    rows = np.concatenate([corpus.test_rows[u] for u in corpus.users])
    return np.bincount(rows, minlength=corpus.n_items)


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


def check_pairs(pairs: list, names) -> None:
    """ConfigError unless both rankers of every growth pair are in names."""
    for a, b in pairs:
        if a not in names or b not in names:
            raise ConfigError(f"growth pair ({a!r}, {b!r}) not among rankers "
                              f"{sorted(names)}")


def cold_start_bins(corpus: Corpus, hits: dict, cfg: EvalConfig,
                    pairs: list | None = None) -> ColdStartReport:
    """Recall@k, k = cfg.coldstart_k, restricted to test items of bounded
    test-set frequency, over the bounds cfg.bins.

    hits maps ranker name -> {user: hit rows}, the rows of the user's
    relevant items ranked within k that `evaluate` keeps under the same
    cfg. Each finite bin [1, b] keeps only relevant items occurring <= b
    times; users left with no relevant item are skipped in that bin. The
    final bin is the whole test set and reproduces the unrestricted recall
    exactly. Growth of A over B is (rA - rB)/rB, undefined where rB is 0."""
    users = corpus.eval_users()
    if not users:
        raise EmptyCorpusError("no users have test items")
    freq = test_frequencies(corpus)
    # the last bound, the largest test frequency, keeps the whole test set
    bounds = np.array(list(cfg.bins) + [int(freq.max())])
    labels = [f"1-{b}" for b in cfg.bins] + ["all"]

    def per_bin(rows_by_user):
        """(users, bins) counts of each user's rows that each bin keeps."""
        return np.array([(freq[rows_by_user[u], None] <= bounds).sum(axis=0)
                         for u in users])

    n_rel = per_bin(corpus.test_rows)
    has_rel = n_rel > 0
    report = ColdStartReport(cfg.coldstart_k, labels, has_rel.sum(axis=0).tolist())
    for name, hits_by_user in hits.items():
        # recall int hits / int n_rel per (user, bin), 0.0 where the bin
        # skips the user; cumsum adds the users in order, as a loop would
        recall = np.divide(per_bin(hits_by_user), n_rel,
                           out=np.zeros(n_rel.shape), where=has_rel)
        totals = np.cumsum(recall, axis=0)[-1].tolist()
        report.recalls[name] = [t / n if n else None
                                for t, n in zip(totals, report.bin_users)]

    check_pairs(pairs or [], hits)
    for a, b in pairs or []:
        out = []
        for ra, rb in zip(report.recalls[a], report.recalls[b]):
            if ra is None or rb is None or rb == 0.0:
                out.append(None)
            else:
                out.append((ra - rb) / rb)
        report.growth[f"{a}_over_{b}"] = out
    return report
