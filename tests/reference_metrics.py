"""Brute-force reference metrics, kept deliberately naive.

Explicit loops over list positions and candidate pairs, nothing shared
with the package code. The metric tests treat these as ground truth.
"""

import math


def hit_positions(ranked, relevant, k):
    return [pos for pos, item in enumerate(ranked[:k], start=1)
            if item in relevant]


def recall_ref(ranked, relevant, k):
    return len(hit_positions(ranked, relevant, k)) / len(relevant)


def precision_ref(ranked, relevant, k):
    return len(hit_positions(ranked, relevant, k)) / k


def average_precision_ref(ranked, relevant, k):
    total = 0.0
    for n_seen, pos in enumerate(hit_positions(ranked, relevant, k), start=1):
        total += n_seen / pos
    return total / min(k, len(relevant))


def ndcg_ref(ranked, relevant, k):
    gain = 0.0
    for pos in hit_positions(ranked, relevant, k):
        gain += 1.0 / math.log2(pos + 1)
    best = 0.0
    for pos in range(1, min(k, len(relevant)) + 1):
        best += 1.0 / math.log2(pos + 1)
    return gain / best


def auc_ref(scores, rel_flags):
    """Exhaustive count over (relevant, non-relevant) pairs, ties worth 0.5."""
    pos = [s for s, r in zip(scores, rel_flags) if r]
    neg = [s for s, r in zip(scores, rel_flags) if not r]
    good = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                good += 1.0
            elif sp == sn:
                good += 0.5
    return good / (len(pos) * len(neg))


def cold_start_ref(users, test_ids, ranked, k, bins):
    """(users per bin, recall@k per bin) of the cold-start analysis, bin by
    bin: a bin with bound b keeps the test items that occur at most b times
    over all test sets, the last bin keeps every test item; a user with no
    kept item is skipped; recall is averaged over the rest, None if none."""
    freq = {}
    for u in users:
        for item in test_ids.get(u, []):
            freq[item] = freq.get(item, 0) + 1
    bin_users, recalls = [], []
    for b in list(bins) + [max(freq.values())]:
        total, n_users = 0.0, 0
        for u in users:
            kept = [item for item in test_ids.get(u, []) if freq[item] <= b]
            if not kept:
                continue
            hits = 0
            for item in ranked[u][:k]:
                if item in kept:
                    hits += 1
            total += hits / len(kept)
            n_users += 1
        bin_users.append(n_users)
        recalls.append(total / n_users if n_users else None)
    return bin_users, recalls
