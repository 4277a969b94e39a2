"""Metric values, aggregation, and the frequency-bin analysis."""

import numpy as np
import pytest

from id_corpus import FakeRanker, kept_hits
from reference_metrics import (auc_ref, average_precision_ref, cold_start_ref,
                               ndcg_ref, precision_ref, recall_ref)
from seqrank.baselines import RandomRanker
from seqrank.dataio import build_corpus
from seqrank.errors import ConfigError, EmptyCorpusError
from seqrank.evaluator import (auc_from_scores, cold_start_bins, cutoff_metrics,
                               evaluate, user_metrics)
from seqrank.evaluator import test_frequencies as frequencies_in_test
from seqrank.settings import EvalConfig

NDCG_SINGLE_REL_AT_2 = 0.6309297535714574  # 1/log2(3)


def test_eval_config_validation():
    with pytest.raises(ConfigError) as err:
        EvalConfig(cutoffs=(5, 5), bins=(4, 2))
    msg = str(err.value)
    assert "cutoffs" in msg and "bin bounds" in msg
    with pytest.raises(ConfigError):
        EvalConfig(cutoffs=())
    # a bad coldstart_k is reported along with mistyped cutoffs
    with pytest.raises(ConfigError) as err:
        EvalConfig(cutoffs=(1.5,), coldstart_k=0)
    assert str(err.value) == ("cutoffs and bins must be integers, got [1.5] "
                              "and [1, 2, 4, 8, 16, 32, 64, 128, 256]; "
                              "coldstart_k must be a positive integer, got 0")


def at_k(ranked, relevant, k):
    """(recall, precision, MAP, NDCG) at k of one ranked id list."""
    pos = [j for j, it in enumerate(ranked) if it in relevant]
    return cutoff_metrics(pos, len(relevant), (k,))[k]


def test_recall_precision():
    r, p, _, _ = at_k(["a", "b", "c", "d"], {"a", "c"}, 2)
    assert (r, p) == (0.5, 0.5)
    r, p, _, _ = at_k(["a", "b", "c", "d"], {"a", "c"}, 3)
    assert (r, p) == (1.0, 2.0 / 3.0)


def test_map_values():
    assert at_k(["a", "b", "c", "d"], {"a", "c"}, 4)[2] == \
        pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-15)
    # truncation: second relevant item falls outside k
    assert at_k(["a", "b", "c", "d"], {"a", "c"}, 2)[2] == 0.5
    assert at_k(["b", "a"], {"a"}, 2)[2] == 0.5


def test_ndcg_values():
    assert at_k(["a", "b"], {"a"}, 2)[3] == 1.0
    assert at_k(["b", "a"], {"a"}, 2)[3] == \
        pytest.approx(NDCG_SINGLE_REL_AT_2, abs=1e-15)
    assert at_k(["a", "b", "c"], {"a", "b"}, 3)[3] == 1.0  # perfect prefix


def test_cutoff_beyond_memory_reads_the_last_entry():
    # arrays are sized by the ranking, not by the cutoff
    ranked = ["a", "b", "c", "d"]
    relevant = {"b", "d"}
    k = 10 ** 12
    recall, precision, ap, ndcg = at_k(ranked, relevant, k)
    assert recall == recall_ref(ranked, relevant, k)
    assert precision == precision_ref(ranked, relevant, k)
    assert ap == average_precision_ref(ranked, relevant, k)
    assert ndcg == ndcg_ref(ranked, relevant, k)
    assert cutoff_metrics([], 2, (k,))[k] == \
        (0.0, 0.0, 0.0, 0.0)


def test_auc_from_scores():
    # a ranking in descending score order, and its relevant positions
    ranked = [("a", 3.0), ("b", 2.0), ("c", 1.0)]
    assert auc_from_scores(ranked, [0]) == 1.0
    assert auc_from_scores(ranked, [2]) == 0.0
    # tie counts half
    assert auc_from_scores([("a", 2.0), ("b", 2.0)], [0]) == 0.5


def test_auc_matches_reference_with_ties():
    # tie-heavy rankings: signed zeros (equal to each other), infinities
    rng = np.random.default_rng(11)
    grid = [0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf]
    for n in range(2, 40):
        scores = np.sort(rng.choice(grid, size=n))[::-1]
        rel = np.zeros(n, dtype=bool)
        rel[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = True
        ranking = list(zip(range(n), scores.tolist()))
        assert abs(auc_from_scores(ranking, np.flatnonzero(rel).tolist())
                   - auc_ref(scores.tolist(), rel.tolist())) <= 1e-12


def fake_table():
    return {
        "alice": [("i5", 3.0), ("i4", 2.0), ("i6", 1.0)],
        "bob": [("i1", 3.0), ("i4", 2.0), ("i6", 1.0)],
        "carol": [("i1", 3.0), ("i3", 2.0), ("i6", 1.0)],
    }


def test_user_metrics_row(toy_corpus):
    cfg = EvalConfig(cutoffs=(2,), bins=(1,))
    row = user_metrics(FakeRanker(fake_table()), toy_corpus, cfg, "alice")
    # alice's one relevant item, i4, ranked second
    assert toy_corpus.items[row["hits"]].tolist() == ["i4"]
    recall, precision, ap, ndcg = row[2]
    assert (recall, precision, ap) == (1.0, 0.5, 0.5)
    assert ndcg == pytest.approx(NDCG_SINGLE_REL_AT_2, abs=1e-15)
    assert row["auc"] == 0.5


def test_user_metrics_skips_a_relevant_id_the_ranking_lacks():
    # u's relevant ids are d, e and f; the ranking holds only d, so e and
    # f count as misses past its end, and as no AUC pair
    c = build_corpus({"u": ["a", "b", "c", "d", "e", "f"]},
                     min_len=2, split_frac=0.5)
    relevant = set(c.items[c.test_rows["u"]].tolist())
    assert relevant == {"d", "e", "f"}
    ranking = [("x", 2.0), ("d", 1.0), ("y", 0.5)]
    ranked = [it for it, _ in ranking]
    cfg = EvalConfig(cutoffs=(1, 2, 5), bins=(1,), coldstart_k=2)
    row = user_metrics(FakeRanker({"u": ranking}), c, cfg, "u")
    assert c.items[row["hits"]].tolist() == ["d"]
    refs = (recall_ref, precision_ref, average_precision_ref, ndcg_ref)
    for k in cfg.cutoffs:
        for got, ref in zip(row[k], refs):
            assert abs(got - ref(ranked, relevant, k)) <= 1e-12, (k, ref)
    assert row["auc"] == auc_ref([s for _, s in ranking], [False, True, False])


def test_user_metrics_degenerate_auc():
    # every candidate relevant: no (relevant, non-relevant) pair exists
    c = build_corpus({"u": ["a", "b", "c", "d", "e", "f"]},
                     min_len=2, split_frac=0.5)
    r = RandomRanker(c, seed=0)
    row = user_metrics(r, c, EvalConfig(cutoffs=(2,), bins=(1,)), "u")
    assert row["auc"] is None
    with pytest.raises(EmptyCorpusError, match="non-relevant"):
        evaluate(r, c, EvalConfig(cutoffs=(2,), bins=(1,)))


def test_evaluate_aggregates(toy_corpus):
    cfg = EvalConfig(cutoffs=(2,), bins=(1,))
    report, _ = evaluate(FakeRanker(fake_table()), toy_corpus, cfg)
    assert report.kind == "fake"
    assert report.users_evaluated == 3
    assert report.auc_skipped == 0
    m = report.per_cutoff[2]
    assert m["recall"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert m["precision"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert m["map"] == pytest.approx(0.5, abs=1e-15)
    assert m["ndcg"] == pytest.approx((NDCG_SINGLE_REL_AT_2 + 1.0) / 3.0, abs=1e-15)
    assert report.auc == pytest.approx(0.5, abs=1e-15)


def test_evaluate_short_rankings_match_reference():
    # every ranking is shorter than the largest cutoff, u1 and u2 leave one
    # relevant item out, u3 ranks none of its relevant items, and tied
    # scores pair relevant with non-relevant items
    c = build_corpus({"u1": ["a", "b", "c", "d", "e", "f"],
                      "u2": ["b", "c", "a", "g", "h", "d"],
                      "u3": ["e", "f", "a", "b"]}, min_len=2, split_frac=0.5)
    table = {"u1": [("g", 2.0), ("d", 1.0), ("h", 1.0), ("e", 0.5)],
             "u2": [("h", 3.0), ("e", 3.0), ("g", 0.0)],
             "u3": [("c", 1.0), ("d", 1.0), ("g", 0.5)]}
    cfg = EvalConfig(cutoffs=(1, 3, 10), bins=(1,))
    report, _ = evaluate(FakeRanker(table), c, cfg)
    users = c.eval_users()
    assert len(users) == report.users_evaluated == 3
    assert report.auc_skipped == 1  # u3 has no (relevant, non-relevant) pair
    refs = {"recall": recall_ref, "precision": precision_ref,
            "map": average_precision_ref, "ndcg": ndcg_ref}
    relevant = {u: set(c.items[c.test_rows[u]].tolist()) for u in users}
    for k in cfg.cutoffs:
        for name, ref in refs.items():
            want = sum(ref([it for it, _ in table[u]], relevant[u], k)
                       for u in users) / len(users)
            assert abs(report.per_cutoff[k][name] - want) <= 1e-12, (k, name)
    aucs = [auc_ref([s for _, s in table[u]],
                    [it in relevant[u] for it, _ in table[u]])
            for u in ("u1", "u2")]
    assert abs(report.auc - sum(aucs) / 2) <= 1e-12


def test_evaluate_report_outputs(toy_corpus):
    cfg = EvalConfig(cutoffs=(1, 2), bins=(1,))
    report, _ = evaluate(FakeRanker(fake_table()), toy_corpus, cfg)
    as_json = report.to_json_dict()
    assert set(as_json) == {"kind", "users_evaluated", "auc", "auc_skipped",
                            "cutoffs"}
    assert set(as_json["cutoffs"]) == {"1", "2"}
    rows = report.csv_rows()
    assert rows[0] == ("ranker", "metric", "k", "value", "value_x100")
    assert len(rows) == 1 + 2 * 4 + 1
    assert rows[-1][1] == "auc"


def test_evaluate_requires_eval_users():
    c = build_corpus({"u": ["a", "b", "a"]}, min_len=2, split_frac=0.5)
    assert c.eval_users() == []
    with pytest.raises(EmptyCorpusError, match="no users"):
        evaluate(RandomRanker(c, 0), c, EvalConfig(cutoffs=(1,), bins=(1,)))


def test_keep_rankings(toy_corpus):
    # evaluation keeps the rows of each user's relevant items ranked within
    # coldstart_k, in rank order, and nothing else of the ranking
    _, kept = evaluate(FakeRanker(fake_table()), toy_corpus,
                       EvalConfig(cutoffs=(1,), bins=(1,)))
    assert {u: toy_corpus.items[rows].tolist() for u, rows in kept.items()} == \
        {"alice": ["i4"], "bob": ["i1"], "carol": ["i6"]}

    # "many" tests on h and has 5 candidates, more than k = 3; "few" tests
    # on g and h and has 2, fewer than k
    c = build_corpus({"many": ["a", "b", "g", "h"],
                      "few": ["a", "b", "c", "d", "e", "f", "g", "h"]},
                     min_len=2, split_frac=0.75)
    cfg = EvalConfig(cutoffs=(1,), bins=(1, 2), coldstart_k=3)

    def kept_ids(table):
        _, kept = evaluate(FakeRanker(table), c, cfg)
        return {u: c.items[rows].tolist() for u, rows in kept.items()}

    # h ranked 4th is past k; the short ranking keeps both, in rank order
    assert kept_ids({"many": [("c", 4.0), ("d", 3.0), ("e", 2.0), ("h", 1.0),
                              ("f", 0.0)],
                     "few": [("h", 1.0), ("g", 0.0)]}) == \
        {"many": [], "few": ["h", "g"]}
    # h ranked 3rd is within k; a ranking that lacks g keeps h alone
    assert kept_ids({"many": [("c", 4.0), ("d", 3.0), ("h", 2.0), ("e", 1.0),
                              ("f", 0.0)],
                     "few": [("h", 1.0), ("x", 0.0)]}) == \
        {"many": ["h"], "few": ["h"]}

    # the kept rows give the cold-start recalls of the full rankings
    r = RandomRanker(c, seed=4)
    full = {u: [it for it, _ in r.rank(u)] for u in c.eval_users()}
    assert {u: len(ids) for u, ids in full.items()} == {"many": 5, "few": 2}
    _, kept = evaluate(r, c, cfg)
    test_ids = {u: c.items[c.test_rows[u]].tolist() for u in full}
    bin_users, recalls = cold_start_ref(list(full), test_ids, full, 3, cfg.bins)
    report = cold_start_bins(c, {"A": kept}, cfg)
    assert (report.bin_users, report.recalls["A"]) == (bin_users, recalls)


def by_id(c, freq):
    """{item id: count} of a per-row count array."""
    return dict(zip(c.items.tolist(), freq.tolist()))


def test_test_frequencies(toy_corpus):
    freq = frequencies_in_test(toy_corpus)
    assert freq.shape == (toy_corpus.n_items,)
    assert by_id(toy_corpus, freq) == {"i1": 1, "i2": 0, "i3": 0, "i4": 1,
                                       "i5": 0, "i6": 1}


# ---------------------------------------------------------------------------
# cold-start bins

def cold_world():
    # x* only appear in training; c1/c2 are rare test items, w1 is shared
    raw = {"uA": ["x1", "x2", "c1", "w1"],
           "uB": ["x2", "x3", "c2", "w1"]}
    return build_corpus(raw, min_len=2, split_frac=0.5)


def test_cold_start_hand_values():
    c = cold_world()
    assert by_id(c, frequencies_in_test(c)) == {"c1": 1, "c2": 1, "w1": 2,
                                                "x1": 0, "x2": 0, "x3": 0}
    rankings = {
        "A": {"uA": ["c1", "c2", "w1", "x3"], "uB": ["c1", "c2", "w1", "x1"]},
        "B": {"uA": ["w1", "x3", "c1", "c2"], "uB": ["w1", "c2", "c1", "x1"]},
    }
    cfg = EvalConfig(bins=(1, 2), coldstart_k=2)
    hits = {name: kept_hits(c, ranked, cfg) for name, ranked in rankings.items()}
    rep = cold_start_bins(c, hits, cfg, [("A", "B")])
    assert rep.bin_labels == ["1-1", "1-2", "all"]
    assert rep.bin_users == [2, 2, 2]
    assert rep.recalls["A"] == [1.0, 0.5, 0.5]
    assert rep.recalls["B"] == [0.5, 0.75, 0.75]
    g = rep.growth["A_over_B"]
    assert g[0] == pytest.approx(1.0, abs=1e-15)
    assert g[1] == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert g[2] == g[1]


def test_cold_start_empty_bin_and_zero_growth():
    raw = {"uA": ["x1", "x2", "w1", "w2"],
           "uB": ["x2", "x3", "w1", "w2"]}
    c = build_corpus(raw, min_len=2, split_frac=0.5)
    rankings = {
        "A": {"uA": ["w1", "w2"], "uB": ["w1", "w2"]},
        "B": {"uA": ["x3", "x1"], "uB": ["x1", "x3"]},
    }
    cfg = EvalConfig(bins=(1, 2), coldstart_k=2)
    hits = {name: kept_hits(c, ranked, cfg) for name, ranked in rankings.items()}
    rep = cold_start_bins(c, hits, cfg, [("A", "B")])
    assert rep.bin_users == [0, 2, 2]
    assert rep.recalls["A"] == [None, 1.0, 1.0]
    # empty bin and zero denominator both yield undefined growth
    assert rep.growth["A_over_B"] == [None, None, None]
    rows = rep.csv_rows()
    assert rows[0] == ("ranker", "bin", "recall_at_2", "users")
    assert ("A", "1-1", "undefined", "0") in rows
    assert ("growth:A_over_B", "1-2", "undefined", "") in rows


def test_cold_start_all_bin_equals_plain_recall(toy_corpus):
    k = 2
    r = RandomRanker(toy_corpus, seed=3)
    cfg = EvalConfig(cutoffs=(k,), bins=(1,), coldstart_k=k)
    report, hits = evaluate(r, toy_corpus, cfg)
    cs = cold_start_bins(toy_corpus, {"random": hits}, cfg)
    assert cs.recalls["random"][-1] == report.per_cutoff[k]["recall"]


def test_cold_start_unknown_pair(toy_corpus):
    r = RandomRanker(toy_corpus, seed=3)
    cfg = EvalConfig(cutoffs=(2,), bins=(1,), coldstart_k=2)
    _, hits = evaluate(r, toy_corpus, cfg)
    with pytest.raises(ConfigError, match="growth pair"):
        cold_start_bins(toy_corpus, {"random": hits}, cfg,
                        [("random", "pop")])


def test_cold_start_json_shape():
    c = cold_world()
    cfg = EvalConfig(bins=(1,), coldstart_k=1)
    rep = cold_start_bins(c, {"A": kept_hits(c, {"uA": ["c1"], "uB": ["c2"]}, cfg)},
                          cfg)
    js = rep.to_json_dict()
    assert js["bins"] == ["1-1", "all"]
    assert js["k"] == 1
    assert set(js) == {"k", "bins", "bin_users", "recalls", "growth"}
