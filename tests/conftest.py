import tempfile

import numpy as np
import pytest

from seqrank.dataio import RANGES, FeatureTable, build_corpus, build_feature_store

# four interactions per user, split 0.75 -> 3 train / 1 test, every test
# item unseen in training so nobody gets filtered out
RAW = {
    "alice": ["i1", "i2", "i3", "i4"],
    "bob": ["i2", "i3", "i5", "i1"],
    "carol": ["i5", "i4", "i2", "i6"],
}


def pytest_configure(config):
    """Hypothesis caches constants read from source in its storage
    directory even without an example database, and fills that cache while
    tests are collected; point the directory at a temporary one."""
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:  # only tests/test_properties.py needs Hypothesis
        return
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@pytest.fixture
def toy_corpus():
    return build_corpus(RAW, min_len=2, split_frac=0.75)


@pytest.fixture
def toy_feats(toy_corpus):
    rng = np.random.default_rng(3)
    ids, n = toy_corpus.items.tolist(), toy_corpus.n_items
    tables = {name: FeatureTable(ids, rng.uniform(*limits, (n, 2)))
              for name, limits in RANGES.items()}
    return build_feature_store(toy_corpus, tables)[0]
