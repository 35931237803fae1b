"""The split search scores only the cuts at class boundaries; on any node
it must pick the split that scoring every cut picks, count the rows that
go left, and write the node's rows back with those rows first."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from test_forest import reference_tree
from trifault import forest


@st.composite
def node_batches(draw):
    """One to three nodes scored in one call: (X, codes) blocks of a few
    rows on a coarse grid, so values repeat, with classes that mostly
    follow the first feature, so that one-class stretches and mixed value
    groups both occur. Also the class count, m_try and the leaf limit."""
    n_features = draw(st.integers(1, 3))
    n_classes = draw(st.integers(2, 8))
    m_try = draw(st.integers(1, n_features))
    min_leaf = draw(st.integers(1, 3))
    nodes = []
    for _ in range(draw(st.integers(1, 3))):
        n_rows = draw(st.integers(2, 30))
        grid = draw(st.integers(1, 6))
        cells = st.integers(0, grid)
        X = np.array(draw(st.lists(cells, min_size=n_rows * n_features, max_size=n_rows * n_features)))
        X = X.reshape(n_rows, n_features) / grid
        noise = st.integers(-1, n_classes - 1)  # -1: the class the first feature gives
        drawn = np.array(draw(st.lists(noise, min_size=n_rows, max_size=n_rows)))
        codes = np.where(drawn < 0, (X[:, 0] * grid).astype(np.intp) % n_classes, drawn)
        nodes.append((X, codes, draw(st.integers(0, 2**32 - 1))))
    return nodes, n_classes, m_try, min_leaf


@settings(max_examples=400, deadline=None)
@given(node_batches())
def test_best_splits_match_scoring_every_cut(batch):
    nodes, n_classes, m_try, min_leaf = batch
    n_features = nodes[0][0].shape[1]
    X = np.concatenate([X for X, _, _ in nodes])
    codes = np.concatenate([codes for _, codes, _ in nodes])
    n_node = np.array([len(c) for _, c, _ in nodes])
    lo = np.cumsum(n_node) - n_node
    # node k owns the bag range lo[k] .. lo[k] + n_node[k] - 1: a draw with
    # replacement from its own rows, in no particular order
    samples = [
        np.random.default_rng([seed, 1]).integers(0, len(c), len(c)) for _, c, seed in nodes
    ]
    bag = np.concatenate([start + sample for start, sample in zip(lo, samples)])
    counts = np.array([
        np.bincount(codes[start + sample], minlength=n_classes) for start, sample in zip(lo, samples)
    ])
    feats = np.array([
        np.sort(np.random.default_rng(seed).choice(n_features, m_try, replace=False))
        if m_try < n_features else np.arange(n_features)
        for _, _, seed in nodes
    ])
    presort = forest._presort(X, codes)
    written = bag.copy()
    feature, threshold, n_left, left = forest._best_splits(
        presort, written, lo, n_node, counts, feats, min_leaf
    )
    for k, (X_k, codes_k, seed) in enumerate(nodes):
        # the reference scores the root over every cut; max_depth 1 stops there
        root = reference_tree(
            X_k, codes_k, samples[k], n_classes, m_try, 1, min_leaf, np.random.default_rng(seed),
        )[0]
        assert (feature[k], threshold[k]) == root[:2]
        rows = written[lo[k] : lo[k] + n_node[k]]
        assert np.array_equal(np.sort(rows), np.sort(bag[lo[k] : lo[k] + n_node[k]]))
        if feature[k] < 0:
            assert n_left[k] == 0 and not left[k].any()
            continue
        # the node's rows that go left, their class counts, and the bag
        # range written back with them first
        goes_left = X[rows, feature[k]] <= threshold[k]
        assert n_left[k] == np.count_nonzero(goes_left)
        assert np.array_equal(left[k], np.bincount(codes[rows[goes_left]], minlength=n_classes))
        assert goes_left[: n_left[k]].all() and not goes_left[n_left[k] :].any()
