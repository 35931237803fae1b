"""From-scratch forest: splits, determinism, persistence, validation."""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from trifault import forest
from trifault.config import default_class_labels
from trifault.forest import (
    ForestParams,
    ModelFormatError,
    TrainingSet,
    _vote_codes,
    bootstrap_sample,
    cross_validate,
    label_universe_of,
    load_model,
    model_from_lines,
    model_to_lines,
    normalize_apply,
    normalize_fit,
    predict,
    predict_batch,
    save_model,
    stratified_folds,
    train_forest,
    train_tree,
    tree_rng,
)
from trifault.simulate import NO_FAULT, FaultLabel

L0 = NO_FAULT
L1 = FaultLabel.from_switches([1])
L2 = FaultLabel.from_switches([2])

DATA = Path(__file__).parent / "data"


def blob_set(rng, n_per_class=50, spread=0.4):
    X = np.concatenate(
        [rng.normal(loc=3.0 * k, scale=spread, size=(n_per_class, 3)) for k in range(3)]
    )
    y = tuple(lab for lab in (L0, L1, L2) for _ in range(n_per_class))
    return TrainingSet(features=X, labels=y, feature_names=("i_a", "i_b", "i_c"))


def tie_set(rng):
    """Overlapping blobs on a 0.25 grid: many equal values, many equal gains."""
    ts = blob_set(rng, n_per_class=40, spread=1.5)
    return TrainingSet(np.round(ts.features * 4) / 4, ts.labels, ts.feature_names)


# Model files written by trainers that grew one tree at a time, node by
# node: blob_forest_v1.txt before trees were held as node tables, the
# other two just before trees were grown in lockstep blocks. Together they
# pin the feature and threshold tie-breaks, the depth and leaf limits and
# duplicate values.
GOLDEN_MODELS = {
    "blob_forest_v1.txt": (
        lambda: blob_set(np.random.default_rng(20), n_per_class=20, spread=1.2),
        ForestParams(n_trees=4, seed=5),
    ),
    "blob_limits_forest_v1.txt": (
        lambda: blob_set(np.random.default_rng(22), n_per_class=40, spread=1.5),
        ForestParams(n_trees=4, m_try=2, max_depth=5, min_samples_leaf=3, seed=6),
    ),
    "tie_forest_v1.txt": (
        lambda: tie_set(np.random.default_rng(23)),
        ForestParams(n_trees=4, m_try=3, seed=7),
    ),
}


class TestNormalization:
    def test_scaler_is_column_max_abs(self):
        X = np.array([[1.0, -4.0], [-2.0, 3.0]])
        scaler = normalize_fit(X)
        assert np.allclose(scaler, [2.0, 4.0])
        assert np.max(np.abs(normalize_apply(scaler, X))) <= 1.0

    def test_zero_column_maps_to_unit_scale(self):
        X = np.array([[0.0, 5.0], [0.0, -5.0]])
        scaler = normalize_fit(X)
        assert scaler[0] == 1.0
        assert np.allclose(normalize_apply(scaler, X)[:, 0], 0.0)


class TestBootstrap:
    def test_draws_with_replacement_in_range(self):
        rng = np.random.default_rng(0)
        idx = bootstrap_sample(20, 20, rng)
        assert len(idx) == 20
        assert idx.min() >= 0 and idx.max() < 20
        assert len(np.unique(idx)) < 20  # replacement makes duplicates near-certain

    def test_deterministic_under_seeded_rng(self):
        a = bootstrap_sample(50, 50, np.random.default_rng(42))
        b = bootstrap_sample(50, 50, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestTrainingSetValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            TrainingSet(
                features=np.zeros((3, 2)), labels=(L0, L1), feature_names=("a", "b")
            )

    def test_rejects_wrong_name_count(self):
        with pytest.raises(ValueError):
            TrainingSet(features=np.zeros((2, 2)), labels=(L0, L1), feature_names=("a",))

    def test_label_universe_sorted_normal_first(self):
        # bit-string order: 000000 < 010000 < 100000
        universe = label_universe_of((L2, L1, L0, L2))
        assert universe == (L0, L2, L1)
        assert universe[0].is_normal


def leaf_of(table, row, root=0):
    """Index of the leaf a (normalized) row reaches from a root of a node table."""
    k = root
    while table.feature[k] >= 0:
        k = table.left[k] if row[table.feature[k]] <= table.threshold[k] else table.right[k]
    return k


class TestSingleTree:
    def test_pure_node_becomes_leaf(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        tree = train_tree(X, (L0, L0), m_try=1, rng=np.random.default_rng(0))
        assert tree.feature.tolist() == [-1]
        assert label_universe_of((L0, L0))[tree.leaf_code[0]] == L0

    def test_separable_data_fits_exactly(self):
        rng = np.random.default_rng(1)
        ts = blob_set(rng)
        tree = train_tree(
            np.asarray(ts.features), ts.labels, m_try=3, rng=np.random.default_rng(2)
        )
        universe = label_universe_of(ts.labels)
        # walk every training row through the tree
        for row, lab in zip(ts.features, ts.labels):
            assert universe[tree.leaf_code[leaf_of(tree, row)]] == lab

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(3)
        ts = blob_set(rng)
        tree = train_tree(
            np.asarray(ts.features),
            ts.labels,
            m_try=3,
            rng=np.random.default_rng(0),
            max_depth=1,
        )
        # preorder puts every child after its parent
        depth = np.zeros(tree.feature.size, dtype=int)
        for k in np.flatnonzero(tree.feature >= 0):
            depth[tree.left[k]] = depth[tree.right[k]] = depth[k] + 1
        assert depth.max() <= 1

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(4)
        ts = blob_set(rng, n_per_class=20)
        tree = train_tree(
            np.asarray(ts.features),
            ts.labels,
            m_try=3,
            rng=np.random.default_rng(0),
            min_samples_leaf=5,
        )
        rows_per_leaf = Counter(leaf_of(tree, row) for row in ts.features)
        assert set(rows_per_leaf) == set(np.flatnonzero(tree.feature < 0).tolist())
        assert min(rows_per_leaf.values()) >= 5

    def test_split_between_adjacent_floats_sends_the_upper_row_right(self):
        # the midpoint of a value and the next float up rounds to the upper
        # value, which would send both rows left again and again
        below = np.nextafter(1.0, 0.0)
        tree = train_tree(
            np.array([[below], [1.0]]), (L0, L1), m_try=1, rng=np.random.default_rng(0),
            max_depth=5,
        )
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.threshold[0] == below
        assert tree.leaf_code.tolist() == [-1, 0, 1]

    def test_node_without_gain_becomes_leaf(self):
        # XOR: every cut leaves both sides as mixed as the node
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]] * 3)
        tree = train_tree(X, (L0, L0, L1, L1) * 3, m_try=2, rng=np.random.default_rng(0))
        assert tree.feature.tolist() == [-1]


def reference_tree(X, codes, sample, n_classes, m_try, max_depth, min_leaf, rng):
    """(feature, threshold, leaf_code) of each node of one tree, grown one
    node at a time in preorder: the grower that lockstep growth replaced,
    kept as its reference."""
    n_features = X.shape[1]
    nodes = []
    stack = [(sample, 0)]
    while stack:
        idx, depth = stack.pop()
        counts = np.bincount(codes[idx], minlength=n_classes).astype(float)
        n = idx.size
        limited = max_depth is not None and depth >= max_depth
        if counts.max() == n or limited or n < 2 * min_leaf or n < 2:
            nodes.append((-1, 0.0, int(np.argmax(counts))))
            continue
        feats = range(n_features)
        if m_try < n_features:
            feats = np.sort(rng.choice(n_features, size=m_try, replace=False))
        p = counts / n
        parent_gini = 1.0 - float(np.sum(p * p))
        best_gain, best = 0.0, None
        for f in feats:
            v = X[idx, f]
            order = np.argsort(v, kind="stable")
            vs, ys = v[order], codes[idx][order]
            change = np.nonzero(vs[1:] != vs[:-1])[0]
            change = change[(change + 1 >= min_leaf) & (n - change - 1 >= min_leaf)]
            if change.size == 0:
                continue
            cum = np.zeros((n, n_classes))
            cum[np.arange(n), ys] = 1.0
            np.cumsum(cum, axis=0, out=cum)
            left_counts = cum[change]
            left_n = (change + 1).astype(float)
            right_counts = counts - left_counts
            right_n = n - left_n
            gini_left = 1.0 - np.sum(np.square(left_counts / left_n[:, None]), axis=1)
            gini_right = 1.0 - np.sum(np.square(right_counts / right_n[:, None]), axis=1)
            gains = parent_gini - (left_n * gini_left + right_n * gini_right) / n
            j = int(np.argmax(gains))
            if gains[j] > best_gain:
                a, b = vs[change[j]], vs[change[j] + 1]
                mid = (a + b) / 2.0  # rounds up to b only when b is the float after a
                best_gain, best = float(gains[j]), (f, mid if mid < b else a)
        if best is None or best_gain <= forest._MIN_GAIN:
            nodes.append((-1, 0.0, int(np.argmax(counts))))
            continue
        f, thr = best
        go_left = X[idx, f] <= thr
        nodes.append((int(f), float(thr), -1))
        stack += [(idx[~go_left], depth + 1), (idx[go_left], depth + 1)]
    return nodes


def many_class_set(rng, n_classes=12, n_per_class=25):
    """Overlapping clusters of many fault classes, some features on a grid."""
    labels = default_class_labels()[:n_classes]
    X = np.concatenate(
        [rng.normal(loc=rng.uniform(0, 3, 3), size=(n_per_class, 3)) for _ in labels]
    )
    X[:, 2] = np.round(X[:, 2] * 2) / 2
    y = tuple(lab for lab in labels for _ in range(n_per_class))
    return TrainingSet(features=X, labels=y, feature_names=("i_a", "i_b", "i_c"))


class TestLockstepGrowth:
    @pytest.mark.parametrize(
        "make_set, params",
        [
            (
                lambda: blob_set(np.random.default_rng(30), spread=1.5),
                ForestParams(n_trees=6, seed=1),
            ),
            (lambda: tie_set(np.random.default_rng(31)), ForestParams(n_trees=6, m_try=2, seed=2)),
            (
                lambda: tie_set(np.random.default_rng(32)),
                ForestParams(n_trees=6, m_try=1, max_depth=3, min_samples_leaf=4, seed=3),
            ),
            (lambda: many_class_set(np.random.default_rng(33)), ForestParams(n_trees=6, seed=4)),
            (
                lambda: many_class_set(np.random.default_rng(34)),
                ForestParams(n_trees=6, m_try=2, max_depth=4, seed=5),
            ),
        ],
        ids=["blobs", "ties", "ties-limits", "many-classes", "many-classes-limits"],
    )
    def test_forest_equals_trees_grown_one_node_at_a_time(self, make_set, params):
        ts = make_set()
        model = train_forest(ts, params)
        X = normalize_apply(model.scaler, ts.features)
        codes = np.array([model.label_universe.index(lab) for lab in ts.labels])
        m_try = params.resolved_m_try(X.shape[1])
        nodes = []
        for t in range(params.n_trees):
            rng = tree_rng(params.seed, t)
            sample = bootstrap_sample(len(X), len(X), rng)
            nodes += reference_tree(
                X, codes, sample, len(model.label_universe), m_try,
                params.max_depth, params.min_samples_leaf, rng,
            )
        feature, threshold, leaf_code = map(np.array, zip(*nodes))
        assert np.array_equal(model.nodes.feature, feature)
        assert np.array_equal(model.nodes.threshold, threshold)
        assert np.array_equal(model.nodes.leaf_code, leaf_code)


def reference_children(feature):
    """Child links by recursive descent over whole preorder trees laid end to end."""
    left, right = list(range(len(feature))), list(range(len(feature)))

    def past_subtree(k):
        if feature[k] < 0:
            return k + 1
        left[k] = k + 1
        right[k] = past_subtree(k + 1)
        return past_subtree(right[k])

    k = 0
    while k < len(feature):
        k = past_subtree(k)
    return left, right


def random_preorder_tree(rng, depth=0):
    """Feature column of a random full binary tree in preorder."""
    if depth == 8 or rng.random() < 0.35:
        return [-1]
    left, right = random_preorder_tree(rng, depth + 1), random_preorder_tree(rng, depth + 1)
    return [int(rng.integers(0, 3)), *left, *right]


class TestPreorderChildren:
    """Child links derived from the feature column against recursive descent."""

    @pytest.mark.parametrize(
        "feature",
        [
            [-1],  # a single leaf
            [0, 1, 2, -1, -1, -1, -1],  # left-deep
            [0, -1, 1, -1, 2, -1, -1],  # right-deep
            [-1, 0, -1, -1, 2, 1, -1, -1, -1, -1],  # stacked: leaf, stump, left-deep, leaf
        ],
    )
    def test_small_tables_match_reference(self, feature):
        left, right = forest._preorder_children(np.array(feature))
        assert (left.tolist(), right.tolist()) == reference_children(feature)

    def test_stacked_random_trees_match_reference(self):
        rng = np.random.default_rng(9)
        feature = [f for _ in range(40) for f in random_preorder_tree(rng)]
        left, right = forest._preorder_children(np.array(feature))
        assert (left.tolist(), right.tolist()) == reference_children(feature)

    def test_trained_forest_links_match_reference(self):
        model = train_forest(blob_set(np.random.default_rng(10)), ForestParams(n_trees=5, seed=3))
        left, right = reference_children(model.nodes.feature.tolist())
        assert model.nodes.left.tolist() == left
        assert model.nodes.right.tolist() == right
        loaded = model_from_lines(model_to_lines(model))
        assert all(np.array_equal(a, b) for a, b in zip(loaded.nodes, model.nodes))
        assert np.array_equal(loaded.roots, model.roots)


class TestForestParams:
    def test_default_m_try_is_sqrt_floor(self):
        assert ForestParams(n_trees=1).resolved_m_try(3) == 1
        assert ForestParams(n_trees=1).resolved_m_try(36) == 6
        assert ForestParams(n_trees=1, m_try=2).resolved_m_try(3) == 2

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ForestParams(n_trees=0)
        with pytest.raises(ValueError):
            ForestParams(n_trees=1, m_try=0)
        with pytest.raises(ValueError):
            ForestParams(n_trees=1, min_samples_leaf=0)


class TestForestTraining:
    def test_accuracy_on_separable_blobs(self):
        ts = blob_set(np.random.default_rng(5))
        model = train_forest(ts, ForestParams(n_trees=16, seed=1))
        pred = predict_batch(model, np.asarray(ts.features))
        assert np.mean([p == t for p, t in zip(pred, ts.labels)]) == 1.0

    def test_seeded_training_is_reproducible(self):
        ts = blob_set(np.random.default_rng(6))
        a = train_forest(ts, ForestParams(n_trees=8, seed=9))
        b = train_forest(ts, ForestParams(n_trees=8, seed=9))
        assert model_to_lines(a) == model_to_lines(b)

    def test_different_seeds_differ(self):
        ts = blob_set(np.random.default_rng(6))
        a = train_forest(ts, ForestParams(n_trees=8, seed=9))
        b = train_forest(ts, ForestParams(n_trees=8, seed=10))
        assert model_to_lines(a) != model_to_lines(b)

    def test_parallel_equals_sequential(self):
        ts = blob_set(np.random.default_rng(7))
        seq = train_forest(ts, ForestParams(n_trees=12, seed=3), n_jobs=1)
        par = train_forest(ts, ForestParams(n_trees=12, seed=3), n_jobs=2)
        assert model_to_lines(seq) == model_to_lines(par)

    def test_parallel_equals_sequential_across_blocks(self, monkeypatch):
        ts = blob_set(np.random.default_rng(7), spread=1.2)
        one_block = model_to_lines(train_forest(ts, ForestParams(n_trees=25, seed=3)))
        # blocks of 10, 10 and 5 trees, in-process and over two workers
        monkeypatch.setattr(forest, "_GROW_ENTRIES", 10 * ts.features.size)
        seq = train_forest(ts, ForestParams(n_trees=25, seed=3), n_jobs=1)
        par = train_forest(ts, ForestParams(n_trees=25, seed=3), n_jobs=2)
        assert model_to_lines(seq) == model_to_lines(par) == one_block

    def test_per_tree_rng_isolated_by_index(self):
        a = tree_rng(5, 0).integers(0, 1000, 4)
        b = tree_rng(5, 1).integers(0, 1000, 4)
        assert not np.array_equal(a, b)

    def test_rejects_single_class(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError):
            train_forest(
                TrainingSet(features=X, labels=(L0,) * 4, feature_names=("a", "b")),
                ForestParams(n_trees=2),
            )

    def test_normalization_invariance_with_power_of_two_scale(self):
        # scaling a column by a power of two rescales max-abs exactly,
        # so normalized values and therefore every split are unchanged
        ts = blob_set(np.random.default_rng(8))
        scaled = np.array(ts.features, copy=True)
        scaled[:, 1] *= 8.0
        ts_scaled = TrainingSet(
            features=scaled, labels=ts.labels, feature_names=ts.feature_names
        )
        a = train_forest(ts, ForestParams(n_trees=6, seed=2))
        b = train_forest(ts_scaled, ForestParams(n_trees=6, seed=2))
        test = np.asarray(ts.features)[::7]
        test_scaled = np.array(test, copy=True)
        test_scaled[:, 1] *= 8.0
        assert list(predict_batch(a, test)) == list(predict_batch(b, test_scaled))


def forest_lines(*trees):
    """A one-feature model file whose tree t holds the node lines trees[t]."""
    lines = [
        "trifault-forest 1",
        f"n_trees {len(trees)}",
        "n_features 1",
        "feature_names f",
        "scaler 1",
        "labels 000000 100000",
        "seed 0",
        "m_try none",
        "max_depth none",
        "min_samples_leaf 1",
    ]
    for t, nodes in enumerate(trees):
        lines += [f"tree {t}", *nodes]
    return lines + ["end"]


def single_leaf_forest(*leaf_labels):
    """A one-feature model whose tree t is a single leaf voting leaf_labels[t]."""
    return model_from_lines(forest_lines(*([f"L {label}"] for label in leaf_labels)))


class TestVoting:
    def test_predict_returns_vote_counts(self):
        ts = blob_set(np.random.default_rng(11))
        model = train_forest(ts, ForestParams(n_trees=10, seed=0))
        label, votes = predict(model, np.asarray(ts.features)[0])
        assert sum(votes.values()) == 10
        assert votes[label] == max(votes.values())

    def test_tie_breaks_by_sorted_label_order(self):
        # two rows of each class at the same point force split-free leaves;
        # a 1-vs-1 forest of stumps trained on conflicting data lands ties
        X = np.array([[0.0], [0.0]])
        ts = TrainingSet(features=X, labels=(L0, L1), feature_names=("f",))
        model = train_forest(ts, ForestParams(n_trees=2, seed=0))
        label, votes = predict(model, np.array([0.0]))
        # identical feature values leave no split; every tree's leaf holds
        # a bootstrap mix and ties inside a leaf resolve to the first
        # label in sorted order
        assert label == min(votes, key=lambda lab: (-votes[lab], lab))

    def test_even_vote_tie_prefers_normal(self):
        # four single-leaf trees voting 2-2 between the all-zero label
        # and a fault label: the all-zero label sorts first and wins
        model = single_leaf_forest("000000", "100000", "000000", "100000")
        label, votes = predict(model, np.array([0.5]))
        assert votes == {L0: 2, L1: 2}
        assert label == L0

    def test_batch_matches_single(self):
        ts = blob_set(np.random.default_rng(12))
        model = train_forest(ts, ForestParams(n_trees=8, seed=1))
        rows = np.asarray(ts.features)[::11]
        batch = predict_batch(model, rows)
        for k, row in enumerate(rows):
            assert predict(model, row)[0] == batch[k]

    def test_rejects_wrong_width(self):
        ts = blob_set(np.random.default_rng(13))
        model = train_forest(ts, ForestParams(n_trees=2, seed=1))
        with pytest.raises(ValueError):
            predict_batch(model, np.zeros((2, 5)))


class TestBlockedWalk:
    """The tree-block walk against a per-row, per-tree reference walk."""

    @pytest.fixture(scope="class")
    def walked(self):
        # 37 trees: two full blocks and a partial one; 9000 rows: more
        # than one chunk of (row, tree) pairs
        ts = blob_set(np.random.default_rng(21), spread=1.2)
        model = train_forest(ts, ForestParams(n_trees=37, seed=4))
        X = np.random.default_rng(22).uniform(-2.0, 8.0, size=(9000, 3))
        X_norm = normalize_apply(model.scaler, X)
        counts = np.zeros((len(X), len(model.label_universe)), dtype=int)
        for root in model.roots:
            for i, row in enumerate(X_norm):
                counts[i, model.nodes.leaf_code[leaf_of(model.nodes, row, root)]] += 1
        return model, X, counts

    def test_full_counts_match_reference(self, walked):
        model, X, counts = walked
        assert np.array_equal(_vote_codes(model, X), counts)

    def test_labels_match_reference_majority(self, walked):
        model, X, counts = walked
        # argmax takes the first maximum: the sorted-label tie-break
        expected = [model.label_universe[k] for k in np.argmax(counts, axis=1)]
        assert predict_batch(model, X) == expected

    def test_predict_counts_sum_to_tree_count(self, walked):
        model, X, _ = walked
        for row in X[::1000]:
            assert sum(predict(model, row)[1].values()) == 37

    def test_empty_input_gives_no_labels(self, walked):
        model, _, _ = walked
        assert predict_batch(model, np.empty((0, 3))) == []

    def test_margin_equal_to_trees_left_is_not_decided(self):
        # after the first 16-tree block the fault label leads by 16 with
        # 16 trees left; those all vote healthy, and the 16-16 tie goes
        # to the healthy label, which sorts first
        model = single_leaf_forest(*["100000"] * 16, *["000000"] * 16)
        assert predict_batch(model, np.zeros((1, 1))) == [L0]
        assert predict(model, np.zeros(1)) == (L0, {L0: 16, L1: 16})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_rows(self, walked, bad):
        model, _, _ = walked
        rows = np.zeros((3, 3))
        rows[1, 0] = bad
        with pytest.raises(ValueError, match="feature row 1 is not finite"):
            predict_batch(model, rows)
        with pytest.raises(ValueError, match="feature row 0 is not finite"):
            predict(model, rows[1])


def one_tree_lines(*node_lines):
    """A one-feature, one-tree model file holding the given node lines."""
    return forest_lines(node_lines)


class TestPersistence:
    def test_round_trip_preserves_predictions_and_bytes(self, tmp_path):
        ts = blob_set(np.random.default_rng(14))
        model = train_forest(ts, ForestParams(n_trees=6, seed=4))
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert model_to_lines(loaded) == model_to_lines(model)
        rows = np.asarray(ts.features)
        assert list(predict_batch(loaded, rows)) == list(predict_batch(model, rows))
        save_model(loaded, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    def test_rejects_unsupported_version(self):
        lines = ["trifault-forest 99"]
        with pytest.raises(ModelFormatError, match="unsupported format version"):
            model_from_lines(lines)

    def test_rejects_truncated_file(self):
        ts = blob_set(np.random.default_rng(15))
        model = train_forest(ts, ForestParams(n_trees=2, seed=0))
        lines = model_to_lines(model)
        with pytest.raises(ModelFormatError):
            model_from_lines(lines[:-3])

    def test_rejects_garbled_node_line(self):
        ts = blob_set(np.random.default_rng(16))
        model = train_forest(ts, ForestParams(n_trees=1, seed=0))
        lines = model_to_lines(model)
        bad = [ln if not ln.startswith(("I ", "L ")) else "X nonsense" for ln in lines]
        with pytest.raises(ModelFormatError):
            model_from_lines(bad)

    def test_rejects_negative_feature_index(self):
        with pytest.raises(ModelFormatError, match="feature index"):
            model_from_lines(one_tree_lines("I -1 0.5", "L 000000", "L 100000"))

    def test_rejects_feature_index_past_width(self):
        with pytest.raises(ModelFormatError, match="feature index"):
            model_from_lines(one_tree_lines("I 5 0.5", "L 000000", "L 100000"))

    def test_rejects_nan_threshold(self):
        with pytest.raises(ModelFormatError, match="threshold"):
            model_from_lines(one_tree_lines("I 0 nan", "L 000000", "L 100000"))

    def test_rejects_leaf_label_outside_header(self):
        with pytest.raises(ModelFormatError, match="labels header"):
            model_from_lines(one_tree_lines("I 0 0.5", "L 000000", "L 010000"))

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-2"])
    def test_rejects_scaler_that_is_not_finite_and_positive(self, value):
        lines = one_tree_lines("L 000000")
        lines[4] = f"scaler {value}"
        with pytest.raises(ModelFormatError, match="scaler"):
            model_from_lines(lines)

    def test_rejects_tree_cut_short_before_next_marker(self):
        with pytest.raises(ModelFormatError, match="'tree 1'"):
            model_from_lines(forest_lines(["I 0 0.5", "L 000000"], ["L 100000"]))

    def test_rejects_node_after_complete_tree(self):
        lines = forest_lines(["L 000000", "L 100000"], ["L 000000"])
        with pytest.raises(ModelFormatError, match="expected 'tree 1', got 'L 100000'"):
            model_from_lines(lines)
        with pytest.raises(ModelFormatError, match="missing end marker"):
            model_from_lines(one_tree_lines("L 000000", "L 100000"))

    def test_rejects_wrong_tree_index(self):
        lines = forest_lines(["L 000000"], ["L 100000"])
        lines[lines.index("tree 1")] = "tree 2"
        with pytest.raises(ModelFormatError, match="expected 'tree 1', got 'tree 2'"):
            model_from_lines(lines)

    @pytest.mark.parametrize("bad", ["I 0", "I 0 0.5 9", "L", "L 000000 100000"])
    def test_rejects_node_line_with_wrong_field_count(self, bad):
        with pytest.raises(ModelFormatError, match=repr(bad)):
            model_from_lines(one_tree_lines("I 0 0.5", bad, "L 100000"))

    @pytest.mark.parametrize("bad", ["I x 0.5", "I 1.0 0.5", "I 0 x"])
    def test_rejects_non_number_in_internal_node(self, bad):
        with pytest.raises(ModelFormatError, match=f"bad tree node line: {bad!r}"):
            model_from_lines(one_tree_lines(bad, "L 000000", "L 100000"))

    def test_rejects_missing_end(self):
        lines = one_tree_lines("I 0 0.5", "L 000000", "L 100000")
        with pytest.raises(ModelFormatError, match="missing end marker"):
            model_from_lines(lines[:-1])
        with pytest.raises(ModelFormatError, match="missing end marker"):
            model_from_lines(lines[:-1] + ["tree 1"])

    @pytest.mark.parametrize(
        "k, line",
        [
            (1, ""),
            (2, ""),
            (1, "n_trees x"),
            (1, "n_trees 0"),
            (2, "n_features x"),
            (4, "scaler abc"),
            (5, "labels 00000x"),
            (6, "seed x"),
            (6, "seed -1"),
            (7, "m_try x"),
            (7, "m_try 0"),
            (8, "max_depth 2.5"),
            (8, "max_depth 0"),
            (9, "min_samples_leaf x"),
            (9, "min_samples_leaf 0"),
        ],
    )
    def test_rejects_bad_header_line(self, k, line):
        lines = one_tree_lines("L 000000")
        lines[k] = line
        with pytest.raises(ModelFormatError, match=re.escape(repr(line))):
            model_from_lines(lines)

    def test_rejects_forest_without_features(self):
        lines = one_tree_lines("L 000000")
        lines[2:5] = ["n_features 0", "feature_names", "scaler"]
        with pytest.raises(ModelFormatError, match="'n_features 0'"):
            model_from_lines(lines)

    @pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
    def test_trainer_reproduces_golden_model(self, name):
        make_set, params = GOLDEN_MODELS[name]
        ts = make_set()
        model = train_forest(ts, params)
        golden = (DATA / name).read_text(encoding="ascii").splitlines()
        assert model_to_lines(model) == golden
        loaded = load_model(DATA / name)
        assert model_to_lines(loaded) == golden
        rows = np.concatenate([ts.features, np.random.default_rng(21).uniform(-2, 8, (200, 3))])
        assert predict_batch(loaded, rows) == predict_batch(model, rows)


class TestCrossValidation:
    def test_stratified_folds_partition_all_rows(self):
        labels = (L0,) * 10 + (L1,) * 7 + (L2,) * 8
        folds = stratified_folds(labels, 5, np.random.default_rng(0))
        seen = np.concatenate(folds)
        assert sorted(seen) == list(range(25))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 3

    def test_fold_class_balance(self):
        labels = (L0,) * 20 + (L1,) * 20
        folds = stratified_folds(labels, 4, np.random.default_rng(1))
        for fold in folds:
            n0 = sum(1 for i in fold if labels[i] == L0)
            assert n0 == 5

    def test_cross_validate_result_shape(self):
        ts = blob_set(np.random.default_rng(17), n_per_class=30)
        result = cross_validate(ts, ForestParams(n_trees=6, seed=0), k_folds=5)
        assert len(result.fold_accuracies) == 5
        assert result.mean_accuracy == pytest.approx(
            float(np.mean(result.fold_accuracies))
        )
        assert result.confusion.shape == (3, 3)
        assert result.confusion.sum() == 90
        assert result.mean_accuracy > 0.9

    def test_rejects_bad_fold_count(self):
        ts = blob_set(np.random.default_rng(18), n_per_class=2)
        with pytest.raises(ValueError):
            cross_validate(ts, ForestParams(n_trees=2), k_folds=1)

    def test_cross_validate_deterministic(self):
        ts = blob_set(np.random.default_rng(19))
        a = cross_validate(ts, ForestParams(n_trees=4, seed=2), k_folds=3)
        b = cross_validate(ts, ForestParams(n_trees=4, seed=2), k_folds=3)
        assert a.fold_accuracies == b.fold_accuracies
        assert np.array_equal(a.confusion, b.confusion)
