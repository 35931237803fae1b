"""From-scratch random forest over fault-labeled feature rows.

Bagged CART trees with Gini splits. Rows are normalized per feature by
the training maximum absolute value, each tree trains on a bootstrap
resample, and each split considers m_try features drawn without
replacement. Determinism rules: every tree's RNG is derived from
(seed, tree index) only, so parallel and sequential training coincide;
split ties go to the lower feature index then the lower threshold;
leaf pluralities and forest votes break ties in sorted-label order,
which puts the all-zero healthy label first.

A tree is a node table: arrays ``feature``, ``threshold``, ``left``,
``right`` and ``leaf_code`` with one entry per node in preorder. The
child links are derived from the preorder, not built: growth, the
stacked forest (every tree end to end, a root offset per tree) and the
loader all take them from ``feature`` alone. The v1 model file is one
text line per table entry, and loading parses it in bulk.

Inference walks the trees in blocks of 16. Within a block, every
(row, tree) pair steps down together, ordered tree by tree so that one
step reads only that block's nodes; a pair leaves the walk at its leaf,
and the block's votes are added with one bincount. Rows go through in
chunks that keep at most 2**17 pairs alive. When only labels are
wanted, a row stops after any block where its leading vote beats the
runner-up by more than the number of trees not yet walked: even if
every remaining tree voted for one other label, that label would end
below the leader, so the argmax cannot change. A margin equal to the
trees left keeps the row walking, because a tie would go to the label
that sorts first, which may be the runner-up.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .simulate import FaultLabel

MODEL_FORMAT_NAME = "trifault-forest"
MODEL_FORMAT_VERSION = 1
# gains below this are treated as float jitter, not a real improvement
_MIN_GAIN = 1e-12
# inference walks the trees this many at a time ...
_TREE_BLOCK = 16
# ... over row chunks holding at most this many (row, tree) pairs
_MAX_PAIRS = 1 << 17


class ModelFormatError(ValueError):
    """Raised for malformed or unsupported model files."""


@dataclass(frozen=True)
class ForestParams:
    """Training controls.

    m_try defaults to floor(sqrt(n_features)) when None. max_depth None
    means unlimited; a node at the depth limit becomes a leaf.
    """

    n_trees: int = 264
    m_try: int | None = None
    max_depth: int | None = None
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.m_try is not None and self.m_try < 1:
            raise ValueError("m_try must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def resolved_m_try(self, n_features: int) -> int:
        m = self.m_try if self.m_try is not None else max(1, int(math.isqrt(n_features)))
        if m > n_features:
            raise ValueError(f"m_try={m} exceeds feature count {n_features}")
        return m


class NodeTable(NamedTuple):
    """Tree nodes in preorder, one array entry per node.

    An internal node has feature >= 0 and sends a normalized row left
    when its value is <= threshold; its leaf_code is -1. A leaf has
    feature -1, votes for label code leaf_code, and its left and right
    point at itself. Child indices count from the start of the table.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_code: np.ndarray


def _preorder_children(feature: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Child links of whole trees laid out in preorder, one after another.

    Count the subtrees still owed before each node: +1 per internal node,
    -1 per leaf. Inside a node's left subtree the count stays above its
    value at the node and returns to it right after, so the right child
    is the next node with the same count; the left child is the next
    node, and a leaf points at itself. Each tree lowers the count by one.
    """
    internal = feature >= 0
    step = np.where(internal, 1, -1)
    order = np.argsort(np.cumsum(step) - step, kind="stable")
    node = np.arange(feature.size)
    right = node.copy()
    before = order[:-1]
    opens = internal[before]
    right[before[opens]] = order[1:][opens]
    return np.where(internal, node + 1, node), right


@dataclass(frozen=True)
class TrainingSet:
    """Feature rows plus their fault labels."""

    features: np.ndarray
    labels: tuple[FaultLabel, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        X = np.asarray(self.features, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("features must be a non-empty (rows, n_features) array")
        if len(self.labels) != X.shape[0]:
            raise ValueError("labels must match the number of feature rows")
        if len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names must match the feature width")
        object.__setattr__(self, "features", X)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class RandomForestModel:
    """Every tree's node table stacked into one. Tree t occupies the
    entries from roots[t] up to the next root, with absolute child
    indices."""

    nodes: NodeTable
    roots: np.ndarray
    feature_names: tuple[str, ...]
    scaler: np.ndarray
    label_universe: tuple[FaultLabel, ...]
    params: ForestParams

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def normalize_fit(features) -> np.ndarray:
    """Per-feature max-abs scaler; an all-zero column scales by 1."""
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be 2-d")
    scaler = np.max(np.abs(X), axis=0)
    scaler[scaler == 0.0] = 1.0
    return scaler


def normalize_apply(scaler, features) -> np.ndarray:
    scaler = np.asarray(scaler, dtype=float)
    if np.any(scaler <= 0):
        raise ValueError("scaler entries must be > 0")
    return np.asarray(features, dtype=float) / scaler


def bootstrap_sample(rows, n: int, rng: np.random.Generator) -> np.ndarray:
    """n row indices drawn uniformly with replacement from rows."""
    n_rows = rows if isinstance(rows, (int, np.integer)) else len(rows)
    if n_rows < 1:
        raise ValueError("cannot bootstrap from an empty row set")
    if n < 1:
        raise ValueError("bootstrap size must be >= 1")
    return rng.integers(0, n_rows, size=n)


def label_universe_of(labels) -> tuple[FaultLabel, ...]:
    return tuple(sorted(set(labels)))


def _encode_labels(labels, universe) -> np.ndarray:
    code = {lab: k for k, lab in enumerate(universe)}
    return np.fromiter((code[lab] for lab in labels), dtype=np.int64, count=len(labels))


def _gini(counts: np.ndarray, total) -> float:
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def _best_split(X, codes, idx, feature_ids, n_classes, min_leaf, parent_counts):
    """Best (gain, feature, threshold) over midpoint candidates, or None.

    feature_ids must be ascending; with strictly-greater gain comparison
    that realizes the (lower feature, lower threshold) tie-break.
    """
    n = idx.size
    parent_gini = _gini(parent_counts, n)
    node_codes = codes[idx]
    best_gain = 0.0
    best = None
    for f in feature_ids:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = node_codes[order]
        change = np.nonzero(vs[1:] != vs[:-1])[0]
        if min_leaf > 1:
            change = change[(change + 1 >= min_leaf) & (n - change - 1 >= min_leaf)]
        if change.size == 0:
            continue
        cum = np.zeros((n, n_classes))
        cum[np.arange(n), ys] = 1.0
        np.cumsum(cum, axis=0, out=cum)
        left_counts = cum[change]
        left_n = (change + 1).astype(float)
        right_counts = parent_counts - left_counts
        right_n = n - left_n
        gini_left = 1.0 - np.sum(np.square(left_counts / left_n[:, None]), axis=1)
        gini_right = 1.0 - np.sum(np.square(right_counts / right_n[:, None]), axis=1)
        gains = parent_gini - (left_n * gini_left + right_n * gini_right) / n
        j = int(np.argmax(gains))  # first max = lowest threshold
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            best = (f, (vs[change[j]] + vs[change[j] + 1]) / 2.0)
    if best is None or best_gain <= _MIN_GAIN:
        return None
    return best_gain, best[0], best[1]


def _grow_tree(X, codes, root_idx, n_classes, m_try, max_depth, min_leaf, rng) -> NodeTable:
    """Greedy CART growth; nodes are expanded in preorder so the RNG
    stream (one feature draw per split attempt) is reproducible."""
    n_features = X.shape[1]
    nodes = []  # (feature, threshold, leaf_code) in preorder
    stack = [(root_idx, 0)]
    while stack:
        idx, depth = stack.pop()
        counts = np.bincount(codes[idx], minlength=n_classes).astype(float)
        n = idx.size
        if (
            counts.max() == n
            or (max_depth is not None and depth >= max_depth)
            or n < 2 * min_leaf
            or n < 2
        ):
            nodes.append((-1, 0.0, int(np.argmax(counts))))  # first max = sorted-label tie-break
            continue
        if m_try < n_features:
            feats = np.sort(rng.choice(n_features, size=m_try, replace=False))
        else:
            feats = np.arange(n_features)
        split = _best_split(X, codes, idx, feats, n_classes, min_leaf, counts)
        if split is None:
            nodes.append((-1, 0.0, int(np.argmax(counts))))
            continue
        _, f, thr = split
        mask = X[idx, f] <= thr
        nodes.append((int(f), float(thr), -1))
        # push right first so the left subtree is grown first
        stack.append((idx[~mask], depth + 1))
        stack.append((idx[mask], depth + 1))
    feature, threshold, leaf_code = map(np.array, zip(*nodes))
    return NodeTable(feature, threshold, *_preorder_children(feature), leaf_code)


def train_tree(
    features,
    labels,
    m_try: int,
    rng: np.random.Generator,
    max_depth: int | None = None,
    min_samples_leaf: int = 1,
) -> NodeTable:
    """Grow one CART tree on the given rows (already normalized); leaf
    codes index label_universe_of(labels)."""
    X = np.asarray(features, dtype=float)
    universe = label_universe_of(labels)
    codes = _encode_labels(labels, universe)
    if not 1 <= m_try <= X.shape[1]:
        raise ValueError(f"m_try must be in 1..{X.shape[1]}")
    return _grow_tree(
        X, codes, np.arange(X.shape[0]), len(universe), m_try, max_depth, min_samples_leaf, rng
    )


def tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    """The RNG stream owned by one tree; depends only on (seed, index)."""
    return np.random.default_rng([seed, tree_index])


def _train_indexed_tree(X_norm, codes, n_classes, params: ForestParams, index: int) -> NodeTable:
    rng = tree_rng(params.seed, index)
    boot = bootstrap_sample(X_norm.shape[0], X_norm.shape[0], rng)
    m_try = params.resolved_m_try(X_norm.shape[1])
    return _grow_tree(
        X_norm, codes, boot, n_classes, m_try, params.max_depth, params.min_samples_leaf, rng
    )


_WORKER_STATE: dict = {}


def _worker_init(X_norm, codes, n_classes, params):
    _WORKER_STATE.update(X=X_norm, codes=codes, n_classes=n_classes, params=params)


def _worker_train(index: int) -> NodeTable:
    s = _WORKER_STATE
    return _train_indexed_tree(s["X"], s["codes"], s["n_classes"], s["params"], index)


def train_forest(training_set: TrainingSet, params: ForestParams, n_jobs: int = 1) -> RandomForestModel:
    """Train a bagged forest; results are identical for any n_jobs.

    Args:
        training_set: rows to fit; the max-abs scaler is fit from them.
        params: tree counts and stopping controls.
        n_jobs: worker processes; 1 trains in-process.
    """
    ts = training_set
    universe = label_universe_of(ts.labels)
    if len(universe) < 2:
        raise ValueError("training needs at least 2 distinct labels")
    scaler = normalize_fit(ts.features)
    X_norm = normalize_apply(scaler, ts.features)
    codes = _encode_labels(ts.labels, universe)
    n_classes = len(universe)

    if n_jobs > 1 and params.n_trees > 1:
        workers = min(n_jobs, params.n_trees, os.cpu_count() or 1)
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(X_norm, codes, n_classes, params),
        ) as pool:
            tables = list(pool.map(_worker_train, range(params.n_trees), chunksize=8))
    else:
        tables = [
            _train_indexed_tree(X_norm, codes, n_classes, params, i)
            for i in range(params.n_trees)
        ]

    feature, threshold, _, _, leaf_code = (np.concatenate(col) for col in zip(*tables))
    return RandomForestModel(
        nodes=NodeTable(feature, threshold, *_preorder_children(feature), leaf_code),
        roots=np.cumsum([0] + [table.feature.size for table in tables[:-1]]),
        feature_names=ts.feature_names,
        scaler=scaler,
        label_universe=universe,
        params=params,
    )


def _walk_block(X_norm, nodes: NodeTable, child, rows, roots):
    """Walk every (row, tree) pair of one tree block to its leaf.

    Pairs are tree-major, so each step only reads that block's nodes; a
    pair is dropped once it reaches a leaf. Returns the row and the leaf
    label code of every pair.
    """
    feature, threshold, _, _, leaf_code = nodes
    n_features = X_norm.shape[1]
    X_flat = X_norm.ravel()
    row = np.tile(rows, roots.size)
    cur = np.repeat(roots, rows.size)
    done_rows, done_codes = [], []
    while row.size:
        feat = feature[cur]
        leaf = feat < 0
        if leaf.any():
            done_rows.append(row[leaf])
            done_codes.append(leaf_code[cur[leaf]])
            walking = ~leaf
            row, cur, feat = row[walking], cur[walking], feat[walking]
        go_left = X_flat[row * n_features + feat] <= threshold[cur]
        cur = child[2 * cur + go_left]
    return np.concatenate(done_rows), np.concatenate(done_codes)


def _vote_codes(model: RandomForestModel, X_raw, _until_decided: bool = False) -> np.ndarray:
    """(rows, classes) vote counts for raw (unnormalized) feature rows.

    With _until_decided, a row stops being walked once its label can no
    longer change, so its counts may be partial but their argmax is the
    full forest's.
    """
    X = np.asarray(X_raw, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected (rows, {model.n_features}) features")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"feature row {bad[0]} is not finite: {X[bad[0]].tolist()}")
    X_norm = normalize_apply(model.scaler, X)
    # child[2 * node + went_left]
    child = np.stack([model.nodes.right, model.nodes.left], axis=1).ravel()
    n_rows, n_classes, n_trees = X.shape[0], len(model.label_universe), model.n_trees
    votes = np.zeros((n_rows, n_classes), dtype=np.int32)
    chunk_rows = _MAX_PAIRS // _TREE_BLOCK
    for lo in range(0, n_rows, chunk_rows):
        hi = min(lo + chunk_rows, n_rows)
        chunk_votes = votes[lo:hi]
        live = np.arange(lo, hi)
        for b in range(0, n_trees, _TREE_BLOCK):
            roots = model.roots[b : b + _TREE_BLOCK]
            rows, codes = _walk_block(X_norm, model.nodes, child, live, roots)
            chunk_votes += np.bincount(
                (rows - lo) * n_classes + codes, minlength=chunk_votes.size
            ).reshape(chunk_votes.shape)
            if _until_decided:
                # a row whose leader beats the runner-up by more than the
                # trees left is decided; a one-class model never is
                top = np.sort(votes[live], axis=1)[:, -2:]
                live = live[top[:, -1] - top[:, 0] <= n_trees - b - roots.size]
                if not live.size:
                    break
    return votes


def predict_batch(model: RandomForestModel, features) -> list[FaultLabel]:
    """Majority-vote label per row; ties go to the sorted-label order."""
    votes = _vote_codes(model, features, _until_decided=True)
    return [model.label_universe[k] for k in np.argmax(votes, axis=1)]


def predict(model: RandomForestModel, features) -> tuple[FaultLabel, dict[FaultLabel, int]]:
    """Label plus per-label vote counts for one feature row."""
    votes = _vote_codes(model, np.asarray(features, dtype=float).reshape(1, -1))[0]
    counts = {model.label_universe[k]: int(v) for k, v in enumerate(votes) if v}
    return model.label_universe[int(np.argmax(votes))], counts


@dataclass(frozen=True)
class CrossValResult:
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    confusion: np.ndarray
    label_universe: tuple[FaultLabel, ...]


def stratified_folds(labels, k_folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled per-class round-robin assignment into k folds."""
    by_label: dict[FaultLabel, list[int]] = {}
    for i, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(i)
    folds: list[list[int]] = [[] for _ in range(k_folds)]
    offset = 0
    for lab in sorted(by_label):
        idx = np.array(by_label[lab])
        rng.shuffle(idx)
        for j, row in enumerate(idx):
            folds[(offset + j) % k_folds].append(int(row))
        offset += len(idx)
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def cross_validate(training_set: TrainingSet, params: ForestParams, k_folds: int = 5) -> CrossValResult:
    """Stratified k-fold accuracy and pooled confusion matrix."""
    ts = training_set
    if k_folds < 2:
        raise ValueError("k_folds must be >= 2")
    if ts.n_rows < k_folds:
        raise ValueError(f"{ts.n_rows} rows cannot fill {k_folds} folds")
    universe = label_universe_of(ts.labels)
    code_of = {lab: k for k, lab in enumerate(universe)}
    rng = np.random.default_rng([params.seed, 0xF01D])
    folds = stratified_folds(ts.labels, k_folds, rng)

    confusion = np.zeros((len(universe), len(universe)), dtype=np.int64)
    accuracies = []
    all_rows = np.arange(ts.n_rows)
    for fold in folds:
        test_mask = np.zeros(ts.n_rows, dtype=bool)
        test_mask[fold] = True
        train_idx = all_rows[~test_mask]
        sub = TrainingSet(
            features=ts.features[train_idx],
            labels=tuple(ts.labels[i] for i in train_idx),
            feature_names=ts.feature_names,
        )
        model = train_forest(sub, params)
        predicted = predict_batch(model, ts.features[fold])
        truth = [ts.labels[i] for i in fold]
        hits = sum(p == t for p, t in zip(predicted, truth))
        accuracies.append(hits / len(fold))
        for p, t in zip(predicted, truth):
            confusion[code_of[t], code_of[p]] += 1
    return CrossValResult(
        fold_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        confusion=confusion,
        label_universe=universe,
    )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def model_to_lines(model: RandomForestModel) -> list[str]:
    p = model.params
    for name in model.feature_names:
        if any(ch.isspace() for ch in name):
            raise ModelFormatError(f"feature name with whitespace: {name!r}")
    lines = [
        f"{MODEL_FORMAT_NAME} {MODEL_FORMAT_VERSION}",
        f"n_trees {model.n_trees}",
        f"n_features {model.n_features}",
        "feature_names " + " ".join(model.feature_names),
        "scaler " + " ".join(_fmt(s) for s in model.scaler),
        "labels " + " ".join(str(lab) for lab in model.label_universe),
        f"seed {p.seed}",
        f"m_try {'none' if p.m_try is None else p.m_try}",
        f"max_depth {'none' if p.max_depth is None else p.max_depth}",
        f"min_samples_leaf {p.min_samples_leaf}",
    ]
    names = [str(lab) for lab in model.label_universe]
    columns = (model.nodes.feature, model.nodes.threshold, model.nodes.leaf_code)
    nodes = [
        f"I {f} {_fmt(thr)}" if f >= 0 else f"L {names[code]}"
        for f, thr, code in zip(*(col.tolist() for col in columns))
    ]
    bounds = model.roots.tolist() + [len(nodes)]
    for t in range(model.n_trees):
        lines += [f"tree {t}", *nodes[bounds[t] : bounds[t + 1]]]
    return lines + ["end"]


def _header_value(lines: list[str], k: int, key: str) -> str:
    if k >= len(lines):
        raise ModelFormatError(f"missing header line {key!r}")
    parts = lines[k].split(None, 1)
    if parts[0] != key:
        raise ModelFormatError(f"expected header {key!r}, got {lines[k]!r}")
    return parts[1] if len(parts) > 1 else ""


def _refuse_internal(line: str, n_features: int) -> None:
    """Raise for an `I feature threshold` line that cannot be walked."""
    _, f, thr = line.split()
    try:
        f, thr = int(f), float(thr)
    except ValueError:
        raise ModelFormatError(f"bad tree node line: {line!r}") from None
    if not 0 <= f < n_features:
        raise ModelFormatError(f"feature index outside 0..{n_features - 1}: {line!r}")
    if not math.isfinite(thr):
        raise ModelFormatError(f"non-finite threshold: {line!r}")


def _parse_trees(body: list[str], n_trees: int, n_features: int, labels) -> tuple[NodeTable, np.ndarray]:
    """The node table and tree roots held by the lines after the header;
    a line is a node when it reads `I feature threshold` or `L label`."""
    n_fields = np.fromiter(map(len, map(str.split, body)), np.intp, len(body))
    tokens = np.array(" ".join(body).split() + [""], dtype=object)  # "" closes the last line
    first = np.cumsum(n_fields) - n_fields  # each line's first token
    head = tokens[first]
    # +1 for an internal node, -1 for a leaf, 0 for any other line
    step = ((n_fields == 3) & (head == "I")).astype(np.intp) - ((n_fields == 2) & (head == "L"))
    # a tree ends at its first node where the subtrees still owed drop below zero
    owed = np.cumsum(step)
    others = np.append(np.flatnonzero(step == 0), len(body))
    roots, pos = [], 0
    for t in range(n_trees):
        marker = body[pos] if pos < len(body) else None
        if marker != f"tree {t}":
            raise ModelFormatError(f"expected 'tree {t}', got {marker!r}")
        roots.append(pos - t)
        stop = others[np.searchsorted(others, pos, side="right")]
        done = np.flatnonzero(owed[pos + 1 : stop] == owed[pos] - 1)
        if not done.size:
            at = repr(body[stop]) if stop < len(body) else "the end of the file"
            raise ModelFormatError(f"tree {t} is cut short at {at}")
        pos += int(done[0]) + 2
    if body[pos : pos + 1] != ["end"]:
        raise ModelFormatError("missing end marker")

    internal, leaves = np.flatnonzero(step[:pos] > 0), np.flatnonzero(step[:pos] < 0)
    try:
        f = tokens[first[internal] + 1].astype(np.intp)  # int() and float() of each token
        thr = tokens[first[internal] + 2].astype(float)
    except (ValueError, OverflowError):
        walkable = np.zeros(internal.size, dtype=bool)
    else:
        walkable = (f >= 0) & (f < n_features) & np.isfinite(thr)
    for k in internal[~walkable]:
        _refuse_internal(body[k], n_features)
    code_of = {str(lab): k for k, lab in enumerate(labels)}
    codes = np.array([code_of.get(tok, -1) for tok in tokens[first[leaves] + 1].tolist()])
    unknown = leaves[codes < 0]
    if unknown.size:
        raise ModelFormatError(f"leaf label not in the labels header: {body[unknown[0]]!r}")

    feature = np.full(pos, -1, dtype=np.intp)
    threshold = np.zeros(pos)
    leaf_code = np.full(pos, -1, dtype=np.intp)
    feature[internal], threshold[internal], leaf_code[leaves] = f, thr, codes
    feature, threshold, leaf_code = (col[step[:pos] != 0] for col in (feature, threshold, leaf_code))
    return NodeTable(feature, threshold, *_preorder_children(feature), leaf_code), np.array(roots)


def model_from_lines(lines: list[str]) -> RandomForestModel:
    if not lines:
        raise ModelFormatError("empty model text")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MODEL_FORMAT_NAME:
        raise ModelFormatError(f"not a {MODEL_FORMAT_NAME} file: {lines[0]!r}")
    if head[1] != str(MODEL_FORMAT_VERSION):
        raise ModelFormatError(f"unsupported format version {head[1]!r}")
    n_trees = int(_header_value(lines, 1, "n_trees"))
    n_features = int(_header_value(lines, 2, "n_features"))
    feature_names = tuple(_header_value(lines, 3, "feature_names").split())
    scaler = np.array([float(v) for v in _header_value(lines, 4, "scaler").split()])
    labels = tuple(FaultLabel.from_string(v) for v in _header_value(lines, 5, "labels").split())
    seed = int(_header_value(lines, 6, "seed"))
    m_try_text = _header_value(lines, 7, "m_try")
    max_depth_text = _header_value(lines, 8, "max_depth")
    min_leaf = int(_header_value(lines, 9, "min_samples_leaf"))
    if len(feature_names) != n_features or len(scaler) != n_features:
        raise ModelFormatError("feature_names/scaler width disagrees with n_features")
    if not np.all(np.isfinite(scaler) & (scaler > 0)):
        raise ModelFormatError(f"scaler entries must be finite and > 0: {lines[4]!r}")
    params = ForestParams(
        n_trees=n_trees,
        m_try=None if m_try_text == "none" else int(m_try_text),
        max_depth=None if max_depth_text == "none" else int(max_depth_text),
        min_samples_leaf=min_leaf,
        seed=seed,
    )
    nodes, roots = _parse_trees(lines[10:], n_trees, n_features, labels)
    return RandomForestModel(
        nodes=nodes,
        roots=roots,
        feature_names=feature_names,
        scaler=scaler,
        label_universe=labels,
        params=params,
    )


def save_model(model: RandomForestModel, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(model_to_lines(model)))
        fh.write("\n")


def load_model(path) -> RandomForestModel:
    with open(path, "r", encoding="ascii") as fh:
        return model_from_lines(fh.read().splitlines())
