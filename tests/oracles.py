"""Independent reference implementations used to cross-check the library.

The feature oracles are written with plain Python loops and the math
module, deliberately avoiding numpy so that agreement with the library
is evidence of correctness rather than shared code paths. The
walk-table reference is the whole-forest build that the build tree
block by tree block replaced. The split-search reference scores every
boundary cut from a full row of class counts, as the search did before it
scored cuts from integer sums of squared counts.
"""

from __future__ import annotations

import math

import numpy as np

from trifault.forest import (
    _MIN_GAIN,
    NodeTable,
    _preorder_children,
    _ranges,
    _WalkTable,
)


def stats_oracle(window) -> dict[str, float]:
    """The twelve time-domain statistics by direct summation."""
    xs = [float(v) for v in window]
    n = len(xs)
    if n < 2:
        raise ValueError("need at least 2 samples")

    x_max = xs[0]
    x_min = xs[0]
    total = 0.0
    total_sq = 0.0
    total_abs = 0.0
    total_sqrt_abs = 0.0
    for v in xs:
        x_max = max(x_max, v)
        x_min = min(x_min, v)
        total += v
        total_sq += v * v
        total_abs += abs(v)
        total_sqrt_abs += math.sqrt(abs(v))

    mean = total / n
    rms = math.sqrt(total_sq / n)
    mean_abs = total_abs / n
    root_amp = (total_sqrt_abs / n) ** 2

    var = 0.0
    third = 0.0
    fourth = 0.0
    for v in xs:
        d = v - mean
        var += d * d
        third += d * d * d
        fourth += d * d * d * d
    var /= n
    third /= n
    fourth /= n

    return {
        "x_max": x_max,
        "x_min": x_min,
        "x_pp": x_max - x_min,
        "mean": mean,
        "variance": var,
        "std": math.sqrt(var),
        "kurtosis": fourth / rms**4,
        "skewness": third / rms**3,
        "waveform_index": rms / mean_abs,
        "crest_index": x_max / rms,
        "impulse_index": x_max / mean_abs,
        "margin_index": x_max / root_amp,
    }


def haar_pair_oracle(a: float, b: float) -> tuple[float, float]:
    """One average/detail pair of the orthonormal two-tap filter."""
    return (a + b) / math.sqrt(2.0), (a - b) / math.sqrt(2.0)


def dq_oracle(i_a: float, i_b: float, i_c: float) -> tuple[float, float]:
    """Two-axis projection by direct evaluation."""
    return (2.0 * i_a - i_b - i_c) / 3.0, (i_b - i_c) / math.sqrt(3.0)


def sector_area_oracle(radii, angles_deg, closed=False) -> float:
    """Sum of circular-sector areas, unsigned steps capped at 180."""
    pairs = list(zip(radii, angles_deg))
    total = 0.0
    steps = range(len(pairs) - 1) if not closed else range(len(pairs))
    for k in steps:
        r, th = pairs[k]
        th_next = pairs[(k + 1) % len(pairs)][1]
        d = abs(th_next - th) % 360.0
        rho = min(d, 360.0 - d)
        total += math.pi * r * r * rho / 360.0
    return total


# the switches whose open circuit shows in region SI..SVI (region index
# 0..5): each phase's upper switch where it is negative, lower where positive
REGION_SWITCHES = ({2, 3, 6}, {2, 3, 5}, {2, 4, 5}, {1, 4, 5}, {1, 4, 6}, {1, 3, 6})


def reference_walk_table(nodes: NodeTable, roots: np.ndarray) -> _WalkTable:
    """The walk table of a stacked forest, built over every tree at once:
    a root keeps its entry, and the k-th internal node of a tree, in
    preorder, gets its children at entries 2k + 1 and 2k + 2 after the
    root."""
    feature, threshold, leaf_code = nodes
    n = feature.size
    internal = feature >= 0
    root = np.repeat(roots, np.diff(roots, append=n))  # each node's tree root
    before = np.cumsum(internal) - internal  # internal nodes before each node
    split = np.flatnonzero(internal)
    pair = root[split] + 1 + 2 * (before[split] - before[root[split]])
    new = np.empty(n, dtype=np.intp)
    new[roots] = roots
    new[split + 1], new[_preorder_children(feature)[split]] = pair, pair + 1  # left, right
    code = np.int8 if feature.max(initial=0) <= np.iinfo(np.int8).max else np.intp
    table = _WalkTable(np.empty(n, code), np.empty(n), np.empty(n, np.intp), np.empty(n, code))
    table.feature[new] = np.maximum(feature, 0)
    table.threshold[new] = np.where(internal, threshold, np.inf)
    table.first[new] = new  # a leaf points at itself
    table.first[new[split]] = pair
    table.leaf_code[new] = leaf_code
    return table


def reference_best_splits(presort, bag, lo, n_node, counts, feats, min_leaf):
    """forest._best_splits scoring every boundary cut from a row of class
    counts: (feature, threshold) of the best split of each node, or (-1, 0.0)
    for a node whose best gain does not clear _MIN_GAIN, and how many of
    its rows go left with their class counts (0 for such a node).

    Node k owns the rows bag[lo[k] : lo[k] + n_node[k]], in any order;
    counts[k] are its class counts and feats[k] its ascending feature
    draw. A run is one node's rows sorted by one drawn feature: one sort
    of the keys run * n + rank orders every run. The runs lie end to end,
    node by node and features ascending within a node, so the first
    maximum of a node's gains is its lowest feature's lowest threshold.
    A split node's range of the bag is rewritten in its winning run's
    order, so the rows that go left come first.

    Only boundary points are scored, plus the first and last cut of a run
    that the leaf limit allows: a cut inside a stretch of one class has a
    strictly convex gain along the stretch, so it is never the first
    maximum, and dropping it changes no result.
    """
    n_nodes, m_try = feats.shape
    n_classes = counts.shape[1]
    n = presort[0].shape[1]
    sorted_row, sorted_value, sorted_code, rank = (a.ravel() for a in presort)
    run_node = np.repeat(np.arange(n_nodes), m_try)
    run_feature = feats.ravel()
    run_size = n_node[run_node]
    run_end = np.cumsum(run_size) - 1
    run_first = run_end - run_size + 1
    feature_base = np.repeat(run_feature * n, run_size)
    run_base = np.repeat(np.arange(run_size.size) * n, run_size)
    place = rank[feature_base + bag[_ranges(lo[run_node], run_size)]]
    place += run_base
    place.sort()
    # a key less run * n is the row's rank r on f, at f * n + r in the presort
    place += feature_base - run_base
    value = sorted_value[place]
    row_codes = sorted_code[place]
    # a cut falls between two different values of one run
    differs = value[1:] != value[:-1]
    differs[run_end[:-1]] = False
    cut = np.flatnonzero(differs)
    run = np.searchsorted(run_end, cut)
    # a cut is a boundary point when the class changes somewhere from the
    # first row of the value before it to the last row of the value after it
    class_changes = np.zeros(value.size, dtype=np.intp)  # before each row
    np.cumsum(row_codes[1:] != row_codes[:-1], out=class_changes[1:])
    group_first = np.maximum(np.append(0, cut[:-1] + 1), run_first[run])
    group_last = np.minimum(np.append(cut[1:], value.size), run_end[run])
    keep = class_changes[group_last] > class_changes[group_first]
    left_n = cut + 1 - run_first[run]
    node_n = run_size[run]
    if min_leaf > 1:
        # the leaf limit clips a run's cuts to one stretch, whose ends may
        # lie between boundary points: keep them too
        first = np.searchsorted(cut, run_first + min_leaf - 1)
        last = np.searchsorted(cut, run_end - min_leaf, side="right") - 1
        some = first <= last
        keep[first[some]] = keep[last[some]] = True
        keep &= (left_n >= min_leaf) & (node_n - left_n >= min_leaf)
    cut, run, left_n, node_n = cut[keep], run[keep], left_n[keep], node_n[keep]
    best_feature = np.full(n_nodes, -1, dtype=np.intp)
    best_threshold = np.zeros(n_nodes)
    best_left_n = np.zeros(n_nodes, dtype=np.intp)
    best_left = np.zeros((n_nodes, n_classes), dtype=np.intp)
    if not cut.size:
        return best_feature, best_threshold, best_left_n, best_left

    # Exact class counts left of each cut. Count the rows after the
    # previous cut, take away the rows of earlier runs at each run's first
    # cut, and add up; the sums are whole numbers, exact in floats.
    gap = np.zeros(value.size, dtype=np.intp)
    gap[cut + 1] = 1
    np.cumsum(gap, out=gap)  # cuts before each row
    left_counts = np.bincount(gap * n_classes + row_codes, minlength=(cut.size + 1) * n_classes)
    left_counts = left_counts.reshape(-1, n_classes)
    run_cuts = np.searchsorted(run, np.arange(run_size.size + 1))
    cut_runs = np.flatnonzero(run_cuts[:-1] < run_cuts[1:])
    run_counts = counts[run_node]
    earlier = (np.cumsum(run_counts, axis=0) - run_counts)[cut_runs]  # rows before each run
    left_counts[run_cuts[cut_runs]] -= np.diff(earlier, axis=0, prepend=0)
    left_counts = left_counts.astype(np.int32)  # int32 sums run faster than int64 or float ones
    np.cumsum(left_counts, axis=0, out=left_counts)
    left_counts = left_counts[:-1]

    # the float operations of the per-node Gini search, one row per cut,
    # done in place
    node = run_node[run]
    p = counts / n_node[:, None]
    parent_gini = 1.0 - np.sum(p * p, axis=1)
    left = left_counts.astype(float)
    right = counts.astype(float)[node]
    right -= left
    left_size = left_n.astype(float)
    right_size = node_n - left_size
    np.square(np.divide(left, left_size[:, None], out=left), out=left)
    np.square(np.divide(right, right_size[:, None], out=right), out=right)
    gini_left = 1.0 - np.sum(left, axis=1)
    gini_right = 1.0 - np.sum(right, axis=1)
    gains = parent_gini[node] - (left_size * gini_left + right_size * gini_right) / node_n

    node_cuts = np.searchsorted(node, np.arange(n_nodes + 1))
    nodes = np.flatnonzero(node_cuts[:-1] < node_cuts[1:])
    first = node_cuts[nodes]
    best = np.maximum.reduceat(gains, first)
    at_best = np.flatnonzero(gains == np.repeat(best, node_cuts[nodes + 1] - first))
    win = at_best[np.searchsorted(at_best, first)]  # first maximum per node
    found = best > _MIN_GAIN
    nodes, win = nodes[found], win[found]
    winner, win_run = cut[win], run[win]
    best_feature[nodes] = run_feature[win_run]
    # the midpoint of adjacent floats a < b can round up to b, and then
    # `<= threshold` would send every row left; a is the threshold then
    below, above = value[winner], value[winner + 1]
    mid = (below + above) / 2.0
    best_threshold[nodes] = np.where(mid < above, mid, below)
    best_left_n[nodes] = left_n[win]
    best_left[nodes] = left_counts[win]
    if nodes.size:
        winning_runs = place[_ranges(run_first[win_run], n_node[nodes])]
        bag[_ranges(lo[nodes], n_node[nodes])] = sorted_row[winning_runs]
    return best_feature, best_threshold, best_left_n, best_left
