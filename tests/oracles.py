"""Independent reference implementations used to cross-check the library.

The feature oracles are written with plain Python loops and the math
module, deliberately avoiding numpy so that agreement with the library
is evidence of correctness rather than shared code paths. The model-file
reference is the whole-text parser that chunked loading replaced, and
the walk-table reference is the whole-forest build that the build tree
block by tree block replaced.
"""

from __future__ import annotations

import math

import numpy as np

from trifault.forest import (
    _HEADER,
    MODEL_FORMAT_NAME,
    MODEL_FORMAT_VERSION,
    ForestParams,
    ModelFormatError,
    NodeTable,
    RandomForestModel,
    _preorder_children,
    _read_header,
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


def _reference_refuse_internal(line: str, n_features: int) -> None:
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


def _reference_parse_trees(body: list[str], n_trees: int, n_features: int, labels) -> tuple[NodeTable, np.ndarray]:
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
        _reference_refuse_internal(body[k], n_features)
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
    # a model holds int8 leaf codes, and int8 feature codes up to 128 features
    code = np.int8 if n_features <= 128 else np.intp
    return NodeTable(feature.astype(code), threshold, leaf_code.astype(np.int8)), np.array(roots)


def reference_model_from_lines(lines: list[str]) -> RandomForestModel:
    """The model held by the whole text of a v1 model file, its lines in
    one list; the text after the end marker is not read."""
    if not lines:
        raise ModelFormatError("empty model text")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MODEL_FORMAT_NAME:
        raise ModelFormatError(f"not a {MODEL_FORMAT_NAME} file: {lines[0]!r}")
    if head[1] != str(MODEL_FORMAT_VERSION):
        raise ModelFormatError(f"unsupported format version {head[1]!r}")
    header = _read_header(lines)
    n_trees, n_features, scaler = header["n_trees"], header["n_features"], header["scaler"]
    if len(header["feature_names"]) != n_features or len(scaler) != n_features:
        raise ModelFormatError("feature_names/scaler width disagrees with n_features")
    params = ForestParams(**{key: header[key] for key in ForestParams.__dataclass_fields__})
    nodes, roots = _reference_parse_trees(lines[1 + len(_HEADER) :], n_trees, n_features, header["labels"])
    return RandomForestModel(
        nodes=nodes,
        roots=roots,
        feature_names=header["feature_names"],
        scaler=scaler,
        label_universe=header["labels"],
        params=params,
    )


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
